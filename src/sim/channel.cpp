#include "sim/channel.hpp"

#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dyncon::sim {

namespace {

// The stable-coin idiom (fault.cpp): retransmit jitter is a pure function
// of (link, seq, attempt), so replays stay byte-identical and no RNG draw
// order is perturbed — yet no backoff clock can phase-lock onto a periodic
// adversary.  Without it, a crash window whose period divides the capped
// RTO eats every retry of an unlucky frame (the retransmits land at the
// same phase offset forever) and the channel falsely declares the link
// dead.
std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

SimTime retransmit_jitter(NodeId from, NodeId to, std::uint64_t seq,
                          std::uint64_t attempt, SimTime rto) {
  const std::uint64_t h =
      mix(mix(from ^ 0x6a09e667f3bcc909ULL) ^ mix(to ^ 0xbb67ae8584caa73bULL) ^
          (seq << 17) ^ attempt);
  return h % (rto / 2 + 1);  // in [0, rto/2]: lengthens, never shortens
}

}  // namespace

void ChannelStats::merge(const ChannelStats& other) {
  data_frames += other.data_frames;
  retransmits += other.retransmits;
  acks += other.acks;
  duplicates_suppressed += other.duplicates_suppressed;
  held_for_order += other.held_for_order;
}

std::string ChannelStats::str() const {
  std::ostringstream os;
  os << "data=" << data_frames << " retransmits=" << retransmits
     << " acks=" << acks << " dups_suppressed=" << duplicates_suppressed
     << " held=" << held_for_order;
  return os.str();
}

ReliableChannel::ReliableChannel(Network& net, ChannelConfig cfg)
    : net_(net), cfg_(cfg) {
  DYNCON_REQUIRE(cfg.initial_rto >= 1 && cfg.max_rto >= cfg.initial_rto,
                 "bad retransmission timeout range");
  DYNCON_REQUIRE(cfg.max_retries >= 1, "need at least one retry");
}

std::size_t ReliableChannel::in_flight() const {
  std::size_t n = 0;
  for (const auto& [key, link] : links_) n += link.pending.size();
  return n;
}

void ReliableChannel::send(NodeId from, NodeId to, const Message& msg,
                           Network::Deliver on_deliver) {
  DYNCON_REQUIRE(static_cast<bool>(on_deliver), "null delivery handler");
  if (!net_.lossy()) {
    // Zero-overhead passthrough: no header, no seq, no timer — the run is
    // bit-identical to one without the channel.
    net_.transmit(from, to, msg, std::move(on_deliver));
    return;
  }
  Link& link = links_[{from, to}];
  const std::uint64_t seq = link.next_seq++;
  auto [it, inserted] = link.pending.try_emplace(
      seq, Message::channel_data(seq, msg), std::move(on_deliver),
      cfg_.initial_rto);
  DYNCON_INVARIANT(inserted, "sequence number reused on a link");
  static thread_local obs::CounterHandle data_frames("channel.data_frames");
  ++stats_.data_frames;
  data_frames.add();
  transmit(from, to, seq);
  arm_timer(from, to, seq);
}

void ReliableChannel::transmit(NodeId from, NodeId to, std::uint64_t seq) {
  const Link& link = links_.at({from, to});
  net_.transmit(from, to, link.pending.at(seq).frame,
                [this, from, to, seq] { on_frame(from, to, seq); });
}

void ReliableChannel::arm_timer(NodeId from, NodeId to, std::uint64_t seq) {
  const Pending& pend = links_.at({from, to}).pending.at(seq);
  const SimTime rto =
      pend.rto + retransmit_jitter(from, to, seq, pend.retries, pend.rto);
  net_.queue().schedule_after(rto, [this, from, to, seq] {
    Link& link = links_.at({from, to});
    const auto it = link.pending.find(seq);
    if (it == link.pending.end()) return;  // acked; stale timer
    Pending& p = it->second;
    if (p.retries >= cfg_.max_retries) {
      obs::count("channel.gave_up");
      throw InvariantError(
          "reliable channel gave up: frame seq=" + std::to_string(seq) +
          " on link " + std::to_string(from) + " -> " + std::to_string(to) +
          " unacked after " + std::to_string(p.retries) +
          " retransmissions — link dead beyond the configured retry cap");
    }
    ++p.retries;
    p.rto = std::min(p.rto * 2, cfg_.max_rto);
    static thread_local obs::CounterHandle retransmits("channel.retransmits");
    ++stats_.retransmits;
    retransmits.add();
    transmit(from, to, seq);
    arm_timer(from, to, seq);
  });
}

void ReliableChannel::on_frame(NodeId from, NodeId to, std::uint64_t seq) {
  // Everything below — releasing held frames back to back, then the ack
  // transmit — is transport work still owed by THIS event, so the released
  // continuations run under guarded dispatch: an inline fast path jumping
  // ahead of the remaining releases (or of the ack's delay/fault draws)
  // would diverge from the all-scheduled run.
  ++net_.guard_depth_;
  struct Guard {
    std::uint32_t& d;
    ~Guard() { --d; }
  } guard{net_.guard_depth_};
  Link& link = links_.at({from, to});
  const auto it = link.pending.find(seq);
  if (it == link.pending.end() || it->second.delivered) {
    // A fault-injected copy, or a retransmission of something already
    // received (its ack was lost or is still in flight).  Suppress, and
    // re-ack so the sender can stop retransmitting.
    static thread_local obs::CounterHandle suppressed(
        "channel.duplicates_suppressed");
    ++stats_.duplicates_suppressed;
    suppressed.add();
    send_ack(from, to, link);
    return;
  }
  it->second.delivered = true;
  if (seq != link.recv_next) {
    // Arrived ahead of a gap (the underlying links are not FIFO and may
    // have dropped the earlier frame); hold until the gap fills.
    static thread_local obs::CounterHandle held("channel.held_for_order");
    ++stats_.held_for_order;
    held.add();
  }
  release_in_order(link);
  send_ack(from, to, link);
}

void ReliableChannel::release_in_order(Link& link) {
  for (auto it = link.pending.find(link.recv_next);
       it != link.pending.end() && it->second.delivered;
       it = link.pending.find(link.recv_next)) {
    Pending& p = it->second;
    DYNCON_INVARIANT(!p.released, "frame released twice");
    p.released = true;
    ++link.recv_next;
    Network::Deliver deliver = std::move(p.deliver);
    // The entry stays until the cumulative ack lands back at the sender
    // (it still backs duplicate suppression and the retransmit timer).
    deliver();
  }
}

void ReliableChannel::send_ack(NodeId from, NodeId to, Link& link) {
  const std::uint64_t upto = link.recv_next;
  static thread_local obs::CounterHandle acks("channel.acks");
  ++stats_.acks;
  acks.add();
  // Acks ride the faulty transport unprotected (no ack-of-ack): a lost ack
  // is repaired by the retransmission it provokes.
  net_.transmit(to, from, Message::channel_ack(upto),
                [this, from, to, upto] { on_ack(from, to, upto); });
}

void ReliableChannel::on_ack(NodeId from, NodeId to, std::uint64_t upto) {
  Link& link = links_.at({from, to});
  auto it = link.pending.begin();
  while (it != link.pending.end() && it->first < upto) {
    DYNCON_INVARIANT(it->second.released,
                     "cumulative ack covers an unreleased frame");
    it = link.pending.erase(it);
  }
}

}  // namespace dyncon::sim
