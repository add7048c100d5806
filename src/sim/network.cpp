#include "sim/network.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "util/error.hpp"

namespace dyncon::sim {

std::string NetStats::str() const {
  std::ostringstream os;
  os << "messages=" << messages << " total_bits=" << total_bits
     << " max_msg_bits=" << max_message_bits;
  for (std::size_t k = 0; k < by_kind.size(); ++k) {
    if (by_kind[k] == 0) continue;
    os << " " << msg_kind_name(static_cast<MsgKind>(k)) << "=" << by_kind[k]
       << "(max " << max_bits_by_kind[k] << "b)";
  }
  return os.str();
}

void NetStats::merge(const NetStats& other) {
  messages += other.messages;
  total_bits += other.total_bits;
  max_message_bits = std::max(max_message_bits, other.max_message_bits);
  roundtrip_checks += other.roundtrip_checks;
  for (std::size_t k = 0; k < kKinds; ++k) {
    by_kind[k] += other.by_kind[k];
    bits_by_kind[k] += other.bits_by_kind[k];
    max_bits_by_kind[k] = std::max(max_bits_by_kind[k],
                                   other.max_bits_by_kind[k]);
  }
  for (std::size_t w = 0; w < size_histogram.size(); ++w) {
    size_histogram[w] += other.size_histogram[w];
  }
}

void FaultStats::merge(const FaultStats& other) {
  drops += other.drops;
  duplicates += other.duplicates;
  stalls += other.stalls;
  stall_ticks += other.stall_ticks;
}

Network::Network(EventQueue& queue, std::unique_ptr<DelayPolicy> delay)
    : queue_(queue), delay_(std::move(delay)) {
  DYNCON_REQUIRE(delay_ != nullptr, "null delay policy");
}

Network::~Network() = default;

void Network::set_fault_policy(std::unique_ptr<FaultPolicy> policy) {
  faults_ = std::move(policy);
}

void Network::enable_reliability() { enable_reliability(ChannelConfig{}); }

void Network::enable_reliability(const ChannelConfig& cfg) {
  if (channel_ == nullptr) {
    channel_ = std::make_unique<ReliableChannel>(*this, cfg);
  }
}

void Network::set_link_check(const void* owner, LinkCheck check) {
  DYNCON_REQUIRE(owner != nullptr && static_cast<bool>(check),
                 "link check needs an owner and a predicate");
  link_check_ = std::move(check);
  link_check_owner_ = owner;
}

void Network::clear_link_check(const void* owner) {
  if (link_check_owner_ != owner) return;  // replaced by a later installer
  link_check_ = nullptr;
  link_check_owner_ = nullptr;
}

void Network::account(MsgKind kind, std::uint64_t bits, std::uint64_t count) {
  if (strict_max_bits_ != 0 && bits > strict_max_bits_) {
    throw InvariantError("oversized message: " + std::to_string(bits) +
                         " bits of " + msg_kind_name(kind) +
                         " exceeds the strict envelope of " +
                         std::to_string(strict_max_bits_) + " bits");
  }
  const auto k = static_cast<std::size_t>(kind);
  stats_.messages += count;
  stats_.total_bits += bits * count;
  stats_.max_message_bits = std::max(stats_.max_message_bits, bits);
  stats_.by_kind[k] += count;
  stats_.bits_by_kind[k] += bits * count;
  stats_.max_bits_by_kind[k] = std::max(stats_.max_bits_by_kind[k], bits);
  stats_.size_histogram[std::bit_width(bits)] += count;
  // Live registry export: cumulative across every Network instance of the
  // run, unlike the per-instance NetStats.  Interned handles: this runs per
  // transmission, and the name->slot map lookup was measurable there.
  static thread_local obs::CounterHandle messages("net.messages");
  static thread_local obs::CounterHandle total_bits("net.total_bits");
  static thread_local obs::HistogramHandle message_bits("net.message_bits");
  messages.add(count);
  total_bits.add(bits * count);
  message_bits.observe(bits, count);
}

void Network::send(NodeId from, NodeId to, const Message& msg,
                   Deliver on_deliver) {
  DYNCON_REQUIRE(static_cast<bool>(on_deliver), "null delivery handler");
#ifndef NDEBUG
  // The topology contract is checked on the *logical* send; channel frames
  // (retransmits can outlive a graceful reparenting, acks flow against the
  // edge direction) are exempt by construction because they route through
  // transmit() directly.
  if (link_check_) {
    DYNCON_INVARIANT(
        link_check_(from, to, msg.kind()),
        "send violates the installed topology contract: " +
            std::to_string(from) + " -> " + std::to_string(to) + " " +
            msg.str());
  }
#endif
  if (channel_ != nullptr && lossy()) {
    channel_->send(from, to, msg, std::move(on_deliver));
    return;
  }
  transmit(from, to, msg, std::move(on_deliver));
}

void Network::transmit(NodeId from, NodeId to, const Message& msg,
                       Deliver on_deliver) {
#ifndef NDEBUG
  // Debug builds do the full byte-level encode and round-trip verification:
  // any field the encoder drops or mangles fails at the send site, with the
  // offending message in the error text.
  const Encoded enc = msg.encode();
  DYNCON_INVARIANT(Message::decode(enc) == msg,
                   "wire round-trip mismatch for " + msg.str());
  ++stats_.roundtrip_checks;
  const std::uint64_t bits = enc.bits;
#else
  // Release builds take the size-only BitCounter pass — the same
  // body-writer as encode(), so the charged size is still *measured*, just
  // without materializing the byte buffer nobody reads.
  const std::uint64_t bits = msg.encoded_bits();
#endif
  // A channel data frame is charged under the kind of the message it wraps
  // (at the full wrapped size), so the per-kind decomposition exp9/exp13
  // report survives fault injection; only acks land under kChannel.
  MsgKind kind = msg.kind();
  if (kind == MsgKind::kChannel) {
    const auto& ch = msg.as<ChannelMsg>();
    if (ch.topic == ChannelTopic::kData) kind = ch.inner_kind();
  }
  FaultDecision fault;
  if (faults_ != nullptr) {
    fault = faults_->on_send(from, to, kind, seq_, queue_.now());
  }
  // Transmissions are charged whether or not they arrive: a dropped
  // message was sent (and a duplicated one delivered twice), which is
  // exactly the accounting the reliability layer's overhead is measured in.
  account(kind, bits, 1 + fault.duplicates);
  if (fault.duplicates > 0) {
    static thread_local obs::CounterHandle duplicates(
        "faults.injected.duplicate");
    fault_stats_.duplicates += fault.duplicates;
    duplicates.add(fault.duplicates);
  }
  if (fault.stall_ticks > 0) {
    static thread_local obs::CounterHandle stalls("faults.injected.stall");
    static thread_local obs::CounterHandle stall_ticks(
        "faults.injected.stall_ticks");
    ++fault_stats_.stalls;
    fault_stats_.stall_ticks += fault.stall_ticks;
    stalls.add();
    stall_ticks.add(fault.stall_ticks);
  }
  if (fault.drop) {
    static thread_local obs::CounterHandle drops("faults.injected.drop");
    ++fault_stats_.drops;
    drops.add();
    return;
  }
  if (fault.duplicates == 0) {
    // Hot path: exactly one delivery; the continuation moves through
    // untouched — no copy, no allocation.
    const SimTime d = delay_->delay(from, to, seq_++) + fault.stall_ticks;
    // Hop span (one branch when no sink is installed): park the span and
    // the continuation in the side table and schedule a token-sized
    // trampoline instead.  The delay draw and the event count are the same
    // either way, so enabling spans never perturbs the virtual timeline.
    // Duplicated copies below take the cold path unspanned: under fault
    // injection the causal record is best-effort by design.
    if (obs::SpanSink* sink = obs::spans();
        sink != nullptr && obs::current_span().trace != obs::kNoTrace) {
      const obs::SpanContext ctx = obs::current_span();
      std::uint32_t token;
      if (free_hops_.empty()) {
        token = static_cast<std::uint32_t>(hops_.size());
        hops_.emplace_back();
      } else {
        token = free_hops_.back();
        free_hops_.pop_back();
      }
      PendingHop& hop = hops_[token];
      hop.span.trace = ctx.trace;
      hop.span.id = sink->open(ctx.trace);
      hop.span.parent = ctx.span;
      hop.span.kind = obs::SpanKind::kHop;
      hop.span.op = static_cast<std::uint8_t>(kind);
      hop.span.label = msg_kind_name(kind);
      hop.span.node = from;
      hop.span.peer = to;
      hop.span.begin = queue_.now();
      hop.ctx = ctx;
      hop.deliver = std::move(on_deliver);
      queue_.schedule_after(d, [this, token] { deliver_spanned(token); });
      return;
    }
    queue_.schedule_after(d, std::move(on_deliver));
    return;
  }
  // Cold path (fault-injected copies): several events must share one
  // move-only continuation, so box it once and invoke through the box.
  const auto shared = std::make_shared<Deliver>(std::move(on_deliver));
  for (std::uint32_t copy = 0; copy <= fault.duplicates; ++copy) {
    const SimTime d = delay_->delay(from, to, seq_++) + fault.stall_ticks;
    queue_.schedule_after(d, [shared] { (*shared)(); });
  }
}

void Network::deliver_spanned(std::uint32_t token) {
  // Move the hop out and free its slot BEFORE running anything: the
  // continuation may send again and grow (reallocate) the table.
  DYNCON_INVARIANT(token < hops_.size(), "unknown hop-span token");
  PendingHop hop = std::move(hops_[token]);
  free_hops_.push_back(token);
  hop.span.end = queue_.now();
  obs::emit_span(hop.span);
  // The continuation runs under the SENDER's causal context, so any sends
  // it makes (forwarding an agent, acking a frame) chain to the same op.
  obs::ScopedSpanContext scope(hop.ctx);
  hop.deliver();
}

void Network::charge(const Message& prototype, std::uint64_t count) {
  if (count == 0) return;
#ifndef NDEBUG
  const Encoded enc = prototype.encode();
  DYNCON_INVARIANT(Message::decode(enc) == prototype,
                   "wire round-trip mismatch for " + prototype.str());
  ++stats_.roundtrip_checks;
  account(prototype.kind(), enc.bits, count);
#else
  account(prototype.kind(), prototype.encoded_bits(), count);
#endif
}

}  // namespace dyncon::sim
