#include "sim/wire.hpp"

#include <algorithm>
#include <bit>
#include <ostream>
#include <sstream>

#include "util/log2.hpp"

namespace dyncon::sim {

const char* msg_kind_name(MsgKind kind) {
  switch (kind) {
    case MsgKind::kAgent:
      return "agent";
    case MsgKind::kReject:
      return "reject";
    case MsgKind::kControl:
      return "control";
    case MsgKind::kDataMove:
      return "datamove";
    case MsgKind::kApp:
      return "app";
    case MsgKind::kChannel:
      return "channel";
    case MsgKind::kKindCount__:
      break;
  }
  return "invalid";
}

std::ostream& operator<<(std::ostream& os, MsgKind kind) {
  const char* name = msg_kind_name(kind);
  os << name;
  if (name[0] == 'i') {  // "invalid": show the raw byte too
    os << "(MsgKind=" << static_cast<unsigned>(kind) << ")";
  }
  return os;
}

// ---- BitWriter --------------------------------------------------------------

void BitWriter::put_bit(bool bit) {
  const std::uint64_t offset = out_.bits % 8;
  if (offset == 0) out_.bytes.push_back(0);
  if (bit) out_.bytes.back() |= static_cast<std::uint8_t>(1u << (7 - offset));
  ++out_.bits;
}

void BitWriter::put_bits(std::uint64_t value, std::uint32_t width) {
  DYNCON_REQUIRE(width <= 64, "bit-field width exceeds 64");
  DYNCON_REQUIRE(width == 64 || value < (std::uint64_t{1} << width),
                 "value does not fit the declared bit-field width");
  // Fill the open byte's free low bits, then whole bytes, high bits first.
  while (width > 0) {
    const auto offset = static_cast<std::uint32_t>(out_.bits % 8);
    if (offset == 0) out_.bytes.push_back(0);
    const std::uint32_t room = 8 - offset;
    const std::uint32_t take = width < room ? width : room;
    width -= take;
    const auto chunk =
        static_cast<std::uint32_t>(value >> width) & ((1u << take) - 1);
    out_.bytes.back() |= static_cast<std::uint8_t>(chunk << (room - take));
    out_.bits += take;
  }
}

void BitWriter::put_gamma(std::uint64_t v) {
  DYNCON_REQUIRE(v < (std::uint64_t{1} << 62), "gamma field overflow");
  const std::uint64_t n = v + 1;
  const std::uint32_t len = floor_log2(n);
  pad_zeros(len);
  put_bits(n, len + 1);
}

void BitWriter::put_varint(std::uint64_t v) {
  // High 7-bit groups first; every group but the last sets the
  // continuation bit (the group's leading bit).
  std::uint32_t groups = 1;
  for (std::uint64_t rest = v >> 7; rest != 0; rest >>= 7) ++groups;
  for (std::uint32_t g = groups; g-- > 0;) {
    const std::uint64_t chunk = (v >> (7 * g)) & 0x7Fu;
    put_bits((g != 0 ? 0x80u : 0u) | chunk, 8);
  }
}

void BitWriter::pad_zeros(std::uint64_t n) {
  // Unused trailing bits are already zero, so zeros cost only new bytes.
  out_.bits += n;
  out_.bytes.resize(static_cast<std::size_t>((out_.bits + 7) / 8), 0);
}

void BitWriter::put_encoded(const Encoded& src) {
  BitReader r(src);
  std::uint64_t left = src.bits;
  while (left >= 64) {
    put_bits(r.get_bits(64), 64);
    left -= 64;
  }
  if (left > 0) {
    put_bits(r.get_bits(static_cast<std::uint32_t>(left)),
             static_cast<std::uint32_t>(left));
  }
}

// ---- BitReader --------------------------------------------------------------

bool BitReader::get_bit() {
  DYNCON_REQUIRE(pos_ < enc_.bits, "wire underrun: read past end of message");
  const std::uint64_t byte = pos_ / 8;
  const std::uint64_t offset = pos_ % 8;
  ++pos_;
  return (enc_.bytes[byte] >> (7 - offset)) & 1u;
}

std::uint64_t BitReader::get_bits(std::uint32_t width) {
  DYNCON_REQUIRE(width <= 64, "bit-field width exceeds 64");
  DYNCON_REQUIRE(width <= remaining(),
                 "wire underrun: read past end of message");
  // Up to 8 bits per step: the rest of the current byte, then whole bytes.
  std::uint64_t v = 0;
  while (width > 0) {
    const auto offset = static_cast<std::uint32_t>(pos_ % 8);
    const std::uint32_t room = 8 - offset;
    const std::uint32_t take = width < room ? width : room;
    const std::uint32_t byte = enc_.bytes[pos_ / 8];
    v = (v << take) | ((byte >> (room - take)) & ((1u << take) - 1));
    pos_ += take;
    width -= take;
  }
  return v;
}

std::uint64_t BitReader::get_gamma() {
  // Count the zero prefix a byte at a time; a gamma code never has 63 or
  // more leading zeros, and running out of bits first is an underrun.
  std::uint32_t len = 0;
  for (;;) {
    DYNCON_REQUIRE(pos_ < enc_.bits,
                   "wire underrun: read past end of message");
    const auto offset = static_cast<std::uint32_t>(pos_ % 8);
    const auto avail = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(8 - offset, remaining()));
    const auto next =
        static_cast<std::uint8_t>(enc_.bytes[pos_ / 8] << offset);
    const auto zeros = std::min(
        static_cast<std::uint32_t>(std::countl_zero(next)), avail);
    len += zeros;
    DYNCON_REQUIRE(len < 63, "malformed gamma code: runaway zero prefix");
    pos_ += zeros;
    if (zeros < avail) break;
  }
  ++pos_;  // the terminating one bit is the value's leading bit
  return ((std::uint64_t{1} << len) | get_bits(len)) - 1;
}

std::uint64_t BitReader::get_varint() {
  std::uint64_t v = 0;
  for (std::uint32_t groups = 0;; ++groups) {
    DYNCON_REQUIRE(groups < 10, "malformed varint: too many groups");
    const std::uint64_t group = get_bits(8);  // continuation bit + 7 bits
    v = (v << 7) | (group & 0x7Fu);
    if ((group & 0x80u) == 0) return v;
  }
}

void BitReader::skip(std::uint64_t n) {
  DYNCON_REQUIRE(n <= remaining(), "wire underrun: skip past end of message");
  pos_ += n;
}

// ---- Message ----------------------------------------------------------------

namespace {
constexpr std::uint32_t kTagBits = kMsgTagBits;  // 6 kinds fit 3 bits
constexpr std::uint32_t kTopicBits = 2;  // <= 4 topics per kind
constexpr std::uint32_t kPhaseBits = 3;  // controller phases fit in 3 bits
static_assert(static_cast<std::size_t>(MsgKind::kKindCount__) <=
                  (std::size_t{1} << kTagBits),
              "message kinds no longer fit the wire tag");

/// The one and only description of each message body's wire layout, written
/// against the shared writer interface.  Instantiated for BitWriter (the
/// real encoding) and BitCounter (the size-only release path), so the two
/// cannot drift: any new field is either paid for in both or in neither.
template <class Writer>
void write_message(Writer& w, const Message::Body& body) {
  w.put_bits(body.index(), kTagBits);
  std::visit(
      [&w](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, AgentHopMsg>) {
          w.put_varint(m.agent);
          w.put_gamma(m.distance);
          w.put_gamma(m.top_distance);
          w.put_gamma(m.bag_level);
          w.put_bits(m.phase, kPhaseBits);
          w.put_bit(m.carrying);
        } else if constexpr (std::is_same_v<T, RejectWaveMsg>) {
          // Pure signal: the tag is the message.
        } else if constexpr (std::is_same_v<T, ControlMsg>) {
          w.put_bits(static_cast<std::uint64_t>(m.topic), kTopicBits);
          w.put_gamma(m.value);
        } else if constexpr (std::is_same_v<T, DataMoveMsg>) {
          w.put_gamma(m.item);
        } else if constexpr (std::is_same_v<T, AppMsg>) {
          w.put_bits(static_cast<std::uint64_t>(m.topic), kTopicBits);
          w.put_varint(m.value);
          w.put_gamma(m.opaque_bits);
          w.pad_zeros(m.opaque_bits);
        } else {
          static_assert(std::is_same_v<T, ChannelMsg>);
          w.put_bit(m.topic == ChannelTopic::kAck);
          w.put_gamma(m.seq);
          if (m.topic == ChannelTopic::kData) {
            w.put_gamma(m.payload.bits);
            w.put_encoded(m.payload);
          }
        }
      },
      body);
}
}  // namespace

MsgKind ChannelMsg::inner_kind() const {
  DYNCON_REQUIRE(topic == ChannelTopic::kData && payload.bits >= kTagBits,
                 "inner_kind needs a data frame with a tagged payload");
  BitReader r(payload);
  const std::uint64_t tag = r.get_bits(kTagBits);
  DYNCON_REQUIRE(tag < static_cast<std::uint64_t>(MsgKind::kKindCount__),
                 "channel payload carries an unknown kind tag");
  return static_cast<MsgKind>(tag);
}

Message Message::agent_hop(std::uint64_t agent, std::uint64_t distance,
                           std::uint64_t top_distance, std::uint32_t bag_level,
                           std::uint8_t phase, bool carrying) {
  DYNCON_REQUIRE(phase < (1u << kPhaseBits), "phase tag does not fit 3 bits");
  return Message(AgentHopMsg{agent, distance, top_distance, bag_level, phase,
                             carrying});
}

Message Message::reject_wave() { return Message(RejectWaveMsg{}); }

Message Message::control(ControlTopic topic, std::uint64_t value) {
  return Message(ControlMsg{topic, value});
}

Message Message::data_move(std::uint64_t item) {
  return Message(DataMoveMsg{item});
}

Message Message::app_value(AppTopic topic, std::uint64_t value) {
  DYNCON_REQUIRE(topic != AppTopic::kMetered,
                 "metered payloads go through app_payload()");
  return Message(AppMsg{topic, value, 0});
}

Message Message::app_payload(std::uint64_t opaque_bits) {
  return Message(AppMsg{AppTopic::kMetered, 0, opaque_bits});
}

Message Message::channel_data(std::uint64_t seq, const Message& inner) {
  DYNCON_REQUIRE(inner.kind() != MsgKind::kChannel,
                 "the reliable channel never nests frames");
  return Message(ChannelMsg{ChannelTopic::kData, seq, inner.encode()});
}

Message Message::channel_ack(std::uint64_t seq) {
  return Message(ChannelMsg{ChannelTopic::kAck, seq, Encoded{}});
}

Encoded Message::encode() const {
  // The counting pass is cheap (no buffer work), so spend it to size the
  // output exactly — the byte vector is allocated once, never regrown.
  BitWriter w(encoded_bits());
  write_message(w, body_);
  return w.finish();
}

std::uint64_t Message::encoded_bits() const {
  BitCounter c;
  write_message(c, body_);
  return c.bit_count();
}

Message Message::decode(const Encoded& e) {
  BitReader r(e);
  const std::uint64_t tag = r.get_bits(kTagBits);
  DYNCON_REQUIRE(tag < static_cast<std::uint64_t>(MsgKind::kKindCount__),
                 "malformed message: unknown kind tag");
  Body body;
  switch (static_cast<MsgKind>(tag)) {
    case MsgKind::kAgent: {
      AgentHopMsg m;
      m.agent = r.get_varint();
      m.distance = r.get_gamma();
      m.top_distance = r.get_gamma();
      m.bag_level = static_cast<std::uint32_t>(r.get_gamma());
      m.phase = static_cast<std::uint8_t>(r.get_bits(kPhaseBits));
      m.carrying = r.get_bit();
      body = m;
      break;
    }
    case MsgKind::kReject:
      body = RejectWaveMsg{};
      break;
    case MsgKind::kControl: {
      ControlMsg m;
      m.topic = static_cast<ControlTopic>(r.get_bits(kTopicBits));
      m.value = r.get_gamma();
      body = m;
      break;
    }
    case MsgKind::kDataMove:
      body = DataMoveMsg{r.get_gamma()};
      break;
    case MsgKind::kApp: {
      AppMsg m;
      m.topic = static_cast<AppTopic>(r.get_bits(kTopicBits));
      m.value = r.get_varint();
      m.opaque_bits = r.get_gamma();
      r.skip(m.opaque_bits);
      body = m;
      break;
    }
    case MsgKind::kChannel: {
      ChannelMsg m;
      m.topic = r.get_bit() ? ChannelTopic::kAck : ChannelTopic::kData;
      m.seq = r.get_gamma();
      if (m.topic == ChannelTopic::kData) {
        const std::uint64_t payload_bits = r.get_gamma();
        DYNCON_REQUIRE(payload_bits <= r.remaining(),
                       "malformed channel frame: truncated payload");
        BitWriter pw;
        for (std::uint64_t left = payload_bits; left > 0;) {
          const std::uint32_t chunk =
              left >= 64 ? 64 : static_cast<std::uint32_t>(left);
          pw.put_bits(r.get_bits(chunk), chunk);
          left -= chunk;
        }
        m.payload = pw.finish();
      }
      body = m;
      break;
    }
    case MsgKind::kKindCount__:
      break;  // unreachable: tag < kKindCount__ checked above
  }
  DYNCON_REQUIRE(r.finished(),
                 "malformed message: trailing bits after the last field");
  return Message(std::move(body));
}

std::string Message::str() const {
  std::ostringstream os;
  os << kind() << "{";
  std::visit(
      [&os](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, AgentHopMsg>) {
          os << "agent=" << m.agent << " dist=" << m.distance
             << " top=" << m.top_distance << " bag=" << m.bag_level
             << " phase=" << static_cast<unsigned>(m.phase)
             << " carrying=" << m.carrying;
        } else if constexpr (std::is_same_v<T, ControlMsg>) {
          os << "topic=" << static_cast<unsigned>(m.topic)
             << " value=" << m.value;
        } else if constexpr (std::is_same_v<T, DataMoveMsg>) {
          os << "item=" << m.item;
        } else if constexpr (std::is_same_v<T, AppMsg>) {
          os << "topic=" << static_cast<unsigned>(m.topic)
             << " value=" << m.value << " opaque_bits=" << m.opaque_bits;
        } else if constexpr (std::is_same_v<T, ChannelMsg>) {
          os << (m.topic == ChannelTopic::kAck ? "ack" : "data")
             << " seq=" << m.seq << " payload_bits=" << m.payload.bits;
        }
      },
      body_);
  os << "}";
  return os.str();
}

}  // namespace dyncon::sim
