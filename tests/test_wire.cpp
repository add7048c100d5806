// Unit tests for the bit-level wire format (sim/wire.hpp): the bit stream
// primitives, the per-variant codecs (exact sizes and random round trips),
// and the measured-size accounting in Network/NetStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "sim/wire.hpp"
#include "util/log2.hpp"
#include "util/rng.hpp"

namespace dyncon::sim {
namespace {

// ---- bit stream primitives --------------------------------------------------

TEST(BitStream, BitsRoundTripMsbFirst) {
  BitWriter w;
  w.put_bits(0b1011, 4);
  w.put_bit(true);
  w.put_bits(0x1234'5678'9abc'def0ULL, 64);
  const Encoded e = w.finish();
  EXPECT_EQ(e.bits, 4u + 1u + 64u);
  BitReader r(e);
  EXPECT_EQ(r.get_bits(4), 0b1011u);
  EXPECT_TRUE(r.get_bit());
  EXPECT_EQ(r.get_bits(64), 0x1234'5678'9abc'def0ULL);
  EXPECT_TRUE(r.finished());
}

TEST(BitStream, FirstBitIsByteMsb) {
  BitWriter w;
  w.put_bit(true);
  const Encoded e = w.finish();
  ASSERT_EQ(e.bytes.size(), 1u);
  EXPECT_EQ(e.bytes[0], 0x80u);
}

TEST(BitStream, GammaCostMatchesFormula) {
  // Elias-gamma of v encodes v+1: 2*floor(log2(v+1)) + 1 bits.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 7ull, 100ull, 1ull << 20,
                          (1ull << 62) - 1}) {
    BitWriter w;
    w.put_gamma(v);
    const Encoded e = w.finish();
    EXPECT_EQ(e.bits, 2 * floor_log2(v + 1) + 1) << "v=" << v;
    BitReader r(e);
    EXPECT_EQ(r.get_gamma(), v);
    EXPECT_TRUE(r.finished());
  }
}

TEST(BitStream, GammaRejectsOverflow) {
  BitWriter w;
  EXPECT_THROW(w.put_gamma(std::uint64_t{1} << 62), ContractError);
  EXPECT_THROW(w.put_gamma(kNoNode), ContractError);  // 2^64 - 1
}

TEST(BitStream, VarintCostIsEightBitsPerGroup) {
  const struct {
    std::uint64_t v;
    std::uint64_t bits;
  } cases[] = {{0, 8},        {127, 8},          {128, 16},
               {(1ull << 14) - 1, 16}, {1ull << 14, 24}, {UINT64_MAX, 80}};
  for (const auto& c : cases) {
    BitWriter w;
    w.put_varint(c.v);
    const Encoded e = w.finish();
    EXPECT_EQ(e.bits, c.bits) << "v=" << c.v;
    BitReader r(e);
    EXPECT_EQ(r.get_varint(), c.v);
  }
}

TEST(BitStream, ReaderUnderrunThrows) {
  BitWriter w;
  w.put_bits(3, 2);
  const Encoded e = w.finish();
  BitReader r(e);
  EXPECT_THROW((void)r.get_bits(3), ContractError);
  BitReader r2(e);
  EXPECT_THROW(r2.skip(3), ContractError);
}

TEST(BitStream, MalformedGammaPrefixThrows) {
  BitWriter w;
  w.pad_zeros(64);  // a gamma code may never have 63+ leading zeros
  const Encoded e = w.finish();
  BitReader r(e);
  EXPECT_THROW((void)r.get_gamma(), ContractError);
}

// Reference codec, one bit per step: the byte-chunked BitWriter must
// match it byte for byte on every field.
struct SerialWriter {
  Encoded out;
  void put_bit(bool b) {
    if (out.bits % 8 == 0) out.bytes.push_back(0);
    if (b) {
      out.bytes.back() |= static_cast<std::uint8_t>(0x80u >> (out.bits % 8));
    }
    ++out.bits;
  }
  void put_bits(std::uint64_t v, std::uint32_t width) {
    for (std::uint32_t i = width; i-- > 0;) put_bit((v >> i) & 1u);
  }
  void pad_zeros(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) put_bit(false);
  }
  void put_gamma(std::uint64_t v) {
    pad_zeros(floor_log2(v + 1));
    put_bits(v + 1, floor_log2(v + 1) + 1);
  }
  void put_varint(std::uint64_t v) {
    std::uint32_t groups = 1;
    for (std::uint64_t rest = v >> 7; rest != 0; rest >>= 7) ++groups;
    for (std::uint32_t g = groups; g-- > 0;) {
      put_bit(g != 0);
      put_bits((v >> (7 * g)) & 0x7Fu, 7);
    }
  }
};

enum class FieldKind { kBit, kBits, kGamma, kVarint, kZeros };
struct Field {
  FieldKind kind = FieldKind::kBit;
  std::uint64_t value = 0;
  std::uint32_t width = 0;  // kBits only
};

template <class W>
void write_fields(W& w, const std::vector<Field>& fields) {
  for (const Field& f : fields) {
    switch (f.kind) {
      case FieldKind::kBit: w.put_bit(f.value != 0); break;
      case FieldKind::kBits: w.put_bits(f.value, f.width); break;
      case FieldKind::kGamma: w.put_gamma(f.value); break;
      case FieldKind::kVarint: w.put_varint(f.value); break;
      case FieldKind::kZeros: w.pad_zeros(f.value); break;
    }
  }
}

// Writes `fields` through both writers, checks the bytes agree, and reads
// every field back.
void expect_chunked_matches_serial(const std::vector<Field>& fields) {
  SerialWriter ref;
  write_fields(ref, fields);
  BitWriter w;
  write_fields(w, fields);
  const Encoded e = w.finish();
  ASSERT_EQ(e, ref.out);
  BitReader r(e);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const Field& f = fields[i];
    switch (f.kind) {
      case FieldKind::kBit: ASSERT_EQ(r.get_bit(), f.value != 0) << i; break;
      case FieldKind::kBits:
        ASSERT_EQ(r.get_bits(f.width), f.value) << i;
        break;
      case FieldKind::kGamma: ASSERT_EQ(r.get_gamma(), f.value) << i; break;
      case FieldKind::kVarint: ASSERT_EQ(r.get_varint(), f.value) << i; break;
      case FieldKind::kZeros:
        for (std::uint64_t k = 0; k < f.value; ++k) ASSERT_FALSE(r.get_bit());
        break;
    }
  }
  EXPECT_TRUE(r.finished());
}

// A kBits field of `width` random bits.
Field random_bits(Rng& rng, std::uint32_t width) {
  return {FieldKind::kBits, width == 0 ? 0 : rng.next() >> (64 - width),
          width};
}

// A random value whose bit width is uniform in [0, max_width].
std::uint64_t random_value(Rng& rng, std::uint32_t max_width) {
  const auto width = static_cast<std::uint32_t>(rng.index(max_width + 1));
  return random_bits(rng, width).value;
}

TEST(BitStream, ChunkedBitsMatchSerialAtEveryOffset) {
  Rng rng(0xb175ULL);
  for (std::uint32_t offset = 0; offset < 8; ++offset) {
    for (std::uint32_t width = 0; width <= 64; ++width) {
      const std::uint64_t ones = width == 0 ? 0 : ~0ULL >> (64 - width);
      expect_chunked_matches_serial({random_bits(rng, offset),
                                     random_bits(rng, width),
                                     {FieldKind::kBits, ones, width},
                                     {FieldKind::kBit, 1, 0}});
    }
  }
}

TEST(BitStream, ChunkedGammaAndVarintMatchSerial) {
  std::vector<std::uint64_t> gammas{0, 1, (std::uint64_t{1} << 62) - 1};
  for (std::uint32_t k = 1; k < 62; ++k) {
    gammas.push_back((std::uint64_t{1} << k) - 1);
    gammas.push_back((std::uint64_t{1} << k) + 1);
  }
  std::vector<std::uint64_t> varints{0, 127, 128, UINT64_MAX};
  for (std::uint32_t k = 1; k < 64; ++k) {
    varints.push_back(std::uint64_t{1} << k);
  }
  Rng rng(0x9a77aULL);
  for (std::uint32_t offset = 0; offset < 8; ++offset) {
    std::vector<Field> fields{random_bits(rng, offset)};
    for (std::uint64_t g : gammas) fields.push_back({FieldKind::kGamma, g, 0});
    for (std::uint64_t v : varints) {
      fields.push_back({FieldKind::kVarint, v, 0});
    }
    expect_chunked_matches_serial(fields);
  }
}

TEST(BitStream, ChunkedRandomFieldSequencesMatchSerial) {
  Rng rng(0xc0dec0deULL);
  for (int round = 0; round < 400; ++round) {
    std::vector<Field> fields(1 + rng.index(40));
    for (Field& f : fields) {
      switch (rng.index(5)) {
        case 0: f = {FieldKind::kBit, rng.next() & 1u, 0}; break;
        case 1:
          f = random_bits(rng, static_cast<std::uint32_t>(rng.index(65)));
          break;
        case 2: f = {FieldKind::kGamma, random_value(rng, 62), 0}; break;
        case 3: f = {FieldKind::kVarint, random_value(rng, 64), 0}; break;
        default: f = {FieldKind::kZeros, rng.index(80), 0}; break;
      }
    }
    expect_chunked_matches_serial(fields);
  }
}

// The message of the ContractError `read` throws, or "" if it throws none.
template <class F>
std::string contract_error(F&& read) {
  try {
    read();
  } catch (const ContractError& e) {
    return e.what();
  }
  return "";
}

void expect_mentions(const std::string& message, const char* want) {
  EXPECT_NE(message.find(want), std::string::npos)
      << "expected \"" << want << "\" in \"" << message << "\"";
}

TEST(BitStream, ChunkedReaderStillRejectsBadInput) {
  const char* underrun = "wire underrun";
  const char* runaway = "runaway zero prefix";
  for (std::uint32_t offset = 0; offset < 8; ++offset) {
    SCOPED_TRACE(offset);
    // Every field kind, cut one bit short of its end, underruns.
    SerialWriter ref;
    ref.pad_zeros(offset);
    ref.put_bits(0x1234'5678'9abcULL, 48);
    ref.put_gamma(1'000'000);
    ref.put_varint(1'000'000);
    Encoded cut = ref.out;
    cut.bits = offset + 48 - 1;
    BitReader bits(cut);
    bits.skip(offset);
    expect_mentions(contract_error([&] { (void)bits.get_bits(48); }), underrun);
    cut.bits = offset + 48 + gamma_bits(1'000'000) - 1;
    BitReader gamma(cut);
    gamma.skip(offset + 48);
    expect_mentions(contract_error([&] { (void)gamma.get_gamma(); }), underrun);
    cut.bits = ref.out.bits - 1;
    BitReader varint(cut);
    varint.skip(offset + 48 + gamma_bits(1'000'000));
    expect_mentions(contract_error([&] { (void)varint.get_varint(); }),
                    underrun);

    // A zero prefix that runs out of bits underruns; 63 zeros is a runaway
    // wherever the stream ends, and 62 is the longest legal prefix.
    for (std::uint64_t zeros : {5u, 30u, 62u}) {
      SCOPED_TRACE(zeros);
      SerialWriter z;
      z.pad_zeros(offset + zeros);
      BitReader r(z.out);
      r.skip(offset);
      expect_mentions(contract_error([&] { (void)r.get_gamma(); }), underrun);
    }
    for (std::uint64_t tail : {0u, 1u, 64u}) {
      SCOPED_TRACE(tail);
      SerialWriter z;
      z.pad_zeros(offset + 63);
      if (tail > 0) z.put_bit(true);
      z.pad_zeros(tail);
      BitReader r(z.out);
      r.skip(offset);
      expect_mentions(contract_error([&] { (void)r.get_gamma(); }), runaway);
    }
    SerialWriter longest;
    longest.pad_zeros(offset);
    longest.put_gamma((std::uint64_t{1} << 62) - 1);
    BitReader r(longest.out);
    r.skip(offset);
    EXPECT_EQ(r.get_gamma(), (std::uint64_t{1} << 62) - 1);
    EXPECT_TRUE(r.finished());
  }
  BitWriter w;
  EXPECT_THROW(w.put_bits(0, 65), ContractError);
  EXPECT_THROW(w.put_bits(8, 3), ContractError);
  w.put_bits(5, 3);
  const Encoded e = w.finish();
  BitReader r(e);
  EXPECT_THROW((void)r.get_bits(65), ContractError);
}

// ---- message codec ----------------------------------------------------------

TEST(Wire, KindNamesAreDefensive) {
  EXPECT_STREQ(msg_kind_name(MsgKind::kAgent), "agent");
  EXPECT_STREQ(msg_kind_name(MsgKind::kReject), "reject");
  EXPECT_STREQ(msg_kind_name(MsgKind::kControl), "control");
  EXPECT_STREQ(msg_kind_name(MsgKind::kDataMove), "datamove");
  EXPECT_STREQ(msg_kind_name(MsgKind::kApp), "app");
  EXPECT_STREQ(msg_kind_name(MsgKind::kKindCount__), "invalid");
  EXPECT_STREQ(msg_kind_name(static_cast<MsgKind>(200)), "invalid");
}

TEST(Wire, KindStreamInsertion) {
  std::ostringstream os;
  os << MsgKind::kControl << " " << static_cast<MsgKind>(9);
  EXPECT_EQ(os.str(), "control invalid(MsgKind=9)");
}

TEST(Wire, VariantIndexMatchesKind) {
  EXPECT_EQ(Message::agent_hop(0, 0, 0, 0, 0, false).kind(), MsgKind::kAgent);
  EXPECT_EQ(Message::reject_wave().kind(), MsgKind::kReject);
  EXPECT_EQ(Message::control(ControlTopic::kRotate, 1).kind(),
            MsgKind::kControl);
  EXPECT_EQ(Message::data_move(1).kind(), MsgKind::kDataMove);
  EXPECT_EQ(Message::app_value(AppTopic::kToken, 1).kind(), MsgKind::kApp);
  EXPECT_EQ(Message::app_payload(16).kind(), MsgKind::kApp);
}

TEST(Wire, RejectWaveIsTagOnly) {
  EXPECT_EQ(Message::reject_wave().measured_bits(), 3u);
}

TEST(Wire, AppPayloadPaysForEveryOpaqueBit) {
  // Growing the opaque payload by k bits grows the wire size by k plus the
  // (logarithmic) growth of the length field: the padding is really paid.
  const auto p1 = Message::app_payload(1).measured_bits();
  const auto p1000 = Message::app_payload(1000).measured_bits();
  EXPECT_GE(p1000, 1000u);
  EXPECT_GE(p1000 - p1, 999u);
  EXPECT_LE(p1000 - p1, 999u + 24u);
}

TEST(Wire, DecodeRejectsUnknownTag) {
  BitWriter w;
  w.put_bits(static_cast<std::uint64_t>(MsgKind::kKindCount__), 3);
  EXPECT_THROW((void)Message::decode(w.finish()), ContractError);
}

TEST(Wire, DecodeRejectsTrailingBits) {
  Encoded e = Message::reject_wave().encode();
  BitWriter w;
  w.put_bits(static_cast<std::uint64_t>(MsgKind::kReject), 3);
  w.put_bit(false);  // one stray bit
  EXPECT_THROW((void)Message::decode(w.finish()), ContractError);
  EXPECT_EQ(Message::decode(e), Message::reject_wave());
}

TEST(Wire, DecodeRejectsTruncation) {
  Encoded e = Message::control(ControlTopic::kUpcast, 12345).encode();
  e.bits -= 4;  // chop the value's tail
  EXPECT_THROW((void)Message::decode(e), ContractError);
}

TEST(Wire, FactoryContracts) {
  EXPECT_THROW(Message::agent_hop(0, 0, 0, 0, /*phase=*/8, false),
               ContractError);
  EXPECT_THROW(Message::app_value(AppTopic::kMetered, 1), ContractError);
}

// Random round trips per variant, with fields up to the N = 2^20 regime the
// complexity tests exercise (and far beyond, for the unbounded id fields).
TEST(Wire, RandomRoundTripEveryVariant) {
  Rng rng(0xa11ce);
  constexpr std::uint64_t kBig = 1ull << 20;
  for (int i = 0; i < 2000; ++i) {
    std::vector<Message> msgs;
    msgs.push_back(Message::agent_hop(
        rng.uniform(0, UINT64_MAX), rng.uniform(0, kBig),
        rng.uniform(0, kBig), static_cast<std::uint32_t>(rng.uniform(0, 63)),
        static_cast<std::uint8_t>(rng.uniform(0, 7)), rng.chance(0.5)));
    msgs.push_back(Message::reject_wave());
    msgs.push_back(Message::control(
        static_cast<ControlTopic>(rng.uniform(0, 3)), rng.uniform(0, kBig)));
    msgs.push_back(Message::data_move(rng.uniform(0, kBig)));
    msgs.push_back(Message::app_value(
        static_cast<AppTopic>(rng.uniform(0, 1)), rng.uniform(0, UINT64_MAX)));
    msgs.push_back(Message::app_payload(rng.uniform(0, 512)));
    for (const Message& m : msgs) {
      const Encoded e = m.encode();
      EXPECT_EQ(e.bits, m.measured_bits());
      EXPECT_EQ(e.bytes.size(), (e.bits + 7) / 8);
      const Message back = Message::decode(e);
      ASSERT_EQ(back, m) << m.str() << " vs " << back.str();
    }
  }
}

// Message sizes must be O(log N) in every field (Lemma 4.5's budget): a
// doubling of the field value adds O(1) bits.
TEST(Wire, SizesAreLogarithmicInFields) {
  std::uint64_t prev = 0;
  for (std::uint32_t p = 1; p <= 40; ++p) {
    const std::uint64_t n = 1ull << p;
    const auto bits =
        Message::agent_hop(n, n, n, 20, 3, true).measured_bits();
    if (p > 1) EXPECT_LE(bits, prev + 16) << "p=" << p;
    prev = bits;
  }
  EXPECT_LE(Message::control(ControlTopic::kBroadcast, 1ull << 40)
                .measured_bits(),
            3u + 2u + (2 * 40 + 1));
}

// ---- NetStats accounting ----------------------------------------------------

struct NetFixture {
  EventQueue q;
  Network net{q, std::make_unique<FixedDelay>(1)};
};

TEST(NetStats, PerKindCountersAndMaxima) {
  NetFixture f;
  const Message hop = Message::agent_hop(3, 9, 9, 2, 1, true);
  const Message ctrl = Message::control(ControlTopic::kUpcast, 1000);
  f.net.send(0, 1, hop, [] {});
  f.net.send(1, 0, ctrl, [] {});
  f.net.send(0, 1, Message::reject_wave(), [] {});
  const NetStats& s = f.net.stats();
  EXPECT_EQ(s.messages, 3u);
  EXPECT_EQ(s.kind(MsgKind::kAgent), 1u);
  EXPECT_EQ(s.kind(MsgKind::kControl), 1u);
  EXPECT_EQ(s.kind(MsgKind::kReject), 1u);
  EXPECT_EQ(s.kind_bits(MsgKind::kAgent), hop.measured_bits());
  EXPECT_EQ(s.kind_max_bits(MsgKind::kControl), ctrl.measured_bits());
  EXPECT_EQ(s.total_bits, hop.measured_bits() + ctrl.measured_bits() + 3);
  EXPECT_EQ(s.max_message_bits,
            std::max(hop.measured_bits(), ctrl.measured_bits()));
#ifndef NDEBUG
  EXPECT_EQ(s.roundtrip_checks, 3u);
#endif
}

TEST(NetStats, ChargeInteractsWithMaxBits) {
  NetFixture f;
  const Message big = Message::data_move(1ull << 30);
  const Message small = Message::data_move(1);
  f.net.charge(big, 2);
  f.net.charge(small, 5);
  f.net.charge(small, 0);  // a no-op, not a crash
  const NetStats& s = f.net.stats();
  EXPECT_EQ(s.messages, 7u);
  EXPECT_EQ(s.kind(MsgKind::kDataMove), 7u);
  EXPECT_EQ(s.max_message_bits, big.measured_bits());
  EXPECT_EQ(s.kind_max_bits(MsgKind::kDataMove), big.measured_bits());
  EXPECT_EQ(s.total_bits,
            2 * big.measured_bits() + 5 * small.measured_bits());
  EXPECT_TRUE(f.q.empty()) << "charge must not schedule deliveries";
}

TEST(NetStats, HistogramBucketsByBitWidth) {
  NetFixture f;
  const Message wave = Message::reject_wave();  // 3 bits -> bucket 2
  f.net.charge(wave, 4);
  const Message pay = Message::app_payload(100);  // >= 100 bits -> bucket 7
  f.net.send(0, 1, pay, [] {});
  const NetStats& s = f.net.stats();
  EXPECT_EQ(s.size_histogram[2], 4u);
  EXPECT_EQ(s.size_histogram[std::bit_width(pay.measured_bits())], 1u);
  EXPECT_EQ(s.size_histogram[0], 0u);
}

TEST(NetStats, ResetClearsEverything) {
  NetFixture f;
  f.net.send(0, 1, Message::reject_wave(), [] {});
  f.net.charge(Message::data_move(7), 3);
  ASSERT_GT(f.net.stats().messages, 0u);
  f.net.reset_stats();
  const NetStats& s = f.net.stats();
  EXPECT_EQ(s.messages, 0u);
  EXPECT_EQ(s.total_bits, 0u);
  EXPECT_EQ(s.max_message_bits, 0u);
  EXPECT_EQ(s.roundtrip_checks, 0u);
  for (std::size_t k = 0; k < NetStats::kKinds; ++k) {
    EXPECT_EQ(s.by_kind[k], 0u);
    EXPECT_EQ(s.bits_by_kind[k], 0u);
    EXPECT_EQ(s.max_bits_by_kind[k], 0u);
  }
  for (const auto b : s.size_histogram) EXPECT_EQ(b, 0u);
}

TEST(NetStats, StrBreaksDownByKind) {
  NetFixture f;
  f.net.send(0, 1, Message::control(ControlTopic::kBroadcast, 5), [] {});
  const std::string s = f.net.stats().str();
  EXPECT_NE(s.find("control"), std::string::npos) << s;
}

// ---- strict envelope + link check -------------------------------------------

TEST(Network, StrictModeAbortsOnOversize) {
  NetFixture f;
  f.net.set_strict_max_bits(16);
  EXPECT_EQ(f.net.strict_max_bits(), 16u);
  f.net.send(0, 1, Message::reject_wave(), [] {});  // 3 bits: fine
  EXPECT_THROW(f.net.send(0, 1, Message::app_payload(64), [] {}),
               InvariantError);
  EXPECT_THROW(f.net.charge(Message::app_payload(64), 1), InvariantError);
  f.net.set_strict_max_bits(0);  // disabled again
  f.net.send(0, 1, Message::app_payload(64), [] {});
}

// ---- size-only encoding path ------------------------------------------------
//
// encoded_bits() (the BitCounter pass used by release-build accounting) must
// agree with encode().bits (the byte-materializing pass) EXACTLY, for every
// message kind, across the full field ranges — one bit of drift and the
// release build charges different sizes than the debug build measures.

// Mixed-magnitude draws: small values and full-width values both matter for
// gamma/varint length boundaries.  Gamma-encoded fields cap at 2^62 - 1.
std::uint64_t fuzz_value(Rng& rng) {
  return rng.next() >> rng.uniform(0, 63);
}
std::uint64_t fuzz_gamma(Rng& rng) {
  return rng.next() >> rng.uniform(2, 63);
}

void expect_size_only_path_matches(const Message& m) {
  const Encoded enc = m.encode();
  EXPECT_EQ(m.encoded_bits(), enc.bits) << m.str();
  // And the round trip still holds, so both passes describe a real message.
  EXPECT_EQ(Message::decode(enc), m) << m.str();
}

TEST(Wire, EncodedBitsMatchesEncodeForEveryKindFuzzed) {
  Rng rng(0xC0DE);
  bool saw_kind[static_cast<std::size_t>(MsgKind::kKindCount__)] = {};
  auto cover = [&saw_kind](const Message& m) {
    saw_kind[static_cast<std::size_t>(m.kind())] = true;
    expect_size_only_path_matches(m);
    return m;
  };
  for (int i = 0; i < 500; ++i) {
    cover(Message::agent_hop(fuzz_value(rng), fuzz_gamma(rng),
                             fuzz_gamma(rng),
                             static_cast<std::uint32_t>(rng.uniform(0, 1u << 20)),
                             static_cast<std::uint8_t>(rng.uniform(0, 7)),
                             rng.chance(0.5)));
    cover(Message::reject_wave());
    cover(Message::control(static_cast<ControlTopic>(rng.uniform(0, 3)),
                           fuzz_gamma(rng)));
    cover(Message::data_move(fuzz_gamma(rng)));
    cover(Message::app_value(static_cast<AppTopic>(rng.uniform(0, 1)),
                             fuzz_value(rng)));
    cover(Message::app_payload(rng.uniform(0, 300)));  // covers kMetered
    // Channel frames: a data frame wrapping a random inner message (the
    // payload is an embedded Encoded, the case put_encoded must count
    // bit-exactly), and a bare cumulative ack.
    const Message inner =
        rng.chance(0.5)
            ? Message::agent_hop(fuzz_value(rng), fuzz_gamma(rng),
                                 fuzz_gamma(rng), 3, 2, true)
            : Message::app_value(AppTopic::kReport, fuzz_value(rng));
    cover(Message::channel_data(fuzz_gamma(rng), inner));
    cover(Message::channel_ack(fuzz_gamma(rng)));
  }
  for (std::size_t k = 0; k < static_cast<std::size_t>(MsgKind::kKindCount__);
       ++k) {
    EXPECT_TRUE(saw_kind[k]) << "kind not fuzzed: "
                             << msg_kind_name(static_cast<MsgKind>(k));
  }
}

#ifndef NDEBUG
TEST(Network, LinkCheckRejectsOffTreeSends) {
  NetFixture f;
  int owner = 0;
  f.net.set_link_check(&owner, [](NodeId from, NodeId to, MsgKind) {
    return from + 1 == to;  // only "adjacent" ids
  });
  f.net.send(4, 5, Message::reject_wave(), [] {});
  EXPECT_THROW(f.net.send(4, 9, Message::reject_wave(), [] {}),
               InvariantError);
  // A different owner must not be able to clear the hook...
  int other = 0;
  f.net.clear_link_check(&other);
  EXPECT_THROW(f.net.send(4, 9, Message::reject_wave(), [] {}),
               InvariantError);
  // ...but the installer can.
  f.net.clear_link_check(&owner);
  f.net.send(4, 9, Message::reject_wave(), [] {});
}
#endif

}  // namespace
}  // namespace dyncon::sim
