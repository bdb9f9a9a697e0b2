// Property-style tests: randomized sweeps over invariants that must hold
// for ALL inputs — codec round-trips under random messages, reader safety
// under random truncation/corruption, percentile monotonicity, event-queue
// ordering under random schedules, allocator uniqueness.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/plot.hpp"
#include "common/rng.hpp"
#include "detect/ensemble.hpp"
#include "detect/scorer.hpp"
#include "oran/e2sm.hpp"
#include "ran/codec.hpp"
#include "ran/ue.hpp"
#include "sim/event_queue.hpp"

namespace xsec {
namespace {

using xsec::Bytes;

// --- Random message generators ------------------------------------------

ran::MobileIdentity random_identity(Rng& rng) {
  ran::Supi supi{ran::Plmn::test_network(), rng.uniform_u64(1, 9999999999ULL)};
  switch (rng.uniform_u64(0, 3)) {
    case 0:
      return ran::MobileIdentity::from_suci(
          ran::make_suci(supi, static_cast<std::uint32_t>(
                                   rng.uniform_u64(1, 0xffffff)),
                         rng.chance(0.2)));
    case 1: {
      ran::Guti guti;
      guti.s_tmsi = ran::STmsi::from_packed(rng.uniform_u64(0, (1ULL << 48) - 1));
      return ran::MobileIdentity::from_guti(guti);
    }
    case 2:
      return ran::MobileIdentity::from_supi_plain(supi);
    default:
      return ran::MobileIdentity{};
  }
}

ran::NasMessage random_nas(Rng& rng) {
  switch (rng.uniform_u64(0, 7)) {
    case 0: {
      ran::RegistrationRequest m;
      m.type = static_cast<ran::RegistrationType>(rng.uniform_u64(1, 4));
      m.ng_ksi = static_cast<std::uint8_t>(rng.uniform_u64(0, 7));
      m.identity = random_identity(rng);
      m.capabilities = ran::SecurityCapabilities{
          static_cast<std::uint8_t>(rng.uniform_u64(0, 15)),
          static_cast<std::uint8_t>(rng.uniform_u64(0, 15))};
      return ran::NasMessage{m};
    }
    case 1:
      return ran::NasMessage{ran::AuthenticationRequest{
          static_cast<std::uint8_t>(rng.uniform_u64(0, 7)), rng(), rng()}};
    case 2:
      return ran::NasMessage{ran::AuthenticationResponse{rng()}};
    case 3:
      return ran::NasMessage{ran::IdentityResponse{random_identity(rng)}};
    case 4: {
      ran::NasSecurityModeCommand m;
      m.cipher = static_cast<ran::CipherAlg>(rng.uniform_u64(0, 3));
      m.integrity = static_cast<ran::IntegrityAlg>(rng.uniform_u64(0, 3));
      return ran::NasMessage{m};
    }
    case 5: {
      ran::RegistrationAccept m;
      m.guti.s_tmsi =
          ran::STmsi::from_packed(rng.uniform_u64(0, (1ULL << 48) - 1));
      m.t3512_min = static_cast<std::uint16_t>(rng.uniform_u64(0, 65535));
      return ran::NasMessage{m};
    }
    case 6: {
      ran::ServiceRequest m;
      if (rng.chance(0.5))
        m.s_tmsi =
            ran::STmsi::from_packed(rng.uniform_u64(0, (1ULL << 48) - 1));
      return ran::NasMessage{m};
    }
    default:
      return ran::NasMessage{ran::RegistrationComplete{}};
  }
}

ran::RrcMessage random_rrc(Rng& rng) {
  switch (rng.uniform_u64(0, 5)) {
    case 0: {
      ran::RrcSetupRequest m;
      m.ue_identity.kind = static_cast<ran::InitialUeIdentity::Kind>(
          rng.uniform_u64(0, 1));
      m.ue_identity.value = rng.uniform_u64(0, (1ULL << 39) - 1);
      m.cause = static_cast<ran::EstablishmentCause>(rng.uniform_u64(0, 9));
      return ran::RrcMessage{m};
    }
    case 1: {
      ran::RrcSetupComplete m;
      m.dedicated_nas = ran::encode_nas(random_nas(rng));
      if (rng.chance(0.5))
        m.s_tmsi =
            ran::STmsi::from_packed(rng.uniform_u64(0, (1ULL << 48) - 1));
      return ran::RrcMessage{m};
    }
    case 2: {
      ran::RrcSecurityModeCommand m;
      m.cipher = static_cast<ran::CipherAlg>(rng.uniform_u64(0, 3));
      m.integrity = static_cast<ran::IntegrityAlg>(rng.uniform_u64(0, 3));
      return ran::RrcMessage{m};
    }
    case 3:
      return ran::RrcMessage{
          ran::DlInformationTransfer{ran::encode_nas(random_nas(rng))}};
    case 4: {
      ran::MeasurementReport m;
      m.rsrp_dbm = static_cast<std::int8_t>(rng.uniform_i64(-127, 0));
      m.rsrq_db = static_cast<std::int8_t>(rng.uniform_i64(-30, 0));
      return ran::RrcMessage{m};
    }
    default: {
      ran::RrcRelease m;
      m.cause = static_cast<ran::RrcRelease::Cause>(rng.uniform_u64(0, 1));
      m.suspend = rng.chance(0.5);
      return ran::RrcMessage{m};
    }
  }
}

// --- Codec properties -----------------------------------------------------

class CodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecProperty, RandomNasRoundTripsExactly) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    ran::NasMessage msg = random_nas(rng);
    Bytes wire = ran::encode_nas(msg);
    auto decoded = ran::decode_nas(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(ran::encode_nas(decoded.value()), wire);
  }
}

TEST_P(CodecProperty, RandomRrcRoundTripsExactly) {
  Rng rng(GetParam() ^ 0xabc);
  for (int i = 0; i < 200; ++i) {
    ran::RrcMessage msg = random_rrc(rng);
    Bytes wire = ran::encode_rrc(msg);
    auto decoded = ran::decode_rrc(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(ran::encode_rrc(decoded.value()), wire);
  }
}

TEST_P(CodecProperty, RandomCorruptionNeverCrashesDecoders) {
  Rng rng(GetParam() ^ 0xdef);
  for (int i = 0; i < 300; ++i) {
    Bytes wire = ran::encode_nas(random_nas(rng));
    // Random byte flips and truncation.
    if (!wire.empty() && rng.chance(0.7))
      wire[rng.uniform_u64(0, wire.size() - 1)] ^=
          static_cast<std::uint8_t>(rng.uniform_u64(1, 255));
    if (rng.chance(0.5)) wire.resize(rng.uniform_u64(0, wire.size()));
    (void)ran::decode_nas(wire);   // must not crash
    (void)ran::decode_rrc(wire);   // cross-decoder abuse
    (void)ran::decode_f1ap(wire);
    (void)ran::decode_ngap(wire);
  }
}

TEST_P(CodecProperty, RandomOpaqueRowsRoundTrip) {
  Rng rng(GetParam() ^ 0x777);
  oran::e2sm::IndicationMessage message;
  for (int r = 0; r < 20; ++r) {
    Bytes row(rng.uniform_u64(0, 64));
    for (auto& b : row)
      b = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
    message.rows.push_back(std::move(row));
  }
  Bytes wire = oran::e2sm::encode_indication_message(message);
  oran::e2sm::RowCursor rows(wire);
  ASSERT_EQ(rows.count(), message.rows.size());
  for (const Bytes& expected : message.rows) {
    auto row = rows.next();
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(Bytes(row->begin(), row->end()), expected);
  }
  EXPECT_FALSE(rows.next().has_value());
  EXPECT_TRUE(rows.ok());

  // Every proper prefix fails before the announced rows are all read. The
  // prefix is copied so ASan sees any read past its end.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    Bytes cut(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
    oran::e2sm::RowCursor prefix(cut);
    std::uint32_t read = 0;
    while (prefix.next()) ++read;
    EXPECT_FALSE(prefix.ok()) << len << "-byte prefix of " << wire.size();
    EXPECT_LT(read, message.rows.size()) << len << "-byte prefix";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty,
                         ::testing::Values(1, 2, 3, 42, 1337));

// --- E2AP wire robustness -------------------------------------------------

Bytes random_blob(Rng& rng, std::size_t max_len) {
  Bytes blob(rng.uniform_u64(0, max_len));
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
  return blob;
}

oran::RicRequestId random_request_id(Rng& rng) {
  return {static_cast<std::uint32_t>(rng.uniform_u64(0, 0xffffffff)),
          static_cast<std::uint32_t>(rng.uniform_u64(0, 0xffffffff))};
}

/// One random encoding of every E2AP PDU type.
std::vector<Bytes> random_e2ap_wires(Rng& rng) {
  std::vector<Bytes> wires;
  oran::E2SetupRequest setup;
  setup.node_id = rng();
  for (std::uint64_t i = 0, n = rng.uniform_u64(0, 3); i < n; ++i) {
    oran::RanFunction f;
    f.function_id = static_cast<std::uint16_t>(rng.uniform_u64(0, 0xffff));
    f.oid = "1.3.6.1.4.1." + std::to_string(rng.uniform_u64(0, 999));
    f.description = "fn";
    f.definition = random_blob(rng, 16);
    setup.functions.push_back(std::move(f));
  }
  wires.push_back(encode_e2ap(setup));

  oran::E2SetupResponse setup_response;
  for (std::uint64_t i = 0, n = rng.uniform_u64(0, 4); i < n; ++i)
    setup_response.accepted_function_ids.push_back(
        static_cast<std::uint16_t>(rng.uniform_u64(0, 0xffff)));
  wires.push_back(encode_e2ap(setup_response));

  oran::RicSubscriptionRequest sub;
  sub.request_id = random_request_id(rng);
  sub.ran_function_id = static_cast<std::uint16_t>(rng.uniform_u64(0, 0xffff));
  sub.event_trigger = random_blob(rng, 24);
  for (std::uint64_t i = 0, n = rng.uniform_u64(0, 3); i < n; ++i) {
    oran::RicAction action;
    action.action_id = static_cast<std::uint16_t>(rng.uniform_u64(0, 0xffff));
    action.type = static_cast<oran::RicActionType>(rng.uniform_u64(0, 2));
    action.definition = random_blob(rng, 16);
    sub.actions.push_back(std::move(action));
  }
  wires.push_back(encode_e2ap(sub));

  oran::RicSubscriptionResponse sub_response;
  sub_response.request_id = random_request_id(rng);
  for (std::uint64_t i = 0, n = rng.uniform_u64(0, 3); i < n; ++i)
    sub_response.admitted_action_ids.push_back(
        static_cast<std::uint16_t>(rng.uniform_u64(0, 0xffff)));
  wires.push_back(encode_e2ap(sub_response));

  oran::RicSubscriptionDeleteRequest sub_delete;
  sub_delete.request_id = random_request_id(rng);
  wires.push_back(encode_e2ap(sub_delete));

  oran::RicIndication indication;
  indication.request_id = random_request_id(rng);
  indication.sequence_number =
      static_cast<std::uint32_t>(rng.uniform_u64(0, 0xffffffff));
  indication.type = static_cast<oran::RicIndicationType>(rng.uniform_u64(0, 1));
  indication.header = random_blob(rng, 32);
  indication.message = random_blob(rng, 64);
  wires.push_back(encode_e2ap(indication));

  oran::RicControlRequest control;
  control.request_id = random_request_id(rng);
  control.header = random_blob(rng, 16);
  control.message = random_blob(rng, 32);
  wires.push_back(encode_e2ap(control));

  oran::RicControlAck ack;
  ack.request_id = random_request_id(rng);
  ack.success = rng.chance(0.5);
  wires.push_back(encode_e2ap(ack));

  oran::RicIndicationNack nack;
  std::size_t range_count = 1 + rng.uniform_u64(0, 3);
  for (std::size_t i = 0; i < range_count; ++i) {
    oran::NackRange range;
    range.request_id = random_request_id(rng);
    range.first_sequence =
        static_cast<std::uint32_t>(rng.uniform_u64(0, 0x7fffffff));
    range.last_sequence =
        range.first_sequence +
        static_cast<std::uint32_t>(rng.uniform_u64(0, 1000));
    nack.ranges.push_back(range);
  }
  wires.push_back(encode_e2ap(nack));
  return wires;
}

/// Runs every E2AP decoder over the wire, and the E2SM decoders over the
/// blobs of anything that decodes as an indication; none may crash.
void decode_with_all(const Bytes& wire) {
  (void)oran::e2ap_type(wire);
  (void)oran::decode_setup_request(wire);
  (void)oran::decode_setup_response(wire);
  (void)oran::decode_subscription_request(wire);
  (void)oran::decode_subscription_response(wire);
  (void)oran::decode_subscription_delete(wire);
  if (auto view = oran::decode_indication_view(wire)) {
    (void)oran::e2sm::decode_indication_header(view.value().header);
    oran::e2sm::RowCursor rows(view.value().message);
    while (auto row = rows.next()) (void)mobiflow::Record::from_kv_bytes(*row);
  }
  (void)oran::decode_indication_nack(wire);
  (void)oran::decode_control_request(wire);
  (void)oran::decode_control_ack(wire);
}

class E2apProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(E2apProperty, EveryTruncationOfEveryTypeRejected) {
  Rng rng(GetParam() ^ 0xe2a9);
  for (int round = 0; round < 20; ++round) {
    std::vector<Bytes> wires = random_e2ap_wires(rng);
    ASSERT_EQ(wires.size(), 9u);  // one per E2apType
    for (std::size_t type = 0; type < wires.size(); ++type) {
      const Bytes& wire = wires[type];
      for (std::size_t len = 0; len < wire.size(); ++len) {
        Bytes cut(wire.begin(), wire.begin() + len);
        bool ok = false;
        switch (static_cast<oran::E2apType>(type)) {
          case oran::E2apType::kSetupRequest:
            ok = oran::decode_setup_request(cut).ok();
            break;
          case oran::E2apType::kSetupResponse:
            ok = oran::decode_setup_response(cut).ok();
            break;
          case oran::E2apType::kSubscriptionRequest:
            ok = oran::decode_subscription_request(cut).ok();
            break;
          case oran::E2apType::kSubscriptionResponse:
            ok = oran::decode_subscription_response(cut).ok();
            break;
          case oran::E2apType::kSubscriptionDeleteRequest:
            ok = oran::decode_subscription_delete(cut).ok();
            break;
          case oran::E2apType::kIndication:
            ok = oran::decode_indication_view(cut).ok();
            break;
          case oran::E2apType::kControlRequest:
            ok = oran::decode_control_request(cut).ok();
            break;
          case oran::E2apType::kControlAck:
            ok = oran::decode_control_ack(cut).ok();
            break;
          case oran::E2apType::kIndicationNack:
            ok = oran::decode_indication_nack(cut).ok();
            break;
        }
        EXPECT_FALSE(ok) << "type " << type << " decoded from a "
                         << len << "-byte prefix of " << wire.size();
        decode_with_all(cut);  // cross-decoder abuse must not crash either
      }
    }
  }
}

TEST_P(E2apProperty, RandomBitFlipsNeverCrashAnyDecoder) {
  Rng rng(GetParam() ^ 0xf11b);
  for (int round = 0; round < 40; ++round) {
    for (Bytes wire : random_e2ap_wires(rng)) {
      if (wire.empty()) continue;
      for (int flips = 0, n = static_cast<int>(rng.uniform_u64(1, 4));
           flips < n; ++flips)
        wire[rng.uniform_u64(0, wire.size() - 1)] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_u64(0, 7));
      decode_with_all(wire);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, E2apProperty,
                         ::testing::Values(31, 32, 33, 4242));

// --- MobiFlow record wire properties ---------------------------------------

mobiflow::Record random_record(Rng& rng) {
  namespace vocab = mobiflow::vocab;
  mobiflow::Record r;
  // Zigzag-encoded: negative timestamps must survive too.
  r.timestamp_us = rng.uniform_i64(-1'000'000, 4'000'000'000LL);
  r.gnb_id = rng.uniform_u64(0, 1ULL << 32);
  r.cell = static_cast<std::uint32_t>(rng.uniform_u64(0, 0xFFFF));
  r.ue_id = rng.uniform_u64(0, 1ULL << 40);
  r.protocol = static_cast<vocab::Protocol>(rng.uniform_u64(0, 2));
  r.msg =
      static_cast<vocab::MsgType>(rng.uniform_u64(0, vocab::kMsgTypeCount - 1));
  r.direction = static_cast<vocab::Direction>(rng.uniform_u64(0, 1));
  r.rnti = static_cast<std::uint16_t>(rng.uniform_u64(0, 0xFFFF));
  r.s_tmsi = rng.uniform_u64(0, (1ULL << 48) - 1);
  r.cipher_alg = static_cast<vocab::CipherAlg>(
      rng.uniform_u64(0, vocab::kCipherAlgCount - 1));
  r.integrity_alg = static_cast<vocab::IntegrityAlg>(
      rng.uniform_u64(0, vocab::kIntegrityAlgCount - 1));
  r.establishment_cause = static_cast<vocab::EstablishmentCause>(
      rng.uniform_u64(0, vocab::kEstablishmentCauseCount - 1));
  if (rng.chance(0.3))
    r.supi_plain = "imsi-00101" + std::to_string(rng.uniform_u64(0, 1 << 30));
  if (rng.chance(0.3))
    r.suci = "suci-001-01-1-" + std::to_string(rng.uniform_u64(0, 1 << 30));
  return r;
}

class RecordProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecordProperty, RandomRecordRoundTripsExactly) {
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    mobiflow::Record r = random_record(rng);
    auto back = mobiflow::Record::from_kv_bytes(r.to_kv_bytes());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), r);
  }
}

TEST_P(RecordProperty, EveryTruncationRejectedAndTrailingBytesRejected) {
  Rng rng(GetParam() ^ 0x5A5A);
  for (int i = 0; i < 30; ++i) {
    mobiflow::Record r = random_record(rng);
    Bytes wire = r.to_kv_bytes();
    // Every strict prefix is an incomplete record.
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      Bytes prefix(wire.begin(), wire.begin() + static_cast<long>(cut));
      EXPECT_FALSE(mobiflow::Record::from_kv_bytes(prefix).ok())
          << "prefix of length " << cut << " decoded";
    }
    // Bytes after the end marker are a framing error, not padding.
    Bytes padded = wire;
    padded.push_back(0x00);
    EXPECT_FALSE(mobiflow::Record::from_kv_bytes(padded).ok());
  }
}

TEST_P(RecordProperty, RandomCorruptionNeverCrashesRecordDecode) {
  Rng rng(GetParam() ^ 0xC0DE);
  for (int i = 0; i < 300; ++i) {
    Bytes wire = random_record(rng).to_kv_bytes();
    std::size_t flips = rng.uniform_u64(1, 4);
    for (std::size_t f = 0; f < flips; ++f)
      wire[rng.uniform_u64(0, wire.size() - 1)] ^=
          static_cast<std::uint8_t>(rng.uniform_u64(1, 255));
    auto decoded = mobiflow::Record::from_kv_bytes(wire);  // must not crash
    if (decoded.ok()) {
      // Whatever decoded must itself round-trip (enum fields stayed in
      // range, so re-encoding is well defined).
      auto again =
          mobiflow::Record::from_kv_bytes(decoded.value().to_kv_bytes());
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again.value(), decoded.value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordProperty,
                         ::testing::Values(4, 5, 6, 77, 2024));

// --- Trace files (agent spill segments, incident-report payloads) -----------

class TraceProperty : public ::testing::TestWithParam<std::uint64_t> {};

mobiflow::Trace random_trace(Rng& rng) {
  mobiflow::Trace trace;
  for (std::uint64_t i = 0, n = rng.uniform_u64(1, 5); i < n; ++i)
    trace.add(random_record(rng), rng.chance(0.3));
  return trace;
}

TEST_P(TraceProperty, EveryTruncationRejected) {
  Rng rng(GetParam() ^ 0x7ace);
  for (int round = 0; round < 10; ++round) {
    Bytes wire = random_trace(rng).serialize();
    ASSERT_TRUE(mobiflow::Trace::deserialize(wire).ok());
    for (std::size_t len = 0; len < wire.size(); ++len) {
      Bytes cut(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(mobiflow::Trace::deserialize(cut).ok())
          << len << "-byte prefix of " << wire.size() << " decoded";
    }
  }
}

TEST_P(TraceProperty, RandomBitFlipsNeverCrash) {
  Rng rng(GetParam() ^ 0xf1a9);
  for (int round = 0; round < 200; ++round) {
    Bytes wire = random_trace(rng).serialize();
    for (std::uint64_t f = 0, n = rng.uniform_u64(1, 4); f < n; ++f)
      wire[rng.uniform_u64(0, wire.size() - 1)] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_u64(0, 7));
    auto decoded = mobiflow::Trace::deserialize(wire);  // must not crash
    if (decoded.ok()) {
      // Whatever decoded re-serializes to a trace that decodes the same.
      auto again = mobiflow::Trace::deserialize(decoded.value().serialize());
      ASSERT_TRUE(again.ok());
      ASSERT_EQ(again.value().size(), decoded.value().size());
      for (std::size_t i = 0; i < decoded.value().size(); ++i)
        EXPECT_EQ(again.value().entries()[i].record,
                  decoded.value().entries()[i].record);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceProperty,
                         ::testing::Values(8, 9, 10, 99, 4242));

// --- Percentile properties -------------------------------------------------

class PercentileProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PercentileProperty, MonotoneInPAndBounded) {
  Rng rng(GetParam());
  std::vector<double> values;
  std::size_t n = rng.uniform_u64(1, 200);
  for (std::size_t i = 0; i < n; ++i) values.push_back(rng.normal(0, 10));
  double lo = *std::min_element(values.begin(), values.end());
  double hi = *std::max_element(values.begin(), values.end());
  double previous = lo;
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    double value = percentile(values, p);
    EXPECT_GE(value, lo);
    EXPECT_LE(value, hi);
    EXPECT_GE(value, previous - 1e-12);
    previous = value;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileProperty,
                         ::testing::Values(7, 8, 9, 10));

// --- Event queue property --------------------------------------------------

class QueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueProperty, ExecutionTimesNeverDecrease) {
  Rng rng(GetParam());
  sim::EventQueue queue;
  std::vector<std::int64_t> executed_at;
  // Random schedule, including re-entrant scheduling from handlers.
  for (int i = 0; i < 100; ++i) {
    SimTime t{static_cast<std::int64_t>(rng.uniform_u64(0, 10000))};
    queue.schedule_at(t, [&executed_at, &queue, &rng] {
      executed_at.push_back(queue.now().us);
      if (rng.chance(0.3))
        queue.schedule_after(
            SimDuration::from_us(
                static_cast<std::int64_t>(rng.uniform_u64(0, 500))),
            [&executed_at, &queue] {
              executed_at.push_back(queue.now().us);
            });
    });
  }
  queue.run_all();
  for (std::size_t i = 1; i < executed_at.size(); ++i)
    EXPECT_LE(executed_at[i - 1], executed_at[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueProperty, ::testing::Values(11, 12, 13));

// --- SUCI property --------------------------------------------------------

class SuciProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SuciProperty, ConcealmentAlwaysInvertible) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    ran::Supi supi{ran::Plmn::test_network(),
                   rng.uniform_u64(0, 9'999'999'999ULL)};
    auto nonce = static_cast<std::uint32_t>(rng.uniform_u64(1, 0xffffff));
    bool null_scheme = rng.chance(0.3);
    ran::Suci suci = ran::make_suci(supi, nonce, null_scheme);
    EXPECT_EQ(ran::deconceal_suci(suci), supi.msin);
    EXPECT_EQ(suci.is_null_scheme(), null_scheme);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuciProperty, ::testing::Values(21, 22, 23));

// --- Standardizer property --------------------------------------------------

TEST(StandardizerProperty, TrainingDataMapsToZeroMeanUnitVariance) {
  Rng rng(31);
  dl::Matrix data(200, 6);
  for (std::size_t r = 0; r < data.rows(); ++r)
    for (std::size_t c = 0; c < data.cols(); ++c)
      data.at(r, c) = static_cast<float>(
          rng.normal(static_cast<double>(c), 1.0 + static_cast<double>(c)));
  detect::Standardizer scaler;
  scaler.fit(data);
  dl::Matrix scaled = data;
  scaler.apply(scaled);
  for (std::size_t c = 0; c < scaled.cols(); ++c) {
    double mean = 0, sq = 0;
    for (std::size_t r = 0; r < scaled.rows(); ++r) {
      mean += scaled.at(r, c);
      sq += scaled.at(r, c) * scaled.at(r, c);
    }
    mean /= static_cast<double>(scaled.rows());
    double var = sq / static_cast<double>(scaled.rows()) - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

// --- Windowing property -----------------------------------------------------

class WindowProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowProperty, LabelCountsConsistentForAnyWindowSize) {
  std::size_t window = GetParam();
  Rng rng(window * 101);
  mobiflow::Trace trace;
  std::vector<bool> truth;
  for (int i = 0; i < 60; ++i) {
    mobiflow::Record r;
    r.protocol = mobiflow::vocab::Protocol::kRrc;
    r.msg = mobiflow::vocab::MsgType::kMeasurementReport;
    r.direction = mobiflow::vocab::Direction::kUl;
    r.rnti = 1;
    r.timestamp_us = i;
    bool malicious = rng.chance(0.1);
    truth.push_back(malicious);
    trace.add(r, malicious);
  }
  detect::FeatureEncoder encoder;
  auto dataset = detect::WindowDataset::from_trace(trace, encoder, window);
  auto ae = dataset.ae_labels();
  ASSERT_EQ(ae.size(), dataset.ae_sample_count());
  for (std::size_t s = 0; s < ae.size(); ++s) {
    bool any = false;
    for (std::size_t t = 0; t < window; ++t) any = any || truth[s + t];
    EXPECT_EQ(ae[s], any);
  }
  auto lstm = dataset.lstm_labels();
  for (std::size_t s = 0; s < lstm.size(); ++s) {
    bool any = false;
    for (std::size_t t = 0; t <= window; ++t) any = any || truth[s + t];
    EXPECT_EQ(lstm[s], any);
  }
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, WindowProperty,
                         ::testing::Values(2, 3, 5, 8, 10));

// --- Batched scoring property ------------------------------------------
//
// The batched inference entry point (score_windows) must be bit-identical
// to scoring every window one at a time (score_window) AND to the dataset
// scoring path that produces the Table 2 reproduction — the MobiWatch
// batching optimization is not allowed to move any detector metric. The
// dataset path stages the corpus kScoreChunk windows at a time, so the
// traces cover one short chunk and, at 2 * kScoreChunk + 37 + window
// records, two full chunks plus a ragged tail for both the AE family and
// the LSTM.

mobiflow::Trace batched_scoring_trace(std::size_t records) {
  Rng rng(47);
  mobiflow::Trace trace;
  for (std::size_t i = 0; i < records; ++i) {
    mobiflow::Record r;
    r.protocol = mobiflow::vocab::Protocol::kRrc;
    r.msg = rng.chance(0.5) ? mobiflow::vocab::MsgType::kMeasurementReport
                            : mobiflow::vocab::MsgType::kRrcReconfiguration;
    r.direction = mobiflow::vocab::Direction::kUl;
    r.rnti = 1;
    r.timestamp_us = static_cast<std::int64_t>(i) * 1000;
    trace.add(r, false);
  }
  return trace;
}

TEST(BatchedScoringProperty, BatchedBitIdenticalToSingleAndDatasetScoring) {
  const std::size_t window = 5;
  for (std::size_t records :
       {std::size_t{60}, 2 * detect::kScoreChunk + 37 + window}) {
    SCOPED_TRACE(records);
    detect::FeatureEncoder encoder;
    auto trace = batched_scoring_trace(records);
    auto dataset = detect::WindowDataset::from_trace(trace, encoder, window);
    const dl::Matrix& feats = dataset.features();

    detect::DetectorConfig config;
    config.epochs = 3;

    detect::AutoencoderDetector ae(window, encoder.dim(), config, {32, 8});
    ae.fit(dataset);
    const std::size_t ae_windows = feats.rows() - window + 1;
    std::vector<double> batched(ae_windows);
    ae.score_windows(feats.row(0), encoder.dim(), window, ae_windows,
                     batched.data());
    std::vector<double> table2 = ae.score(dataset);
    ASSERT_EQ(table2.size(), ae_windows);
    for (std::size_t w = 0; w < ae_windows; ++w) {
      EXPECT_EQ(batched[w], ae.score_window(feats.row(w), window)) << w;
      EXPECT_EQ(batched[w], table2[w]) << w;
    }

    detect::LstmDetector lstm(window, encoder.dim(), config, 16);
    lstm.fit(dataset);
    const std::size_t lstm_windows = feats.rows() - window;
    std::vector<double> lstm_batched(lstm_windows);
    lstm.score_windows(feats.row(0), encoder.dim(), window + 1, lstm_windows,
                       lstm_batched.data());
    std::vector<double> lstm_table2 = lstm.score(dataset);
    ASSERT_EQ(lstm_table2.size(), lstm_windows);
    for (std::size_t w = 0; w < lstm_windows; ++w) {
      EXPECT_EQ(lstm_batched[w],
                lstm.score_window(feats.row(w), window + 1))
          << w;
      EXPECT_EQ(lstm_batched[w], lstm_table2[w]) << w;
    }

    detect::EnsembleConfig ensemble_config;
    ensemble_config.detector = config;
    detect::EnsembleDetector ensemble(window, encoder.dim(),
                                      detect::groups_by_category(encoder),
                                      ensemble_config);
    ensemble.fit(dataset);
    std::vector<double> ens_batched(ae_windows);
    ensemble.score_windows(feats.row(0), encoder.dim(), window, ae_windows,
                           ens_batched.data());
    std::vector<double> ens_table2 = ensemble.score(dataset);
    ASSERT_EQ(ens_table2.size(), ae_windows);
    for (std::size_t w = 0; w < ae_windows; ++w) {
      EXPECT_EQ(ens_batched[w], ensemble.score_window(feats.row(w), window))
          << w;
      EXPECT_EQ(ens_batched[w], ens_table2[w]) << w;
    }
  }
}

}  // namespace
}  // namespace xsec
