// MobiFlow telemetry tests: record schema, RIC agent parsing/state
// tracking/reporting, control handling, trace serialization.
#include <gtest/gtest.h>

#include <filesystem>

#include "mobiflow/agent.hpp"
#include "mobiflow/trace.hpp"
#include "oran/ric.hpp"
#include "ran/codec.hpp"
#include "ran/ue.hpp"
#include "sim/testbed.hpp"

namespace xsec::mobiflow {
namespace {

Record sample_record() {
  Record r;
  r.timestamp_us = 123456;
  r.gnb_id = 1;
  r.cell = 2;
  r.ue_id = 7;
  r.protocol = vocab::Protocol::kRrc;
  r.msg = vocab::MsgType::kRrcSetupRequest;
  r.direction = vocab::Direction::kUl;
  r.rnti = 0x5F1A;
  r.s_tmsi = 0xCAFEBABEULL;
  r.establishment_cause = vocab::EstablishmentCause::kMoSignalling;
  return r;
}

TEST(Record, KvRoundTrip) {
  Record r = sample_record();
  r.supi_plain = "imsi-001012089900001";
  r.suci = "suci-001-01-1-abc";
  r.cipher_alg = vocab::CipherAlg::kNea2;
  r.integrity_alg = vocab::IntegrityAlg::kNia2;
  auto back = Record::from_kv_bytes(r.to_kv_bytes());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), r);
}

TEST(Record, EmptyOptionalFieldsOmittedFromKv) {
  Record r = sample_record();
  Bytes lean = r.to_kv_bytes();
  Record with_ids = r;
  with_ids.supi_plain = "imsi-001012089900001";
  with_ids.suci = "suci-001-01-1-abc";
  // The optional identity strings cost wire bytes only when present.
  EXPECT_LT(lean.size(), with_ids.to_kv_bytes().size());
  auto back = Record::from_kv_bytes(lean);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), r);
}

TEST(Record, SummaryMentionsKeyFields) {
  Record r = sample_record();
  r.supi_plain = "imsi-001012089900001";
  std::string s = r.summary();
  EXPECT_NE(s.find("RRCSetupRequest"), std::string::npos);
  EXPECT_NE(s.find("0x5F1A"), std::string::npos);
  EXPECT_NE(s.find("PLAINTEXT"), std::string::npos);
}

TEST(Record, CsvRowFieldCountMatchesHeader) {
  auto count_commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(count_commas(record_csv_header()),
            count_commas(record_csv_row(sample_record())));
}

// --- Vocab -------------------------------------------------------------

// The agent maps ran codec variant indices straight to MsgType values, so
// the vocab name table must track rrc_all_names()/nas_all_names() exactly.
TEST(Vocab, AlignsWithRanCodecNameTables) {
  const auto& rrc = ran::rrc_all_names();
  ASSERT_EQ(rrc.size(), vocab::kRrcMsgCount);
  for (std::size_t i = 0; i < rrc.size(); ++i)
    EXPECT_EQ(vocab::to_name(vocab::msg_from_rrc_index(i)), rrc[i]);
  const auto& nas = ran::nas_all_names();
  ASSERT_EQ(nas.size(), vocab::kNasMsgCount);
  for (std::size_t i = 0; i < nas.size(); ++i)
    EXPECT_EQ(vocab::to_name(vocab::msg_from_nas_index(i)), nas[i]);
}

TEST(Vocab, StrictParseRejectsWhatLenientBuckets) {
  EXPECT_FALSE(vocab::parse_msg("NotAMessage").ok());
  EXPECT_EQ(vocab::msg_or_unknown("NotAMessage"), vocab::MsgType::kUnknown);
  auto parsed = vocab::parse_msg("RRCSetupRequest");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), vocab::MsgType::kRrcSetupRequest);
  EXPECT_EQ(vocab::protocol_of(vocab::MsgType::kRrcSetupRequest),
            vocab::Protocol::kRrc);
  EXPECT_EQ(vocab::protocol_of(vocab::MsgType::kRegistrationRequest),
            vocab::Protocol::kNas);
  EXPECT_EQ(vocab::protocol_of(vocab::MsgType::kUnknown),
            vocab::Protocol::kUnknown);
}

// --- Trace -----------------------------------------------------------

TEST(Trace, SerializeRoundTripWithLabels) {
  Trace trace;
  trace.add(sample_record(), false);
  Record malicious = sample_record();
  malicious.ue_id = 9;
  trace.add(malicious, true);
  auto back = Trace::deserialize(trace.serialize());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 2u);
  EXPECT_FALSE(back.value().entries()[0].malicious);
  EXPECT_TRUE(back.value().entries()[1].malicious);
  EXPECT_EQ(back.value().entries()[1].record, malicious);
  EXPECT_EQ(back.value().malicious_count(), 1u);
}

TEST(Trace, FileRoundTrip) {
  Trace trace;
  trace.add(sample_record(), true);
  std::string path = "/tmp/xsec_test_trace.bin";
  ASSERT_TRUE(trace.save(path).ok());
  auto loaded = Trace::load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 1u);
  std::filesystem::remove(path);
}

TEST(Trace, CorruptFileRejected) {
  Bytes garbage = {1, 2, 3, 4, 5};
  EXPECT_FALSE(Trace::deserialize(garbage).ok());
}

TEST(Trace, FilterUe) {
  Trace trace;
  Record a = sample_record();
  a.ue_id = 1;
  Record b = sample_record();
  b.ue_id = 2;
  trace.add(a);
  trace.add(b);
  trace.add(a);
  EXPECT_EQ(trace.filter_ue(1).size(), 2u);
  EXPECT_EQ(trace.filter_ue(3).size(), 0u);
}

TEST(Trace, CsvHasHeaderAndRows) {
  Trace trace;
  trace.add(sample_record(), true);
  std::string csv = trace.to_csv();
  EXPECT_NE(csv.find("ts_us,"), std::string::npos);
  EXPECT_NE(csv.find(",1\n"), std::string::npos);
}

// --- ControlCommand ----------------------------------------------------

TEST(Control, RoundTrip) {
  ControlCommand cmd;
  cmd.action = ControlCommand::Action::kReleaseUe;
  cmd.rnti = 0x1234;
  auto decoded = decode_control(encode_control(cmd));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().rnti, 0x1234);
  EXPECT_FALSE(decode_control(Bytes{0xFF, 0, 0}).ok());
}

// --- RicAgent ----------------------------------------------------------

struct AgentFixture : public ::testing::Test {
  AgentFixture() {
    AgentHooks hooks;
    hooks.now = [this] { return now; };
    hooks.schedule = [this](SimDuration d, std::function<void()> fn) {
      timers.emplace_back(now + d, std::move(fn));
    };
    hooks.to_ric = [this](std::uint64_t, Bytes wire) {
      to_ric.push_back(std::move(wire));
    };
    hooks.apply_control = [this](const ControlCommand& cmd) {
      controls.push_back(cmd);
      return true;
    };
    agent = std::make_unique<RicAgent>(1001, std::move(hooks));
    agent->attach(taps);
    agent->set_record_sink(
        [this](const Record& r) { records.push_back(r); });
  }

  void feed_f1(const ran::RrcMessage& msg, std::uint32_t ue_id,
               std::uint16_t rnti) {
    ran::F1apMessage f1;
    f1.procedure = ran::rrc_is_uplink(msg)
                       ? ran::F1apProcedure::kUlRrcMessageTransfer
                       : ran::F1apProcedure::kDlRrcMessageTransfer;
    f1.gnb_du_ue_id = ue_id;
    f1.rnti = ran::Rnti{rnti};
    f1.cell = ran::CellId{1, 1};
    f1.rrc_container = ran::encode_rrc(msg);
    taps.emit_f1(now, ran::encode_f1ap(f1));
  }

  void feed_ng(const ran::NasMessage& msg, std::uint64_t ue_id) {
    ran::NgapMessage ngap;
    ngap.procedure = ran::nas_is_uplink(msg)
                         ? ran::NgapProcedure::kUplinkNasTransport
                         : ran::NgapProcedure::kDownlinkNasTransport;
    ngap.ran_ue_ngap_id = ue_id;
    ngap.nas_pdu = ran::encode_nas(msg);
    taps.emit_ng(now, ran::encode_ngap(ngap));
  }

  SimTime now{1000};
  ran::InterfaceTaps taps;
  std::vector<std::pair<SimTime, std::function<void()>>> timers;
  std::vector<Bytes> to_ric;
  std::vector<ControlCommand> controls;
  std::vector<Record> records;
  std::unique_ptr<RicAgent> agent;
};

TEST_F(AgentFixture, SetupRequestAdvertisesMobiFlow) {
  auto setup = oran::decode_setup_request(agent->setup_request());
  ASSERT_TRUE(setup.ok());
  EXPECT_EQ(setup.value().node_id, 1001u);
  ASSERT_EQ(setup.value().functions.size(), 1u);
  EXPECT_EQ(setup.value().functions[0].oid, oran::e2sm::kMobiFlowOid);
}

TEST_F(AgentFixture, ParsesRrcFromF1ap) {
  ran::RrcSetupRequest setup;
  setup.cause = ran::EstablishmentCause::kMoData;
  feed_f1(ran::RrcMessage{setup}, 5, 0xABCD);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].msg, vocab::MsgType::kRrcSetupRequest);
  EXPECT_EQ(records[0].protocol, vocab::Protocol::kRrc);
  EXPECT_EQ(records[0].direction, vocab::Direction::kUl);
  EXPECT_EQ(records[0].msg_name(), "RRCSetupRequest");
  EXPECT_EQ(records[0].rnti, 0xABCD);
  EXPECT_EQ(records[0].establishment_cause,
            vocab::EstablishmentCause::kMoData);
  EXPECT_EQ(records[0].cause_name(), "mo-Data");
  EXPECT_EQ(records[0].timestamp_us, 1000);
  EXPECT_EQ(agent->records_collected(), 1u);
}

TEST_F(AgentFixture, ParsesNasFromNgap) {
  ran::Supi supi{ran::Plmn::test_network(), 42};
  ran::RegistrationRequest reg;
  reg.identity = ran::MobileIdentity::from_suci(ran::make_suci(supi, 1));
  feed_ng(ran::NasMessage{reg}, 5);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].protocol, vocab::Protocol::kNas);
  EXPECT_EQ(records[0].msg, vocab::MsgType::kRegistrationRequest);
  EXPECT_FALSE(records[0].suci.empty());
  EXPECT_TRUE(records[0].supi_plain.empty());  // protected SUCI
}

TEST_F(AgentFixture, NullSchemeSuciExposesPlaintextSupi) {
  ran::Supi supi{ran::Plmn::test_network(), 42};
  ran::RegistrationRequest reg;
  reg.identity =
      ran::MobileIdentity::from_suci(ran::make_suci(supi, 1, true));
  feed_ng(ran::NasMessage{reg}, 5);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].supi_plain, supi.str());
}

TEST_F(AgentFixture, TracksSecurityStateAcrossMessages) {
  ran::NasSecurityModeCommand smc;
  smc.cipher = ran::CipherAlg::kNea0;
  smc.integrity = ran::IntegrityAlg::kNia0;
  feed_ng(ran::NasMessage{smc}, 3);
  feed_ng(ran::NasMessage{ran::RegistrationComplete{}}, 3);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].cipher_alg, vocab::CipherAlg::kNea0);
  // The state persists onto later records of the same UE.
  EXPECT_EQ(records[1].cipher_alg, vocab::CipherAlg::kNea0);
  EXPECT_EQ(records[1].integrity_alg, vocab::IntegrityAlg::kNia0);
  EXPECT_EQ(records[1].cipher_name(), "NEA0");
}

TEST_F(AgentFixture, TracksTmsiFromRegistrationAccept) {
  ran::RegistrationAccept accept;
  accept.guti = ran::Guti{ran::Plmn::test_network(), 1,
                          ran::STmsi{1, 0, 0xAA}};
  feed_ng(ran::NasMessage{accept}, 4);
  feed_ng(ran::NasMessage{ran::RegistrationComplete{}}, 4);
  EXPECT_EQ(records[1].s_tmsi, accept.guti.s_tmsi.packed());
}

TEST_F(AgentFixture, GarbageOnTapsCountsParseErrors) {
  taps.emit_f1(now, {1, 2, 3});
  taps.emit_ng(now, {9});
  EXPECT_EQ(agent->parse_errors(), 2u);
  EXPECT_TRUE(records.empty());
}

TEST_F(AgentFixture, SubscriptionEnablesBufferedReporting) {
  // Subscribe with max_rows = 2 so the second record triggers a flush.
  oran::RicSubscriptionRequest request;
  request.request_id = {1, 1};
  request.ran_function_id = oran::e2sm::kMobiFlowFunctionId;
  request.event_trigger =
      oran::e2sm::encode_event_trigger({10});
  oran::e2sm::ActionDefinition action_def;
  action_def.max_rows = 2;
  request.actions.push_back(
      {1, oran::RicActionType::kReport,
       oran::e2sm::encode_action_definition(action_def)});
  agent->on_e2ap(encode_e2ap(request));
  ASSERT_TRUE(agent->subscribed());
  // Response sent.
  ASSERT_EQ(to_ric.size(), 1u);
  auto response = oran::decode_subscription_response(to_ric[0]);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().admitted_action_ids.size(), 1u);

  feed_f1(ran::RrcMessage{ran::RrcSetupRequest{}}, 1, 0x1);
  EXPECT_EQ(agent->indications_sent(), 0u);
  feed_f1(ran::RrcMessage{ran::RrcSetup{}}, 1, 0x1);
  EXPECT_EQ(agent->indications_sent(), 1u);

  // The indication carries both records as KV rows.
  auto indication = oran::decode_indication_view(to_ric.back());
  ASSERT_TRUE(indication.ok());
  oran::e2sm::RowCursor rows(indication.value().message);
  ASSERT_EQ(rows.count(), 2u);
  auto row = rows.next();
  ASSERT_TRUE(row.has_value());
  auto first = Record::from_kv_bytes(*row);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().msg, vocab::MsgType::kRrcSetupRequest);
  ASSERT_TRUE(rows.next().has_value());
  EXPECT_FALSE(rows.next().has_value());
  EXPECT_TRUE(rows.ok());
}

TEST_F(AgentFixture, PeriodicFlushViaTimer) {
  oran::RicSubscriptionRequest request;
  request.request_id = {1, 1};
  request.ran_function_id = oran::e2sm::kMobiFlowFunctionId;
  request.event_trigger = oran::e2sm::encode_event_trigger({10});
  request.actions.push_back(
      {1, oran::RicActionType::kReport,
       oran::e2sm::encode_action_definition({})});
  agent->on_e2ap(encode_e2ap(request));
  ASSERT_FALSE(timers.empty());

  feed_f1(ran::RrcMessage{ran::RrcSetupRequest{}}, 1, 0x1);
  EXPECT_EQ(agent->indications_sent(), 0u);
  // Fire the flush timer.
  now = timers[0].first;
  timers[0].second();
  EXPECT_EQ(agent->indications_sent(), 1u);
}

TEST_F(AgentFixture, MultipleSubscriptionsEachReceiveReports) {
  auto subscribe = [this](std::uint32_t requestor, std::uint16_t max_rows) {
    oran::RicSubscriptionRequest request;
    request.request_id = {requestor, 1};
    request.ran_function_id = oran::e2sm::kMobiFlowFunctionId;
    request.event_trigger = oran::e2sm::encode_event_trigger({10});
    oran::e2sm::ActionDefinition action_def;
    action_def.max_rows = max_rows;
    request.actions.push_back(
        {1, oran::RicActionType::kReport,
         oran::e2sm::encode_action_definition(action_def)});
    agent->on_e2ap(encode_e2ap(request));
  };
  subscribe(1, 2);
  subscribe(2, 10);
  EXPECT_EQ(agent->subscription_count(), 2u);

  // The smallest max_rows drives the flush; BOTH subscribers get an
  // indication carrying the same rows.
  to_ric.clear();
  feed_f1(ran::RrcMessage{ran::RrcSetupRequest{}}, 1, 0x1);
  feed_f1(ran::RrcMessage{ran::RrcSetup{}}, 1, 0x1);
  std::set<std::uint32_t> requestors;
  for (const Bytes& wire : to_ric) {
    auto indication = oran::decode_indication_view(wire);
    if (indication.ok())
      requestors.insert(indication.value().request_id.requestor_id);
  }
  EXPECT_EQ(requestors, (std::set<std::uint32_t>{1, 2}));
  EXPECT_EQ(agent->indications_sent(), 2u);

  // Deleting one subscription leaves the other serviced.
  oran::RicSubscriptionDeleteRequest del;
  del.request_id = {1, 1};
  agent->on_e2ap(encode_e2ap(del));
  EXPECT_EQ(agent->subscription_count(), 1u);
}

TEST_F(AgentFixture, SubscriptionForWrongFunctionRejected) {
  oran::RicSubscriptionRequest request;
  request.request_id = {1, 1};
  request.ran_function_id = 9;  // not MobiFlow
  request.actions.push_back({1, oran::RicActionType::kReport, {}});
  agent->on_e2ap(encode_e2ap(request));
  EXPECT_FALSE(agent->subscribed());
  auto response = oran::decode_subscription_response(to_ric.back());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().rejected_action_ids.size(), 1u);
}

TEST_F(AgentFixture, ControlRequestAppliedAndAcked) {
  oran::RicControlRequest request;
  request.request_id = {2, 0};
  request.ran_function_id = oran::e2sm::kMobiFlowFunctionId;
  ControlCommand cmd;
  cmd.action = ControlCommand::Action::kReleaseUe;
  cmd.rnti = 0x77;
  request.message = encode_control(cmd);
  agent->on_e2ap(encode_e2ap(request));
  ASSERT_EQ(controls.size(), 1u);
  EXPECT_EQ(controls[0].rnti, 0x77);
  auto ack = oran::decode_control_ack(to_ric.back());
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack.value().success);
}

// --- Agent on a live testbed -------------------------------------------

TEST(AgentLive, CollectsFullSessionTelemetry) {
  sim::Testbed testbed;
  std::vector<Record> records;
  AgentHooks hooks;
  hooks.now = [&testbed] { return testbed.now(); };
  hooks.schedule = [&testbed](SimDuration d, std::function<void()> fn) {
    testbed.queue().schedule_after(d, std::move(fn));
  };
  hooks.to_ric = [](std::uint64_t, Bytes) {};
  RicAgent agent(1, std::move(hooks));
  agent.attach(testbed.taps());
  agent.set_record_sink([&](const Record& r) { records.push_back(r); });

  ran::UeConfig config;
  config.supi = ran::Supi{ran::Plmn::test_network(), 55};
  config.activity_reports = 0;
  testbed.add_ue(config, SimTime::from_ms(1));
  testbed.run_for(SimDuration::from_s(2));

  // The attach flow produces the canonical message sequence.
  std::vector<std::string> msgs;
  for (const auto& r : records) msgs.push_back(std::string(r.msg_name()));
  auto has = [&](const std::string& name) {
    return std::find(msgs.begin(), msgs.end(), name) != msgs.end();
  };
  EXPECT_TRUE(has("RRCSetupRequest"));
  EXPECT_TRUE(has("RRCSetup"));
  EXPECT_TRUE(has("RRCSetupComplete"));
  EXPECT_TRUE(has("RegistrationRequest"));
  EXPECT_TRUE(has("AuthenticationRequest"));
  EXPECT_TRUE(has("AuthenticationResponse"));
  EXPECT_TRUE(has("SecurityModeCommand"));
  EXPECT_TRUE(has("SecurityModeComplete"));
  EXPECT_TRUE(has("RegistrationAccept"));
  EXPECT_TRUE(has("RegistrationComplete"));
  // Message order sanity: setup before registration before auth.
  auto index_of = [&](const std::string& name) {
    return std::find(msgs.begin(), msgs.end(), name) - msgs.begin();
  };
  EXPECT_LT(index_of("RRCSetupRequest"), index_of("RegistrationRequest"));
  EXPECT_LT(index_of("RegistrationRequest"),
            index_of("AuthenticationRequest"));
  EXPECT_LT(index_of("AuthenticationRequest"),
            index_of("RegistrationAccept"));
}

}  // namespace
}  // namespace xsec::mobiflow
