// Tests for the extension modules built from the paper's discussion
// section: the supervised attack classifier (§4.1), the ensemble detector,
// the SMO training rApp, spec retrieval (RAG, §5), and the TMSI blocklist
// remediation path.
#include <gtest/gtest.h>

#include "attacks/attack.hpp"
#include "core/datasets.hpp"
#include "core/smo.hpp"
#include "detect/classifier.hpp"
#include "detect/ensemble.hpp"
#include "llm/retrieval.hpp"
#include "sim/traffic.hpp"

namespace xsec {
namespace {

namespace vocab = mobiflow::vocab;

// --- Event extraction ------------------------------------------------------

TEST(Events, ExtractsMaximalRuns) {
  std::vector<double> scores = {0.1, 2.0, 3.0, 0.1, 0.1, 0.1, 0.1, 5.0};
  auto events = detect::extract_events(scores, 1.0, /*merge_gap=*/2);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].first_window, 1u);
  EXPECT_EQ(events[0].last_window, 2u);
  EXPECT_EQ(events[0].errors, (std::vector<double>{2.0, 3.0}));
  EXPECT_EQ(events[1].first_window, 7u);
}

TEST(Events, MergeGapBridgesDips) {
  std::vector<double> scores = {2.0, 0.5, 2.0};
  auto merged = detect::extract_events(scores, 1.0, /*merge_gap=*/1);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].errors.size(), 3u);  // dip included in the curve
  auto split = detect::extract_events(scores, 1.0, /*merge_gap=*/0);
  EXPECT_EQ(split.size(), 2u);
}

TEST(Events, EmptyAndAllBenign) {
  EXPECT_TRUE(detect::extract_events({}, 1.0).empty());
  EXPECT_TRUE(detect::extract_events({0.1, 0.2}, 1.0).empty());
}

TEST(Events, PatternHasFixedDimensionAndScaleInvariantShape) {
  detect::AnomalyEvent short_event{0, 1, {2.0, 4.0}};
  detect::AnomalyEvent long_event{0, 7, {2, 3, 4, 5, 5, 4, 3, 2}};
  auto a = detect::event_pattern(short_event, 1.0);
  auto b = detect::event_pattern(long_event, 1.0);
  EXPECT_EQ(a.size(), detect::event_pattern_dim());
  EXPECT_EQ(b.size(), detect::event_pattern_dim());
}

// --- AttackClassifier -------------------------------------------------------

TEST(Classifier, SeparatesSyntheticPatternFamilies) {
  // Three synthetic "attack types" with distinct error-curve shapes:
  // flat-high, rising spike, short burst.
  Rng rng(5);
  std::vector<std::vector<float>> patterns;
  std::vector<std::size_t> labels;
  auto make_event = [&rng](int kind) {
    detect::AnomalyEvent event;
    std::size_t n = 6 + rng.uniform_u64(0, 6);
    for (std::size_t i = 0; i < n; ++i) {
      double x = static_cast<double>(i) / static_cast<double>(n - 1);
      double value = 0;
      if (kind == 0) value = 5.0 + rng.normal(0, 0.3);
      if (kind == 1) value = 1.5 + 8.0 * x + rng.normal(0, 0.3);
      if (kind == 2) value = (i < 2 ? 12.0 : 1.2) + rng.normal(0, 0.3);
      event.errors.push_back(std::max(1.1, value));
    }
    return event;
  };
  for (int kind = 0; kind < 3; ++kind)
    for (int i = 0; i < 30; ++i) {
      patterns.push_back(detect::event_pattern(make_event(kind), 1.0));
      labels.push_back(static_cast<std::size_t>(kind));
    }

  detect::AttackClassifier classifier({"flat", "rising", "burst"},
                                      detect::event_pattern_dim());
  double loss = classifier.fit(patterns, labels);
  EXPECT_LT(loss, 0.2);

  // Held-out samples from each family classify correctly.
  int correct = 0;
  for (int kind = 0; kind < 3; ++kind)
    for (int i = 0; i < 10; ++i)
      if (classifier.predict(detect::event_pattern(make_event(kind), 1.0)) ==
          static_cast<std::size_t>(kind))
        ++correct;
  EXPECT_GE(correct, 27);  // >= 90%
}

TEST(Classifier, ProbabilitiesSumToOne) {
  detect::AttackClassifier classifier({"a", "b"},
                                      detect::event_pattern_dim());
  detect::AnomalyEvent event{0, 2, {2.0, 3.0, 2.5}};
  auto probs = classifier.probabilities(detect::event_pattern(event, 1.0));
  ASSERT_EQ(probs.size(), 2u);
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-6);
}

// --- EnsembleDetector -------------------------------------------------------

TEST(Ensemble, GroupsCoverAllFeatures) {
  detect::FeatureEncoder encoder;
  auto groups = detect::groups_by_category(encoder);
  ASSERT_EQ(groups.size(), 4u);
  std::size_t total = 0;
  for (const auto& group : groups) total += group.columns.size();
  EXPECT_EQ(total, encoder.dim());
}

TEST(Ensemble, DetectsInjectedIdentifierAnomaly) {
  detect::FeatureEncoder encoder;
  // Benign repeating flow.
  mobiflow::Trace trace;
  std::int64_t t = 0;
  for (int s = 0; s < 40; ++s) {
    for (const char* msg : {"RRCSetupRequest", "RRCSetup", "RRCSetupComplete",
                            "RegistrationRequest", "AuthenticationRequest",
                            "AuthenticationResponse", "RegistrationAccept",
                            "RRCRelease"}) {
      mobiflow::Record r;
      r.msg = vocab::msg_or_unknown(msg);
      r.protocol = vocab::protocol_of(r.msg);
      r.direction = vocab::Direction::kUl;
      r.rnti = static_cast<std::uint16_t>(100 + s);
      r.ue_id = static_cast<std::uint64_t>(s + 1);
      r.timestamp_us = (t += 2500);
      trace.add(r);
    }
  }
  auto dataset = detect::WindowDataset::from_trace(trace, encoder, 5);

  detect::EnsembleConfig config;
  config.detector.epochs = 12;
  detect::EnsembleDetector detector(5, encoder.dim(),
                                    detect::groups_by_category(encoder),
                                    config);
  detector.fit(dataset);
  EXPECT_EQ(detector.member_count(), 4u);
  EXPECT_GT(detector.threshold(), 0.0);

  // A window with a plaintext-SUPI record must alarm, and the identifier
  // member should dominate.
  std::vector<std::vector<float>> rows;
  for (std::size_t i = 0; i < 5; ++i) {
    const float* p = dataset.features().row(i);
    rows.emplace_back(p, p + encoder.dim());
  }
  double benign_score = detector.score_window(rows);
  mobiflow::Record evil;
  evil.protocol = vocab::Protocol::kNas;
  evil.msg = vocab::MsgType::kRegistrationRequest;
  evil.direction = vocab::Direction::kUl;
  evil.rnti = 0x666;
  evil.supi_plain = "imsi-001019999999999";
  evil.timestamp_us = t + 1000;
  detect::EncodeContext ctx;
  rows.back() = encoder.encode(evil, ctx);
  double evil_score = detector.score_window(rows);
  EXPECT_GT(evil_score, benign_score * 3);
  EXPECT_GT(evil_score, detector.threshold());
  EXPECT_EQ(detector.member_name(detector.last_dominant_member()),
            "identifiers");
}

// --- SpecRetriever ----------------------------------------------------------

TEST(Retrieval, TokensKeepSpecNumbers) {
  auto tokens = llm::retrieval_tokens("TS 38.331 §5.3.3, the UE sends...");
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "38.331"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "sends"), tokens.end());
  // Trailing periods stripped, single chars dropped.
  for (const auto& token : tokens) {
    EXPECT_GT(token.size(), 1u);
    EXPECT_NE(token.back(), '.');
  }
}

TEST(Retrieval, TopHitMatchesTopic) {
  llm::SpecRetriever retriever;
  struct Case {
    const char* query;
    const char* expected_ref_fragment;
  } cases[] = {
      {"null cipher NEA0 NIA0 bidding down security capabilities",
       "33.501 §5.3.2"},
      {"SUCI null scheme plaintext MSIN identity concealment", "33.501 §6.12"},
      {"S-TMSI temporary identity replay two contexts", "23.003"},
      {"RRCSetupRequest T300 establishment cause", "38.331 §5.3.3"},
      {"AUTN RES authentication vector MAC failure", "33.501 §6.1.3"},
  };
  for (const auto& test_case : cases) {
    auto hits = retriever.query(test_case.query, 1);
    ASSERT_FALSE(hits.empty()) << test_case.query;
    EXPECT_NE(hits[0].passage->ref.find(test_case.expected_ref_fragment),
              std::string::npos)
        << test_case.query << " -> " << hits[0].passage->ref;
  }
}

TEST(Retrieval, AugmentAppendsSpecContext) {
  llm::SpecRetriever retriever;
  std::string augmented =
      retriever.augment_prompt("analyze this SecurityModeCommand NEA0", 2);
  EXPECT_NE(augmented.find("<SPEC_CONTEXT>"), std::string::npos);
  EXPECT_NE(augmented.find("33.501"), std::string::npos);
}

TEST(Retrieval, IrrelevantQueryReturnsNothing) {
  llm::SpecRetriever retriever;
  EXPECT_TRUE(retriever.query("zzzz qqqq xxxx", 3).empty());
}

// --- TMSI blocklist ---------------------------------------------------------

TEST(TmsiBlocklist, BlocksReplayedSetupButNotOthers) {
  sim::Testbed testbed;
  std::uint64_t victim_part1 = 0x123456789ULL & ((1ULL << 39) - 1);
  testbed.gnb().block_tmsi(victim_part1);
  EXPECT_EQ(testbed.gnb().blocked_tmsi_count(), 1u);

  // A UE presenting the blocked identifier is rejected...
  ran::UeConfig rogue;
  rogue.supi = ran::Supi{ran::Plmn::test_network(), 1};
  rogue.stored_guti =
      ran::Guti{ran::Plmn::test_network(), 1,
                ran::STmsi::from_packed(victim_part1)};
  rogue.max_reject_retries = 0;
  testbed.add_ue(rogue, SimTime::from_ms(1));
  // ...while a normal UE attaches fine.
  ran::UeConfig normal;
  normal.supi = ran::Supi{ran::Plmn::test_network(), 2};
  normal.seed = 2;
  testbed.add_ue(normal, SimTime::from_ms(5));

  testbed.run_for(SimDuration::from_s(2));
  EXPECT_GE(testbed.gnb().blocked_setup_attempts(), 1u);
  EXPECT_EQ(testbed.amf().registered_count(), 1u);

  testbed.gnb().unblock_tmsi(victim_part1);
  EXPECT_EQ(testbed.gnb().blocked_tmsi_count(), 0u);
}

// --- Record KV bytes --------------------------------------------------------

TEST(RecordKvBytes, RoundTrip) {
  mobiflow::Record r;
  r.protocol = vocab::Protocol::kNas;
  r.msg = vocab::MsgType::kRegistrationRequest;
  r.direction = vocab::Direction::kUl;
  r.rnti = 0x77;
  r.s_tmsi = 42;
  r.supi_plain = "imsi-001010000000042";
  auto back = mobiflow::Record::from_kv_bytes(r.to_kv_bytes());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), r);
  EXPECT_FALSE(mobiflow::Record::from_kv_bytes(Bytes{0xFF}).ok());
}

// --- A1 policies -------------------------------------------------------------

TEST(A1, PolicyContentAccessors) {
  oran::A1Policy policy;
  policy.content = {{"threshold_scale", "1.5"},
                    {"auto_remediate", "true"},
                    {"bad_number", "abc"}};
  EXPECT_DOUBLE_EQ(policy.get_double("threshold_scale", 1.0), 1.5);
  EXPECT_DOUBLE_EQ(policy.get_double("missing", 2.0), 2.0);
  EXPECT_DOUBLE_EQ(policy.get_double("bad_number", 3.0), 3.0);
  EXPECT_TRUE(policy.get_bool("auto_remediate", false));
  EXPECT_FALSE(policy.get_bool("missing", false));
  EXPECT_EQ(policy.get("threshold_scale"), "1.5");
}

TEST(A1, DetectionTuningScalesMobiWatchThreshold) {
  core::Pipeline pipeline;
  // Train a tiny detector so a threshold exists.
  core::ScenarioConfig benign_config;
  benign_config.traffic.num_sessions = 10;
  benign_config.traffic.seed = 61;
  benign_config.run_time = SimDuration::from_s(3);
  mobiflow::Trace benign = core::collect_benign(benign_config);
  core::EvalConfig eval;
  eval.detector.epochs = 3;
  auto detector =
      core::train_detector(core::ModelKind::kAutoencoder, benign, eval);
  double base = detector->threshold();
  pipeline.install_detector(detector,
                            detect::FeatureEncoder(eval.features));

  oran::A1Policy policy;
  policy.policy_type = oran::kPolicyDetectionTuning;
  policy.policy_id = "tune-1";
  policy.content = {{"threshold_scale", "2.0"}};
  EXPECT_EQ(pipeline.ric().apply_policy("mobiwatch", policy),
            oran::PolicyStatus::kEnforced);
  EXPECT_NEAR(detector->threshold(), base * 2.0, base * 1e-6);

  // Wrong policy type is reported unsupported; unknown xApp not enforced.
  oran::A1Policy wrong;
  wrong.policy_type = oran::kPolicyResponseControl;
  EXPECT_EQ(pipeline.ric().apply_policy("mobiwatch", wrong),
            oran::PolicyStatus::kUnsupported);
  EXPECT_EQ(pipeline.ric().apply_policy("nope", policy),
            oran::PolicyStatus::kNotEnforced);
}

TEST(A1, ResponseControlTogglesAnalyzer) {
  core::Pipeline pipeline;
  oran::A1Policy policy;
  policy.policy_type = oran::kPolicyResponseControl;
  policy.content = {{"auto_remediate", "on"}, {"use_rag", "true"}};
  EXPECT_EQ(pipeline.ric().apply_policy("llm-analyzer", policy),
            oran::PolicyStatus::kEnforced);
  oran::A1Policy invalid_scale;
  invalid_scale.policy_type = oran::kPolicyDetectionTuning;
  invalid_scale.content = {{"threshold_scale", "-1"}};
  EXPECT_EQ(pipeline.ric().apply_policy("mobiwatch", invalid_scale),
            oran::PolicyStatus::kNotEnforced);
}

TEST(A1, IncidentCloseGapAdjustable) {
  core::Pipeline pipeline;
  oran::A1Policy policy;
  policy.policy_type = oran::kPolicyDetectionTuning;
  policy.content = {{"incident_close_gap", "12"}};
  EXPECT_EQ(pipeline.ric().apply_policy("mobiwatch", policy),
            oran::PolicyStatus::kEnforced);
  EXPECT_EQ(pipeline.mobiwatch().config().incident_close_gap, 12u);
}

// --- Expert robustness to benign paging --------------------------------------

TEST(ExpertPaging, BenignPagingProducesNoEvidence) {
  mobiflow::Trace trace;
  auto add = [&trace](const char* proto, const char* msg, const char* dir,
                      std::uint64_t ue, std::int64_t t,
                      std::uint64_t tmsi = 0) {
    mobiflow::Record r;
    r.protocol = vocab::protocol_or_unknown(proto);
    r.msg = vocab::msg_or_unknown(msg);
    r.direction = std::string_view(dir) == "DL" ? vocab::Direction::kDl
                                                : vocab::Direction::kUl;
    r.ue_id = ue;
    r.rnti = static_cast<std::uint16_t>(0x100 + ue);
    r.timestamp_us = t;
    r.s_tmsi = tmsi;
    trace.add(r);
  };
  // Paging precedes an mt-Access session that presents the paged TMSI.
  add("RRC", "Paging", "DL", 0, 1000, 0xABCD);
  add("RRC", "RRCSetupRequest", "UL", 1, 21000, 0xABCD);
  add("RRC", "RRCSetup", "DL", 1, 23000, 0xABCD);
  add("RRC", "RRCSetupComplete", "UL", 1, 25000, 0xABCD);
  add("NAS", "RegistrationRequest", "UL", 1, 25000, 0xABCD);
  add("NAS", "AuthenticationRequest", "DL", 1, 27000, 0xABCD);
  add("NAS", "AuthenticationResponse", "UL", 1, 29000, 0xABCD);
  add("NAS", "RegistrationAccept", "DL", 1, 31000, 0xABCD);
  add("RRC", "RRCRelease", "DL", 1, 60000, 0xABCD);

  auto stats = llm::extract_stats(trace);
  EXPECT_TRUE(stats.replayed_tmsis.empty());  // broadcast is not ownership
  EXPECT_TRUE(llm::extract_evidence(stats).empty());
}

// --- Pipeline finalize --------------------------------------------------------

TEST(PipelineFinalize, IdempotentAndSafeWithoutDetector) {
  core::Pipeline pipeline;
  pipeline.finalize();
  pipeline.finalize();
  EXPECT_EQ(pipeline.mobiwatch().anomalies_flagged(), 0u);
}

// --- SMO training rApp ------------------------------------------------------

TEST(Smo, DoesNotRetrainBelowMinRecords) {
  core::Pipeline pipeline;
  core::TrainingRAppConfig config;
  config.period = SimDuration::from_s(1);
  config.min_records = 100000;  // unreachable
  core::TrainingRApp rapp(&pipeline, config);
  rapp.start();
  sim::TrafficConfig traffic;
  traffic.num_sessions = 4;
  traffic.seed = 9;
  sim::BenignTrafficGenerator generator(&pipeline.testbed(), traffic);
  generator.schedule_all();
  pipeline.run_for(SimDuration::from_s(3));
  EXPECT_EQ(rapp.retrains_completed(), 0u);
  EXPECT_GT(rapp.records_harvested(), 0u);  // it did look
  EXPECT_FALSE(pipeline.mobiwatch().has_detector());
}

TEST(Smo, RetrainsFromSdlTelemetryAndDeploys) {
  core::PipelineConfig pipeline_config;
  core::Pipeline pipeline(pipeline_config);

  core::TrainingRAppConfig smo_config;
  smo_config.period = SimDuration::from_s(2);
  smo_config.min_records = 150;
  smo_config.eval.detector.epochs = 4;  // keep the test fast
  core::TrainingRApp rapp(&pipeline, smo_config);
  rapp.start();

  EXPECT_FALSE(pipeline.mobiwatch().has_detector());

  // Traffic spans past the rApp's first training tick so the deployed
  // model has live windows to score.
  sim::TrafficConfig traffic;
  traffic.num_sessions = 25;
  traffic.arrival_mean = SimDuration::from_ms(180);
  traffic.seed = 41;
  sim::BenignTrafficGenerator generator(&pipeline.testbed(), traffic);
  generator.schedule_all();
  pipeline.run_for(SimDuration::from_s(7));

  // The rApp harvested telemetry, trained, and hot-deployed a model.
  EXPECT_GE(rapp.retrains_completed(), 1u);
  EXPECT_GE(rapp.records_harvested(), smo_config.min_records);
  EXPECT_GT(rapp.deployed_threshold(), 0.0);
  EXPECT_TRUE(pipeline.mobiwatch().has_detector());
  // The deployed model scores incoming windows from then on.
  EXPECT_GT(pipeline.mobiwatch().windows_scored(), 0u);
}

}  // namespace
}  // namespace xsec
