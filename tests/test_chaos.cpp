// Chaos tests: the full pipeline under an adversarial E2 transport.
//
// Every test runs the real Figure 3 assembly with a FaultyE2Transport
// fault plan — random indication loss, duplication, reordering, and hard
// link-down epochs — and asserts the recovery machinery end to end:
// agent reconnect with backoff, NACK-driven retransmission, duplicate
// suppression, explicit telemetry-gap degradation in MobiWatch, and LLM
// outage deferral. The robustness counters exposed by PipelineStats are
// the test surface.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "attacks/attack.hpp"
#include "core/datasets.hpp"
#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "llm/client.hpp"
#include "obs/export.hpp"
#include "oran/e2sm.hpp"
#include "oran/xapp.hpp"
#include "sim/traffic.hpp"

namespace xsec {
namespace {

// --- Sequence-audit xApp ----------------------------------------------------

/// Subscribes to the MobiFlow function alongside MobiWatch and logs, per
/// subscription stream, every delivered sequence number and every declared
/// gap range. The audit then proves the RIC's delivery contract: after all
/// recovery machinery has run, each stream's delivered + gap-covered
/// sequences form a strictly increasing, duplicate-free, contiguous run.
class SequenceAuditXapp : public oran::XApp {
 public:
  using StreamId = std::pair<std::uint64_t, std::uint32_t>;  // node, instance
  struct StreamLog {
    std::vector<std::uint32_t> delivered;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> gaps;
  };

  SequenceAuditXapp() : oran::XApp("seq-audit") {}

  void on_start() override {
    for (std::uint64_t node_id : ric().connected_nodes())
      subscribe_to_node(node_id);
  }
  void on_node_connected(std::uint64_t node_id) override {
    subscribe_to_node(node_id);
  }
  void on_indication_view(std::uint64_t node_id,
                          const oran::RicIndicationView& indication) override {
    logs_[{node_id, indication.request_id.instance_id}].delivered.push_back(
        indication.sequence_number);
  }
  void on_telemetry_gap(std::uint64_t node_id,
                        const oran::RicRequestId& request_id,
                        std::uint32_t first_sequence,
                        std::uint32_t last_sequence) override {
    logs_[{node_id, request_id.instance_id}].gaps.push_back(
        {first_sequence, last_sequence});
  }

  const std::map<StreamId, StreamLog>& logs() const { return logs_; }

 private:
  void subscribe_to_node(std::uint64_t node_id) {
    const auto* functions = ric().node_functions(node_id);
    if (!functions) return;
    for (const auto& f : *functions) {
      if (f.function_id != oran::e2sm::kMobiFlowFunctionId) continue;
      oran::e2sm::EventTriggerDefinition trigger;
      oran::RicAction action;
      action.action_id = 1;
      action.type = oran::RicActionType::kReport;
      action.definition =
          oran::e2sm::encode_action_definition(oran::e2sm::ActionDefinition{});
      ric().subscribe(this, node_id, f.function_id,
                      oran::e2sm::encode_event_trigger(trigger), {action});
    }
  }

  std::map<StreamId, StreamLog> logs_;
};

/// The delivery contract for one stream: every sequence between the first
/// and last observed is accounted for exactly once — either delivered to
/// the xApp or explicitly declared lost. Nothing silently missing, nothing
/// accepted twice.
void audit_stream(const SequenceAuditXapp::StreamLog& log) {
  for (std::size_t i = 1; i < log.delivered.size(); ++i)
    ASSERT_LT(log.delivered[i - 1], log.delivered[i])
        << "out-of-order or duplicate delivery";
  std::set<std::uint64_t> covered;
  for (std::uint32_t seq : log.delivered)
    ASSERT_TRUE(covered.insert(seq).second) << "sequence " << seq
                                            << " delivered twice";
  for (const auto& [first, last] : log.gaps) {
    ASSERT_LE(first, last);
    for (std::uint64_t seq = first; seq <= last; ++seq)
      ASSERT_TRUE(covered.insert(seq).second)
          << "sequence " << seq << " both delivered and declared lost";
  }
  if (covered.empty()) return;
  EXPECT_EQ(covered.size(), *covered.rbegin() - *covered.begin() + 1)
      << "unaccounted hole in the sequence space";
}

oran::FaultPlan lossy_plan(std::uint64_t seed) {
  oran::FaultPlan plan;
  plan.drop_probability = 0.08;
  plan.duplicate_probability = 0.08;
  plan.reorder_probability = 0.15;
  plan.seed = seed;
  return plan;
}

/// The generator must outlive the simulation run: its scheduled events
/// capture `this`. Callers hold the returned handle across run_for.
std::unique_ptr<sim::BenignTrafficGenerator> schedule_benign(
    core::Pipeline& pipeline, std::uint64_t seed, int sessions = 8,
    double arrival_mean_ms = 60.0) {
  sim::TrafficConfig traffic;
  traffic.num_sessions = sessions;
  traffic.arrival_mean = SimDuration::from_ms(arrival_mean_ms);
  traffic.seed = seed;
  auto generator = std::make_unique<sim::BenignTrafficGenerator>(
      &pipeline.testbed(), traffic);
  generator->schedule_all();
  return generator;
}

// --- Link-down epochs: reconnect with backoff -------------------------------

TEST(ChaosTransport, AgentReconnectsWithBackoffAcrossLinkDownEpochs) {
  core::PipelineConfig config;
  config.fault_plan.drop_probability = 0.05;
  config.fault_plan.link_epochs = {
      {SimTime::from_ms(1000), SimDuration::from_ms(350)},
      {SimTime::from_ms(2200), SimDuration::from_ms(450)},
  };
  config.fault_plan.seed = 0xC0FFEE;
  core::Pipeline pipeline(config);
  auto* audit = static_cast<SequenceAuditXapp*>(
      pipeline.ric().register_xapp(std::make_unique<SequenceAuditXapp>()));
  // Enough sessions that benign traffic keeps arriving well past the second
  // recovery, so post-outage collection is observable.
  auto traffic_handle = schedule_benign(pipeline, 99, 40, 110.0);

  pipeline.run_for(SimDuration::from_s(3.2));
  std::size_t records_after_recovery = pipeline.mobiwatch().records_seen();
  EXPECT_GT(records_after_recovery, 0u);
  pipeline.run_for(SimDuration::from_s(1.8));
  pipeline.finalize();

  core::PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.link_down_events, 2u);
  EXPECT_EQ(stats.link_down_drops + stats.records_dropped_outage, 0u)
      << "agent must buffer, not transmit, during an outage";
  // Both outages end with a successful reconnect; the backoff loop probes
  // while the link is down (so attempts > reconnects) but is exponential,
  // not a hot loop (so attempts stay small for sub-second outages).
  EXPECT_EQ(pipeline.agent().reconnects(), 2u);
  EXPECT_GT(pipeline.agent().reconnect_attempts(),
            pipeline.agent().reconnects());
  EXPECT_LE(pipeline.agent().reconnect_attempts(), 10u);
  EXPECT_TRUE(pipeline.agent().subscribed());
  EXPECT_EQ(stats.stale_subscriptions_cleared, 0u)
      << "hard link-down tears subscriptions down eagerly, not on re-setup";
  // Telemetry flows again after the second recovery, and MobiWatch marked
  // both discontinuities instead of scoring across them.
  EXPECT_GT(pipeline.mobiwatch().records_seen(), records_after_recovery);
  EXPECT_GE(pipeline.mobiwatch().gaps_observed(), 2u);
  EXPECT_EQ(pipeline.ric().sdl().size("mobiflow.gaps"),
            pipeline.mobiwatch().gaps_observed());
  // And the delivery contract held across both outages: nothing accepted
  // after recovery was lost or duplicated.
  ASSERT_FALSE(audit->logs().empty());
  for (const auto& [id, log] : audit->logs()) {
    SCOPED_TRACE("node " + std::to_string(id.first) + " instance " +
                 std::to_string(id.second));
    audit_stream(log);
  }
}

TEST(ChaosTransport, StatsSnapshotRendersEveryCounterGroup) {
  core::PipelineConfig config;
  config.fault_plan.drop_probability = 0.05;
  core::Pipeline pipeline(config);
  auto traffic_handle = schedule_benign(pipeline, 7, 4);
  pipeline.run_for(SimDuration::from_s(2));
  pipeline.finalize();
  std::string text = pipeline.stats().to_text();
  for (const char* needle : {"E2 transport", "RIC agents", "near-RT RIC",
                             "MobiWatch", "LLM analyzer", "gaps"})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

// --- Seed sweep: the delivery contract holds under any fault stream --------

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, SequenceAuditHoldsUnderLossDupReorderAndOutage) {
  core::PipelineConfig config;
  config.fault_plan = lossy_plan(GetParam());
  config.fault_plan.link_epochs = {
      {SimTime::from_ms(1500), SimDuration::from_ms(400)}};
  core::Pipeline pipeline(config);
  auto* audit = static_cast<SequenceAuditXapp*>(
      pipeline.ric().register_xapp(std::make_unique<SequenceAuditXapp>()));
  auto traffic_handle = schedule_benign(pipeline, GetParam() * 17 + 1);

  pipeline.run_for(SimDuration::from_s(4));
  pipeline.finalize();

  core::PipelineStats stats = pipeline.stats();
  // The fault plan actually bit: losses, duplicates and reorderings all
  // occurred, and the recovery machinery engaged.
  EXPECT_GT(stats.frames_dropped, 0u);
  EXPECT_GT(stats.frames_duplicated, 0u);
  EXPECT_GT(stats.frames_reordered, 0u);
  EXPECT_GT(stats.nacks_sent, 0u);
  EXPECT_GT(stats.indications_retransmitted, 0u);
  EXPECT_GT(stats.duplicates_suppressed, 0u);
  EXPECT_EQ(stats.link_down_events, 1u);
  EXPECT_EQ(pipeline.agent().reconnects(), 1u);
  // Retransmission healed at least part of what the transport lost.
  EXPECT_GT(stats.indications_recovered, 0u);

  // The contract: nothing silently lost, nothing accepted twice — on the
  // audit's streams and (via shared counters) MobiWatch's.
  ASSERT_FALSE(audit->logs().empty());
  std::size_t audited_streams = 0;
  for (const auto& [id, log] : audit->logs()) {
    SCOPED_TRACE("node " + std::to_string(id.first) + " instance " +
                 std::to_string(id.second));
    audit_stream(log);
    if (!log.delivered.empty()) ++audited_streams;
  }
  EXPECT_GT(audited_streams, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Values(101u, 202u, 303u));

// --- Detection under faults -------------------------------------------------

/// Shared trained detector (training dominates runtime; do it once).
class ChaosDetectTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::vector<mobiflow::Trace> captures;
    double arrival_ms = 60.0;
    for (std::uint64_t seed : {71u, 72u}) {
      core::ScenarioConfig benign_config;
      benign_config.testbed.seed = seed;
      benign_config.traffic.num_sessions = 40;
      benign_config.traffic.seed = seed * 13;
      benign_config.traffic.arrival_mean = SimDuration::from_ms(arrival_ms);
      benign_config.run_time = SimDuration::from_s(8);
      captures.push_back(core::collect_benign(benign_config));
      arrival_ms += 60.0;
    }
    core::EvalConfig eval;
    eval.detector.epochs = 25;
    detector_ = new std::shared_ptr<detect::AnomalyDetector>(
        core::train_detector(core::ModelKind::kAutoencoder, captures, eval));
    eval_config_ = new core::EvalConfig(eval);
  }
  static void TearDownTestSuite() {
    delete detector_;
    delete eval_config_;
  }

  struct RunResult {
    std::size_t anomalies = 0;
    std::size_t incidents = 0;
    std::size_t windows_scored = 0;
    std::size_t gaps_observed = 0;
  };

  static RunResult run_benign(const oran::FaultPlan& plan) {
    core::PipelineConfig config;
    config.fault_plan = plan;
    core::Pipeline pipeline(config);
    pipeline.install_detector(
        *detector_, detect::FeatureEncoder(eval_config_->features));
    auto traffic_handle = schedule_benign(pipeline, 99);
    pipeline.run_for(SimDuration::from_s(4));
    pipeline.finalize();
    RunResult result;
    result.anomalies = pipeline.mobiwatch().anomalies_flagged();
    result.incidents = pipeline.analyzer().incidents_analyzed();
    result.windows_scored = pipeline.mobiwatch().windows_scored();
    result.gaps_observed = pipeline.mobiwatch().gaps_observed();
    return result;
  }

  static std::shared_ptr<detect::AnomalyDetector>* detector_;
  static core::EvalConfig* eval_config_;
};

std::shared_ptr<detect::AnomalyDetector>* ChaosDetectTest::detector_ = nullptr;
core::EvalConfig* ChaosDetectTest::eval_config_ = nullptr;

TEST_F(ChaosDetectTest, BenignFalseIncidentsStayAtFaultFreeBaseline) {
  RunResult baseline = run_benign(oran::FaultPlan{});
  oran::FaultPlan faulty;
  faulty.drop_probability = 0.05;
  faulty.link_epochs = {{SimTime::from_ms(1000), SimDuration::from_ms(350)},
                        {SimTime::from_ms(2500), SimDuration::from_ms(450)}};
  faulty.seed = 0xF00D;
  RunResult faulted = run_benign(faulty);

  EXPECT_EQ(baseline.gaps_observed, 0u);
  EXPECT_GE(faulted.gaps_observed, 2u);
  // Graceful degradation, not hallucination: gap-spanning windows are
  // quarantined instead of scored, so the faults must not manufacture
  // incidents that the clean run did not have.
  EXPECT_LE(faulted.windows_scored, baseline.windows_scored);
  EXPECT_LE(faulted.anomalies, baseline.anomalies);
  EXPECT_LE(faulted.incidents, baseline.incidents);
}

TEST_F(ChaosDetectTest, AttackStillDetectedUnderFaults) {
  core::PipelineConfig config;
  config.analyzer.model = "ChatGPT-4o";
  config.fault_plan.drop_probability = 0.05;
  config.fault_plan.link_epochs = {
      {SimTime::from_ms(2000), SimDuration::from_ms(350)}};
  config.fault_plan.seed = 0xA77AC4;
  core::Pipeline pipeline(config);
  pipeline.install_detector(*detector_,
                            detect::FeatureEncoder(eval_config_->features));
  auto traffic_handle = schedule_benign(pipeline, 99);
  auto attack = attacks::make_bts_dos();
  attack->launch(pipeline.testbed(), SimTime::from_ms(250));
  pipeline.run_for(SimDuration::from_s(4));
  pipeline.finalize();

  EXPECT_GT(pipeline.mobiwatch().anomalies_flagged(), 0u);
  EXPECT_GE(pipeline.analyzer().incidents_analyzed(), 1u);
  EXPECT_EQ(pipeline.agent().reconnects(), 1u);
}

// --- Shard-count determinism ------------------------------------------------

void schedule_site_sessions(core::Pipeline& pipeline, std::size_t site,
                            int sessions);

/// Everything a seeded chaos run can externalize, captured byte-for-byte.
struct ChaosSnapshot {
  std::string prometheus;
  std::string json;
  std::string stats_text;
  std::string incidents;
};

TEST_F(ChaosDetectTest, ShardCountNeverChangesAnyExportedByte) {
  // The determinism oracle of the sharded RIC: under a fixed seed the
  // Prometheus export, the JSON snapshot (metrics + spans), the robustness
  // counters, and every anomaly report are byte-identical whether scoring
  // runs inline or fans out across 2 or 4 worker threads — chaos faults,
  // multi-site traffic, an attack, and gap quarantine all active.
  auto run = [&](std::size_t shards) {
    core::PipelineConfig config;
    config.testbed.num_cells = 2;
    config.ric_shards = shards;
    config.fault_plan.drop_probability = 0.05;
    config.fault_plan.reorder_probability = 0.10;
    config.fault_plan.link_epochs = {
        {SimTime::from_ms(1500), SimDuration::from_ms(300)}};
    config.fault_plan.seed = 0xD373C7;
    core::Pipeline pipeline(config);
    EXPECT_EQ(pipeline.ric_shards(), shards);
    ChaosSnapshot snap;
    // Every anomaly report the detection xApp publishes, in publish order.
    pipeline.ric().router().subscribe(
        oran::kMtAnomalyWindow, [&snap](const oran::RoutedMessage& m) {
          snap.incidents.append(m.payload.begin(), m.payload.end());
        });
    pipeline.install_detector(
        *detector_, detect::FeatureEncoder(eval_config_->features));
    auto traffic_handle = schedule_benign(pipeline, 99, 10);
    schedule_site_sessions(pipeline, 1, 6);
    auto attack = attacks::make_bts_dos();
    attack->launch(pipeline.testbed(), SimTime::from_ms(300));
    pipeline.run_for(SimDuration::from_s(4));
    pipeline.finalize();
    snap.prometheus = obs::render_prometheus(pipeline.metrics());
    snap.json = obs::render_json(pipeline.metrics(), &pipeline.tracer());
    snap.stats_text = pipeline.stats().to_text();
    return snap;
  };

  ChaosSnapshot reference = run(1);
  EXPECT_FALSE(reference.incidents.empty()) << "attack must produce reports";
  for (std::size_t shards : {2u, 4u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    ChaosSnapshot sharded = run(shards);
    EXPECT_EQ(sharded.prometheus, reference.prometheus);
    EXPECT_EQ(sharded.json, reference.json);
    EXPECT_EQ(sharded.stats_text, reference.stats_text);
    EXPECT_EQ(sharded.incidents, reference.incidents);
  }
}

TEST_F(ChaosDetectTest, TransportBackendNeverChangesAnyExportedByte) {
  // The determinism oracle of the transport layer: under a fixed seed the
  // Prometheus export, the JSON snapshot, the robustness counters, and
  // every anomaly report are byte-identical whether E2AP frames cross an
  // in-process queue or a real Unix-domain socket — at any shard count,
  // with chaos faults, multi-site traffic, an attack, and gap quarantine
  // all active. Both backends share the frame codec and the logical
  // capacity accounting, and the UDS batching only changes HOW bytes cross
  // the socket (staged writes, short-read stop), never WHEN frames deliver
  // — so no counter can diverge.
  auto run = [&](const std::string& backend, std::size_t shards) {
    core::PipelineConfig config;
    config.testbed.num_cells = 2;
    config.ric_shards = shards;
    config.e2_transport = backend;
    config.fault_plan.drop_probability = 0.05;
    config.fault_plan.reorder_probability = 0.10;
    config.fault_plan.link_epochs = {
        {SimTime::from_ms(1500), SimDuration::from_ms(300)}};
    config.fault_plan.seed = 0xD373C7;
    core::Pipeline pipeline(config);
    // The env-default run (empty backend) executes under
    // XSEC_E2_TRANSPORT=uds.
    EXPECT_EQ(pipeline.e2_backend(),
              transport::resolve_backend(backend.empty() ? "uds" : backend));
    ChaosSnapshot snap;
    pipeline.ric().router().subscribe(
        oran::kMtAnomalyWindow, [&snap](const oran::RoutedMessage& m) {
          snap.incidents.append(m.payload.begin(), m.payload.end());
        });
    pipeline.install_detector(
        *detector_, detect::FeatureEncoder(eval_config_->features));
    auto traffic_handle = schedule_benign(pipeline, 99, 10);
    schedule_site_sessions(pipeline, 1, 6);
    auto attack = attacks::make_bts_dos();
    attack->launch(pipeline.testbed(), SimTime::from_ms(300));
    pipeline.run_for(SimDuration::from_s(4));
    pipeline.finalize();
    snap.prometheus = obs::render_prometheus(pipeline.metrics());
    snap.json = obs::render_json(pipeline.metrics(), &pipeline.tracer());
    snap.stats_text = pipeline.stats().to_text();
    return snap;
  };

  ChaosSnapshot reference = run("inproc", 1);
  EXPECT_FALSE(reference.incidents.empty()) << "attack must produce reports";
  for (const char* backend : {"inproc", "uds"}) {
    for (std::size_t shards : {1u, 2u, 4u}) {
      if (std::string(backend) == "inproc" && shards == 1) continue;
      SCOPED_TRACE(std::string(backend) + " backend, " +
                   std::to_string(shards) + " shards");
      ChaosSnapshot other = run(backend, shards);
      EXPECT_EQ(other.prometheus, reference.prometheus);
      EXPECT_EQ(other.json, reference.json);
      EXPECT_EQ(other.stats_text, reference.stats_text);
      EXPECT_EQ(other.incidents, reference.incidents);
    }
  }

  // The environment default reaches the same code paths: an empty config
  // with XSEC_E2_TRANSPORT=uds must match the reference byte for byte too.
  // Preserve any sweep-provided value so later tests in this binary still
  // see it (scripts/sanitize.sh exports it across a whole ctest run).
  const char* prior_env = getenv("XSEC_E2_TRANSPORT");
  std::string saved_env = prior_env ? prior_env : "";
  setenv("XSEC_E2_TRANSPORT", "uds", 1);
  ChaosSnapshot from_env = run("", 1);
  if (prior_env) {
    setenv("XSEC_E2_TRANSPORT", saved_env.c_str(), 1);
  } else {
    unsetenv("XSEC_E2_TRANSPORT");
  }
  EXPECT_EQ(from_env.prometheus, reference.prometheus);
  EXPECT_EQ(from_env.json, reference.json);
  EXPECT_EQ(from_env.stats_text, reference.stats_text);
  EXPECT_EQ(from_env.incidents, reference.incidents);
}

TEST(ChaosShards, EnvironmentVariableSelectsShardCount) {
  setenv("XSEC_RIC_SHARDS", "3", 1);
  core::Pipeline from_env{core::PipelineConfig{}};
  EXPECT_EQ(from_env.ric_shards(), 3u);
  // An explicit config beats the environment.
  core::PipelineConfig config;
  config.ric_shards = 2;
  core::Pipeline from_config(config);
  EXPECT_EQ(from_config.ric_shards(), 2u);
  unsetenv("XSEC_RIC_SHARDS");
  core::Pipeline fallback{core::PipelineConfig{}};
  EXPECT_EQ(fallback.ric_shards(), 1u);
  // Malformed values fall back to 1 instead of wrapping ("-1"), parsing a
  // prefix ("4x"), skipping whitespace or a sign (" 4", "+4"), or clamping
  // an overflowing value to the 64-shard ceiling. The grammar is exactly
  // [0-9]+, the same as XSEC_E2_CAPACITY's.
  for (const char* bad : {"-1", "4x", "0", "", "shards", " 4", "+4",
                          "99999999999999999999"}) {
    SCOPED_TRACE(std::string("XSEC_RIC_SHARDS=") + bad);
    setenv("XSEC_RIC_SHARDS", bad, 1);
    core::Pipeline rejected{core::PipelineConfig{}};
    EXPECT_EQ(rejected.ric_shards(), 1u);
  }
  unsetenv("XSEC_RIC_SHARDS");
}

// --- Correlated multi-site outage -------------------------------------------

/// Staggers UE sessions onto one specific cell so every site has telemetry
/// flowing before, during, and after the outage window.
void schedule_site_sessions(core::Pipeline& pipeline, std::size_t site,
                            int sessions) {
  for (int s = 0; s < sessions; ++s) {
    ran::UeConfig ue;
    ue.supi = ran::Supi{ran::Plmn::test_network(),
                        9000 + site * 100 + static_cast<std::uint64_t>(s)};
    ue.seed = site * 1000 + static_cast<std::uint64_t>(s) + 1;
    pipeline.testbed().add_ue(
        ue, SimTime::from_ms(5 + static_cast<std::int64_t>(s) * 250), site);
  }
}

TEST(ChaosMultiCell, CorrelatedOutageKeepsSiteStreamsAndGapMetricsIsolated) {
  core::PipelineConfig config;
  config.testbed.num_cells = 3;
  config.fault_plan = lossy_plan(0x517E5);
  // Loss heavy enough that the node's two streams (MobiWatch + the audit
  // xApp) regularly have missing runs outstanding in the same
  // reverse-path round, which is what NACK batching coalesces.
  config.fault_plan.drop_probability = 0.30;
  // One shared epoch list = a correlated outage: every site's backhaul goes
  // down together (per-site loss/dup/reorder streams stay independent,
  // seeded seed + site).
  config.fault_plan.link_epochs = {
      {SimTime::from_ms(1400), SimDuration::from_ms(400)}};
  core::Pipeline pipeline(config);
  ASSERT_EQ(pipeline.agent_count(), 3u);
  auto* audit = static_cast<SequenceAuditXapp*>(
      pipeline.ric().register_xapp(std::make_unique<SequenceAuditXapp>()));
  for (std::size_t site = 0; site < 3; ++site)
    schedule_site_sessions(pipeline, site, 12);

  pipeline.run_for(SimDuration::from_s(4.5));
  pipeline.finalize();

  core::PipelineStats stats = pipeline.stats();
  // The one epoch took down all three sites, and each came back.
  EXPECT_EQ(stats.link_down_events, 3u);
  for (std::size_t site = 0; site < 3; ++site) {
    SCOPED_TRACE("site " + std::to_string(site));
    EXPECT_EQ(pipeline.agent(site).reconnects(), 1u);
    EXPECT_TRUE(pipeline.agent(site).subscribed());
  }

  // Stream isolation: every site's streams pass the delivery contract
  // independently — loss on one site never corrupts another's sequence
  // space.
  std::set<std::uint64_t> audited_nodes;
  for (const auto& [id, log] : audit->logs()) {
    SCOPED_TRACE("node " + std::to_string(id.first) + " instance " +
                 std::to_string(id.second));
    audit_stream(log);
    if (!log.delivered.empty()) audited_nodes.insert(id.first);
  }
  EXPECT_EQ(audited_nodes.size(), 3u)
      << "all three sites must carry telemetry";

  // Per-site gap metrics: each site records its own gaps in the shared
  // registry, and the per-site counters partition the global totals
  // exactly. (The RIC's per-node counter only exists once that node has a
  // DECLARED gap — recovery-path gaps live in MobiWatch's counter — so a
  // missing counter reads as zero.)
  auto counter_or_zero = [&pipeline](const std::string& name) {
    const obs::Counter* c = pipeline.metrics().find_counter(name);
    return c ? c->value() : 0u;
  };
  std::uint64_t ric_gap_sum = 0;
  std::uint64_t mobiwatch_gap_sum = 0;
  for (std::size_t site = 0; site < 3; ++site) {
    SCOPED_TRACE("site " + std::to_string(site));
    std::string node = std::to_string(pipeline.node_id(site));
    ric_gap_sum += counter_or_zero("ric.node" + node + ".gaps_detected");
    std::uint64_t mw_gaps =
        counter_or_zero("mobiwatch.node" + node + ".gaps");
    EXPECT_GT(mw_gaps, 0u) << "every site saw the correlated outage";
    mobiwatch_gap_sum += mw_gaps;
  }
  EXPECT_EQ(ric_gap_sum, stats.gaps_detected);
  EXPECT_EQ(mobiwatch_gap_sum, stats.gaps_observed);

  // With two streams per node (MobiWatch + the audit xApp) and a lossy
  // plan, reverse-path rounds coalesce multiple sequence ranges into one
  // NACK PDU; the batching counter proves the path fired.
  EXPECT_GT(stats.nacks_sent, 0u);
  EXPECT_GT(stats.nacks_batched, 0u);
  EXPECT_EQ(pipeline.metrics().find_counter("e2.nack_batched")->value(),
            stats.nacks_batched);
}

/// Always-failing backend standing in for an unreachable LLM endpoint.
class DeadLlmClient : public llm::LlmClient {
 public:
  Result<llm::LlmResponse> query(const llm::LlmRequest&) override {
    return Error::make("network", "endpoint unreachable");
  }
};

TEST_F(ChaosDetectTest, LlmOutageDefersIncidentsInsteadOfLosingThem) {
  core::PipelineConfig config;
  config.llm_client = std::make_shared<DeadLlmClient>();
  config.llm_resilience.max_attempts = 2;
  config.llm_resilience.breaker_threshold = 2;
  core::Pipeline pipeline(config);
  pipeline.install_detector(*detector_,
                            detect::FeatureEncoder(eval_config_->features));
  auto traffic_handle = schedule_benign(pipeline, 99);
  auto attack = attacks::make_bts_dos();
  attack->launch(pipeline.testbed(), SimTime::from_ms(250));
  pipeline.run_for(SimDuration::from_s(4));
  EXPECT_GT(pipeline.mobiwatch().anomalies_flagged(), 0u);
  pipeline.finalize();

  // No incident was analyzed (the backend is dead) and none vanished
  // silently: every flagged window was deferred and ultimately accounted
  // as dropped, with the circuit breaker limiting wasted queries.
  EXPECT_EQ(pipeline.analyzer().incidents_analyzed(), 0u);
  EXPECT_GT(pipeline.analyzer().llm_deferrals(), 0u);
  EXPECT_GT(pipeline.analyzer().incidents_dropped(), 0u);
  EXPECT_GE(pipeline.llm_client().breaker_trips(), 1u);
  EXPECT_GT(pipeline.llm_client().queries_rejected(), 0u);
}

}  // namespace
}  // namespace xsec
