// The assembled 6G-XSec pipeline (paper Figure 3).
//
// One object wires the whole system: the simulated 5G testbed, the RIC
// agent tapping its F1AP/NGAP interfaces, the near-RT RIC, the MobiWatch
// anomaly-detection xApp, and the LLM analyzer xApp — including the
// closed-loop control path back into the gNB. This is the public entry
// point examples and benches build on.
#pragma once

#include <memory>
#include <string>

#include "detect/mobiwatch.hpp"
#include "lifecycle/manager.hpp"
#include "llm/analyzer_xapp.hpp"
#include "mitigate/xapp.hpp"
#include "mobiflow/agent.hpp"
#include "obs/trace.hpp"
#include "oran/ric.hpp"
#include "oran/transport.hpp"
#include "sim/testbed.hpp"

namespace xsec::core {

class MetricsReportXapp;

struct PipelineConfig {
  sim::TestbedConfig testbed;
  detect::MobiWatchConfig mobiwatch;
  llm::AnalyzerConfig analyzer;
  /// Closed-loop mitigation xApp; disabled by default (detection-only
  /// pipelines keep their exact seeded behavior).
  mitigate::MitigationConfig mitigation;
  /// Edge model lifecycle (drift -> retrain -> shadow -> promote);
  /// disabled by default for the same reason.
  lifecycle::LifecycleConfig lifecycle;
  /// Per-agent outage-backlog capacity (records buffered while no
  /// subscription is live).
  std::size_t agent_outage_buffer = 8192;
  /// When set, a full outage backlog spills to .mft files in this
  /// directory (replayed on re-subscription) instead of dropping oldest.
  std::string agent_spill_dir;
  /// E2 node id of the first cell's agent; additional cells get
  /// consecutive ids.
  std::uint64_t e2_node_id = 1001;
  /// LLM client; defaults to the offline SimLlmClient. Always wrapped in a
  /// ResilientLlmClient (retry + circuit breaker) before the analyzer
  /// sees it.
  std::shared_ptr<llm::LlmClient> llm_client;
  /// Retry / circuit-breaker settings for the LLM path.
  llm::ResilienceConfig llm_resilience;
  /// Fault plan applied to every agent's E2 transport. The default plan is
  /// fault-free and reproduces the seed pipeline's timing exactly. Each
  /// site's transport gets an independent fault stream (seed + site).
  oran::FaultPlan fault_plan;
  /// Period of the MetricsReportXapp's SMO export loop; 0 (default)
  /// disables the xApp entirely.
  SimDuration metrics_report_period{0};
  /// RIC shards MobiWatch scoring fans out over. 0 (default) resolves from
  /// the XSEC_RIC_SHARDS environment variable, falling back to 1 (inline
  /// scoring, no worker threads). Any shard count produces byte-identical
  /// outputs under a fixed seed; >1 buys wall-clock throughput.
  std::size_t ric_shards = 0;
  /// E2 transport backend carrying every agent's E2AP frames: "inproc"
  /// (default) or "uds" (framed Unix-domain socketpair). Empty resolves
  /// from the XSEC_E2_TRANSPORT environment variable, falling back to
  /// inproc. Either backend produces byte-identical outputs under a fixed
  /// seed.
  std::string e2_transport;
  /// Unused: there is one transport pump mode. Kept only so configurations
  /// that still set it compile; a value other than "" or "polled" logs a
  /// warning and is otherwise ignored.
  std::string e2_pump;
  /// Per-direction E2 channel capacity in bytes. Logical accounting is
  /// identical on every backend, so this also fixes where backpressure
  /// trips; tests shrink it to exercise the slow-reader paths. 0 (default)
  /// resolves from the XSEC_E2_CAPACITY environment variable, falling back
  /// to transport::kDefaultChannelCapacity.
  std::size_t e2_link_capacity = 0;
};

/// One robustness-counter snapshot across every layer of the pipeline,
/// aggregated over all cell sites. What the chaos tests assert on and the
/// examples print.
struct PipelineStats {
  // E2 transport
  std::size_t frames_sent = 0;
  std::size_t frames_delivered = 0;
  std::size_t frames_dropped = 0;
  std::size_t frames_duplicated = 0;
  std::size_t frames_reordered = 0;
  std::size_t link_down_drops = 0;
  std::size_t link_down_events = 0;
  // RIC agents
  std::size_t records_collected = 0;
  std::size_t indications_sent = 0;
  std::size_t indications_retransmitted = 0;
  std::size_t agent_reconnects = 0;
  std::size_t reconnect_attempts = 0;
  std::size_t records_dropped_outage = 0;
  std::size_t records_spilled = 0;
  std::size_t records_replayed = 0;
  std::size_t controls_deduplicated = 0;
  // near-RT RIC
  std::size_t indications_received = 0;
  std::size_t duplicates_suppressed = 0;
  std::size_t indications_recovered = 0;
  std::size_t gaps_detected = 0;
  std::size_t nacks_sent = 0;
  /// Extra sequence ranges coalesced into already-counted NACK PDUs.
  std::size_t nacks_batched = 0;
  std::size_t node_reconnects = 0;
  std::size_t stale_subscriptions_cleared = 0;
  std::size_t controls_sent = 0;
  std::size_t control_acks = 0;
  std::size_t control_retx = 0;
  std::size_t controls_lost = 0;
  // MobiWatch
  std::size_t records_seen = 0;
  std::size_t windows_scored = 0;
  std::size_t anomalies_flagged = 0;
  std::size_t gaps_observed = 0;
  // LLM analyzer
  std::size_t incidents_analyzed = 0;
  std::size_t llm_retries = 0;
  std::size_t llm_breaker_trips = 0;
  std::size_t llm_deferrals = 0;
  std::size_t incidents_dropped = 0;
  // Mitigation (all zero when the xApp is disabled)
  std::size_t mitigation_actions = 0;
  std::size_t mitigation_escalations = 0;
  std::size_t mitigation_rollbacks = 0;
  std::size_t mitigation_rollbacks_ttl = 0;
  std::size_t mitigation_rollbacks_evidence = 0;
  std::size_t mitigation_budget_exhausted = 0;
  std::size_t mitigation_actions_failed = 0;
  // Model lifecycle (all zero when the xApp is disabled)
  std::size_t lifecycle_windows = 0;
  std::size_t lifecycle_drift_events = 0;
  std::size_t lifecycle_retrains = 0;
  std::size_t lifecycle_promotions = 0;
  std::size_t lifecycle_rollbacks = 0;
  std::size_t lifecycle_gate_failures = 0;
  std::size_t lifecycle_models_rejected = 0;
  std::size_t lifecycle_active_version = 0;

  std::string to_text() const;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config = {});

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  sim::Testbed& testbed() { return *testbed_; }
  oran::NearRtRic& ric() { return *ric_; }
  /// The RIC agent of cell `index` (one E2 node per cell).
  mobiflow::RicAgent& agent(std::size_t index = 0) {
    return *agents_[index];
  }
  std::size_t agent_count() const { return agents_.size(); }
  /// The fault-injected transport carrying cell `index`'s E2 traffic.
  oran::FaultyE2Transport& transport(std::size_t index = 0) {
    return *transports_[index];
  }
  detect::MobiWatchXapp& mobiwatch() { return *mobiwatch_; }
  llm::LlmAnalyzerXapp& analyzer() { return *analyzer_; }
  /// The mitigation xApp, or nullptr when config.mitigation.enabled is
  /// false.
  mitigate::MitigationXapp* mitigation() { return mitigation_; }
  /// The model-lifecycle xApp, or nullptr when config.lifecycle.enabled
  /// is false.
  lifecycle::LifecycleXapp* lifecycle() { return lifecycle_; }
  llm::ResilientLlmClient& llm_client() { return *resilient_llm_; }
  /// The platform-wide observability bundle every component records into.
  obs::Observability& observability() { return *obs_; }
  obs::MetricsRegistry& metrics() { return obs_->metrics; }
  obs::Tracer& tracer() { return obs_->tracer; }
  /// The periodic exporter, or nullptr when metrics_report_period is 0.
  MetricsReportXapp* metrics_report() { return metrics_report_; }
  std::uint64_t node_id(std::size_t index = 0) const {
    return node_ids_[index];
  }
  /// Resolved RIC shard count (config override or XSEC_RIC_SHARDS).
  std::size_t ric_shards() const { return config_.mobiwatch.shards; }
  /// Resolved E2 transport backend (config / XSEC_E2_TRANSPORT / fallback).
  transport::BackendKind e2_backend() const {
    return transports_.empty() ? transport::BackendKind::kInProcess
                               : transports_.front()->backend();
  }
  /// Resolved per-direction channel capacity (config / XSEC_E2_CAPACITY).
  std::size_t e2_link_capacity() const { return config_.e2_link_capacity; }

  /// Snapshot of every robustness counter in the system.
  PipelineStats stats() const;

  /// Installs a pre-trained detector into MobiWatch (the SMO "deploy" arrow
  /// of Figure 3).
  void install_detector(std::shared_ptr<detect::AnomalyDetector> detector,
                        detect::FeatureEncoder encoder) {
    mobiwatch_->install_detector(std::move(detector), std::move(encoder));
  }

  void run_for(SimDuration d) { testbed_->run_for(d); }

  /// End-of-capture housekeeping: drains the RIC's reorder buffers (turning
  /// still-missing runs into explicit gaps), closes any open MobiWatch
  /// incident, and drains the analyzer's deferred queue. Call once after
  /// the last run_for of a scenario.
  void finalize() {
    ric_->flush_streams();
    mobiwatch_->close_open_incident();
    analyzer_->flush_pending();
  }

 private:
  /// Declared first so it is destroyed last: every component below holds
  /// raw handles into this registry.
  std::unique_ptr<obs::Observability> obs_;
  PipelineConfig config_;
  std::unique_ptr<sim::Testbed> testbed_;
  std::unique_ptr<oran::NearRtRic> ric_;
  std::vector<std::unique_ptr<mobiflow::RicAgent>> agents_;
  std::vector<std::unique_ptr<oran::FaultyE2Transport>> transports_;
  std::vector<std::uint64_t> node_ids_;
  detect::MobiWatchXapp* mobiwatch_ = nullptr;  // owned by the RIC
  llm::LlmAnalyzerXapp* analyzer_ = nullptr;    // owned by the RIC
  mitigate::MitigationXapp* mitigation_ = nullptr;  // owned by the RIC
  lifecycle::LifecycleXapp* lifecycle_ = nullptr;   // owned by the RIC
  llm::ResilientLlmClient* resilient_llm_ = nullptr;  // shared_ptr'd below
  MetricsReportXapp* metrics_report_ = nullptr;  // owned by the RIC
};

}  // namespace xsec::core
