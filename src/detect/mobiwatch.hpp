// MOBIWATCH: the unsupervised anomaly-detection xApp (paper §3.2).
//
// Subscribes to the E2SM-MOBIFLOW RAN function, stores incoming telemetry
// in the SDL, featurizes the stream, scores each sliding window with the
// installed detector, and forwards flagged windows (with their surrounding
// context) over the message router to the LLM analyzer xApp. Without an
// installed detector it runs in collection mode, only persisting telemetry
// — the "train" phase of the paper's train/deploy split.
//
// Window assembly and scoring are delegated to the SourceWindowEngine:
// every E2 node (optionally every node+UE) gets its own sliding window and
// incident state machine, and scoring fans out across the RIC's shard
// workers. This xApp keeps the platform-facing duties: subscriptions, SDL
// persistence, A1 policy, gap quarantine, and incident publication.
#pragma once

#include <memory>

#include "detect/scorer.hpp"
#include "detect/source_windows.hpp"
#include "mobiflow/record.hpp"
#include "mobiflow/trace.hpp"
#include "oran/ric.hpp"
#include "oran/xapp.hpp"

namespace xsec::detect {

/// What MobiWatch hands to the LLM analyzer for a flagged window.
struct AnomalyReport {
  std::string detector;
  /// E2 node the telemetry came from (remediation target).
  std::uint64_t node_id = 0;
  /// UE the source window was keyed on (0 under per-node assembly).
  std::uint64_t source_ue = 0;
  double score = 0.0;
  double threshold = 0.0;
  /// The anomalous window itself.
  mobiflow::Trace window;
  /// Preceding records for context (the paper passes "the sequence plus
  /// its context window").
  mobiflow::Trace context;

  Bytes serialize() const;
  static Result<AnomalyReport> deserialize(const Bytes& wire);
};

struct MobiWatchConfig {
  std::size_t window_size = 5;
  /// Records of preceding context attached to each report.
  std::size_t context_records = 25;
  /// E2SM report period requested in the subscription.
  std::uint32_t report_period_ms = 10;
  /// SDL namespace telemetry rows are stored under.
  std::string sdl_namespace = "mobiflow";
  /// Incident aggregation: a run of anomalous windows forms ONE incident;
  /// the incident closes (and is reported) after this many consecutive
  /// quiet windows. Keeps one report per attack burst instead of one per
  /// overlapping window.
  std::size_t incident_close_gap = 6;
  /// Record wall-clock scoring latency in the "dl.score_ns" histogram.
  /// Off by default: wall-clock values differ run to run, and the
  /// deterministic observability exports must stay byte-stable across
  /// identical seeded runs. "dl.batch_rows" is always recorded.
  bool time_scoring = false;
  /// RIC shards scoring fans out over (1 = inline, no worker threads).
  std::size_t shards = 1;
  /// Window keying (per node by default; see SourceKeyMode).
  SourceKeyMode key_mode = SourceKeyMode::kNode;
  /// Records between automatic engine flushes; 0 = flush at indication
  /// boundaries only (the deterministic default cadence).
  std::size_t flush_records = 0;
  /// Mirror per-shard throughput under "mobiwatch.shard<k>.*" (bench-only;
  /// per-shard names differ across shard counts by construction).
  bool per_shard_metrics = false;
};

class MobiWatchXapp : public oran::XApp {
 public:
  explicit MobiWatchXapp(MobiWatchConfig config = {});

  /// Installs a pre-trained detector and the encoder it was trained with.
  /// (Training happens offline / in the SMO; see paper Figure 3.)
  void install_detector(std::shared_ptr<AnomalyDetector> detector,
                        FeatureEncoder encoder);

  void on_start() override;
  /// Zero-copy ingest: rows are read straight out of the transport's
  /// frame via e2sm::RowCursor and stored in the SDL from the row span —
  /// byte-identical to the re-encoded form, with no per-row allocation
  /// before the SDL copy.
  void on_indication_view(std::uint64_t node_id,
                          const oran::RicIndicationView& view) override;
  /// Link recovery: the old subscription died with the link — re-subscribe,
  /// and treat the outage as a telemetry gap (records collected while the
  /// link was down may be delayed or lost).
  void on_node_connected(std::uint64_t node_id) override;
  /// The RIC's sequence tracker abandoned a run of indications. Windows
  /// spanning the gap would mix pre- and post-gap telemetry that is not
  /// actually contiguous — quarantine them instead of scoring them.
  void on_telemetry_gap(std::uint64_t node_id,
                        const oran::RicRequestId& request_id,
                        std::uint32_t first_sequence,
                        std::uint32_t last_sequence) override;
  /// A1 detection-tuning policy: "threshold_scale" multiplies the trained
  /// detection threshold (operator sensitivity knob), "incident_close_gap"
  /// adjusts burst aggregation.
  oran::PolicyStatus on_policy(const oran::A1Policy& policy) override;

  std::size_t records_seen() const { return m().records_seen->value(); }
  std::size_t windows_scored() const { return m().windows_scored->value(); }
  /// Incidents reported (anomaly bursts, not individual windows).
  std::size_t anomalies_flagged() const {
    return m().anomalies_flagged->value();
  }
  /// Individual windows that exceeded the threshold.
  std::size_t anomalous_windows() const {
    return m().anomalous_windows->value();
  }
  bool incident_open() const { return engine_.any_incident_open(); }
  bool has_detector() const { return detector_ != nullptr; }
  /// The installed detector (shared with the engine's shard replicas'
  /// parent); the model-lifecycle subsystem clones and fine-tunes it.
  const std::shared_ptr<AnomalyDetector>& detector_handle() const {
    return detector_;
  }
  /// Per-window tap forwarded to the engine (invoked on the coordinator in
  /// arrival order; see SourceWindowEngine::ScoreObserver).
  void set_score_observer(SourceWindowEngine::ScoreObserver observer) {
    engine_.set_score_observer(std::move(observer));
  }
  const MobiWatchConfig& config() const { return config_; }
  /// The per-source window/scoring engine (sharding introspection).
  const SourceWindowEngine& engine() const { return engine_; }
  /// Telemetry discontinuities observed (sequence gaps + link outages).
  /// Each one reset the affected sliding windows so no scored window spans
  /// it.
  std::size_t gaps_observed() const { return m().gaps_observed->value(); }

  /// Closes and reports incidents still open when the stream ends.
  void close_open_incident();

 private:
  /// Registry handles, bound lazily on first use ("mobiwatch.*") so the
  /// xApp works both attached to a RIC (shared registry) and standalone.
  struct Metrics {
    obs::Counter* records_seen = nullptr;
    obs::Counter* windows_scored = nullptr;
    obs::Counter* anomalies_flagged = nullptr;
    obs::Counter* anomalous_windows = nullptr;
    obs::Counter* gaps_observed = nullptr;
    obs::Histogram* batch_rows = nullptr;
    obs::Histogram* score_ns = nullptr;
    bool bound = false;
  };

  Metrics& m() const;
  static SourceWindowConfig engine_config(const MobiWatchConfig& config);
  void handle_record(std::uint64_t node_id, const mobiflow::Record& record);
  /// Like handle_record, but persists the already-encoded row bytes
  /// directly (the row was produced by Record::to_kv_bytes on the agent,
  /// so storing it verbatim is byte-identical to re-encoding).
  void handle_record_row(std::uint64_t node_id,
                         const mobiflow::Record& record,
                         std::span<const std::uint8_t> row);
  void publish_incident(SourceWindowEngine::Incident incident);
  void subscribe_to_node(std::uint64_t node_id);
  void note_gap(std::uint64_t node_id, const std::string& why);

  MobiWatchConfig config_;
  double threshold_scale_ = 1.0;  // A1-adjustable
  double base_threshold_ = 0.0;
  std::shared_ptr<AnomalyDetector> detector_;
  SourceWindowEngine engine_;
  std::uint64_t next_seq_ = 1;
  mutable Metrics metrics_;
};

}  // namespace xsec::detect
