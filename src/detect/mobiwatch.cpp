#include "detect/mobiwatch.hpp"

#include "common/log.hpp"
#include "oran/e2sm.hpp"

namespace xsec::detect {

Bytes AnomalyReport::serialize() const {
  ByteWriter w;
  w.str(detector);
  w.u64(node_id);
  w.u64(source_ue);
  w.f64(score);
  w.f64(threshold);
  Bytes window_bytes = window.serialize();
  w.u32(static_cast<std::uint32_t>(window_bytes.size()));
  w.raw(window_bytes);
  Bytes context_bytes = context.serialize();
  w.u32(static_cast<std::uint32_t>(context_bytes.size()));
  w.raw(context_bytes);
  return w.take();
}

Result<AnomalyReport> AnomalyReport::deserialize(const Bytes& wire) {
  ByteReader r(wire);
  AnomalyReport report;
  auto detector = r.str();
  if (!detector) return detector.error();
  report.detector = detector.value();
  auto node_id = r.u64();
  if (!node_id) return node_id.error();
  report.node_id = node_id.value();
  auto source_ue = r.u64();
  if (!source_ue) return source_ue.error();
  report.source_ue = source_ue.value();
  auto score = r.f64();
  if (!score) return score.error();
  report.score = score.value();
  auto threshold = r.f64();
  if (!threshold) return threshold.error();
  report.threshold = threshold.value();
  auto window_len = r.u32();
  if (!window_len) return window_len.error();
  auto window_bytes = r.raw(window_len.value());
  if (!window_bytes) return window_bytes.error();
  auto window = mobiflow::Trace::deserialize(window_bytes.value());
  if (!window) return window.error();
  report.window = window.value();
  auto context_len = r.u32();
  if (!context_len) return context_len.error();
  auto context_bytes = r.raw(context_len.value());
  if (!context_bytes) return context_bytes.error();
  auto context = mobiflow::Trace::deserialize(context_bytes.value());
  if (!context) return context.error();
  report.context = context.value();
  return report;
}

SourceWindowConfig MobiWatchXapp::engine_config(
    const MobiWatchConfig& config) {
  SourceWindowConfig engine;
  engine.window_size = config.window_size;
  engine.context_records = config.context_records;
  engine.incident_close_gap = config.incident_close_gap;
  engine.key_mode = config.key_mode;
  engine.shards = config.shards == 0 ? 1 : config.shards;
  engine.flush_records = config.flush_records;
  engine.time_scoring = config.time_scoring;
  engine.per_shard_metrics = config.per_shard_metrics;
  return engine;
}

MobiWatchXapp::MobiWatchXapp(MobiWatchConfig config)
    : oran::XApp("mobiwatch"),
      config_(config),
      engine_(engine_config(config)) {
  engine_.set_obs_provider([this]() { return &obs(); });
  engine_.set_incident_sink([this](SourceWindowEngine::Incident incident) {
    publish_incident(std::move(incident));
  });
}

MobiWatchXapp::Metrics& MobiWatchXapp::m() const {
  if (!metrics_.bound) {
    obs::MetricsRegistry& r = obs().metrics;
    metrics_.records_seen = &r.counter("mobiwatch.records_seen");
    metrics_.windows_scored = &r.counter("mobiwatch.windows_scored");
    metrics_.anomalies_flagged = &r.counter("mobiwatch.incidents_flagged");
    metrics_.anomalous_windows = &r.counter("mobiwatch.anomalous_windows");
    metrics_.gaps_observed = &r.counter("mobiwatch.gaps_observed");
    metrics_.batch_rows = &r.histogram("dl.batch_rows");
    metrics_.score_ns = &r.histogram("dl.score_ns");
    metrics_.bound = true;
  }
  return metrics_;
}

void MobiWatchXapp::install_detector(
    std::shared_ptr<AnomalyDetector> detector, FeatureEncoder encoder) {
  detector_ = std::move(detector);
  base_threshold_ = detector_->threshold();
  detector_->set_threshold(base_threshold_ * threshold_scale_);
  engine_.install(detector_, std::move(encoder));
  if (engine_.parallel())
    XSEC_LOG_INFO("mobiwatch", "scoring sharded across ",
                  engine_.shard_count(), " worker threads");
}

oran::PolicyStatus MobiWatchXapp::on_policy(const oran::A1Policy& policy) {
  if (policy.policy_type != oran::kPolicyDetectionTuning)
    return oran::PolicyStatus::kUnsupported;
  double scale = policy.get_double("threshold_scale", threshold_scale_);
  if (scale <= 0.0) return oran::PolicyStatus::kNotEnforced;
  threshold_scale_ = scale;
  if (detector_) detector_->set_threshold(base_threshold_ * threshold_scale_);
  config_.incident_close_gap = static_cast<std::size_t>(policy.get_double(
      "incident_close_gap",
      static_cast<double>(config_.incident_close_gap)));
  engine_.set_incident_close_gap(config_.incident_close_gap);
  return oran::PolicyStatus::kEnforced;
}

void MobiWatchXapp::subscribe_to_node(std::uint64_t node_id) {
  const auto* functions = ric().node_functions(node_id);
  if (!functions) return;
  for (const auto& f : *functions) {
    if (f.function_id != oran::e2sm::kMobiFlowFunctionId) continue;
    oran::e2sm::EventTriggerDefinition trigger;
    trigger.report_period_ms = config_.report_period_ms;
    oran::RicAction action;
    action.action_id = 1;
    action.type = oran::RicActionType::kReport;
    action.definition = oran::e2sm::encode_action_definition(
        oran::e2sm::ActionDefinition{});
    ric().subscribe(this, node_id, f.function_id,
                    oran::e2sm::encode_event_trigger(trigger), {action});
  }
}

void MobiWatchXapp::on_start() {
  // Subscribe to the MobiFlow function on every connected node.
  for (std::uint64_t node_id : ric().connected_nodes())
    subscribe_to_node(node_id);
}

void MobiWatchXapp::on_node_connected(std::uint64_t node_id) {
  subscribe_to_node(node_id);
  // A re-setup after we had telemetry means the link was down for a while:
  // the stream is discontinuous even though no sequence gap is visible
  // (the agent was not flushing during the outage).
  if (records_seen() > 0) note_gap(node_id, "link recovery");
}

void MobiWatchXapp::on_telemetry_gap(std::uint64_t node_id,
                                     const oran::RicRequestId& request_id,
                                     std::uint32_t first_sequence,
                                     std::uint32_t last_sequence) {
  (void)request_id;
  note_gap(node_id, "indications " + std::to_string(first_sequence) + "-" +
                        std::to_string(last_sequence) + " lost");
}

void MobiWatchXapp::note_gap(std::uint64_t node_id, const std::string& why) {
  m().gaps_observed->inc();
  obs().metrics.counter("mobiwatch.node" + std::to_string(node_id) + ".gaps")
      .inc();
  XSEC_LOG_WARN("mobiwatch", "telemetry gap on node ", node_id, " (", why,
                "): quarantining windows that span it");
  // Persist a gap marker next to the telemetry so downstream consumers
  // (rApps, audits) know the stored stream is discontinuous here.
  sdl().set_str(config_.sdl_namespace + ".gaps",
                oran::Sdl::seq_key(next_seq_++),
                "node=" + std::to_string(node_id) + " " + why);
  // Scores that node's complete pre-gap windows, reports its open
  // incidents, and drops its window assembly; other nodes' sources are
  // untouched (their streams are not discontinuous).
  engine_.quarantine_node(node_id);
}

void MobiWatchXapp::on_indication_view(std::uint64_t node_id,
                                       const oran::RicIndicationView& view) {
  // Nests under the RIC's open ric.deliver span for this indication.
  obs::Span ingest = obs().tracer.begin(
      "mobiwatch.ingest", (node_id << 32) | view.sequence_number);
  // Walk the rows in place — no message materialization, no per-row
  // allocation before the SDL's own copy.
  oran::e2sm::RowCursor rows(view.message);
  while (auto row = rows.next()) {
    auto record = mobiflow::Record::from_kv_bytes(*row);
    if (!record) {
      XSEC_LOG_WARN("mobiwatch", "undecodable telemetry row: ",
                    record.error().message);
      continue;
    }
    handle_record_row(node_id, record.value(), *row);
  }
  if (!rows.ok()) {
    XSEC_LOG_WARN("mobiwatch", "undecodable indication message");
    return;
  }
  // Score everything this indication completed in one batched pass, so
  // counters and incident state are up to date when the call returns.
  engine_.flush();
}

void MobiWatchXapp::handle_record(std::uint64_t node_id,
                                  const mobiflow::Record& record) {
  Bytes row = record.to_kv_bytes();
  handle_record_row(node_id, record,
                    std::span<const std::uint8_t>(row.data(), row.size()));
}

void MobiWatchXapp::handle_record_row(std::uint64_t node_id,
                                      const mobiflow::Record& record,
                                      std::span<const std::uint8_t> row) {
  m().records_seen->inc();
  // Persist to the SDL so other xApps (and the SMO's rApps) see history.
  // One global arrival-ordered sequence across all nodes. The row bytes
  // were produced by Record::to_kv_bytes on the agent, so storing them
  // verbatim is byte-identical to re-encoding the decoded record.
  sdl().set(config_.sdl_namespace, oran::Sdl::seq_key(next_seq_++),
            Bytes(row.begin(), row.end()));
  engine_.ingest(node_id, record);
}

void MobiWatchXapp::publish_incident(SourceWindowEngine::Incident incident) {
  m().anomalies_flagged->inc();

  AnomalyReport report;
  report.detector = detector_ ? detector_->name() : "";
  report.node_id = incident.source.node_id;
  report.source_ue = incident.source.ue_id;
  report.score = incident.peak_score;
  report.threshold = detector_ ? detector_->threshold() : 0.0;
  report.window = std::move(incident.window);
  report.context = std::move(incident.context);

  XSEC_LOG_INFO("mobiwatch", "incident reported: peak score=", report.score,
                " threshold=", report.threshold, " window=",
                report.window.size(), " records");
  oran::RoutedMessage msg;
  msg.mtype = oran::kMtAnomalyWindow;
  msg.source = name();
  msg.payload = report.serialize();
  router().publish(msg);
}

void MobiWatchXapp::close_open_incident() {
  engine_.close_open_incidents();
}

}  // namespace xsec::detect
