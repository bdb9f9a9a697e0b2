#include "core/pipeline.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>

#include "common/log.hpp"
#include "core/smo.hpp"

namespace xsec::core {

namespace {

/// Parses the value `text` of the numeric environment override `name`
/// with the grammar [0-9]+ and the range [1, max]. Returns 0 when it is
/// unset or empty; any other value outside the grammar or range (sign,
/// whitespace, trailing garbage, overflow) warns and also returns 0, so
/// the caller's default applies.
std::size_t parse_env_count(const char* name, const char* text,
                            std::size_t max) {
  if (text == nullptr || *text == '\0') return 0;
  const char* end = text + std::strlen(text);
  std::size_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  // from_chars on an unsigned type takes neither a sign nor whitespace.
  if (ec == std::errc{} && ptr == end && value >= 1 && value <= max)
    return value;
  XSEC_LOG_WARN("pipeline", "invalid ", name, " '", text,
                "'; using the default");
  return 0;
}

struct ResolvedOverrides {
  std::size_t ric_shards;
  transport::BackendKind e2_backend;
  std::size_t e2_link_capacity;
};

/// The one place the environment reaches the pipeline. Each field keeps
/// its explicit config value; a field left unset (0 / "") takes
/// XSEC_RIC_SHARDS, XSEC_E2_TRANSPORT or XSEC_E2_CAPACITY, the knobs the
/// sanitizer sweeps use to re-run default-configured suites sharded, over
/// a kernel socket, or with a small channel. Otherwise the built-in
/// default applies.
ResolvedOverrides resolve_overrides(const PipelineConfig& config) {
  constexpr std::size_t kMaxShards = 64;
  const char* shards_env = std::getenv("XSEC_RIC_SHARDS");
  const char* backend_env = std::getenv("XSEC_E2_TRANSPORT");
  const char* capacity_env = std::getenv("XSEC_E2_CAPACITY");

  ResolvedOverrides out{};
  out.ric_shards =
      config.ric_shards != 0
          ? std::min(config.ric_shards, kMaxShards)
          : std::max<std::size_t>(
                1, parse_env_count("XSEC_RIC_SHARDS", shards_env, kMaxShards));
  out.e2_backend = transport::resolve_backend(
      config.e2_transport.empty() && backend_env != nullptr
          ? std::string(backend_env)
          : config.e2_transport);
  out.e2_link_capacity = transport::resolve_capacity(
      config.e2_link_capacity != 0
          ? config.e2_link_capacity
          : parse_env_count("XSEC_E2_CAPACITY", capacity_env,
                            transport::kMaxChannelCapacity));

  if (!config.e2_pump.empty() && config.e2_pump != "polled") {
    XSEC_LOG_WARN("pipeline", "ignoring e2_pump '", config.e2_pump,
                  "': the E2 transport has one pump mode");
  }
  return out;
}

}  // namespace

Pipeline::Pipeline(PipelineConfig config) : config_(std::move(config)) {
  const ResolvedOverrides resolved = resolve_overrides(config_);
  config_.mobiwatch.shards = resolved.ric_shards;
  config_.e2_link_capacity = resolved.e2_link_capacity;
  testbed_ = std::make_unique<sim::Testbed>(config_.testbed);

  // Platform-wide observability: one registry + tracer, driven by the sim
  // clock, shared by the RIC, every agent/transport, and the LLM path.
  obs_ = std::make_unique<obs::Observability>();
  obs_->set_clock([this] { return testbed_->now(); });

  ric_ = std::make_unique<oran::NearRtRic>();
  ric_->set_observability(obs_.get());
  ric_->set_scheduler([this](SimDuration d, std::function<void()> fn) {
    testbed_->queue().schedule_after(d, std::move(fn));
  });

  // One RIC agent (E2 node) per cell site, each behind its own
  // fault-injected transport. The hooks reach the transport through an
  // index because the agent is constructed first (the transport wraps it).
  for (std::size_t site = 0; site < testbed_->cell_count(); ++site) {
    mobiflow::AgentHooks hooks;
    hooks.now = [this] { return testbed_->now(); };
    hooks.schedule = [this](SimDuration d, std::function<void()> fn) {
      testbed_->queue().schedule_after(d, std::move(fn));
    };
    hooks.to_ric = [this, site](std::uint64_t node_id, Bytes wire) {
      transports_[site]->to_ric(node_id, std::move(wire));
    };
    hooks.try_connect = [this, site] { return transports_[site]->connect(); };
    hooks.transport_ready = [this, site](std::size_t pdu_bytes) {
      return transports_[site]->ready_for(pdu_bytes);
    };
    hooks.obs = obs_.get();
    hooks.outage_buffer_max = config_.agent_outage_buffer;
    hooks.spill_dir = config_.agent_spill_dir;
    hooks.apply_control = [this, site](const mobiflow::ControlCommand& cmd) {
      ran::Gnb& gnb = testbed_->gnb(site);
      switch (cmd.action) {
        case mobiflow::ControlCommand::Action::kReleaseUe:
          return gnb.force_release(ran::Rnti{cmd.rnti});
        case mobiflow::ControlCommand::Action::kReleaseStale:
          return gnb.release_stale_contexts(
                     SimDuration::from_ms(cmd.stale_age_ms)) > 0;
        case mobiflow::ControlCommand::Action::kBlockTmsi:
          gnb.block_tmsi(cmd.s_tmsi);
          return true;
        case mobiflow::ControlCommand::Action::kUnblockTmsi:
          gnb.unblock_tmsi(cmd.s_tmsi);
          return true;
        case mobiflow::ControlCommand::Action::kRateLimit:
          gnb.set_setup_rate_limit(cmd.rate_limit,
                                   SimDuration::from_ms(cmd.rate_window_ms));
          return true;
        case mobiflow::ControlCommand::Action::kClearRateLimit:
          gnb.clear_setup_rate_limit();
          return true;
        case mobiflow::ControlCommand::Action::kIsolate:
          gnb.set_isolated(true);
          return true;
        case mobiflow::ControlCommand::Action::kDeisolate:
          gnb.set_isolated(false);
          return true;
      }
      return false;
    };
    auto agent = std::make_unique<mobiflow::RicAgent>(
        config_.e2_node_id + site, std::move(hooks));
    agent->attach(testbed_->taps(site));

    oran::FaultPlan plan = config_.fault_plan;
    plan.seed = config_.fault_plan.seed + site;  // independent fault streams
    oran::TransportHooks transport_hooks;
    transport_hooks.now = [this] { return testbed_->now(); };
    transport_hooks.schedule = [this](SimDuration d,
                                      std::function<void()> fn) {
      testbed_->queue().schedule_after(d, std::move(fn));
    };
    transport_hooks.obs = obs_.get();
    transport_hooks.metric_scope =
        "e2.node" + std::to_string(config_.e2_node_id + site);
    transport_hooks.backend = resolved.e2_backend;
    transport_hooks.link_capacity = config_.e2_link_capacity;
    auto transport = std::make_unique<oran::FaultyE2Transport>(
        ric_.get(), agent.get(), plan, std::move(transport_hooks));
    transport->arm_epochs();
    transports_.push_back(std::move(transport));

    auto connected = transports_[site]->connect();
    if (!connected) {
      XSEC_LOG_ERROR("pipeline", "E2 setup failed for agent of cell ", site,
                     ": ", connected.error().message);
      node_ids_.push_back(0);
    } else {
      node_ids_.push_back(connected.value());
    }
    agents_.push_back(std::move(agent));
  }

  auto mobiwatch = std::make_unique<detect::MobiWatchXapp>(config_.mobiwatch);
  mobiwatch_ = mobiwatch.get();
  ric_->register_xapp(std::move(mobiwatch));

  // The mitigation xApp registers BEFORE the analyzer so its router
  // subscriptions run first on each anomaly report: the fast-path action is
  // issued before the analyzer's (synchronous) verdict arrives, which is
  // what lets a benign verdict roll that same action back as false-positive
  // evidence instead of finding nothing active yet.
  if (config_.mitigation.enabled) {
    auto mitigation =
        std::make_unique<mitigate::MitigationXapp>(config_.mitigation);
    mitigation_ = mitigation.get();
    ric_->register_xapp(std::move(mitigation));
  }

  if (!config_.llm_client)
    config_.llm_client = std::make_shared<llm::SimLlmClient>();
  auto resilient = std::make_shared<llm::ResilientLlmClient>(
      config_.llm_client, config_.llm_resilience);
  resilient->set_clock([this] { return testbed_->now(); });
  resilient->set_observability(obs_.get());
  resilient_llm_ = resilient.get();
  auto analyzer = std::make_unique<llm::LlmAnalyzerXapp>(config_.analyzer,
                                                         std::move(resilient));
  analyzer_ = analyzer.get();
  ric_->register_xapp(std::move(analyzer));

  // The lifecycle xApp registers AFTER the analyzer: its verdict handler
  // only files false-positive evidence, so mitigation's (registered
  // earlier) must keep running first. Its main input is MobiWatch's
  // coordinator-side score observer, wired by bind().
  if (config_.lifecycle.enabled) {
    auto lifecycle =
        std::make_unique<lifecycle::LifecycleXapp>(config_.lifecycle);
    lifecycle_ = lifecycle.get();
    ric_->register_xapp(std::move(lifecycle));
    lifecycle_->bind(mobiwatch_, mitigation_);
  }

  if (config_.metrics_report_period.us > 0) {
    MetricsReportConfig report_config;
    report_config.period = config_.metrics_report_period;
    auto reporter = std::make_unique<MetricsReportXapp>(
        report_config, [this](SimDuration d, std::function<void()> fn) {
          testbed_->queue().schedule_after(d, std::move(fn));
        });
    metrics_report_ = reporter.get();
    ric_->register_xapp(std::move(reporter));
  }
}

PipelineStats Pipeline::stats() const {
  PipelineStats s;
  for (const auto& transport : transports_) {
    const auto& c = transport->counters();
    s.frames_sent += c.frames_sent;
    s.frames_delivered += c.frames_delivered;
    s.frames_dropped += c.frames_dropped;
    s.frames_duplicated += c.frames_duplicated;
    s.frames_reordered += c.frames_reordered;
    s.link_down_drops += c.link_down_drops;
    s.link_down_events += c.link_down_events;
  }
  for (const auto& agent : agents_) {
    s.records_collected += agent->records_collected();
    s.indications_sent += agent->indications_sent();
    s.indications_retransmitted += agent->indications_retransmitted();
    s.agent_reconnects += agent->reconnects();
    s.reconnect_attempts += agent->reconnect_attempts();
    s.records_dropped_outage += agent->records_dropped_outage();
    s.records_spilled += agent->records_spilled();
    s.records_replayed += agent->records_replayed();
    s.controls_deduplicated += agent->controls_deduplicated();
  }
  s.indications_received = ric_->indications_received();
  s.duplicates_suppressed = ric_->duplicates_suppressed();
  s.indications_recovered = ric_->indications_recovered();
  s.gaps_detected = ric_->gaps_detected();
  s.nacks_sent = ric_->nacks_sent();
  s.nacks_batched = ric_->nacks_batched();
  s.node_reconnects = ric_->node_reconnects();
  s.stale_subscriptions_cleared = ric_->stale_subscriptions_cleared();
  s.controls_sent = ric_->controls_sent();
  s.control_acks = ric_->control_acks();
  s.control_retx = ric_->control_retx();
  s.controls_lost = ric_->controls_lost();
  s.records_seen = mobiwatch_->records_seen();
  s.windows_scored = mobiwatch_->windows_scored();
  s.anomalies_flagged = mobiwatch_->anomalies_flagged();
  s.gaps_observed = mobiwatch_->gaps_observed();
  s.incidents_analyzed = analyzer_->incidents_analyzed();
  s.llm_retries = resilient_llm_->retries();
  s.llm_breaker_trips = resilient_llm_->breaker_trips();
  s.llm_deferrals = analyzer_->llm_deferrals();
  s.incidents_dropped = analyzer_->incidents_dropped();
  if (mitigation_) {
    s.mitigation_actions = mitigation_->actions_issued();
    s.mitigation_escalations = mitigation_->escalations();
    s.mitigation_rollbacks = mitigation_->rollbacks();
    s.mitigation_rollbacks_ttl = mitigation_->rollbacks_ttl();
    s.mitigation_rollbacks_evidence = mitigation_->rollbacks_evidence();
    s.mitigation_budget_exhausted = mitigation_->budget_exhausted();
    s.mitigation_actions_failed = mitigation_->actions_failed();
  }
  if (lifecycle_) {
    s.lifecycle_windows = lifecycle_->windows_observed();
    s.lifecycle_drift_events = lifecycle_->drift_events();
    s.lifecycle_retrains = lifecycle_->retrains();
    s.lifecycle_promotions = lifecycle_->promotions();
    s.lifecycle_rollbacks = lifecycle_->rollbacks();
    s.lifecycle_gate_failures = lifecycle_->gate_failures();
    s.lifecycle_models_rejected = lifecycle_->models_rejected();
    s.lifecycle_active_version = lifecycle_->active_version();
  }
  return s;
}

std::string PipelineStats::to_text() const {
  auto line = [](const char* label, std::size_t value) {
    return std::string("  ") + label + ": " + std::to_string(value) + "\n";
  };
  std::string out = "=== Pipeline robustness counters ===\n";
  out += "E2 transport:\n";
  out += line("frames sent", frames_sent);
  out += line("frames delivered", frames_delivered);
  out += line("frames dropped", frames_dropped);
  out += line("frames duplicated", frames_duplicated);
  out += line("frames reordered", frames_reordered);
  out += line("frames lost to link-down", link_down_drops);
  out += line("link-down events", link_down_events);
  out += "RIC agents:\n";
  out += line("records collected", records_collected);
  out += line("indications sent", indications_sent);
  out += line("indications retransmitted", indications_retransmitted);
  out += line("reconnects", agent_reconnects);
  out += line("reconnect attempts", reconnect_attempts);
  out += line("records dropped in outage", records_dropped_outage);
  out += line("records spilled to disk", records_spilled);
  out += line("records replayed from spill", records_replayed);
  out += line("duplicate controls suppressed", controls_deduplicated);
  out += "near-RT RIC:\n";
  out += line("indications received", indications_received);
  out += line("duplicates suppressed", duplicates_suppressed);
  out += line("indications recovered", indications_recovered);
  out += line("gaps declared", gaps_detected);
  out += line("NACKs sent", nacks_sent);
  out += line("NACK ranges batched", nacks_batched);
  out += line("node reconnects", node_reconnects);
  out += line("stale subscriptions cleared", stale_subscriptions_cleared);
  out += line("controls sent", controls_sent);
  out += line("control acks", control_acks);
  out += line("control retransmissions", control_retx);
  out += line("controls lost", controls_lost);
  out += "MobiWatch:\n";
  out += line("records seen", records_seen);
  out += line("windows scored", windows_scored);
  out += line("incidents flagged", anomalies_flagged);
  out += line("telemetry gaps observed", gaps_observed);
  out += "LLM analyzer:\n";
  out += line("incidents analyzed", incidents_analyzed);
  out += line("LLM retries", llm_retries);
  out += line("LLM breaker trips", llm_breaker_trips);
  out += line("incidents deferred", llm_deferrals);
  out += line("incidents dropped", incidents_dropped);
  out += "Mitigation:\n";
  out += line("actions issued", mitigation_actions);
  out += line("escalations", mitigation_escalations);
  out += line("rollbacks", mitigation_rollbacks);
  out += line("rollbacks (TTL)", mitigation_rollbacks_ttl);
  out += line("rollbacks (evidence)", mitigation_rollbacks_evidence);
  out += line("action budget exhaustions", mitigation_budget_exhausted);
  out += line("actions failed", mitigation_actions_failed);
  out += "Model lifecycle:\n";
  out += line("windows observed", lifecycle_windows);
  out += line("drift events", lifecycle_drift_events);
  out += line("retrains", lifecycle_retrains);
  out += line("promotions", lifecycle_promotions);
  out += line("rollbacks", lifecycle_rollbacks);
  out += line("gate failures", lifecycle_gate_failures);
  out += line("models rejected", lifecycle_models_rejected);
  out += line("active model version", lifecycle_active_version);
  return out;
}

}  // namespace xsec::core
