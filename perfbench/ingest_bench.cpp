// Steady-state ingest benchmark for the assembled pipeline (core::Pipeline).
//
//   ingest_bench --workload benign|attack|lossy --seed N --seconds S
//                --trace 0|1
//
// One run trains the workload's detector on a fixed benign corpus (set-up,
// repeated three times), then drives identical seeded episodes through a
// freshly built pipeline until S seconds of measurement have passed. An
// episode is a fixed amount of simulated traffic on several cells, so its
// counts repeat exactly and its memory use does not depend on how fast the
// host is. Round k of every episode does the same work, so each round's
// time is its best over the run's episodes, with the episodes rotated over
// the CPUs; the round percentiles and records/s come from those per-round
// times. See perfbench/README.md for why.
//
// With --trace 1 the run alternates untraced and traced episodes and times
// calls into each module from this file only, through injection points the
// pipeline already exposes (tap handlers, a delegating detector, a
// delegating LLM client, router subscriptions), plus a replay of one
// episode's captured report batches through the public codec, transport,
// RIC-ingest and feature-encoder entry points. Nothing in src/ is changed.
//
// The last stdout line is one JSON object; run.py turns it into the
// benchmark's result line and exits non-zero when "correct" is false.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "core/datasets.hpp"
#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "detect/features.hpp"
#include "detect/mobiwatch.hpp"
#include "llm/analyzer_xapp.hpp"
#include "llm/client.hpp"
#include "mobiflow/agent.hpp"
#include "oran/e2ap.hpp"
#include "oran/e2sm.hpp"
#include "oran/ric.hpp"
#include "sim/profiles.hpp"
#include "sim/testbed.hpp"
#include "transport/link.hpp"

using namespace xsec;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Pins the process to each CPU it may run on, in turn. The vCPUs of a
/// shared host run at different speeds at any moment (up to ~45% apart on
/// the host this was built on) and each one's speed drifts over seconds;
/// left to the scheduler, a whole run can sit on one slow vCPU. Rotating
/// per episode samples every round on every CPU.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    (void)sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// --- Workloads ----------------------------------------------------------------

constexpr std::size_t kCells = 4;
const SimDuration kRound = SimDuration::from_ms(10);  // E2SM report period
/// Simulated span of one episode: warm-up, measured rounds, then a drain
/// with no new arrivals so every collected record reaches MobiWatch.
const SimDuration kWarmup = SimDuration::from_ms(600);
const SimDuration kMeasured = SimDuration::from_s(10);
const SimDuration kDrain = SimDuration::from_ms(500);
const SimDuration kArrivalMean = SimDuration::from_ms(25);  // per cell
const SimDuration kAttackPeriod = SimDuration::from_ms(200);

struct Workload {
  std::string name;
  core::ModelKind model = core::ModelKind::kAutoencoder;
  std::string backend = "inproc";
  bool attacks = false;
  bool faults = false;
};

std::optional<Workload> find_workload(const std::string& name) {
  if (name == "benign") return Workload{"benign"};
  if (name == "attack") {
    Workload w{"attack"};
    w.attacks = true;
    return w;
  }
  if (name == "lossy") {
    Workload w{"lossy"};
    w.model = core::ModelKind::kLstm;
    w.backend = "uds";
    w.faults = true;
    return w;
  }
  return std::nullopt;
}

/// Seeded E2 fault plan for `lossy`: random drop / duplicate / reorder plus
/// a 40 ms link-down epoch every simulated second of the measured span.
/// Recovery (NACK retransmission, duplicate suppression, outage buffering,
/// reconnect) is active throughout; records it fails to recover show as the
/// run's failed operations.
oran::FaultPlan fault_plan(std::uint64_t seed) {
  oran::FaultPlan plan;
  plan.drop_probability = 0.02;
  plan.duplicate_probability = 0.02;
  plan.reorder_probability = 0.05;
  plan.seed = seed ^ 0xfa017ULL;
  for (SimTime t = SimTime{0} + kWarmup + SimDuration::from_ms(500);
       t < SimTime{0} + kWarmup + kMeasured; t = t + SimDuration::from_s(1))
    plan.link_epochs.push_back(oran::LinkEpoch{t, SimDuration::from_ms(40)});
  return plan;
}

/// Continuous benign traffic on every cell: each cell has its own
/// subscriber pool, eight subscribers per device profile, and returning
/// subscribers re-register with their stored GUTI (the same session shape
/// sim::BenignTrafficGenerator produces for cell 0 alone). Sessions arrive
/// at a fixed mean rate with uniform jitter (0.5x to 1.5x the mean gap)
/// rather than as a Poisson process, so every seed offers the same number
/// of sessions and round times compare across seeds.
class CellTraffic {
 public:
  CellTraffic(sim::Testbed& testbed, std::uint64_t seed)
      : testbed_(testbed), rng_(seed) {}
  CellTraffic(const CellTraffic&) = delete;
  CellTraffic& operator=(const CellTraffic&) = delete;

  void schedule(SimTime until) {
    const auto& profiles = sim::standard_profiles();
    constexpr int kSubscribersPerCell = 40;
    for (std::size_t cell = 0; cell < kCells; ++cell) {
      for (int i = 0; i < kSubscribersPerCell; ++i) {
        Subscriber sub;
        sub.msin = 2089900000ULL + cell * 1000 + static_cast<unsigned>(i);
        sub.profile = static_cast<std::size_t>(i) % profiles.size();
        subscribers_.push_back(sub);
      }
    }
    for (std::size_t cell = 0; cell < kCells; ++cell) {
      SimTime t = SimTime::from_ms(1);
      while (t < until) {
        const std::size_t index =
            cell * kSubscribersPerCell +
            rng_.uniform_u64(0, kSubscribersPerCell - 1);
        const Subscriber& sub = subscribers_[index];
        const sim::DeviceProfile& profile = profiles[sub.profile];
        ran::UeConfig config = sim::make_session_config(
            profile, ran::Supi{ran::Plmn::test_network(), sub.msin}, rng_);
        const bool reuse_guti = rng_.chance(profile.guti_reuse_probability);
        testbed_.queue().schedule_at(
            t, [this, index, cell, reuse_guti,
                config = std::move(config)]() mutable {
              start_session(index, cell, reuse_guti, std::move(config));
            });
        t = t + SimDuration::from_us(static_cast<std::int64_t>(
                    rng_.uniform(0.5, 1.5) * static_cast<double>(kArrivalMean.us)));
      }
    }
  }

 private:
  struct Subscriber {
    std::uint64_t msin = 0;
    std::size_t profile = 0;
    ran::Ue* last_session = nullptr;  // owned by the testbed
    std::optional<ran::Guti> last_guti;
  };

  void start_session(std::size_t index, std::size_t cell, bool reuse_guti,
                     ran::UeConfig config) {
    Subscriber& sub = subscribers_[index];
    if (sub.last_session) {
      if (auto guti = sub.last_session->guti()) sub.last_guti = guti;
    }
    if (reuse_guti && sub.last_guti) config.stored_guti = sub.last_guti;
    if (config.establishment_cause == ran::EstablishmentCause::kMtAccess)
      testbed_.amf().page(config.supi);
    sub.last_session = testbed_.add_ue(
        std::move(config), testbed_.now() + SimDuration::from_ms(20), cell);
  }

  sim::Testbed& testbed_;
  Rng rng_;
  std::vector<Subscriber> subscribers_;
};

std::unique_ptr<attacks::Attack> make_attack(std::size_t k) {
  switch (k % 5) {
    case 0: return attacks::make_bts_dos();
    case 1: return attacks::make_blind_dos();
    case 2: return attacks::make_uplink_id_extraction();
    case 3: return attacks::make_downlink_id_extraction();
    default: return attacks::make_null_cipher();
  }
}

/// A continuous rotation of the paper's five attacks against cell 0, one
/// fresh instance every kAttackPeriod of the measured span. Instances are
/// launched from inside the event loop at their start time.
class AttackRotation {
 public:
  void schedule(sim::Testbed& testbed) {
    std::size_t k = 0;
    for (SimTime t = SimTime{0} + kWarmup;
         t + SimDuration::from_ms(500) < SimTime{0} + kWarmup + kMeasured;
         t = t + kAttackPeriod, ++k) {
      instances_.push_back(make_attack(k));
      attacks::Attack* attack = instances_.back().get();
      testbed.queue().schedule_at(
          t, [attack, &testbed] { attack->launch(testbed, testbed.now()); });
    }
  }
  const std::vector<std::unique_ptr<attacks::Attack>>& instances() const {
    return instances_;
  }

 private:
  std::vector<std::unique_ptr<attacks::Attack>> instances_;
};

// --- Tracing wrappers ---------------------------------------------------------

struct LayerClock {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  void add(Clock::time_point a, Clock::time_point b) {
    ns += ns_between(a, b);
    ++calls;
  }
};

/// Delegating detector: scores through the trained detector and times each
/// call. Keeps its own threshold in step (MobiWatch and A1 tuning set it on
/// the installed object; decisions are made against it).
class TimedDetector : public detect::AnomalyDetector {
 public:
  TimedDetector(std::shared_ptr<detect::AnomalyDetector> inner,
                LayerClock* clock, std::uint64_t* windows)
      : inner_(std::move(inner)), clock_(clock), windows_(windows) {
    set_threshold(inner_->threshold());
  }
  std::string name() const override { return inner_->name(); }
  void fit(const detect::WindowDataset& benign) override { inner_->fit(benign); }
  std::vector<double> score(const detect::WindowDataset& data) override {
    return inner_->score(data);
  }
  std::vector<bool> labels(const detect::WindowDataset& data) const override {
    return inner_->labels(data);
  }
  using AnomalyDetector::score_window;
  double score_window(const float* rows, std::size_t n_rows) override {
    const auto t0 = Clock::now();
    const double s = inner_->score_window(rows, n_rows);
    clock_->add(t0, Clock::now());
    *windows_ += 1;
    return s;
  }
  void score_windows(const float* rows, std::size_t row_dim,
                     std::size_t rows_per_window, std::size_t n_windows,
                     double* scores) override {
    const auto t0 = Clock::now();
    inner_->score_windows(rows, row_dim, rows_per_window, n_windows, scores);
    clock_->add(t0, Clock::now());
    *windows_ += n_windows;
  }
  std::size_t rows_needed(std::size_t window_size) const override {
    return inner_->rows_needed(window_size);
  }

 private:
  std::shared_ptr<detect::AnomalyDetector> inner_;
  LayerClock* clock_;
  std::uint64_t* windows_;
};

class TimedLlm : public llm::LlmClient {
 public:
  explicit TimedLlm(LayerClock* clock)
      : inner_(std::make_shared<llm::SimLlmClient>()), clock_(clock) {}
  Result<llm::LlmResponse> query(const llm::LlmRequest& request) override {
    const auto t0 = Clock::now();
    auto response = inner_->query(request);
    clock_->add(t0, Clock::now());
    return response;
  }

 private:
  std::shared_ptr<llm::SimLlmClient> inner_;
  LayerClock* clock_;
};

// --- Set-up -------------------------------------------------------------------

core::EvalConfig eval_config() {
  core::EvalConfig config;
  config.detector.epochs = 4;
  return config;
}

/// The benign training corpus: three captures of the workload's per-cell
/// load shape. Its seeds are fixed: every workload seed faces the same
/// deployed detector, so the seed varies the live traffic only.
std::vector<mobiflow::Trace> collect_corpus() {
  constexpr std::uint64_t kCorpusSeed = 2024;
  std::vector<mobiflow::Trace> corpus;
  for (std::uint64_t capture = 0; capture < 3; ++capture) {
    core::ScenarioConfig config;
    config.testbed.seed = kCorpusSeed + capture;
    config.traffic.seed = (kCorpusSeed + capture) ^ 0xbe9197ULL;
    config.traffic.num_sessions = 20;
    config.traffic.arrival_mean = kArrivalMean;
    config.run_time = SimDuration::from_s(3);
    corpus.push_back(core::collect_benign(config));
  }
  return corpus;
}

core::PipelineConfig pipeline_config(const Workload& w, std::uint64_t seed) {
  core::PipelineConfig config;
  config.testbed.num_cells = kCells;
  config.testbed.seed = seed;
  config.ric_shards = 1;
  config.e2_transport = w.backend;
  config.e2_pump = "polled";
  config.e2_link_capacity = transport::kDefaultChannelCapacity;
  config.mitigation.enabled = true;
  if (w.faults) config.fault_plan = fault_plan(seed);
  return config;
}

struct Setup {
  std::shared_ptr<detect::AnomalyDetector> detector;
  double setup_s = 0.0;
  double train_s = 0.0;
};

Setup run_setup(const Workload& w, std::uint64_t seed) {
  Setup s;
  const auto t0 = Clock::now();
  auto corpus = collect_corpus();
  const auto t1 = Clock::now();
  s.detector = core::train_detector(w.model, corpus, eval_config());
  const auto t2 = Clock::now();
  core::Pipeline pipeline(pipeline_config(w, seed));
  pipeline.install_detector(s.detector->clone_for_inference(),
                            detect::FeatureEncoder(eval_config().features));
  s.setup_s = seconds_since(t0);
  s.train_s = ns_between(t1, t2) * 1e-9;
  std::fprintf(stderr, "set-up: %.3f s (training %.3f s)\n", s.setup_s,
               s.train_s);
  return s;
}

// --- Episodes -----------------------------------------------------------------

/// Counts of one episode. Identical seeded episodes must agree exactly.
struct Counts {
  std::map<std::string, std::uint64_t> v;
  bool operator==(const Counts&) const = default;
};

struct Capture {
  /// Report batches as the agents flushed them: (node, records).
  std::vector<std::pair<std::uint64_t, std::vector<mobiflow::Record>>> batches;
};

struct ReplayCosts {
  double encode_us = 0;     // rows + E2SM message + E2AP, per indication
  double decode_us = 0;     // decode_indication_view, per indication
  double transport_us = 0;  // framed enqueue + pump, per frame
  double ingest_us = 0;     // from_node_frame, collection mode, per indication
  double features_us = 0;   // encode_into, per record
  /// MobiWatch windowing, encoding and incident logic, per record: ingest
  /// with the detector installed, minus collection-mode ingest and scoring.
  double detect_us = 0;
  std::string error;        // non-empty when the replay went wrong
};

struct Episode {
  std::vector<double> round_ms;  // measured rounds
  double measured_s = 0.0;
  std::uint64_t measured_records = 0;
  Counts counts;
  std::vector<double> incident_lag_ms;
  double detected_share = 0.0;
  std::size_t attack_instances = 0;
  /// Indications and transport frames sent during the measured rounds.
  std::uint64_t measured_indications = 0;
  std::uint64_t measured_frames = 0;
  // Traced episodes only: layer clocks over the whole episode, and their
  // values over the measured rounds alone.
  LayerClock tap, dl, llm;
  std::uint64_t dl_windows = 0;
  LayerClock m_tap, m_dl, m_llm;
  std::uint64_t m_dl_windows = 0;
  double sdl_mb = 0.0;
  /// Measured right after the traced episode, so both see the same host
  /// phase: the RAN-only run's measured seconds and the replay unit costs.
  double ran_s = 0.0;
  ReplayCosts replay;
  std::vector<std::string> errors;
};

struct EpisodeOptions {
  bool traced = false;
  Capture* capture = nullptr;
};

double sdl_payload_mb(oran::Sdl& sdl, const std::vector<std::string>& spaces) {
  std::size_t bytes = 0;
  for (const auto& ns : spaces)
    for (const auto& key : sdl.keys(ns)) {
      bytes += key.size();
      if (auto value = sdl.get(ns, key)) bytes += value->size();
    }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

Episode run_episode(const Workload& w, std::uint64_t seed,
                    const std::shared_ptr<detect::AnomalyDetector>& trained,
                    const EpisodeOptions& opt) {
  Episode ep;
  // Declared before the pipeline so attack state outlives the rogue UEs and
  // interceptors the testbed holds.
  AttackRotation rotation;
  core::PipelineConfig config = pipeline_config(w, seed);
  if (opt.traced) config.llm_client = std::make_shared<TimedLlm>(&ep.llm);
  core::Pipeline p(config);

  // A fresh replica per episode: the closed loop retunes the installed
  // detector's threshold over A1.
  std::shared_ptr<detect::AnomalyDetector> detector =
      trained->clone_for_inference();
  if (opt.traced)
    detector = std::make_shared<TimedDetector>(detector, &ep.dl,
                                               &ep.dl_windows);
  p.install_detector(detector, detect::FeatureEncoder(eval_config().features));

  if (opt.traced) {
    for (std::size_t c = 0; c < p.testbed().cell_count(); ++c) {
      ran::InterfaceTaps& taps = p.testbed().taps(c);
      for (auto& h : taps.f1_taps)
        h = [inner = std::move(h), clock = &ep.tap](SimTime t,
                                                   const Bytes& wire) {
          const auto t0 = Clock::now();
          inner(t, wire);
          clock->add(t0, Clock::now());
        };
      for (auto& h : taps.ng_taps)
        h = [inner = std::move(h), clock = &ep.tap](SimTime t,
                                                   const Bytes& wire) {
          const auto t0 = Clock::now();
          inner(t, wire);
          clock->add(t0, Clock::now());
        };
    }
  }
  if (opt.capture) {
    for (std::size_t a = 0; a < p.agent_count(); ++a) {
      mobiflow::RicAgent* agent = &p.agent(a);
      // Records emitted while the agent has sent k indications travel in
      // its next report batch.
      agent->set_record_sink([agent, cap = opt.capture,
                              open = std::map<std::uint64_t, std::size_t>{}](
                                 const mobiflow::Record& r) mutable {
        const std::uint64_t key = agent->indications_sent();
        auto it = open.find(key);
        if (it == open.end() || it->second >= cap->batches.size() ||
            cap->batches[it->second].first != agent->node_id()) {
          open[key] = cap->batches.size();
          cap->batches.push_back({agent->node_id(), {}});
          it = open.find(key);
        }
        cap->batches[it->second].second.push_back(r);
      });
    }
  }

  std::vector<Bytes> anomaly_payloads;
  std::vector<std::pair<Bytes, std::int64_t>> verdicts;
  oran::MessageRouter& router = p.ric().router();
  router.subscribe(oran::kMtAnomalyWindow,
                   [&](const oran::RoutedMessage& m) {
                     anomaly_payloads.push_back(m.payload);
                   });
  router.subscribe(oran::kMtIncidentVerdict,
                   [&](const oran::RoutedMessage& m) {
                     verdicts.emplace_back(m.payload, p.testbed().now().us);
                   });

  CellTraffic traffic(p.testbed(), seed ^ 0x7aff1cULL);
  traffic.schedule(SimTime{0} + kWarmup + kMeasured);
  if (w.attacks) rotation.schedule(p.testbed());

  const std::int64_t warm_rounds = kWarmup.us / kRound.us;
  const std::int64_t measured_rounds = kMeasured.us / kRound.us;
  auto indications = [&p] {
    std::uint64_t n = 0;
    for (std::size_t a = 0; a < p.agent_count(); ++a)
      n += p.agent(a).indications_sent();
    return n;
  };
  auto frames = [&p] {
    const obs::Counter* k = p.metrics().find_counter("transport.frames_tx");
    return k ? k->value() : 0;
  };
  for (std::int64_t r = 0; r < warm_rounds; ++r) p.run_for(kRound);
  const std::uint64_t seen0 = p.mobiwatch().records_seen();
  const std::uint64_t indications0 = indications();
  const std::uint64_t frames0 = frames();
  const LayerClock tap0 = ep.tap, dl0 = ep.dl, llm0 = ep.llm;
  const std::uint64_t windows0 = ep.dl_windows;
  ep.round_ms.reserve(static_cast<std::size_t>(measured_rounds));
  const auto m0 = Clock::now();
  for (std::int64_t r = 0; r < measured_rounds; ++r) {
    const auto t0 = Clock::now();
    p.run_for(kRound);
    ep.round_ms.push_back(ns_between(t0, Clock::now()) * 1e-6);
  }
  ep.measured_s = seconds_since(m0);
  ep.measured_records = p.mobiwatch().records_seen() - seen0;
  ep.measured_indications = indications() - indications0;
  ep.measured_frames = frames() - frames0;
  auto delta = [](const LayerClock& now, const LayerClock& then) {
    return LayerClock{now.ns - then.ns, now.calls - then.calls};
  };
  ep.m_tap = delta(ep.tap, tap0);
  ep.m_dl = delta(ep.dl, dl0);
  ep.m_llm = delta(ep.llm, llm0);
  ep.m_dl_windows = ep.dl_windows - windows0;
  p.run_for(kDrain);
  // Records collected in the last report period still sit in the agents'
  // buffers. Run on until every collected record has reached MobiWatch;
  // whatever is still missing after two more simulated seconds is lost.
  auto collected = [&p] {
    std::uint64_t n = 0;
    for (std::size_t a = 0; a < p.agent_count(); ++a)
      n += p.agent(a).records_collected();
    return n;
  };
  for (int i = 0; i < 200 && p.mobiwatch().records_seen() != collected(); ++i)
    p.run_for(kRound);
  p.finalize();

  // Correctness and counts.
  const core::PipelineStats s = p.stats();
  auto& c = ep.counts.v;
  c["mobiflow.records"] = s.records_collected;
  c["mobiflow.indications"] = s.indications_sent;
  c["mobiwatch.records"] = s.records_seen;
  c["detect.windows"] = s.windows_scored;
  c["detect.incidents"] = s.anomalies_flagged;
  c["oran.nacks"] = s.nacks_sent;
  c["oran.gaps"] = s.gaps_detected;
  c["oran.duplicates_suppressed"] = s.duplicates_suppressed;
  c["oran.controls_sent"] = s.controls_sent;
  c["oran.control_acks"] = s.control_acks;
  c["oran.controls_lost"] = s.controls_lost;
  c["llm.queries"] = s.incidents_analyzed + s.llm_retries;
  c["mitigate.actions"] = s.mitigation_actions;
  c["mitigate.rollbacks"] = s.mitigation_rollbacks;
  c["agent.retransmitted"] = s.indications_retransmitted;
  c["agent.reconnects"] = s.agent_reconnects;
  const obs::MetricsRegistry& reg = p.metrics();
  for (const char* name : {"transport.frames_tx", "transport.bytes_tx"})
    if (const obs::Counter* k = reg.find_counter(name))
      c[std::string(name, std::strlen(name) - 3)] = k->value();

  if (!w.faults && (s.records_seen != s.records_collected ||
                    s.gaps_detected != 0 || s.gaps_observed != 0))
    ep.errors.push_back("fault-free workload lost records or declared a gap");
  if (s.control_acks + s.controls_lost != s.controls_sent)
    ep.errors.push_back("control_acks + controls_lost != controls_sent");

  std::vector<detect::AnomalyReport> reports;
  for (const Bytes& payload : anomaly_payloads) {
    auto report = detect::AnomalyReport::deserialize(payload);
    if (!report) {
      ep.errors.push_back("incident report fails AnomalyReport::deserialize");
      continue;
    }
    reports.push_back(std::move(report.value()));
  }
  for (const auto& [payload, at_us] : verdicts) {
    auto verdict = llm::IncidentVerdict::deserialize(payload);
    if (!verdict) {
      ep.errors.push_back("incident verdict fails to deserialize");
      continue;
    }
    ep.incident_lag_ms.push_back(
        static_cast<double>(at_us - verdict.value().flagged_at_us) / 1000.0);
  }
  if (w.attacks) {
    std::size_t detected = 0;
    for (const auto& attack : rotation.instances()) {
      bool hit = false;
      for (const auto& report : reports) {
        for (const auto& e : report.window.entries())
          if (attack->is_malicious(e.record)) {
            hit = true;
            break;
          }
        if (hit) break;
      }
      detected += hit;
    }
    ep.attack_instances = rotation.instances().size();
    ep.detected_share = ep.attack_instances
                            ? static_cast<double>(detected) /
                                  static_cast<double>(ep.attack_instances)
                            : 0.0;
    c["attack.instances"] = ep.attack_instances;
    c["attack.detected"] = detected;
  }
  if (opt.traced)
    ep.sdl_mb = sdl_payload_mb(p.ric().sdl(),
                               {config.mobiwatch.sdl_namespace,
                                config.analyzer.sdl_namespace,
                                config.mitigation.sdl_namespace});
  return ep;
}

/// The same episode's simulator alone: identical cells, traffic and attack
/// rotation, no RIC agent attached to the taps. Returns the wall seconds of
/// the measured rounds.
double run_ran_only(const Workload& w, std::uint64_t seed) {
  AttackRotation rotation;
  sim::Testbed testbed(pipeline_config(w, seed).testbed);
  CellTraffic traffic(testbed, seed ^ 0x7aff1cULL);
  traffic.schedule(SimTime{0} + kWarmup + kMeasured);
  if (w.attacks) rotation.schedule(testbed);
  testbed.run_for(kWarmup);
  const auto t0 = Clock::now();
  const std::int64_t measured_rounds = kMeasured.us / kRound.us;
  for (std::int64_t r = 0; r < measured_rounds; ++r) testbed.run_for(kRound);
  return seconds_since(t0);
}

// --- Replay of captured report batches ----------------------------------------

/// A near-RT RIC hosting MobiWatch (collection mode when `detector` is
/// null) with one real RicAgent per captured node connected to it. The
/// agents answer MobiWatch's subscriptions; replayed indications carry
/// those subscriptions' request ids.
struct ReplayRic {
  ReplayRic(const Capture& cap,
            std::shared_ptr<detect::AnomalyDetector> detector) {
    mobiwatch = static_cast<detect::MobiWatchXapp*>(
        ric.register_xapp(std::make_unique<detect::MobiWatchXapp>()));
    if (detector)
      mobiwatch->install_detector(
          std::move(detector), detect::FeatureEncoder(eval_config().features));
    std::vector<std::pair<std::uint64_t, Bytes>> to_ric;
    mobiflow::AgentHooks hooks;
    hooks.now = [] { return SimTime{0}; };
    hooks.schedule = [](SimDuration, std::function<void()>) {};
    hooks.to_ric = [&to_ric](std::uint64_t node, Bytes wire) {
      to_ric.emplace_back(node, std::move(wire));
    };
    for (const auto& batch : cap.batches) {
      const std::uint64_t node = batch.first;
      if (agents.count(node)) continue;
      agents[node] = std::make_unique<mobiflow::RicAgent>(node, hooks);
      (void)ric.connect_node(agents[node].get());
      // Delivered after connect_node returns, as the transport would.
      for (std::size_t i = 0; i < to_ric.size(); ++i) {
        const auto [from, wire] = to_ric[i];
        if (auto resp = oran::decode_subscription_response(wire))
          request_ids[from] = resp.value().request_id;
        ric.from_node(from, wire);
      }
      to_ric.clear();
    }
    // The hooks' capture dies here; the agents are not driven again.
  }
  ReplayRic(const ReplayRic&) = delete;
  ReplayRic& operator=(const ReplayRic&) = delete;

  oran::NearRtRic ric;
  detect::MobiWatchXapp* mobiwatch = nullptr;  // owned by the RIC
  std::map<std::uint64_t, std::unique_ptr<mobiflow::RicAgent>> agents;
  std::map<std::uint64_t, oran::RicRequestId> request_ids;
};

/// Replays captured report batches through the public entry points and
/// returns unit costs: E2SM/E2AP encode and decode, framed transport on the
/// workload's backend, RIC ingest into MobiWatch in collection mode, the
/// same ingest with the trained detector installed (its scoring time
/// subtracted), and feature encoding alone.
ReplayCosts replay_once(const Workload& w, const Capture& cap,
                        const std::shared_ptr<detect::AnomalyDetector>& trained) {
  ReplayCosts out;
  ReplayRic collect(cap, nullptr);
  LayerClock dl;
  std::uint64_t dl_windows = 0;
  ReplayRic detecting(cap, std::make_shared<TimedDetector>(
                               trained->clone_for_inference(), &dl, &dl_windows));
  if (collect.request_ids != detecting.request_ids)
    out.error = "replay RICs assigned different request ids";

  // Encode every batch as the agent does, timing the codec.
  std::vector<std::pair<std::uint64_t, Bytes>> wires;
  std::map<std::uint64_t, std::uint32_t> seq;
  std::size_t records = 0;
  std::int64_t encode_ns = 0, decode_ns = 0;
  for (const auto& [node, rows] : cap.batches) {
    records += rows.size();
    const auto t0 = Clock::now();
    oran::e2sm::IndicationHeader header;
    header.collect_start_us = rows.front().timestamp_us;
    header.gnb_id = rows.front().gnb_id;
    header.cell = rows.front().cell;
    oran::e2sm::IndicationMessage message;
    message.rows.reserve(rows.size());
    for (const auto& r : rows) message.rows.push_back(r.to_kv_bytes());
    oran::RicIndication ind;
    ind.request_id = collect.request_ids[node];
    ind.ran_function_id = oran::e2sm::kMobiFlowFunctionId;
    ind.action_id = 1;
    ind.sequence_number = ++seq[node];
    ind.header = oran::e2sm::encode_indication_header(header);
    ind.message = oran::e2sm::encode_indication_message(message);
    Bytes wire = oran::encode_e2ap(ind);
    encode_ns += ns_between(t0, Clock::now());
    wires.emplace_back(node, std::move(wire));
  }
  for (const auto& [node, wire] : wires) {
    const auto t0 = Clock::now();
    auto view = oran::decode_indication_view(wire);
    decode_ns += ns_between(t0, Clock::now());
    if (!view) out.error = "replayed indication fails to decode";
  }

  // Transport: frame, enqueue and pump every indication.
  std::uint64_t delivered = 0;
  std::int64_t transport_ns = 0;
  {
    transport::LinkConfig link_config;
    link_config.backend = transport::resolve_backend(w.backend);
    transport::FramedLink link(link_config, nullptr);
    link.set_ric_sink([&delivered](std::uint64_t, std::span<const std::uint8_t>) {
      ++delivered;
    });
    const auto t0 = Clock::now();
    for (const auto& [node, wire] : wires) {
      link.enqueue_to_ric(node, wire);
      link.pump_to_ric();
    }
    transport_ns = ns_between(t0, Clock::now());
  }

  // RIC ingest: sequencing, E2SM row walk, record decode, SDL store.
  auto ingest = [&wires](oran::NearRtRic& ric) {
    const auto t0 = Clock::now();
    for (const auto& [node, wire] : wires)
      ric.from_node_frame(node, std::span<const std::uint8_t>(wire));
    return static_cast<double>(ns_between(t0, Clock::now()));
  };
  const double collect_ns = ingest(collect.ric);
  const double detecting_ns = ingest(detecting.ric);

  // Feature encoding alone, one streaming context per node.
  detect::FeatureEncoder encoder(eval_config().features);
  std::vector<float> row(encoder.dim());
  std::map<std::uint64_t, detect::EncodeContext> contexts;
  const auto f0 = Clock::now();
  for (const auto& [node, rows] : cap.batches) {
    detect::EncodeContext& ctx = contexts[node];
    for (const auto& r : rows) encoder.encode_into(r, ctx, row.data());
  }
  const double features_ns = static_cast<double>(ns_between(f0, Clock::now()));

  const double n = static_cast<double>(std::max<std::size_t>(1, wires.size()));
  const double per_record = static_cast<double>(std::max<std::size_t>(1, records));
  out.encode_us = static_cast<double>(encode_ns) * 1e-3 / n;
  out.decode_us = static_cast<double>(decode_ns) * 1e-3 / n;
  out.transport_us = static_cast<double>(transport_ns) * 1e-3 / n;
  out.ingest_us = collect_ns * 1e-3 / n;
  out.features_us = features_ns * 1e-3 / per_record;
  out.detect_us = std::max(0.0, detecting_ns - collect_ns -
                                    static_cast<double>(dl.ns)) *
                  1e-3 / per_record;
  if (delivered != wires.size()) out.error = "replay transport lost a frame";
  if (collect.mobiwatch->records_seen() != records ||
      detecting.mobiwatch->windows_scored() == 0)
    out.error = "replay RIC ingest lost a record";
  return out;
}

/// Each round's best time over a set of episodes of identical work.
std::vector<double> best_rounds(const std::vector<Episode>& episodes) {
  std::vector<double> best = episodes.front().round_ms;
  for (const auto& ep : episodes)
    for (std::size_t k = 0; k < best.size(); ++k)
      best[k] = std::min(best[k], ep.round_ms[k]);
  return best;
}

// --- Host fingerprint and output ---------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      auto pos = line.find(':');
      if (pos != std::string::npos) return line.substr(pos + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out;
}

class JsonObject {
 public:
  void num(const std::string& key, double v, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    add(key, std::string("{\"value\": ") + buf + ", \"unit\": \"" + unit + "\"}");
  }
  void raw(const std::string& key, const std::string& json) { add(key, json); }
  void str(const std::string& key, const std::string& v) {
    add(key, "\"" + json_escape(v) + "\"");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + json_escape(key) + "\": " + value;
  }
  std::string body_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end) return std::nullopt;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end || !(a.seconds > 0)) return std::nullopt;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload) return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: ingest_bench --workload benign|attack|lossy "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const auto workload = find_workload(args->workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  // The pipeline sees a mixed seed so nearby seeds give unrelated traffic.
  const std::uint64_t seed = (args->seed * 0x9E3779B97F4A7C15ULL) >> 16;
  std::vector<std::string> errors;
  CpuRotation cpus;

  // Set-up, three times; every repetition must train the same detector.
  std::vector<double> setup_s, train_s;
  std::shared_ptr<detect::AnomalyDetector> detector;
  for (int i = 0; i < 3; ++i) {
    cpus.next();
    Setup s = run_setup(w, seed);
    setup_s.push_back(s.setup_s);
    train_s.push_back(s.train_s);
    if (detector && detector->threshold() != s.detector->threshold())
      errors.push_back("set-up is not deterministic (threshold differs)");
    detector = s.detector;
  }

  // One unmeasured episode warms caches and the allocator.
  Episode reference = run_episode(w, seed, detector, {});
  for (auto& e : reference.errors) errors.push_back(e);

  std::vector<Episode> plain, traced;
  Capture capture;
  const auto start = Clock::now();
  while (seconds_since(start) < args->seconds || plain.size() < 3 ||
         (args->trace && traced.size() < 3)) {
    const bool trace_this = args->trace && plain.size() > traced.size();
    EpisodeOptions opt;
    opt.traced = trace_this;
    if (trace_this && traced.empty()) opt.capture = &capture;
    // A traced episode runs on the CPU of the untraced one before it, so
    // both kinds visit every CPU and each pair shares one.
    if (!trace_this) cpus.next();
    Episode ep = run_episode(w, seed, detector, opt);
    if (trace_this) {
      ep.ran_s = run_ran_only(w, seed);
      ep.replay = replay_once(w, capture, detector);
      if (!ep.replay.error.empty()) errors.push_back(ep.replay.error);
    }
    for (auto& e : ep.errors) errors.push_back(e);
    if (!(ep.counts == reference.counts))
      errors.push_back("counts differ between two episodes of one seed");
    std::fprintf(stderr, "episode %zu%s: %.0f records/s, round p50 %.4f ms\n",
                 plain.size() + traced.size(), trace_this ? " (traced)" : "",
                 static_cast<double>(ep.measured_records) / ep.measured_s,
                 median(ep.round_ms));
    (trace_this ? traced : plain).push_back(std::move(ep));
  }

  // Episodes repeat identical work, so round k of every episode does the
  // same thing. A shared host slows whole stretches of a run by up to ~40%,
  // for seconds at a time; to keep that out of the figures, each round's
  // time is its best over the run's episodes (rotated over the CPUs). The
  // round percentiles are taken over those per-round times, and records/s
  // is the episode's records over their sum. The plain median of the
  // per-episode rates is printed beside it.
  std::vector<double> rates;
  for (const auto& ep : plain)
    rates.push_back(static_cast<double>(ep.measured_records) / ep.measured_s);
  const std::vector<double> round_ms = best_rounds(plain);
  double best_ms = 0.0;
  for (double ms : round_ms) best_ms += ms;
  const std::size_t n_rounds = round_ms.size();
  const std::size_t round_samples = n_rounds * plain.size();
  const auto& counts = reference.counts.v;
  const std::uint64_t collected = counts.at("mobiflow.records");
  const std::uint64_t seen = counts.at("mobiwatch.records");
  const std::uint64_t lost = collected > seen ? collected - seen : 0;

  JsonObject result;
  result.num("records_per_s",
             static_cast<double>(plain.front().measured_records) /
                 (best_ms * 1e-3),
             "records/s");
  result.num("episode_records_per_s", median(rates), "records/s");
  result.num("round_p50_ms", median(round_ms), "ms");
  result.num("round_p99_ms", quantile(round_ms, 0.99), "ms");
  result.num("incident_lag_ms", median(reference.incident_lag_ms), "ms");
  if (w.attacks) result.num("detected_share", reference.detected_share, "ratio");
  result.num("records_lost_share",
             collected ? static_cast<double>(lost) / static_cast<double>(collected)
                       : 0.0,
             "ratio");
  result.num("setup_s", median(setup_s), "s");
  result.num("peak_rss_mb", peak_rss_mb(), "MiB");

  JsonObject layers;
  if (args->trace) {
    // Per traced episode: each layer's self time per record carried during
    // the measured rounds. The simulator's cost comes from the RAN-only run
    // of the same rounds; codec, transport, ingest and feature encoding
    // from the replay's unit costs times the episode's own unit counts.
    // Medians over traced episodes.
    std::map<std::string, std::vector<double>> per;
    auto put = [&per](const std::string& k, double v) { per[k].push_back(v); };
    for (const auto& ep : traced) {
      const double encode_us = ep.replay.encode_us,
                   decode_us = ep.replay.decode_us,
                   transport_us = ep.replay.transport_us,
                   ingest_us = ep.replay.ingest_us,
                   features_us = ep.replay.features_us;
      const double detect_us = ep.replay.detect_us;
      const double r = static_cast<double>(std::max<std::uint64_t>(1, ep.measured_records));
      const double ind = static_cast<double>(ep.measured_indications);
      const double frm = static_cast<double>(ep.measured_frames);
      const double wall_us = ep.measured_s * 1e6 / r;
      const double ran_us = ep.ran_s * 1e6 / r;
      const double tap_us = static_cast<double>(ep.m_tap.ns) * 1e-3 / r;
      const double codec_us = ind * (encode_us + decode_us) / r;
      const double transport_rec_us = frm * transport_us / r;
      const double ingest_rec_us = ind * std::max(0.0, ingest_us - decode_us) / r;
      const double dl_us = static_cast<double>(ep.m_dl.ns) * 1e-3 / r;
      const double llm_us = static_cast<double>(ep.m_llm.ns) * 1e-3 / r;
      const double attributed = ran_us + tap_us + codec_us + transport_rec_us +
                                ingest_rec_us + detect_us + dl_us + llm_us;
      put("trace.us_per_record", wall_us);
      put("ran.us_per_record", ran_us);
      put("oran.us_per_record", codec_us + ingest_rec_us);
      put("transport.us_per_record", transport_rec_us);
      put("dl.us_per_record", dl_us);
      put("llm.us_per_record", llm_us);
      put("trace.unattributed_share", 1.0 - attributed / wall_us);
      put("dl.share", dl_us / wall_us);
      put("mobiflow.share", tap_us / wall_us);
      put("llm.share", llm_us / wall_us);
      put("ran.share", ran_us / wall_us);
      put("mobiflow.tap_us", tap_us);
      put("dl.score_us_per_window",
          ep.m_dl_windows ? static_cast<double>(ep.m_dl.ns) * 1e-3 /
                                static_cast<double>(ep.m_dl_windows)
                          : 0.0);
      put("detect.windows_per_batch",
          ep.m_dl.calls ? static_cast<double>(ep.m_dl_windows) /
                              static_cast<double>(ep.m_dl.calls)
                        : 0.0);
      put("llm.query_us", ep.m_llm.calls ? static_cast<double>(ep.m_llm.ns) *
                                               1e-3 /
                                               static_cast<double>(ep.m_llm.calls)
                                         : 0.0);
      put("oran.sdl_mb", ep.sdl_mb);
      put("ran.self_s", ep.ran_s);
      put("detect.encode_us_per_record", features_us);
      put("detect.us_per_record", detect_us);
      put("oran.codec_us_per_indication", encode_us + decode_us);
      put("oran.ingest_us_per_indication", ingest_us);
      put("transport.us_per_frame", transport_us);
    }
    // Tracing overhead: each traced episode against the untraced one just
    // before it on the same CPU (identical work, so the rate ratio is the
    // time ratio); median over the pairs.
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced.size() && i < plain.size(); ++i)
      overhead.push_back(1.0 - plain[i].measured_s / traced[i].measured_s);
    auto unit_of = [](const std::string& k) -> std::string {
      if (k.find("share") != std::string::npos) return "ratio";
      if (k.find("windows_per_batch") != std::string::npos) return "windows";
      if (k.find("_mb") != std::string::npos) return "MiB";
      if (k.find("_s") == k.size() - 2) return "s";
      return "us";
    };
    for (const auto& [k, v] : per) layers.num(k, median(v), unit_of(k));
    layers.num("trace.overhead_share", median(overhead), "ratio");
    layers.num("dl.train_s", median(train_s), "s");
    for (const char* k :
         {"detect.windows", "detect.incidents", "mobiflow.records",
          "mobiflow.indications", "oran.nacks", "oran.gaps",
          "oran.duplicates_suppressed", "transport.frames", "transport.bytes",
          "llm.queries", "mitigate.actions", "mitigate.rollbacks",
          "oran.controls_sent", "oran.control_acks"})
      layers.num(k, static_cast<double>(reference.counts.v.at(k)),
                 std::strcmp(k, "transport.bytes") == 0 ? "bytes" : "count");
  }

  std::printf("workload %s seed %llu: %zu untraced episodes of %zu rounds\n",
              w.name.c_str(), static_cast<unsigned long long>(args->seed),
              plain.size(), plain.front().round_ms.size());
  for (const auto& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  JsonObject host;
  host.str("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  host.str("cpu", cpu_model());
  host.str("build_type", XSEC_BENCH_BUILD_TYPE);

  JsonObject count_json;
  for (const auto& [k, v] : counts) count_json.raw(k, std::to_string(v));

  JsonObject top;
  top.raw("correct", errors.empty() ? "true" : "false");
  top.raw("attempted", std::to_string(collected));
  top.raw("failed", std::to_string(lost));
  top.raw("end_to_end", result.text());
  top.raw("per_layer", layers.text());
  top.raw("counts", count_json.text());
  top.raw("host", host.text());
  top.raw("episodes", std::to_string(plain.size() + traced.size()));
  top.raw("round_samples", std::to_string(round_samples));
  std::printf("%s\n", top.text().c_str());
  return 0;
}
