// Writing your own xApp against this platform's public API.
//
// Two custom xApps on a two-cell deployment:
//   * KpmCounterXapp — subscribes to the MobiFlow RAN function on every
//     connected E2 node and maintains per-cell message-rate counters in the
//     SDL (a miniature E2SM-KPM consumer).
//   * AlertForwarderXapp — subscribes to the analyzer's report stream on
//     the message router and keeps an operator-facing incident digest.
// Plus an A1 policy push steering MobiWatch's sensitivity at runtime.
#include <iostream>
#include <map>

#include "attacks/attack.hpp"
#include "common/strings.hpp"
#include "core/datasets.hpp"
#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "mobiflow/record.hpp"
#include "oran/e2sm.hpp"
#include "sim/traffic.hpp"

using namespace xsec;

namespace {

/// Counts telemetry rows per (cell, protocol) from its own E2 subscription.
class KpmCounterXapp : public oran::XApp {
 public:
  KpmCounterXapp() : oran::XApp("kpm-counter") {}

  void on_start() override {
    for (std::uint64_t node : ric().connected_nodes()) {
      oran::RicAction action;
      action.action_id = 1;
      action.type = oran::RicActionType::kReport;
      action.definition = oran::e2sm::encode_action_definition({});
      ric().subscribe(this, node, oran::e2sm::kMobiFlowFunctionId,
                      oran::e2sm::encode_event_trigger({10}), {action});
    }
  }

  // The indication's blobs view the transport's frame and are valid only
  // during this call; RowCursor walks the rows in place.
  void on_indication_view(std::uint64_t node_id,
                          const oran::RicIndicationView& indication) override {
    oran::e2sm::RowCursor rows(indication.message);
    while (auto row = rows.next()) {
      auto record = mobiflow::Record::from_kv_bytes(*row);
      if (!record.ok()) continue;
      std::string proto(record.value().protocol_name());
      ++counters_[{node_id, proto}];
      // Publish the running counter to the SDL for other consumers.
      sdl().set_str("kpm", "node" + std::to_string(node_id) + "/" + proto,
                    std::to_string(counters_[{node_id, proto}]));
    }
  }

  const std::map<std::pair<std::uint64_t, std::string>, std::size_t>&
  counters() const {
    return counters_;
  }

 private:
  std::map<std::pair<std::uint64_t, std::string>, std::size_t> counters_;
};

/// Collects analyzer verdicts from the router into an incident digest.
class AlertForwarderXapp : public oran::XApp {
 public:
  AlertForwarderXapp() : oran::XApp("alert-forwarder") {}

  void on_start() override {
    router().subscribe(oran::kMtAnalysisReport,
                       [this](const oran::RoutedMessage& message) {
                         digests_.emplace_back(message.payload.begin(),
                                               message.payload.end());
                       });
    router().subscribe(oran::kMtHumanReview,
                       [this](const oran::RoutedMessage&) { ++escalations_; });
  }

  const std::vector<std::string>& digests() const { return digests_; }
  std::size_t escalations() const { return escalations_; }

 private:
  std::vector<std::string> digests_;
  std::size_t escalations_ = 0;
};

}  // namespace

int main() {
  std::cout << "=== Custom xApp development walkthrough ===\n\n";

  // Train a detector offline, as usual.
  core::ScenarioConfig benign_config;
  benign_config.traffic.num_sessions = 50;
  benign_config.traffic.seed = 33;
  benign_config.run_time = SimDuration::from_s(8);
  core::EvalConfig eval;
  eval.detector.epochs = 20;
  auto detector = core::train_detector(core::ModelKind::kAutoencoder,
                                       core::collect_benign(benign_config),
                                       eval);

  // A two-cell deployment: the RIC manages two E2 nodes.
  core::PipelineConfig config;
  config.testbed.num_cells = 2;
  core::Pipeline pipeline(config);
  pipeline.install_detector(detector,
                            detect::FeatureEncoder(eval.features));

  // Register the custom xApps alongside MobiWatch and the analyzer.
  auto* kpm = static_cast<KpmCounterXapp*>(
      pipeline.ric().register_xapp(std::make_unique<KpmCounterXapp>()));
  auto* alerts = static_cast<AlertForwarderXapp*>(
      pipeline.ric().register_xapp(std::make_unique<AlertForwarderXapp>()));

  // Steer MobiWatch sensitivity over A1 (non-RT RIC policy push).
  oran::A1Policy tuning;
  tuning.policy_type = oran::kPolicyDetectionTuning;
  tuning.policy_id = "ops-sensitivity-1";
  tuning.content = {{"threshold_scale", "1.2"}};
  std::cout << "A1 policy 'threshold_scale=1.2' -> mobiwatch: "
            << to_string(pipeline.ric().apply_policy("mobiwatch", tuning))
            << "\n\n";

  // Traffic on both cells plus an attack on cell 1.
  sim::TrafficConfig traffic;
  traffic.num_sessions = 12;
  traffic.seed = 11;
  sim::BenignTrafficGenerator generator(&pipeline.testbed(), traffic);
  generator.schedule_all();
  for (int i = 0; i < 4; ++i) {
    ran::UeConfig ue;
    ue.supi = ran::Supi{ran::Plmn::test_network(),
                        6000 + static_cast<std::uint64_t>(i)};
    ue.seed = 100 + static_cast<std::uint64_t>(i);
    pipeline.testbed().add_ue(ue, SimTime::from_ms(50 + 40 * i), /*cell=*/1);
  }
  auto attack = attacks::make_bts_dos(8);
  attack->launch(pipeline.testbed(), SimTime::from_ms(300));
  pipeline.run_for(SimDuration::from_s(4));
  pipeline.finalize();

  std::cout << "Per-cell telemetry counters (KpmCounterXapp):\n";
  for (const auto& [key, count] : kpm->counters())
    std::cout << "  node " << key.first << " " << pad_right(key.second, 4)
              << ": " << count << " messages\n";
  std::cout << "\nIncident digest (AlertForwarderXapp): "
            << alerts->digests().size() << " reports, "
            << alerts->escalations() << " human-review escalations\n";
  if (!alerts->digests().empty()) {
    std::cout << "\nFirst incident digest:\n";
    for (const auto& line : split(alerts->digests().front(), '\n')) {
      std::cout << "  " << line << "\n";
      if (line.rfind("Why", 0) == 0) break;  // keep the output short
    }
  }
  return alerts->digests().empty() ? 1 : 0;
}
