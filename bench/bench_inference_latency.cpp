// Inference latency (google-benchmark): per-window scoring cost of both
// detectors and the SimLLM analysis. The paper's architecture requires the
// pre-filter (MobiWatch) to run inside the near-RT loop (10ms-1s) and
// motivates the LLM stage being invoked only on flagged windows; these
// numbers quantify that asymmetry.
#include <benchmark/benchmark.h>

#include "detect/scorer.hpp"
#include "llm/client.hpp"
#include "llm/prompt.hpp"

using namespace xsec;

namespace {

mobiflow::Record flow_record(const char* proto, const char* msg,
                             const char* dir, std::uint16_t rnti,
                             std::uint64_t ue, std::int64_t t) {
  namespace vocab = mobiflow::vocab;
  mobiflow::Record r;
  r.protocol = vocab::protocol_or_unknown(proto);
  r.msg = vocab::msg_or_unknown(msg);
  r.direction = std::string_view(dir) == "DL" ? vocab::Direction::kDl
                                              : vocab::Direction::kUl;
  r.rnti = rnti;
  r.ue_id = ue;
  r.timestamp_us = t;
  return r;
}

mobiflow::Trace synthetic_benign(std::size_t sessions) {
  mobiflow::Trace trace;
  std::int64_t t = 0;
  for (std::size_t s = 0; s < sessions; ++s) {
    std::uint16_t rnti = static_cast<std::uint16_t>(0x100 + s);
    std::uint64_t ue = s + 1;
    const char* flow[][3] = {
        {"RRC", "RRCSetupRequest", "UL"},
        {"RRC", "RRCSetup", "DL"},
        {"RRC", "RRCSetupComplete", "UL"},
        {"NAS", "RegistrationRequest", "UL"},
        {"NAS", "AuthenticationRequest", "DL"},
        {"NAS", "AuthenticationResponse", "UL"},
        {"NAS", "RegistrationAccept", "DL"},
        {"RRC", "RRCRelease", "DL"},
    };
    for (const auto& step : flow)
      trace.add(flow_record(step[0], step[1], step[2], rnti, ue, t += 2500));
  }
  return trace;
}

struct Trained {
  detect::FeatureEncoder encoder;
  std::unique_ptr<detect::AutoencoderDetector> ae;
  std::unique_ptr<detect::LstmDetector> lstm;
  std::vector<std::vector<float>> rows;
  dl::Matrix feats;  // contiguous encoded rows for the batched benches

  Trained() {
    auto dataset =
        detect::WindowDataset::from_trace(synthetic_benign(50), encoder, 5);
    detect::DetectorConfig config;
    config.epochs = 8;
    ae = std::make_unique<detect::AutoencoderDetector>(5, encoder.dim(),
                                                       config);
    ae->fit(dataset);
    lstm = std::make_unique<detect::LstmDetector>(5, encoder.dim(), config);
    lstm->fit(dataset);
    rows.clear();
    for (std::size_t i = 0; i < 6; ++i)
      rows.emplace_back(dataset.features().row(i),
                        dataset.features().row(i) + dataset.features().cols());
    feats = dataset.features();
  }
};

Trained& trained() {
  static Trained instance;
  return instance;
}

void BM_AutoencoderScoreWindow(benchmark::State& state) {
  auto& t = trained();
  std::vector<std::vector<float>> window(t.rows.begin(), t.rows.begin() + 5);
  for (auto _ : state)
    benchmark::DoNotOptimize(t.ae->score_window(window));
}
BENCHMARK(BM_AutoencoderScoreWindow);

void BM_LstmScoreWindow(benchmark::State& state) {
  auto& t = trained();
  for (auto _ : state)
    benchmark::DoNotOptimize(t.lstm->score_window(t.rows));
}
BENCHMARK(BM_LstmScoreWindow);

void BM_AutoencoderScoreWindowsBatched(benchmark::State& state) {
  // Batched sliding-window scoring (the MobiWatch steady-state path; a
  // live score_windows call carries about 8 windows).
  // items_per_second = windows/s; per-window time = real_time / windows.
  auto& t = trained();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> scores(n);
  for (auto _ : state) {
    t.ae->score_windows(t.feats.row(0), t.feats.cols(), 5, n, scores.data());
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AutoencoderScoreWindowsBatched)
    ->Arg(1)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32);

void BM_LstmScoreWindowsBatched(benchmark::State& state) {
  auto& t = trained();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> scores(n);
  for (auto _ : state) {
    t.lstm->score_windows(t.feats.row(0), t.feats.cols(), 6, n,
                          scores.data());
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LstmScoreWindowsBatched)->Arg(1)->Arg(8)->Arg(16)->Arg(32);

void BM_FeatureEncodePlusScore(benchmark::State& state) {
  // The full per-record inference path MobiWatch runs in the nRT loop.
  auto& t = trained();
  detect::EncodeContext ctx;
  mobiflow::Trace trace = synthetic_benign(2);
  std::vector<std::vector<float>> recent;
  for (auto _ : state) {
    for (const auto& entry : trace.entries()) {
      recent.push_back(t.encoder.encode(entry.record, ctx));
      if (recent.size() > 5) recent.erase(recent.begin());
      if (recent.size() == 5)
        benchmark::DoNotOptimize(t.ae->score_window(recent));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_FeatureEncodePlusScore);

void BM_LlmAnalysisOfFlaggedWindow(benchmark::State& state) {
  // Prompt construction + expert analysis for one flagged window; orders
  // of magnitude heavier than the pre-filter, which is exactly why the
  // paper chains them instead of running the LLM on everything.
  mobiflow::Trace window = synthetic_benign(3);
  llm::PromptTemplate prompt_template;
  llm::SimLlmClient client;
  for (auto _ : state) {
    llm::LlmRequest request{"ChatGPT-4o", prompt_template.build(window)};
    benchmark::DoNotOptimize(client.query(request));
  }
}
BENCHMARK(BM_LlmAnalysisOfFlaggedWindow);

void BM_DetectorTraining(benchmark::State& state) {
  // Offline/SMO-side cost: full AE training on a benign dataset.
  auto dataset = detect::WindowDataset::from_trace(synthetic_benign(50),
                                                   trained().encoder, 5);
  for (auto _ : state) {
    detect::DetectorConfig config;
    config.epochs = static_cast<int>(state.range(0));
    detect::AutoencoderDetector detector(5, trained().encoder.dim(), config);
    detector.fit(dataset);
    benchmark::DoNotOptimize(detector.threshold());
  }
}
BENCHMARK(BM_DetectorTraining)->Arg(1)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
