#include "detect/classifier.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace xsec::detect {

std::vector<AnomalyEvent> extract_events(const std::vector<double>& scores,
                                         double threshold,
                                         std::size_t merge_gap) {
  std::vector<AnomalyEvent> events;
  std::size_t gap = merge_gap + 1;  // windows since last flagged one
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] > threshold) {
      if (gap > merge_gap || events.empty()) {
        events.push_back({i, i, {scores[i]}});
      } else {
        AnomalyEvent& event = events.back();
        // Include the bridged sub-threshold windows in the curve.
        for (std::size_t j = event.last_window + 1; j <= i; ++j)
          event.errors.push_back(scores[j]);
        event.last_window = i;
      }
      gap = 0;
    } else {
      ++gap;
    }
  }
  return events;
}

std::size_t event_pattern_dim(std::size_t curve_points) {
  return curve_points + 4;
}

std::vector<float> event_pattern(const AnomalyEvent& event, double threshold,
                                 std::size_t curve_points) {
  assert(!event.errors.empty());
  assert(threshold > 0.0);
  std::vector<float> out;
  out.reserve(event_pattern_dim(curve_points));

  // Shape: the error curve resampled to a fixed length, in units of the
  // threshold, log-compressed so magnitude differences don't swamp shape.
  const std::size_t n = event.errors.size();
  for (std::size_t p = 0; p < curve_points; ++p) {
    double position = curve_points == 1
                          ? 0.0
                          : static_cast<double>(p) *
                                static_cast<double>(n - 1) /
                                static_cast<double>(curve_points - 1);
    auto lo = static_cast<std::size_t>(std::floor(position));
    auto hi = std::min(n - 1, lo + 1);
    double frac = position - static_cast<double>(lo);
    double value =
        event.errors[lo] + frac * (event.errors[hi] - event.errors[lo]);
    out.push_back(static_cast<float>(
        std::log1p(std::max(0.0, value / threshold))));
  }

  double max_error = *std::max_element(event.errors.begin(),
                                       event.errors.end());
  double mean = 0.0;
  for (double e : event.errors) mean += e;
  mean /= static_cast<double>(n);
  std::vector<double> sorted = event.errors;
  std::sort(sorted.begin(), sorted.end());
  double median = sorted[n / 2];

  out.push_back(static_cast<float>(std::log1p(max_error / threshold)));
  out.push_back(static_cast<float>(std::log1p(mean / threshold)));
  out.push_back(static_cast<float>(std::log1p(median / threshold)));
  out.push_back(static_cast<float>(std::log1p(static_cast<double>(n))));
  return out;
}

AttackClassifier::AttackClassifier(std::vector<std::string> class_names,
                                   std::size_t input_dim,
                                   ClassifierConfig config)
    : class_names_(std::move(class_names)),
      input_dim_(input_dim),
      config_(config),
      rng_(config.seed) {
  assert(!class_names_.empty());
  network_.add(std::make_unique<dl::Linear>(input_dim_, config_.hidden, rng_));
  network_.add(std::make_unique<dl::Relu>());
  network_.add(
      std::make_unique<dl::Linear>(config_.hidden, class_names_.size(), rng_));
}

namespace {
/// Row-wise softmax in place; returns per-row max logit removed first for
/// numerical stability.
void softmax_rows(dl::Matrix& logits) {
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    float* row = logits.row(r);
    float max_logit = row[0];
    for (std::size_t c = 1; c < logits.cols(); ++c)
      max_logit = std::max(max_logit, row[c]);
    float total = 0.0f;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      row[c] = std::exp(row[c] - max_logit);
      total += row[c];
    }
    for (std::size_t c = 0; c < logits.cols(); ++c) row[c] /= total;
  }
}
}  // namespace

double AttackClassifier::fit(const std::vector<std::vector<float>>& patterns,
                             const std::vector<std::size_t>& labels) {
  assert(patterns.size() == labels.size());
  assert(!patterns.empty());
  dl::Matrix x(patterns.size(), input_dim_);
  for (std::size_t r = 0; r < patterns.size(); ++r) {
    assert(patterns[r].size() == input_dim_);
    for (std::size_t c = 0; c < input_dim_; ++c) x.at(r, c) = patterns[r][c];
  }

  dl::Adam optimizer(network_.params(), config_.learning_rate);
  double loss = 0.0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    optimizer.zero_grad();
    dl::Matrix probs = network_.forward(x);
    softmax_rows(probs);
    loss = 0.0;
    dl::Matrix grad = probs;  // dCE/dlogits = p - y (per sample, / N)
    for (std::size_t r = 0; r < x.rows(); ++r) {
      double p = std::max(1e-12, static_cast<double>(probs.at(r, labels[r])));
      loss -= std::log(p);
      grad.at(r, labels[r]) -= 1.0f;
    }
    loss /= static_cast<double>(x.rows());
    dl::scale_inplace(grad, 1.0f / static_cast<float>(x.rows()));
    network_.backward_params(grad);
    optimizer.step();
  }
  return loss;
}

std::vector<double> AttackClassifier::probabilities(
    const std::vector<float>& pattern) {
  assert(pattern.size() == input_dim_);
  dl::Matrix x(1, input_dim_);
  for (std::size_t c = 0; c < input_dim_; ++c) x.at(0, c) = pattern[c];
  dl::Matrix logits = network_.forward(x);
  softmax_rows(logits);
  std::vector<double> out(class_names_.size());
  for (std::size_t c = 0; c < out.size(); ++c) out[c] = logits.at(0, c);
  return out;
}

std::size_t AttackClassifier::predict(const std::vector<float>& pattern) {
  auto probs = probabilities(pattern);
  return static_cast<std::size_t>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

}  // namespace xsec::detect
