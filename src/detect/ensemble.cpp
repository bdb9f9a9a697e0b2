#include "detect/ensemble.hpp"

#include <cassert>
#include <cstring>

#include "common/plot.hpp"
#include "common/strings.hpp"
#include "dl/serialize.hpp"

namespace xsec::detect {

std::vector<FeatureGroup> groups_by_category(const FeatureEncoder& encoder) {
  FeatureGroup messages{"messages", {}};
  FeatureGroup identifiers{"identifiers", {}};
  FeatureGroup state{"state", {}};
  FeatureGroup dynamics{"dynamics", {}};  // timing + load
  for (std::size_t i = 0; i < encoder.dim(); ++i) {
    std::string name = encoder.feature_name(i);
    if (starts_with(name, "id."))
      identifiers.columns.push_back(i);
    else if (starts_with(name, "state."))
      state.columns.push_back(i);
    else if (starts_with(name, "dt.") || starts_with(name, "load."))
      dynamics.columns.push_back(i);
    else
      messages.columns.push_back(i);  // msg=* and dir=*
  }
  std::vector<FeatureGroup> groups;
  for (auto& group : {messages, identifiers, state, dynamics})
    if (!group.columns.empty()) groups.push_back(group);
  return groups;
}

EnsembleDetector::EnsembleDetector(std::size_t window_size,
                                   std::size_t feature_dim,
                                   std::vector<FeatureGroup> groups,
                                   EnsembleConfig config)
    : window_size_(window_size),
      feature_dim_(feature_dim),
      groups_(std::move(groups)),
      config_(config) {
  assert(!groups_.empty());
  members_.resize(groups_.size());
  std::uint64_t seed = config_.detector.seed;
  for (std::size_t m = 0; m < groups_.size(); ++m) {
    dl::AutoencoderConfig member_config;
    member_config.input_dim = window_size_ * groups_[m].columns.size();
    // Clamp the member's hidden widths to its (possibly tiny) input.
    member_config.hidden = {
        std::max<std::size_t>(2, std::min(config_.member_hidden.front(),
                                          member_config.input_dim)),
        std::max<std::size_t>(
            2, std::min(config_.member_hidden.back(),
                        member_config.input_dim / 2 + 1))};
    member_config.seed = seed++;
    member_config.sigmoid_output = false;
    members_[m].model = std::make_unique<dl::Autoencoder>(member_config);
  }
}

dl::Matrix EnsembleDetector::slice(const dl::Matrix& standardized,
                                   std::size_t member) const {
  dl::Matrix out;
  slice_into(standardized, member, out);
  return out;
}

void EnsembleDetector::slice_into(const dl::Matrix& standardized,
                                  std::size_t member, dl::Matrix& out) const {
  const auto& columns = groups_[member].columns;
  out.resize(standardized.rows(), window_size_ * columns.size());
  for (std::size_t r = 0; r < standardized.rows(); ++r)
    for (std::size_t t = 0; t < window_size_; ++t)
      for (std::size_t c = 0; c < columns.size(); ++c)
        out.at(r, t * columns.size() + c) =
            standardized.at(r, t * feature_dim_ + columns[c]);
}

void EnsembleDetector::fit(const WindowDataset& benign) {
  assert(benign.window_size() == window_size_);
  assert(benign.feature_dim() == feature_dim_);
  dl::Matrix raw = benign.ae_matrix();
  scaler_.fit(raw);
  dl::Matrix standardized = raw;
  scaler_.apply(standardized);

  dl::TrainConfig train;
  train.epochs = config_.detector.epochs;
  train.batch_size = config_.detector.batch_size;
  train.learning_rate = config_.detector.learning_rate;
  for (std::size_t m = 0; m < members_.size(); ++m)
    members_[m].model->fit(slice(standardized, m), train);

  // Each member calibrates on its own benign scores, staged chunk by chunk.
  std::vector<std::vector<double>> scores(
      members_.size(), std::vector<double>(raw.rows()));
  for (std::size_t start = 0; start < raw.rows(); start += kScoreChunk) {
    const std::size_t n = std::min(kScoreChunk, raw.rows() - start);
    stage(raw.row(start), raw.cols(), n);
    for (std::size_t m = 0; m < members_.size(); ++m)
      member_errors(m, n, scores[m].data() + start);
  }
  for (std::size_t m = 0; m < members_.size(); ++m)
    members_[m].calibration =
        std::max(1e-9, percentile(scores[m], config_.member_percentile));
  calibrate(combined_scores(raw), config_.detector.threshold_percentile);
}

std::vector<double> EnsembleDetector::combined_scores(
    const dl::Matrix& raw_windows) {
  std::vector<double> combined(raw_windows.rows());
  for (std::size_t start = 0; start < combined.size(); start += kScoreChunk) {
    const std::size_t n = std::min(kScoreChunk, combined.size() - start);
    score_rows(raw_windows.row(start), raw_windows.cols(), n,
               combined.data() + start);
  }
  return combined;
}

std::vector<double> EnsembleDetector::score(const WindowDataset& data) {
  dl::Matrix raw = data.ae_matrix();
  return combined_scores(raw);
}

double EnsembleDetector::score_window(const float* rows, std::size_t n_rows) {
  double score = 0.0;
  score_windows(rows, feature_dim_, n_rows, 1, &score);
  return score;
}

void EnsembleDetector::score_windows(const float* rows, std::size_t row_dim,
                                     std::size_t rows_per_window,
                                     std::size_t n_windows, double* scores) {
  assert(row_dim == feature_dim_);
  assert(rows_per_window == window_size_);
  (void)row_dim;
  (void)rows_per_window;
  // Matches what sequential score_window() calls over the batch would
  // leave behind: the attribution of the most recent window.
  last_dominant_ = score_rows(rows, feature_dim_, n_windows, scores);
}

void EnsembleDetector::stage(const float* first, std::size_t stride,
                             std::size_t n) {
  const std::size_t flat = window_size_ * feature_dim_;
  infer_full_.resize(n, flat);
  for (std::size_t w = 0; w < n; ++w)
    std::memcpy(infer_full_.row(w), first + w * stride,
                flat * sizeof(float));
  if (scaler_.fitted()) scaler_.apply(infer_full_);
}

void EnsembleDetector::member_errors(std::size_t member, std::size_t n,
                                     double* errors) {
  slice_into(infer_full_, member, infer_slice_);
  const dl::Matrix& recon = members_[member].model->infer(infer_slice_);
  const std::size_t sub_dim = groups_[member].columns.size();
  for (std::size_t r = 0; r < n; ++r) {
    double worst = 0.0;
    for (std::size_t t = 0; t < window_size_; ++t) {
      double acc = 0.0;
      for (std::size_t c = 0; c < sub_dim; ++c) {
        std::size_t col = t * sub_dim + c;
        double d =
            static_cast<double>(recon.at(r, col)) - infer_slice_.at(r, col);
        acc += d * d;
      }
      worst = std::max(worst, acc / static_cast<double>(sub_dim));
    }
    errors[r] = worst;
  }
}

std::size_t EnsembleDetector::score_rows(const float* first,
                                         std::size_t stride, std::size_t n,
                                         double* scores) {
  stage(first, stride, n);
  std::size_t last_dominant = 0;
  for (std::size_t w = 0; w < n; ++w) scores[w] = 0.0;
  infer_member_.resize(n);
  for (std::size_t m = 0; m < members_.size(); ++m) {
    member_errors(m, n, infer_member_.data());
    for (std::size_t r = 0; r < n; ++r) {
      double normalized = infer_member_[r] / members_[m].calibration;
      if (normalized > scores[r]) {
        scores[r] = normalized;
        if (r + 1 == n) last_dominant = m;
      }
    }
  }
  return last_dominant;
}

std::unique_ptr<AnomalyDetector> EnsembleDetector::clone_for_inference() {
  auto copy = std::make_unique<EnsembleDetector>(window_size_, feature_dim_,
                                                 groups_, config_);
  for (std::size_t m = 0; m < members_.size(); ++m) {
    Status loaded = dl::load_params(copy->members_[m].model->params(),
                                    dl::save_params(members_[m].model->params()));
    if (!loaded.ok()) return nullptr;
    copy->members_[m].calibration = members_[m].calibration;
  }
  copy->scaler_ = scaler_;
  copy->set_threshold(threshold());
  return copy;
}

}  // namespace xsec::detect
