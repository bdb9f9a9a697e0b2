// Ensemble-of-autoencoders detector (Kitsune-style, the paper's cited
// unsupervised lineage [Mirsky et al., NDSS'18]).
//
// The feature space is partitioned into subspaces; a small autoencoder per
// subspace learns its benign manifold, and a window's score is the worst
// member score normalized by that member's own benign calibration. Members
// localize which telemetry aspect deviated (the member name is exposed for
// explanations), and small members train faster than one monolithic AE —
// an extension beyond the paper's two baseline models, kept out of the
// Table 2 reproduction and reported separately.
#pragma once

#include <memory>

#include "detect/scorer.hpp"

namespace xsec::detect {

struct EnsembleConfig {
  DetectorConfig detector;
  /// Hidden widths of each member AE (mirrored decoder).
  std::vector<std::size_t> member_hidden = {32, 8};
  /// Per-member calibration percentile (members normalize their scores by
  /// this before the max-combination).
  double member_percentile = 99.0;
};

/// A named subset of feature columns handled by one ensemble member.
struct FeatureGroup {
  std::string name;
  std::vector<std::size_t> columns;
};

/// Partitions an encoder's feature space by its name prefixes ("msg"/"dir",
/// "id.", "state.", "dt.", "load.") — the natural Table 1 category split.
std::vector<FeatureGroup> groups_by_category(const FeatureEncoder& encoder);

class EnsembleDetector : public AnomalyDetector {
 public:
  EnsembleDetector(std::size_t window_size, std::size_t feature_dim,
                   std::vector<FeatureGroup> groups,
                   EnsembleConfig config = {});

  std::string name() const override { return "Ensemble-AE"; }
  void fit(const WindowDataset& benign) override;
  std::vector<double> score(const WindowDataset& data) override;
  std::vector<bool> labels(const WindowDataset& data) const override {
    return data.ae_labels();
  }
  using AnomalyDetector::score_window;
  double score_window(const float* rows, std::size_t n_rows) override;
  void score_windows(const float* rows, std::size_t row_dim,
                     std::size_t rows_per_window, std::size_t n_windows,
                     double* scores) override;
  std::size_t rows_needed(std::size_t window_size) const override {
    return window_size;
  }
  std::unique_ptr<AnomalyDetector> clone_for_inference() override;

  std::size_t member_count() const { return members_.size(); }
  const std::string& member_name(std::size_t i) const {
    return groups_[i].name;
  }
  /// Index of the member that dominated the last score_window call — the
  /// "which aspect deviated" attribution.
  std::size_t last_dominant_member() const { return last_dominant_; }

 private:
  struct Member {
    std::unique_ptr<dl::Autoencoder> model;
    double calibration = 1.0;  // member's own benign percentile score
  };

  /// Slices the standardized full-window matrix down to a member's columns
  /// (repeated per window position).
  dl::Matrix slice(const dl::Matrix& standardized, std::size_t member) const;
  void slice_into(const dl::Matrix& standardized, std::size_t member,
                  dl::Matrix& out) const;
  /// Scores a raw window matrix kScoreChunk rows per pass.
  std::vector<double> combined_scores(const dl::Matrix& raw_windows);

  /// The one scoring core, in three steps. stage() copies `n` raw windows,
  /// window w's flattened rows starting at first + w * stride, into
  /// infer_full_ and standardizes them. member_errors() writes one
  /// member's per-row worst per-record reconstruction error over the
  /// staged batch. score_rows() stages, then writes each window's worst
  /// calibration-normalized member error to scores[w] and returns the
  /// member that dominated the last window.
  void stage(const float* first, std::size_t stride, std::size_t n);
  void member_errors(std::size_t member, std::size_t n, double* errors);
  std::size_t score_rows(const float* first, std::size_t stride,
                         std::size_t n, double* scores);

  std::size_t window_size_;
  std::size_t feature_dim_;
  std::vector<FeatureGroup> groups_;
  EnsembleConfig config_;
  Standardizer scaler_;
  std::vector<Member> members_;
  std::size_t last_dominant_ = 0;
  /// Inference workspace (warmed once, then allocation-free): the
  /// standardized full-window batch, the per-member slice, and one
  /// member's per-window errors.
  dl::Matrix infer_full_;
  dl::Matrix infer_slice_;
  std::vector<double> infer_member_;
};

}  // namespace xsec::detect
