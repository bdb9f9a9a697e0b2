// Anomaly scorers: a uniform train/score/threshold interface over the
// autoencoder (reconstruction error) and the LSTM (prediction error),
// including the paper's 99th-percentile threshold calibration on the
// training-set scores ("assuming 1% outliers within the training set
// caused by network noise").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/plot.hpp"
#include "common/result.hpp"
#include "detect/features.hpp"
#include "dl/autoencoder.hpp"
#include "dl/lstm.hpp"

namespace xsec::detect {

/// Per-dimension standardization fitted on benign training data. Features
/// with (near-)zero benign variance — exactly the security indicator dims
/// an attack flips for the first time — get a floored std and therefore a
/// large standardized deviation, so single-record anomalies are not
/// diluted by the window's benign dimensions. Fully unsupervised: only
/// benign statistics are used.
class Standardizer {
 public:
  void fit(const dl::Matrix& data, float std_floor = 0.05f);
  /// Fits over the `span`-row windows of `rows` that begin at `starts`,
  /// window by window: a row shared by several windows counts once per
  /// window, as in a corpus of gathered windows.
  void fit(const dl::Matrix& rows, const std::vector<std::size_t>& starts,
           std::size_t span, float std_floor = 0.05f);
  bool fitted() const { return !mean_.empty(); }
  std::size_t dim() const { return mean_.size(); }

  void apply(dl::Matrix& data) const;

  /// Fitted statistics, exposed for model-state serialization (the SDL
  /// model store persists the scaler next to the weights — a restored
  /// detector must standardize exactly like the original).
  const std::vector<float>& mean() const { return mean_; }
  const std::vector<float>& inv_std() const { return inv_std_; }
  void restore(std::vector<float> mean, std::vector<float> inv_std) {
    mean_ = std::move(mean);
    inv_std_ = std::move(inv_std);
  }

 private:
  std::vector<float> mean_;
  std::vector<float> inv_std_;
};

/// Knobs for incremental (fine-tune) retraining on fresh benign windows.
/// Deliberately gentler than initial training: few epochs, low learning
/// rate, and the scaler stays FIXED so scores remain comparable across
/// model versions.
struct FineTuneConfig {
  int epochs = 4;
  std::size_t batch_size = 32;
  float learning_rate = 5e-4f;
  /// Threshold recalibration percentile over the fine-tune windows.
  double threshold_percentile = 99.0;
};

class AnomalyDetector {
 public:
  virtual ~AnomalyDetector() = default;

  virtual std::string name() const = 0;
  /// Trains on benign windows, then calibrates the detection threshold to
  /// the given percentile of the training scores.
  virtual void fit(const WindowDataset& benign) = 0;
  /// Scores every window of the dataset.
  virtual std::vector<double> score(const WindowDataset& data) = 0;
  /// Window labels matching score() rows (AE vs LSTM window conventions).
  virtual std::vector<bool> labels(const WindowDataset& data) const = 0;
  /// Scores a single window of `n_rows` consecutive raw feature rows laid
  /// out contiguously row-major at `rows` (the allocation-free inference
  /// path in the MobiWatch xApp). For the LSTM, the last row is the
  /// prediction target.
  virtual double score_window(const float* rows, std::size_t n_rows) = 0;
  /// Convenience wrapper for callers holding per-record row vectors.
  double score_window(const std::vector<std::vector<float>>& rows);
  /// Scores `n_windows` overlapping sliding windows in one batched pass.
  /// `rows` points at a contiguous row-major block of feature rows of
  /// width `row_dim`; window w spans rows [w, w + rows_per_window) and its
  /// score lands in scores[w], bit-identical to scoring each window via
  /// score_window(). The block therefore holds n_windows +
  /// rows_per_window - 1 rows. The default loops over score_window();
  /// the concrete detectors batch the whole block through their
  /// preallocated inference workspace.
  virtual void score_windows(const float* rows, std::size_t row_dim,
                             std::size_t rows_per_window,
                             std::size_t n_windows, double* scores);
  /// Rows a single inference window must contain.
  virtual std::size_t rows_needed(std::size_t window_size) const = 0;

  /// An independent inference replica: same weights, scaler, and threshold,
  /// but private inference workspaces, so the clone can score on another
  /// thread concurrently with the original (and with sibling clones).
  /// Scores are bit-identical to the original's. Returns nullptr when the
  /// detector has no replica support (e.g. deliberately stateful test
  /// scorers) — callers must then fall back to serialized scoring.
  virtual std::unique_ptr<AnomalyDetector> clone_for_inference() {
    return nullptr;
  }

  /// Serializes the detector's full inference state — architecture,
  /// scaler, threshold, and weights — into a self-describing blob that
  /// restore_detector() turns back into an equivalent detector. Empty
  /// means the detector has no serialization support.
  virtual Bytes save_state() { return {}; }

  /// Incrementally retrains on `n_windows` benign windows laid out
  /// contiguously at `windows`, each `n_rows` feature rows (= rows_needed)
  /// of the detector's feature dim. The scaler is kept fixed and the
  /// threshold is recalibrated over the fine-tune windows. Returns false
  /// when unsupported or the layout does not match.
  virtual bool fine_tune(const float* windows, std::size_t n_windows,
                         std::size_t n_rows, const FineTuneConfig& tune) {
    (void)windows;
    (void)n_windows;
    (void)n_rows;
    (void)tune;
    return false;
  }

  double threshold() const { return threshold_; }
  void set_threshold(double t) { threshold_ = t; }
  bool is_anomalous(double score) const { return score > threshold_; }

 protected:
  void calibrate(std::vector<double> training_scores, double percentile_p) {
    if (!training_scores.empty())
      threshold_ = percentile(std::move(training_scores), percentile_p);
  }

  double threshold_ = 0.0;
};

struct DetectorConfig {
  double threshold_percentile = 99.0;  // the paper's choice
  int epochs = 30;
  float learning_rate = 3e-3f;
  std::size_t batch_size = 32;
  std::uint64_t seed = 1234;
  /// Window scoring for the autoencoder. kMaxRecord takes the worst
  /// per-record reconstruction error within the window, so a single
  /// anomalous record is not diluted by its benign neighbours; kMean is
  /// the plain whole-window MSE (kept for the ablation bench).
  enum class AeScore { kMaxRecord, kMean };
  AeScore ae_score = AeScore::kMaxRecord;
  /// LSTM scoring: kMaxStep takes the worst per-step next-record
  /// prediction error across the window (catches the anomaly wherever it
  /// sits); kNextOnly is the paper's literal x̂_{i+N} formulation (kept for
  /// the ablation bench).
  enum class LstmScore { kMaxStep, kNextOnly };
  LstmScore lstm_score = LstmScore::kMaxStep;
};

/// Windows per staged pass when a detector scores a whole corpus
/// (threshold calibration, Table 2): the corpus goes through the inference
/// workspace one chunk at a time, so its size bounds no buffer. Scores are
/// bit-identical to one pass, because windows are independent.
constexpr std::size_t kScoreChunk = 64;

class AutoencoderDetector : public AnomalyDetector {
 public:
  AutoencoderDetector(std::size_t window_size, std::size_t feature_dim,
                      DetectorConfig config = {},
                      std::vector<std::size_t> hidden = {128, 32});

  std::string name() const override { return "Autoencoder"; }
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
  Bytes save_state() override;
  bool fine_tune(const float* windows, std::size_t n_windows,
                 std::size_t n_rows, const FineTuneConfig& tune) override;

  dl::Autoencoder& model() { return model_; }
  /// Fits the input standardizer (called automatically by fit(); exposed
  /// for the cross-validation harness which trains on row subsets).
  void fit_scaler(const dl::Matrix& raw_windows) { scaler_.fit(raw_windows); }
  /// Scores rows of an already-flattened RAW window matrix (shared by
  /// fit, score, and the ablation bench), kScoreChunk rows per pass.
  /// Standardization is applied internally.
  std::vector<double> window_scores(const dl::Matrix& raw_windows);
  /// Standardizes a raw window matrix (for callers training via model()).
  dl::Matrix standardize(const dl::Matrix& raw_windows) const;

 private:
  friend Result<std::unique_ptr<AnomalyDetector>> restore_detector(
      const Bytes& state);

  /// The one scoring core: stages `n` raw windows, window w's flattened
  /// rows starting at first + w * stride, into infer_input_, standardizes
  /// them, reconstructs through the inference path and writes each
  /// window's score to scores[w].
  void score_rows(const float* first, std::size_t stride, std::size_t n,
                  double* scores);
  /// window_scores() over `n` flattened raw windows laid out contiguously.
  std::vector<double> window_scores(const float* raw_windows, std::size_t n);

  std::size_t window_size_;
  std::size_t feature_dim_;
  DetectorConfig config_;
  dl::Autoencoder model_;
  Standardizer scaler_;
  /// Staging buffer of score_rows(); grows to the largest batch seen
  /// (a live batch or one kScoreChunk) and then never reallocates.
  dl::Matrix infer_input_;
};

class LstmDetector : public AnomalyDetector {
 public:
  LstmDetector(std::size_t window_size, std::size_t feature_dim,
               DetectorConfig config = {}, std::size_t hidden_dim = 64);

  std::string name() const override { return "LSTM"; }
  void fit(const WindowDataset& benign) override;
  std::vector<double> score(const WindowDataset& data) override;
  std::vector<bool> labels(const WindowDataset& data) const override {
    return data.lstm_labels();
  }
  using AnomalyDetector::score_window;
  double score_window(const float* rows, std::size_t n_rows) override;
  void score_windows(const float* rows, std::size_t row_dim,
                     std::size_t rows_per_window, std::size_t n_windows,
                     double* scores) override;
  std::size_t rows_needed(std::size_t window_size) const override {
    return window_size + 1;  // window plus the observed next record
  }
  std::unique_ptr<AnomalyDetector> clone_for_inference() override;
  Bytes save_state() override;
  bool fine_tune(const float* windows, std::size_t n_windows,
                 std::size_t n_rows, const FineTuneConfig& tune) override;

  dl::LstmPredictor& model() { return model_; }
  /// Fits the row standardizer over the N+1 rows of each window of the raw
  /// row block `rows` that begins at `starts` (called by fit(); exposed for
  /// the cross-validation harness which trains on window subsets).
  void fit_scaler(const dl::Matrix& rows,
                  const std::vector<std::size_t>& starts) {
    scaler_.fit(rows, starts, window_size_ + 1);
  }
  /// Standardizes a raw row block (for callers training via model()).
  dl::Matrix standardize(const dl::Matrix& rows) const;

 private:
  friend Result<std::unique_ptr<AnomalyDetector>> restore_detector(
      const Bytes& state);

  std::size_t window_size_;
  std::size_t feature_dim_;
  DetectorConfig config_;
  dl::LstmPredictor model_;
  Standardizer scaler_;
  /// Inference workspace: the scaled copy of the shared row block plus the
  /// LSTM's own fused-cell buffers. Warmed once, reused for every batch.
  dl::Matrix infer_rows_;
  dl::LstmPredictor::Workspace lstm_ws_;
};

/// Reconstructs a detector from a save_state() blob: validates the header,
/// rebuilds the architecture it describes, and loads scaler + threshold +
/// weights. Any malformed, truncated, or shape-mismatched blob is an
/// error, never a half-initialized detector.
Result<std::unique_ptr<AnomalyDetector>> restore_detector(const Bytes& state);

}  // namespace xsec::detect
