#include "detect/scorer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "dl/serialize.hpp"

namespace xsec::detect {

namespace {

/// Self-describing detector-state header ("XDET").
constexpr std::uint32_t kStateMagic = 0x58444554;
constexpr std::uint8_t kKindAutoencoder = 0;
constexpr std::uint8_t kKindLstm = 1;

void write_f32(ByteWriter& w, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  w.u32(bits);
}

Result<float> read_f32(ByteReader& r) {
  auto bits = r.u32();
  if (!bits) return bits.error();
  float v;
  std::uint32_t b = bits.value();
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

void write_config(ByteWriter& w, const DetectorConfig& config) {
  w.f64(config.threshold_percentile);
  w.i64(config.epochs);
  w.f64(static_cast<double>(config.learning_rate));
  w.u64(config.batch_size);
  w.u64(config.seed);
  w.u8(static_cast<std::uint8_t>(config.ae_score));
  w.u8(static_cast<std::uint8_t>(config.lstm_score));
}

Result<DetectorConfig> read_config(ByteReader& r) {
  DetectorConfig config;
  auto pct = r.f64();
  if (!pct) return pct.error();
  config.threshold_percentile = pct.value();
  auto epochs = r.i64();
  if (!epochs) return epochs.error();
  config.epochs = static_cast<int>(epochs.value());
  auto lr = r.f64();
  if (!lr) return lr.error();
  config.learning_rate = static_cast<float>(lr.value());
  auto batch = r.u64();
  if (!batch) return batch.error();
  config.batch_size = static_cast<std::size_t>(batch.value());
  auto seed = r.u64();
  if (!seed) return seed.error();
  config.seed = seed.value();
  auto ae_score = r.u8();
  if (!ae_score) return ae_score.error();
  if (ae_score.value() > 1)
    return Error::make("range", "unknown ae_score mode");
  config.ae_score = static_cast<DetectorConfig::AeScore>(ae_score.value());
  auto lstm_score = r.u8();
  if (!lstm_score) return lstm_score.error();
  if (lstm_score.value() > 1)
    return Error::make("range", "unknown lstm_score mode");
  config.lstm_score =
      static_cast<DetectorConfig::LstmScore>(lstm_score.value());
  return config;
}

void write_scaler(ByteWriter& w, const Standardizer& scaler) {
  w.boolean(scaler.fitted());
  if (!scaler.fitted()) return;
  w.u32(static_cast<std::uint32_t>(scaler.dim()));
  for (float v : scaler.mean()) write_f32(w, v);
  for (float v : scaler.inv_std()) write_f32(w, v);
}

Status read_scaler(ByteReader& r, Standardizer& scaler) {
  auto fitted = r.boolean();
  if (!fitted) return Status(fitted.error());
  if (!fitted.value()) return Status::ok_status();
  auto dim = r.u32();
  if (!dim) return Status(dim.error());
  if (dim.value() > r.remaining())
    return Status(Error::make("overflow", "scaler dim exceeds payload"));
  std::vector<float> mean(dim.value());
  std::vector<float> inv_std(dim.value());
  for (float& v : mean) {
    auto f = read_f32(r);
    if (!f) return Status(f.error());
    v = f.value();
  }
  for (float& v : inv_std) {
    auto f = read_f32(r);
    if (!f) return Status(f.error());
    v = f.value();
  }
  scaler.restore(std::move(mean), std::move(inv_std));
  return Status::ok_status();
}

/// Float count of the parameters a declared shape implies, summed with
/// overflow checks: a state blob's shape fields are untrusted until the
/// weights they describe are known to fit in the bytes that follow them.
class ParamCount {
 public:
  /// A rows × cols weight matrix.
  void add(std::uint64_t rows, std::uint64_t cols) {
    std::uint64_t n = 0;
    overflow_ = overflow_ || __builtin_mul_overflow(rows, cols, &n) ||
                __builtin_add_overflow(total_, n, &total_);
  }
  bool fits(std::size_t bytes) const {
    return !overflow_ && total_ <= bytes / sizeof(float);
  }

 private:
  std::uint64_t total_ = 0;
  bool overflow_ = false;
};

}  // namespace

double AnomalyDetector::score_window(
    const std::vector<std::vector<float>>& rows) {
  std::vector<float> flat;
  std::size_t dim = rows.empty() ? 0 : rows[0].size();
  flat.reserve(rows.size() * dim);
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  return score_window(flat.data(), rows.size());
}

void AnomalyDetector::score_windows(const float* rows, std::size_t row_dim,
                                    std::size_t rows_per_window,
                                    std::size_t n_windows, double* scores) {
  for (std::size_t w = 0; w < n_windows; ++w)
    scores[w] = score_window(rows + w * row_dim, rows_per_window);
}

void Standardizer::fit(const dl::Matrix& data, float std_floor) {
  fit(data, {0}, data.rows(), std_floor);
}

void Standardizer::fit(const dl::Matrix& rows,
                       const std::vector<std::size_t>& starts,
                       std::size_t span, float std_floor) {
  const std::size_t dim = rows.cols();
  const std::size_t n = starts.size() * span;
  mean_.assign(dim, 0.0f);
  inv_std_.assign(dim, 1.0f);
  if (n == 0) return;
  for (std::size_t s : starts)
    for (std::size_t r = s; r < s + span; ++r)
      for (std::size_t c = 0; c < dim; ++c) mean_[c] += rows.at(r, c);
  for (std::size_t c = 0; c < dim; ++c) mean_[c] /= static_cast<float>(n);
  std::vector<double> var(dim, 0.0);
  for (std::size_t s : starts)
    for (std::size_t r = s; r < s + span; ++r)
      for (std::size_t c = 0; c < dim; ++c) {
        double d = rows.at(r, c) - mean_[c];
        var[c] += d * d;
      }
  for (std::size_t c = 0; c < dim; ++c) {
    float std_dev =
        static_cast<float>(std::sqrt(var[c] / static_cast<double>(n)));
    inv_std_[c] = 1.0f / std::max(std_dev, std_floor);
  }
}

void Standardizer::apply(dl::Matrix& data) const {
  assert(data.cols() == mean_.size());
  for (std::size_t r = 0; r < data.rows(); ++r)
    for (std::size_t c = 0; c < data.cols(); ++c)
      data.at(r, c) = (data.at(r, c) - mean_[c]) * inv_std_[c];
}

AutoencoderDetector::AutoencoderDetector(std::size_t window_size,
                                         std::size_t feature_dim,
                                         DetectorConfig config,
                                         std::vector<std::size_t> hidden)
    : window_size_(window_size),
      feature_dim_(feature_dim),
      config_(config),
      model_(dl::AutoencoderConfig{window_size * feature_dim,
                                   std::move(hidden), config.seed,
                                   /*sigmoid_output=*/false}) {}

dl::Matrix AutoencoderDetector::standardize(
    const dl::Matrix& raw_windows) const {
  dl::Matrix out = raw_windows;
  if (scaler_.fitted()) scaler_.apply(out);
  return out;
}

void AutoencoderDetector::fit(const WindowDataset& benign) {
  assert(benign.window_size() == window_size_);
  assert(benign.feature_dim() == feature_dim_);
  dl::Matrix raw = benign.ae_matrix();
  scaler_.fit(raw);
  dl::Matrix data = standardize(raw);
  dl::TrainConfig train;
  train.epochs = config_.epochs;
  train.batch_size = config_.batch_size;
  train.learning_rate = config_.learning_rate;
  model_.fit(data, train);
  calibrate(window_scores(raw), config_.threshold_percentile);
}

std::vector<double> AutoencoderDetector::window_scores(
    const dl::Matrix& raw_windows) {
  return window_scores(raw_windows.row(0), raw_windows.rows());
}

std::vector<double> AutoencoderDetector::window_scores(
    const float* raw_windows, std::size_t n) {
  const std::size_t flat = window_size_ * feature_dim_;
  std::vector<double> scores(n);
  for (std::size_t start = 0; start < n; start += kScoreChunk)
    score_rows(raw_windows + start * flat, flat,
               std::min(kScoreChunk, n - start), scores.data() + start);
  return scores;
}

std::vector<double> AutoencoderDetector::score(const WindowDataset& data) {
  dl::Matrix m = data.ae_matrix();
  return window_scores(m);
}

double AutoencoderDetector::score_window(const float* rows,
                                         std::size_t n_rows) {
  double score = 0.0;
  score_windows(rows, feature_dim_, n_rows, 1, &score);
  return score;
}

void AutoencoderDetector::score_windows(const float* rows,
                                        std::size_t row_dim,
                                        std::size_t rows_per_window,
                                        std::size_t n_windows,
                                        double* scores) {
  assert(row_dim == feature_dim_);
  assert(rows_per_window == window_size_);
  (void)row_dim;
  (void)rows_per_window;
  // Sliding windows over contiguous rows: window w starts one record after
  // window w - 1.
  score_rows(rows, feature_dim_, n_windows, scores);
}

void AutoencoderDetector::score_rows(const float* first, std::size_t stride,
                                     std::size_t n, double* scores) {
  const std::size_t flat = window_size_ * feature_dim_;
  infer_input_.resize(n, flat);
  // Each window's rows are contiguous, so flattening is one copy per window.
  for (std::size_t w = 0; w < n; ++w)
    std::memcpy(infer_input_.row(w), first + w * stride,
                flat * sizeof(float));
  if (scaler_.fitted()) scaler_.apply(infer_input_);
  const dl::Matrix& recon = model_.infer(infer_input_);
  for (std::size_t r = 0; r < n; ++r) {
    if (config_.ae_score == DetectorConfig::AeScore::kMean) {
      double acc = 0.0;
      for (std::size_t c = 0; c < flat; ++c) {
        double d =
            static_cast<double>(recon.at(r, c)) - infer_input_.at(r, c);
        acc += d * d;
      }
      scores[r] = acc / static_cast<double>(flat);
      continue;
    }
    double worst = 0.0;
    for (std::size_t t = 0; t < window_size_; ++t) {
      double acc = 0.0;
      for (std::size_t c = 0; c < feature_dim_; ++c) {
        std::size_t col = t * feature_dim_ + c;
        double d =
            static_cast<double>(recon.at(r, col)) - infer_input_.at(r, col);
        acc += d * d;
      }
      worst = std::max(worst, acc / static_cast<double>(feature_dim_));
    }
    scores[r] = worst;
  }
}

LstmDetector::LstmDetector(std::size_t window_size, std::size_t feature_dim,
                           DetectorConfig config, std::size_t hidden_dim)
    : window_size_(window_size),
      feature_dim_(feature_dim),
      config_(config),
      model_(dl::LstmConfig{feature_dim, hidden_dim, config.seed,
                            /*sigmoid_output=*/false}) {}

dl::Matrix LstmDetector::standardize(const dl::Matrix& rows) const {
  dl::Matrix out = rows;
  if (scaler_.fitted()) scaler_.apply(out);
  return out;
}

void LstmDetector::fit(const WindowDataset& benign) {
  assert(benign.window_size() == window_size_);
  assert(benign.feature_dim() == feature_dim_);
  fit_scaler(benign.features(), benign.lstm_starts());
  dl::LstmTrainConfig train;
  train.epochs = config_.epochs;
  train.batch_size = config_.batch_size;
  train.learning_rate = config_.learning_rate;
  model_.fit(standardize(benign.features()), benign.lstm_starts(),
             window_size_, train);
  calibrate(score(benign), config_.threshold_percentile);
}

std::vector<double> LstmDetector::score(const WindowDataset& data) {
  // Consecutive starts are sliding windows over one capture's rows, which
  // is the layout score_windows() takes: each run is scored kScoreChunk
  // windows per pass, and a run ends at a capture boundary.
  const std::vector<std::size_t>& starts = data.lstm_starts();
  std::vector<double> scores(starts.size());
  for (std::size_t i = 0; i < starts.size();) {
    std::size_t n = 1;
    while (n < kScoreChunk && i + n < starts.size() &&
           starts[i + n] == starts[i] + n)
      ++n;
    score_windows(data.features().row(starts[i]), feature_dim_,
                  window_size_ + 1, n, scores.data() + i);
    i += n;
  }
  return scores;
}

double LstmDetector::score_window(const float* rows, std::size_t n_rows) {
  double score = 0.0;
  score_windows(rows, feature_dim_, n_rows, 1, &score);
  return score;
}

void LstmDetector::score_windows(const float* rows, std::size_t row_dim,
                                 std::size_t rows_per_window,
                                 std::size_t n_windows, double* scores) {
  assert(row_dim == feature_dim_);
  assert(rows_per_window == window_size_ + 1);
  (void)row_dim;
  (void)rows_per_window;
  // The flat block already has the shared sliding-window layout the
  // strided batch path wants (window w's step t = row w+t, its target =
  // row w+t+1): one copy of the whole block, one scaler pass, and every
  // distinct record row goes through Wx exactly once no matter how many
  // windows overlap it.
  const std::size_t block_rows = n_windows + window_size_;
  infer_rows_.resize(block_rows, feature_dim_);
  std::memcpy(infer_rows_.row(0), rows,
              block_rows * feature_dim_ * sizeof(float));
  if (scaler_.fitted()) scaler_.apply(infer_rows_);
  const bool max_step =
      config_.lstm_score == DetectorConfig::LstmScore::kMaxStep;
  model_.window_errors_strided(infer_rows_, n_windows, window_size_,
                               lstm_ws_, max_step, scores);
}

std::unique_ptr<AnomalyDetector> AutoencoderDetector::clone_for_inference() {
  auto copy = std::make_unique<AutoencoderDetector>(
      window_size_, feature_dim_, config_, model_.config().hidden);
  // Weight transfer via the SMO serialization format: shapes match because
  // the clone was built from the same configuration. A failed transfer
  // must not yield a replica with fresh weights — returning nullptr makes
  // the engine fall back to inline serialized scoring instead.
  Status loaded =
      dl::load_params(copy->model_.params(), dl::save_params(model_.params()));
  if (!loaded.ok()) return nullptr;
  copy->scaler_ = scaler_;
  copy->set_threshold(threshold());
  return copy;
}

std::unique_ptr<AnomalyDetector> LstmDetector::clone_for_inference() {
  auto copy = std::make_unique<LstmDetector>(window_size_, feature_dim_,
                                             config_,
                                             model_.config().hidden_dim);
  Status loaded =
      dl::load_params(copy->model_.params(), dl::save_params(model_.params()));
  if (!loaded.ok()) return nullptr;
  copy->scaler_ = scaler_;
  copy->set_threshold(threshold());
  return copy;
}

Bytes AutoencoderDetector::save_state() {
  ByteWriter w;
  w.u32(kStateMagic);
  w.u8(kKindAutoencoder);
  w.u32(static_cast<std::uint32_t>(window_size_));
  w.u32(static_cast<std::uint32_t>(feature_dim_));
  const auto& hidden = model_.config().hidden;
  w.u32(static_cast<std::uint32_t>(hidden.size()));
  for (std::size_t h : hidden) w.u32(static_cast<std::uint32_t>(h));
  write_config(w, config_);
  write_scaler(w, scaler_);
  w.f64(threshold());
  Bytes params = dl::save_params(model_.params());
  w.u32(static_cast<std::uint32_t>(params.size()));
  w.raw(params);
  return w.take();
}

Bytes LstmDetector::save_state() {
  ByteWriter w;
  w.u32(kStateMagic);
  w.u8(kKindLstm);
  w.u32(static_cast<std::uint32_t>(window_size_));
  w.u32(static_cast<std::uint32_t>(feature_dim_));
  w.u32(static_cast<std::uint32_t>(model_.config().hidden_dim));
  write_config(w, config_);
  write_scaler(w, scaler_);
  w.f64(threshold());
  Bytes params = dl::save_params(model_.params());
  w.u32(static_cast<std::uint32_t>(params.size()));
  w.raw(params);
  return w.take();
}

bool AutoencoderDetector::fine_tune(const float* windows,
                                    std::size_t n_windows, std::size_t n_rows,
                                    const FineTuneConfig& tune) {
  if (n_windows == 0 || n_rows != window_size_) return false;
  const std::size_t flat = window_size_ * feature_dim_;
  dl::Matrix data(n_windows, flat);
  std::memcpy(data.row(0), windows, n_windows * flat * sizeof(float));
  // The scaler stays fixed: scores from the fine-tuned model live on the
  // same scale as the parent's, which is what lets the shadow gate compare
  // error distributions across versions.
  if (scaler_.fitted()) scaler_.apply(data);
  dl::TrainConfig train;
  train.epochs = tune.epochs;
  train.batch_size = tune.batch_size;
  train.learning_rate = tune.learning_rate;
  model_.fit(data, train);
  calibrate(window_scores(windows, n_windows), tune.threshold_percentile);
  return true;
}

bool LstmDetector::fine_tune(const float* windows, std::size_t n_windows,
                             std::size_t n_rows, const FineTuneConfig& tune) {
  if (n_windows == 0 || n_rows != window_size_ + 1) return false;
  // The harvested windows do not overlap: window w is the rows
  // [w * n_rows, (w + 1) * n_rows) of one block, its target the last.
  const std::size_t window_floats = n_rows * feature_dim_;
  dl::Matrix rows(n_windows * n_rows, feature_dim_);
  std::memcpy(rows.row(0), windows, rows.size() * sizeof(float));
  if (scaler_.fitted()) scaler_.apply(rows);
  std::vector<std::size_t> starts(n_windows);
  for (std::size_t w = 0; w < n_windows; ++w) starts[w] = w * n_rows;
  dl::LstmTrainConfig train;
  train.epochs = tune.epochs;
  train.batch_size = tune.batch_size;
  train.learning_rate = tune.learning_rate;
  model_.fit(rows, starts, window_size_, train);
  std::vector<double> scores(n_windows);
  for (std::size_t w = 0; w < n_windows; ++w)
    scores[w] = score_window(windows + w * window_floats, n_rows);
  calibrate(std::move(scores), tune.threshold_percentile);
  return true;
}

Result<std::unique_ptr<AnomalyDetector>> restore_detector(const Bytes& state) {
  ByteReader r(state);
  auto magic = r.u32();
  if (!magic) return magic.error();
  if (magic.value() != kStateMagic)
    return Error::make("magic", "not a detector state blob");
  auto kind = r.u8();
  if (!kind) return kind.error();
  auto window_size = r.u32();
  if (!window_size) return window_size.error();
  auto feature_dim = r.u32();
  if (!feature_dim) return feature_dim.error();
  if (window_size.value() == 0 || feature_dim.value() == 0)
    return Error::make("range", "zero window or feature dim");

  std::unique_ptr<AnomalyDetector> detector;
  Standardizer* scaler = nullptr;
  std::vector<dl::Param> params;
  // The AE standardizes flattened windows, the LSTM standardizes rows.
  std::size_t scaler_dim = feature_dim.value();
  if (kind.value() == kKindAutoencoder) {
    scaler_dim = std::size_t{window_size.value()} * feature_dim.value();
    auto n_hidden = r.u32();
    if (!n_hidden) return n_hidden.error();
    if (n_hidden.value() == 0)
      return Error::make("range", "no hidden layers");
    if (n_hidden.value() > r.remaining())
      return Error::make("overflow", "hidden count exceeds payload");
    std::vector<std::size_t> hidden(n_hidden.value());
    for (std::size_t& h : hidden) {
      auto width = r.u32();
      if (!width) return width.error();
      if (width.value() == 0)
        return Error::make("range", "zero hidden width");
      h = width.value();
    }
    auto config = read_config(r);
    if (!config) return config.error();
    // Layer widths in -> hidden... -> mirrored hidden... -> in, each layer
    // a weight matrix plus a bias row.
    std::vector<std::uint64_t> widths{scaler_dim};
    widths.insert(widths.end(), hidden.begin(), hidden.end());
    widths.insert(widths.end(), hidden.rbegin() + 1, hidden.rend());
    widths.push_back(scaler_dim);
    ParamCount count;
    for (std::size_t l = 1; l < widths.size(); ++l) {
      count.add(widths[l - 1], widths[l]);
      count.add(1, widths[l]);
    }
    if (!count.fits(r.remaining()))
      return Error::make("shape", "declared shape exceeds payload");
    auto ae = std::make_unique<AutoencoderDetector>(
        window_size.value(), feature_dim.value(), config.value(),
        std::move(hidden));
    scaler = &ae->scaler_;
    params = ae->model().params();
    detector = std::move(ae);
  } else if (kind.value() == kKindLstm) {
    auto hidden_dim = r.u32();
    if (!hidden_dim) return hidden_dim.error();
    if (hidden_dim.value() == 0)
      return Error::make("range", "zero hidden dim");
    auto config = read_config(r);
    if (!config) return config.error();
    // Wx, Wh and the gate bias (4H columns each), then the output head.
    const std::uint64_t d = feature_dim.value();
    const std::uint64_t h = hidden_dim.value();
    ParamCount count;
    count.add(d + h + 1, 4 * h);
    count.add(h + 1, d);
    if (!count.fits(r.remaining()))
      return Error::make("shape", "declared shape exceeds payload");
    auto lstm = std::make_unique<LstmDetector>(
        window_size.value(), feature_dim.value(), config.value(),
        hidden_dim.value());
    scaler = &lstm->scaler_;
    params = lstm->model().params();
    detector = std::move(lstm);
  } else {
    return Error::make("kind", "unknown detector kind");
  }

  Status scaler_loaded = read_scaler(r, *scaler);
  if (!scaler_loaded.ok()) return scaler_loaded.error();
  if (scaler->fitted() && scaler->dim() != scaler_dim)
    return Error::make("shape", "scaler dim does not match detector shape");
  auto threshold = r.f64();
  if (!threshold) return threshold.error();
  detector->set_threshold(threshold.value());
  auto params_len = r.u32();
  if (!params_len) return params_len.error();
  auto params_blob = r.raw(params_len.value());
  if (!params_blob) return params_blob.error();
  if (!r.exhausted())
    return Error::make("trailing", "trailing bytes after detector state");
  Status loaded = dl::load_params(params, params_blob.value());
  if (!loaded.ok()) return loaded.error();
  return detector;
}

}  // namespace xsec::detect
