#include "core/evaluation.hpp"

#include "common/names.hpp"
#include "common/plot.hpp"
#include "detect/ensemble.hpp"

namespace xsec::core {

namespace {
constexpr auto kModelNames =
    make_name_table<ModelKind>("Autoencoder", "LSTM", "Ensemble-AE");
}  // namespace

std::string to_string(ModelKind kind) {
  return std::string(kModelNames.name(kind));
}

std::unique_ptr<detect::AnomalyDetector> make_detector(
    ModelKind kind, std::size_t window_size, std::size_t feature_dim,
    const EvalConfig& config) {
  switch (kind) {
    case ModelKind::kAutoencoder:
      return std::make_unique<detect::AutoencoderDetector>(
          window_size, feature_dim, config.detector, config.ae_hidden);
    case ModelKind::kLstm:
      return std::make_unique<detect::LstmDetector>(
          window_size, feature_dim, config.detector, config.lstm_hidden);
    case ModelKind::kEnsemble: {
      // The ensemble's grouping depends on the feature layout; rebuild the
      // encoder the same way run_table2/train_detector do.
      detect::FeatureEncoder encoder(config.features);
      detect::EnsembleConfig ensemble_config;
      ensemble_config.detector = config.detector;
      return std::make_unique<detect::EnsembleDetector>(
          window_size, feature_dim, detect::groups_by_category(encoder),
          ensemble_config);
    }
  }
  return nullptr;
}

namespace {

/// Benign cross-validation for the autoencoder: contiguous k-fold over
/// windows; every flagged held-out window is a false positive.
dl::Confusion cv_autoencoder(const detect::WindowDataset& benign,
                             const EvalConfig& config) {
  dl::Matrix all = benign.ae_matrix();
  dl::Confusion confusion;
  auto folds = dl::kfold_indices(all.rows(), config.cv_folds);
  std::uint64_t fold_seed = config.detector.seed;
  for (const auto& [train_idx, test_idx] : folds) {
    dl::Matrix train(train_idx.size(), all.cols());
    for (std::size_t i = 0; i < train_idx.size(); ++i)
      for (std::size_t c = 0; c < all.cols(); ++c)
        train.at(i, c) = all.at(train_idx[i], c);
    dl::Matrix test(test_idx.size(), all.cols());
    for (std::size_t i = 0; i < test_idx.size(); ++i)
      for (std::size_t c = 0; c < all.cols(); ++c)
        test.at(i, c) = all.at(test_idx[i], c);

    detect::DetectorConfig fold_config = config.detector;
    fold_config.seed = fold_seed++;
    detect::AutoencoderDetector detector(
        config.window_size, benign.feature_dim(), fold_config,
        config.ae_hidden);
    detector.fit_scaler(train);
    dl::TrainConfig train_config;
    train_config.epochs = config.detector.epochs;
    train_config.batch_size = config.detector.batch_size;
    train_config.learning_rate = config.detector.learning_rate;
    detector.model().fit(detector.standardize(train), train_config);
    double threshold = percentile(detector.window_scores(train),
                                  config.detector.threshold_percentile);
    for (double error : detector.window_scores(test))
      confusion.add(error > threshold, /*actually_positive=*/false);
  }
  return confusion;
}

/// Benign cross-validation for the LSTM: contiguous k-fold over windows.
/// Each fold's model scores every window once; the train-fold scores set
/// the threshold and every flagged held-out window is a false positive.
dl::Confusion cv_lstm(const detect::WindowDataset& benign,
                      const EvalConfig& config) {
  const std::vector<std::size_t>& starts = benign.lstm_starts();
  dl::Confusion confusion;
  auto folds = dl::kfold_indices(starts.size(), config.cv_folds);
  std::uint64_t fold_seed = config.detector.seed;
  for (const auto& [train_idx, test_idx] : folds) {
    std::vector<std::size_t> train_starts;
    train_starts.reserve(train_idx.size());
    for (std::size_t i : train_idx) train_starts.push_back(starts[i]);

    detect::DetectorConfig fold_config = config.detector;
    fold_config.seed = fold_seed++;
    detect::LstmDetector detector(config.window_size, benign.feature_dim(),
                                  fold_config, config.lstm_hidden);
    detector.fit_scaler(benign.features(), train_starts);
    dl::LstmTrainConfig train_config;
    train_config.epochs = config.detector.epochs;
    train_config.batch_size = config.detector.batch_size;
    train_config.learning_rate = config.detector.learning_rate;
    detector.model().fit(detector.standardize(benign.features()),
                         train_starts, config.window_size, train_config);
    std::vector<double> scores = detector.score(benign);
    std::vector<double> train_scores;
    train_scores.reserve(train_idx.size());
    for (std::size_t i : train_idx) train_scores.push_back(scores[i]);
    double threshold = percentile(std::move(train_scores),
                                  config.detector.threshold_percentile);
    for (std::size_t i : test_idx)
      confusion.add(scores[i] > threshold, /*actually_positive=*/false);
  }
  return confusion;
}

/// Trains `detector` on the benign captures per the configured calibration
/// mode (shared by the Table 2, Figure 4, and ablation paths).
void fit_with_calibration(detect::AnomalyDetector& detector,
                          const LabeledDatasets& datasets,
                          const detect::FeatureEncoder& encoder,
                          const EvalConfig& config) {
  if (config.calibration == EvalConfig::Calibration::kHeldOutCapture &&
      datasets.benign.size() >= 2) {
    std::vector<mobiflow::Trace> train_captures(datasets.benign.begin(),
                                                datasets.benign.end() - 1);
    detect::WindowDataset train = detect::WindowDataset::from_traces(
        train_captures, encoder, config.window_size);
    detector.fit(train);
    detect::WindowDataset held_out = detect::WindowDataset::from_trace(
        datasets.benign.back(), encoder, config.window_size);
    detector.set_threshold(percentile(
        detector.score(held_out), config.detector.threshold_percentile));
    return;
  }
  detect::WindowDataset benign = detect::WindowDataset::from_traces(
      datasets.benign, encoder, config.window_size);
  detector.fit(benign);
}

}  // namespace

std::shared_ptr<detect::AnomalyDetector> train_detector(
    ModelKind kind, const mobiflow::Trace& benign, const EvalConfig& config) {
  return train_detector(kind, std::vector<mobiflow::Trace>{benign}, config);
}

std::shared_ptr<detect::AnomalyDetector> train_detector(
    ModelKind kind, const std::vector<mobiflow::Trace>& benign_captures,
    const EvalConfig& config) {
  detect::FeatureEncoder encoder(config.features);
  detect::WindowDataset dataset = detect::WindowDataset::from_traces(
      benign_captures, encoder, config.window_size);
  auto detector =
      make_detector(kind, config.window_size, encoder.dim(), config);
  detector->fit(dataset);
  return detector;
}

Table2Result run_table2(const LabeledDatasets& datasets,
                        const EvalConfig& config) {
  Table2Result result;
  detect::FeatureEncoder encoder(config.features);
  detect::WindowDataset benign = detect::WindowDataset::from_traces(
      datasets.benign, encoder, config.window_size);

  // --- Benign rows: cross-validation ------------------------------------
  result.rows.push_back(
      {"Benign", "Autoencoder", cv_autoencoder(benign, config)});
  result.rows.push_back({"Benign", "LSTM", cv_lstm(benign, config)});

  // --- Attack rows: train on benign, test on the attack datasets --------
  for (ModelKind kind : {ModelKind::kAutoencoder, ModelKind::kLstm}) {
    auto detector =
        make_detector(kind, config.window_size, encoder.dim(), config);
    fit_with_calibration(*detector, datasets, encoder, config);

    dl::Confusion total;
    for (const auto& attack : datasets.attacks) {
      detect::WindowDataset dataset = detect::WindowDataset::from_trace(
          attack.trace, encoder, config.window_size);
      std::vector<double> scores = detector->score(dataset);
      std::vector<bool> labels = detector->labels(dataset);
      dl::Confusion confusion;
      bool detected = false;
      for (std::size_t i = 0; i < scores.size(); ++i) {
        bool flagged = detector->is_anomalous(scores[i]);
        confusion.add(flagged, labels[i]);
        if (flagged && labels[i]) detected = true;
      }
      result.per_attack.push_back(
          {attack.display_name, to_string(kind), confusion, detected});
      total.tp += confusion.tp;
      total.fp += confusion.fp;
      total.tn += confusion.tn;
      total.fn += confusion.fn;
    }
    result.rows.push_back({"Attack", to_string(kind), total});
  }
  return result;
}

Figure4Result run_figure4(const LabeledDatasets& datasets,
                          const EvalConfig& config) {
  Figure4Result result;
  detect::FeatureEncoder encoder(config.features);
  detect::AutoencoderDetector detector(config.window_size, encoder.dim(),
                                       config.detector, config.ae_hidden);
  fit_with_calibration(detector, datasets, encoder, config);
  result.threshold = detector.threshold();

  for (const auto& attack : datasets.attacks) {
    detect::WindowDataset dataset = detect::WindowDataset::from_trace(
        attack.trace, encoder, config.window_size);
    std::vector<double> scores = detector.score(dataset);
    std::vector<bool> labels = dataset.ae_labels();
    for (std::size_t i = 0; i < scores.size(); ++i)
      result.points.push_back({attack.id, i, scores[i], labels[i]});
  }
  return result;
}

}  // namespace xsec::core
