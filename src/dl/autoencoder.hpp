// Autoencoder for unsupervised anomaly detection (paper §3.2).
//
// A symmetric MLP compresses the flattened, one-hot-encoded telemetry
// window to a low-dimensional code and reconstructs it; the per-sample mean
// squared reconstruction error is the anomaly score. Trained only on
// benign windows — outliers reconstruct poorly.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dl/layers.hpp"
#include "dl/optim.hpp"

namespace xsec::dl {

struct AutoencoderConfig {
  std::size_t input_dim = 0;
  /// Encoder hidden widths; the decoder mirrors them. The last entry is
  /// the bottleneck.
  std::vector<std::size_t> hidden = {128, 32};
  std::uint64_t seed = 1234;
  /// Sigmoid output suits raw one-hot inputs in [0,1]; standardized inputs
  /// need a linear output.
  bool sigmoid_output = true;
};

struct TrainConfig {
  int epochs = 40;
  std::size_t batch_size = 32;
  float learning_rate = 1e-3f;
  /// Shuffle batches each epoch (deterministic given the model seed).
  bool shuffle = true;
  /// Optional per-epoch callback(epoch, mean_loss).
  std::function<void(int, double)> on_epoch;
};

class Autoencoder {
 public:
  explicit Autoencoder(AutoencoderConfig config);

  /// Trains on benign data (rows = samples). Returns final mean loss.
  double fit(const Matrix& data, const TrainConfig& train);

  /// Per-row mean squared reconstruction error, via infer().
  std::vector<double> reconstruction_errors(const Matrix& data);

  /// Inference-only reconstruction through the network's preallocated
  /// ping-pong buffers: no gradient caches, no heap allocation once
  /// warmed, bit-identical to the training-mode forward pass. The
  /// reference stays valid until the next infer().
  const Matrix& infer(const Matrix& data) { return network_.infer(data); }

  const AutoencoderConfig& config() const { return config_; }
  std::vector<Param> params() { return network_.params(); }

 private:
  AutoencoderConfig config_;
  Sequential network_;
  Rng rng_;
};

}  // namespace xsec::dl
