#include "dl/autoencoder.hpp"

#include <cassert>

namespace xsec::dl {

Autoencoder::Autoencoder(AutoencoderConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  assert(config_.input_dim > 0);
  assert(!config_.hidden.empty());

  // Encoder: input -> h1 -> ... -> bottleneck, ReLU between layers.
  std::size_t prev = config_.input_dim;
  for (std::size_t width : config_.hidden) {
    network_.add(std::make_unique<Linear>(prev, width, rng_));
    network_.add(std::make_unique<Relu>());
    prev = width;
  }
  // Decoder: mirror of the encoder; sigmoid output since inputs are
  // one-hot indicators in [0, 1].
  for (std::size_t i = config_.hidden.size(); i-- > 1;) {
    network_.add(std::make_unique<Linear>(prev, config_.hidden[i - 1], rng_));
    network_.add(std::make_unique<Relu>());
    prev = config_.hidden[i - 1];
  }
  network_.add(std::make_unique<Linear>(prev, config_.input_dim, rng_));
  if (config_.sigmoid_output) network_.add(std::make_unique<Sigmoid>());
}

double Autoencoder::fit(const Matrix& data, const TrainConfig& train) {
  assert(data.cols() == config_.input_dim);
  Adam optimizer(network_.params(), train.learning_rate);

  std::vector<std::size_t> order(data.rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  double mean_loss = 0.0;
  for (int epoch = 0; epoch < train.epochs; ++epoch) {
    if (train.shuffle) rng_.shuffle(order.begin(), order.end());
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += train.batch_size) {
      std::size_t end = std::min(start + train.batch_size, order.size());
      Matrix batch(end - start, config_.input_dim);
      for (std::size_t i = start; i < end; ++i)
        for (std::size_t c = 0; c < config_.input_dim; ++c)
          batch.at(i - start, c) = data.at(order[i], c);

      optimizer.zero_grad();
      Matrix output = network_.forward(batch);
      // MSE loss: L = mean((y - x)^2); dL/dy = 2 (y - x) / n_elems.
      Matrix diff = sub(output, batch);
      double loss = 0.0;
      for (float d : diff.data()) loss += static_cast<double>(d) * d;
      loss /= static_cast<double>(diff.size());
      Matrix grad = diff;
      scale_inplace(grad, 2.0f / static_cast<float>(diff.size()));
      network_.backward_params(grad);
      optimizer.step();

      epoch_loss += loss;
      ++batches;
    }
    mean_loss = batches ? epoch_loss / static_cast<double>(batches) : 0.0;
    if (train.on_epoch) train.on_epoch(epoch, mean_loss);
  }
  return mean_loss;
}

Matrix Autoencoder::reconstruct(const Matrix& data) {
  return network_.forward(data);
}

std::vector<double> Autoencoder::reconstruction_errors(const Matrix& data) {
  std::vector<double> errors(data.rows());
  reconstruction_errors_into(data, errors.data());
  return errors;
}

void Autoencoder::reconstruction_errors_into(const Matrix& data,
                                             double* errors) {
  const Matrix& output = network_.infer(data);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < data.cols(); ++c) {
      double d = static_cast<double>(output.at(r, c)) - data.at(r, c);
      acc += d * d;
    }
    errors[r] = acc / static_cast<double>(data.cols());
  }
}

double Autoencoder::reconstruction_error(const std::vector<float>& sample) {
  Matrix m(1, sample.size());
  for (std::size_t c = 0; c < sample.size(); ++c) m.at(0, c) = sample[c];
  return reconstruction_errors(m)[0];
}

}  // namespace xsec::dl
