// LSTM next-step predictor for sequence modelling (paper §3.2).
//
// Trained on benign windows to predict the next telemetry vector,
// x̂_{i+N} = f_LSTM(x_i ... x_{i+N-1}); the anomaly score of a window is the
// mean squared deviation between the prediction and the telemetry that
// actually followed. Implemented as a single LSTM layer with full
// backpropagation through time plus a sigmoid-activated output projection.
//
// Two forward paths share the same math bit-for-bit:
//   - forward_steps(): the training path, materializing per-gate matrices
//     for BPTT;
//   - step_fused()/window_errors(): the inference path, which computes the
//     gate pre-activations into one reusable B×4H workspace buffer and
//     applies all four gate activations plus the c/h update in a single
//     pass over it — no gate slicing, no per-step temporaries, and zero
//     heap allocation once the workspace is warmed.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dl/layers.hpp"
#include "dl/optim.hpp"

namespace xsec::dl {

struct LstmConfig {
  std::size_t input_dim = 0;
  std::size_t hidden_dim = 64;
  std::uint64_t seed = 5678;
  /// Sigmoid output suits raw one-hot targets; standardized targets need a
  /// linear output projection.
  bool sigmoid_output = true;
};

struct LstmTrainConfig {
  int epochs = 40;
  std::size_t batch_size = 32;
  float learning_rate = 1e-3f;
  float grad_clip = 5.0f;
  bool shuffle = true;
  std::function<void(int, double)> on_epoch;
};

/// One training/evaluation sample: a window of N input vectors and the
/// vector that followed it.
struct SequenceSample {
  std::vector<std::vector<float>> window;  // N × D
  std::vector<float> target;               // D
};

class LstmPredictor {
 public:
  /// Preallocated buffers for the fused inference path. Matrices only grow
  /// (capacity is retained when a later batch is smaller), so once warmed
  /// at the largest batch a workspace performs no heap allocation.
  struct Workspace {
    Matrix h, c;  // B×H running state
    Matrix z;     // B×4H fused gate pre-activations [i | f | g | o]
    Matrix hh;    // B×4H scratch for h·Wh, kept separate so the
                  // x·Wx + h·Wh add matches the reference FP order
    Matrix y;     // B×D output projection
    Matrix zx;    // (B+T-1)×4H shared x·Wx rows (strided batch path)
    Matrix gates;  // 5×H per-row scratch for the batched gate activations
  };

  explicit LstmPredictor(LstmConfig config);

  double fit(const std::vector<SequenceSample>& samples,
             const LstmTrainConfig& train);

  /// Per-sample mean squared prediction error of the FINAL step (the
  /// paper's formulation: x̂_{i+N} vs x_{i+N}).
  std::vector<double> prediction_errors(
      const std::vector<SequenceSample>& samples);
  double prediction_error(const SequenceSample& sample);
  /// Per-sample WORST per-step prediction error: at every step t the model
  /// predicts the next record and is compared to what actually followed
  /// (DeepLog-style). Catches an anomalous record anywhere in the window,
  /// not only at the target position.
  std::vector<double> max_step_errors(
      const std::vector<SequenceSample>& samples);
  /// Predicted next vector for one window (N × D rows).
  std::vector<float> predict(const std::vector<std::vector<float>>& window);

  /// Batched per-window errors over pre-assembled step matrices: steps[t]
  /// is B×D (row w = step t of window w), targets is B×D. Writes one error
  /// per window into errors[0..B): the worst per-step next-record error
  /// when `max_step`, else the final-step error. Allocation-free given a
  /// warmed workspace; bit-identical to the training-path forward.
  void window_errors(const std::vector<Matrix>& steps, const Matrix& targets,
                     Workspace& ws, bool max_step, double* errors) const;
  /// Batched per-window errors over OVERLAPPING sliding windows sharing one
  /// row block: xs holds n_windows + n_steps contiguous (already scaled)
  /// rows, window w's step t is row w+t and its target is row w+t+1. Each
  /// distinct row feeds Wx exactly once — an n_steps-fold cut of the
  /// input-side matmul versus per-window step matrices — and each step's
  /// pre-activations are gathered as one contiguous row range. Bit-identical
  /// to window_errors on equivalently assembled step/target matrices.
  void window_errors_strided(const Matrix& xs, std::size_t n_windows,
                             std::size_t n_steps, Workspace& ws,
                             bool max_step, double* errors) const;
  /// One fused cell step: consumes x (B×D), updates ws.h / ws.c in place.
  /// ws.h and ws.c must be B×H (zeroed before the first step).
  void step_fused(const Matrix& x, Workspace& ws) const;
  /// Output head y = sigmoid?(h·Wo + bo) into a caller-owned buffer.
  void project_into(const Matrix& h, Matrix& y) const;

  const LstmConfig& config() const { return config_; }
  std::vector<Param> params();

 private:
  /// The fused half of a cell step: ws.z already holds x·Wx + h·Wh + b;
  /// applies all four gate activations and the c/h update in one pass.
  void gate_pass(Workspace& ws) const;

  /// Per-timestep BPTT cache. The input matrix is NOT copied here — the
  /// backward pass reads it from the caller's step vector by index.
  struct StepCache {
    Matrix h_prev, c_prev;
    Matrix i, f, g, o, tanh_c;
  };

  /// Forward over a batch: steps[t] is B × D. Returns final hidden (B × H)
  /// and fills `caches` when training. When `hidden_states` is non-null it
  /// receives h_t for every step.
  Matrix forward_steps(const std::vector<Matrix>& steps,
                       std::vector<StepCache>* caches,
                       std::vector<Matrix>* hidden_states = nullptr);
  /// BPTT given the gradient flowing into each step's hidden state from
  /// the per-step output heads; accumulates parameter gradients. `steps`
  /// must be the same vector the forward pass consumed.
  void backward_steps(const std::vector<Matrix>& steps,
                      const std::vector<StepCache>& caches,
                      const std::vector<Matrix>& grad_h_per_step);
  /// Output head without caching (evaluation paths).
  Matrix project(const Matrix& h) const;

  LstmConfig config_;
  Rng rng_;
  // Gate weights, gate order [i | f | g | o] along the column axis.
  Matrix wx_, wh_, b_;                    // D×4H, H×4H, 1×4H
  Matrix grad_wx_, grad_wh_, grad_b_;
  // Output projection H -> D with sigmoid.
  Matrix wo_, bo_;
  Matrix grad_wo_, grad_bo_;
};

}  // namespace xsec::dl
