// LSTM next-step predictor for sequence modelling (paper §3.2).
//
// Trained on benign windows to predict the next telemetry vector,
// x̂_{i+N} = f_LSTM(x_i ... x_{i+N-1}); the anomaly score of a window is the
// mean squared deviation between the prediction and the telemetry that
// actually followed. Implemented as a single LSTM layer with full
// backpropagation through time plus a sigmoid-activated output projection.
//
// Both paths read windows from one row block: window i is the rows
// [s_i, s_i + N) of a feature-row matrix and its target is row s_i + N, so
// no per-window copy of a corpus is built (training gathers only the
// current batch's steps). Two forward paths share the same math
// bit-for-bit:
//   - forward_steps(): the training path, materializing per-gate matrices
//     for BPTT;
//   - window_errors_strided(): the inference path over overlapping sliding
//     windows, which puts every distinct row through Wx once, computes the
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
    Matrix zx;    // (B+T-1)×4H shared x·Wx rows
    Matrix gates;  // 5×H per-row scratch for the batched gate activations
  };

  explicit LstmPredictor(LstmConfig config);

  /// Trains on the windows of the (already scaled) row block `rows`:
  /// sample i reads rows [starts[i], starts[i] + n_steps), and at step t
  /// the loss compares the prediction with row starts[i] + t + 1, so the
  /// last step's target is row starts[i] + n_steps.
  double fit(const Matrix& rows, const std::vector<std::size_t>& starts,
             std::size_t n_steps, const LstmTrainConfig& train);

  /// Batched per-window errors over OVERLAPPING sliding windows sharing one
  /// row block: xs holds n_windows + n_steps contiguous (already scaled)
  /// rows, window w's step t is row w+t and its target is row w+t+1. Writes
  /// one error per window into errors[0..n_windows): the worst per-step
  /// next-record error when `max_step` (DeepLog-style: catches an anomalous
  /// record anywhere in the window), else the final-step error (the paper's
  /// x̂_{i+N} vs x_{i+N}). Each distinct row feeds Wx exactly once and each
  /// step's pre-activations are gathered as one contiguous row range.
  /// Allocation-free given a warmed workspace; bit-identical to the
  /// training-path forward. On return ws.y holds the last step's
  /// predictions, one row per window.
  void window_errors_strided(const Matrix& xs, std::size_t n_windows,
                             std::size_t n_steps, Workspace& ws,
                             bool max_step, double* errors) const;

  const LstmConfig& config() const { return config_; }
  std::vector<Param> params();

 private:
  /// The fused half of a cell step: ws.z already holds x·Wx + h·Wh + b;
  /// applies all four gate activations and the c/h update in one pass.
  void gate_pass(Workspace& ws) const;
  /// Output head y = sigmoid?(h·Wo + bo) into a caller-owned buffer.
  void project_into(const Matrix& h, Matrix& y) const;

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
  /// Output head over one step's hidden state (training path).
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
