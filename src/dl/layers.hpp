// Neural-network layers with explicit forward/backward passes.
//
// Layers cache what their backward pass needs; gradients accumulate into
// per-parameter buffers that the optimizer consumes. No autograd — each
// layer's backward is written out, which keeps the LSTM's BPTT legible.
//
// Besides the training forward(), every layer offers infer_into(): an
// inference-only forward writing into a caller-owned buffer with no
// gradient caching and no heap allocation once the buffer has capacity.
// Sequential chains them through two ping-pong buffers it owns, so a
// whole-network inference pass allocates nothing in steady state.
#pragma once

#include <memory>
#include <vector>

#include "dl/tanhf.hpp"
#include "dl/tensor.hpp"

namespace xsec::dl {

/// A trainable parameter: the optimizer updates `value` using `grad`.
struct Param {
  Matrix* value = nullptr;
  Matrix* grad = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;
  virtual Matrix forward(const Matrix& x) = 0;
  virtual Matrix backward(const Matrix& grad_out) = 0;
  /// backward() for a layer whose input gradient nobody reads (the first
  /// layer of a network being trained): accumulates the parameter
  /// gradients only. The default runs backward() and drops its result.
  virtual void backward_params(const Matrix& grad_out) { backward(grad_out); }
  /// Inference-only forward into `out` (no caching; bit-identical to
  /// forward()). `out` must not alias `x`. The default falls back to the
  /// allocating forward for layers without a fused path.
  virtual void infer_into(const Matrix& x, Matrix& out) { out = forward(x); }
  virtual std::vector<Param> params() { return {}; }
  virtual void zero_grad() {}
};

class Linear : public Layer {
 public:
  Linear(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  Matrix forward(const Matrix& x) override;
  Matrix backward(const Matrix& grad_out) override;
  void backward_params(const Matrix& grad_out) override;
  void infer_into(const Matrix& x, Matrix& out) override;
  std::vector<Param> params() override;
  void zero_grad() override;

  std::size_t in_dim() const { return weight_.rows(); }
  std::size_t out_dim() const { return weight_.cols(); }
  Matrix& weight() { return weight_; }
  Matrix& bias() { return bias_; }

 private:
  Matrix weight_;  // in × out
  Matrix bias_;    // 1 × out
  Matrix grad_weight_;
  Matrix grad_bias_;
  Matrix cached_input_;
};

class Relu : public Layer {
 public:
  Matrix forward(const Matrix& x) override;
  Matrix backward(const Matrix& grad_out) override;
  void infer_into(const Matrix& x, Matrix& out) override;

 private:
  Matrix cached_input_;
};

class Sigmoid : public Layer {
 public:
  Matrix forward(const Matrix& x) override;
  Matrix backward(const Matrix& grad_out) override;
  void infer_into(const Matrix& x, Matrix& out) override;

 private:
  Matrix cached_output_;
};

class Tanh : public Layer {
 public:
  Matrix forward(const Matrix& x) override;
  Matrix backward(const Matrix& grad_out) override;
  void infer_into(const Matrix& x, Matrix& out) override;

 private:
  Matrix cached_output_;
};

/// Sequential container (owns its layers).
class Sequential : public Layer {
 public:
  void add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
    params_dirty_ = true;
  }
  Matrix forward(const Matrix& x) override;
  Matrix backward(const Matrix& grad_out) override;
  /// Training's backward pass: skips the first layer's input gradient,
  /// which a fit discards.
  void backward_params(const Matrix& grad_out) override;
  /// Inference pass through the container's own ping-pong buffers; the
  /// returned reference stays valid until the next infer()/infer_into().
  /// Zero heap allocations once the buffers are warmed at the largest
  /// batch seen.
  const Matrix& infer(const Matrix& x);
  void infer_into(const Matrix& x, Matrix& out) override { out = infer(x); }
  /// Cached across calls (rebuilt only after add()); the optimizer-step
  /// path no longer walks every layer per invocation.
  std::vector<Param> params() override;
  void zero_grad() override;
  std::size_t layer_count() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  /// Param pointers target the Layer objects (heap-owned, stable across
  /// moves of this container), so the cache survives Sequential moves.
  std::vector<Param> params_cache_;
  bool params_dirty_ = true;
  Matrix infer_buffers_[2];
};

// Element-wise helpers shared with the LSTM cell. tanh_scalar lives in
// tanhf.hpp (included above) as an inline function.
float sigmoid_scalar(float x);
/// Vectorized sigmoid over a contiguous span, bit-identical per element to
/// sigmoid_scalar (see sigmoidf.cpp). In-place (out == x) is allowed.
void sigmoid_many(const float* x, float* out, std::size_t n);
Matrix sigmoid_mat(const Matrix& x);
Matrix tanh_mat(const Matrix& x);
void sigmoid_into(const Matrix& x, Matrix& out);
void tanh_into(const Matrix& x, Matrix& out);
void sigmoid_inplace(Matrix& x);
void tanh_inplace(Matrix& x);
void relu_into(const Matrix& x, Matrix& out);

}  // namespace xsec::dl
