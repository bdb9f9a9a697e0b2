#include "dl/layers.hpp"

#include <cmath>

namespace xsec::dl {

Linear::Linear(std::size_t in_dim, std::size_t out_dim, Rng& rng)
    : weight_(in_dim, out_dim),
      bias_(1, out_dim),
      grad_weight_(in_dim, out_dim),
      grad_bias_(1, out_dim) {
  weight_.xavier_init(rng, in_dim, out_dim);
}

Matrix Linear::forward(const Matrix& x) {
  cached_input_ = x;
  return add_row_vector(matmul(x, weight_), bias_);
}

void Linear::infer_into(const Matrix& x, Matrix& out) {
  matmul_into(x, weight_, out);
  add_row_vector_inplace(out, bias_);
}

Matrix Linear::backward(const Matrix& grad_out) {
  backward_params(grad_out);
  return matmul_bt(grad_out, weight_);  // dx = g * W^T
}

void Linear::backward_params(const Matrix& grad_out) {
  // dW += x^T * g ; db += sum_rows(g)
  Matrix dw = matmul_at(cached_input_, grad_out);
  add_inplace(grad_weight_, dw);
  Matrix db = sum_rows(grad_out);
  add_inplace(grad_bias_, db);
}

std::vector<Param> Linear::params() {
  return {{&weight_, &grad_weight_}, {&bias_, &grad_bias_}};
}

void Linear::zero_grad() {
  grad_weight_.zero();
  grad_bias_.zero();
}

Matrix Relu::forward(const Matrix& x) {
  cached_input_ = x;
  Matrix out = x;
  for (float& v : out.data())
    if (v < 0.0f) v = 0.0f;
  return out;
}

void Relu::infer_into(const Matrix& x, Matrix& out) { relu_into(x, out); }

Matrix Relu::backward(const Matrix& grad_out) {
  Matrix grad = grad_out;
  for (std::size_t i = 0; i < grad.size(); ++i)
    if (cached_input_.data()[i] <= 0.0f) grad.data()[i] = 0.0f;
  return grad;
}

float sigmoid_scalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }

Matrix sigmoid_mat(const Matrix& x) {
  Matrix out = x;
  sigmoid_inplace(out);
  return out;
}

Matrix tanh_mat(const Matrix& x) {
  Matrix out = x;
  tanh_inplace(out);
  return out;
}

void sigmoid_into(const Matrix& x, Matrix& out) {
  out.resize(x.rows(), x.cols());
  sigmoid_many(x.data().data(), out.data().data(), x.size());
}

void tanh_into(const Matrix& x, Matrix& out) {
  out.resize(x.rows(), x.cols());
  tanh_many(x.data().data(), out.data().data(), x.size());
}

void sigmoid_inplace(Matrix& x) {
  sigmoid_many(x.data().data(), x.data().data(), x.size());
}

void tanh_inplace(Matrix& x) {
  tanh_many(x.data().data(), x.data().data(), x.size());
}

void relu_into(const Matrix& x, Matrix& out) {
  out.resize(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    float v = x.data()[i];
    out.data()[i] = v < 0.0f ? 0.0f : v;
  }
}

Matrix Sigmoid::forward(const Matrix& x) {
  cached_output_ = sigmoid_mat(x);
  return cached_output_;
}

void Sigmoid::infer_into(const Matrix& x, Matrix& out) {
  sigmoid_into(x, out);
}

Matrix Sigmoid::backward(const Matrix& grad_out) {
  Matrix grad = grad_out;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    float y = cached_output_.data()[i];
    grad.data()[i] *= y * (1.0f - y);
  }
  return grad;
}

Matrix Tanh::forward(const Matrix& x) {
  cached_output_ = tanh_mat(x);
  return cached_output_;
}

void Tanh::infer_into(const Matrix& x, Matrix& out) { tanh_into(x, out); }

Matrix Tanh::backward(const Matrix& grad_out) {
  Matrix grad = grad_out;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    float y = cached_output_.data()[i];
    grad.data()[i] *= 1.0f - y * y;
  }
  return grad;
}

Matrix Sequential::forward(const Matrix& x) {
  Matrix current = x;
  for (auto& layer : layers_) current = layer->forward(current);
  return current;
}

const Matrix& Sequential::infer(const Matrix& x) {
  const Matrix* current = &x;
  std::size_t which = 0;
  for (auto& layer : layers_) {
    // Ping-pong: a layer never writes the buffer it is reading from.
    layer->infer_into(*current, infer_buffers_[which]);
    current = &infer_buffers_[which];
    which ^= 1;
  }
  return *current;
}

Matrix Sequential::backward(const Matrix& grad_out) {
  Matrix grad = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    grad = (*it)->backward(grad);
  return grad;
}

void Sequential::backward_params(const Matrix& grad_out) {
  if (layers_.empty()) return;
  Matrix grad = grad_out;
  for (std::size_t i = layers_.size(); i-- > 1;)
    grad = layers_[i]->backward(grad);
  layers_.front()->backward_params(grad);
}

std::vector<Param> Sequential::params() {
  if (params_dirty_) {
    params_cache_.clear();
    std::size_t total = 0;
    for (auto& layer : layers_) total += layer->params().size();
    params_cache_.reserve(total);
    for (auto& layer : layers_)
      for (const Param& p : layer->params()) params_cache_.push_back(p);
    params_dirty_ = false;
  }
  return params_cache_;
}

void Sequential::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

}  // namespace xsec::dl
