#include "dl/optim.hpp"

#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace xsec::dl {

namespace {

// One Adam update of n elements of a parameter. The scalar loop is the
// reference; the AVX2 build runs the same per-element operations in the
// same order on eight lanes. Lane-wise mul/add/sub/div/sqrt round exactly
// like the scalar ops, and avx2 without fma leaves no mul+add pair to
// contract, so both builds write the same bits. (The scalar loop's
// std::sqrt keeps an errno branch that stops GCC vectorizing it.)
struct AdamStep {
  float beta1, one_minus_beta1, beta2, one_minus_beta2, bc1, bc2, lr, eps;
};

void adam_scalar(const AdamStep& k, const float* g, float* m, float* v,
                 float* w, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    float gj = g[j];
    m[j] = k.beta1 * m[j] + k.one_minus_beta1 * gj;
    v[j] = k.beta2 * v[j] + k.one_minus_beta2 * gj * gj;
    float mhat = m[j] / k.bc1;
    float vhat = v[j] / k.bc2;
    w[j] -= k.lr * mhat / (std::sqrt(vhat) + k.eps);
  }
}

using AdamFn = void (*)(const AdamStep&, const float*, float*, float*, float*,
                        std::size_t);

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void adam_avx2(const AdamStep& k,
                                               const float* g, float* m,
                                               float* v, float* w,
                                               std::size_t n) {
  const __m256 beta1 = _mm256_set1_ps(k.beta1);
  const __m256 one_minus_beta1 = _mm256_set1_ps(k.one_minus_beta1);
  const __m256 beta2 = _mm256_set1_ps(k.beta2);
  const __m256 one_minus_beta2 = _mm256_set1_ps(k.one_minus_beta2);
  const __m256 bc1 = _mm256_set1_ps(k.bc1);
  const __m256 bc2 = _mm256_set1_ps(k.bc2);
  const __m256 lr = _mm256_set1_ps(k.lr);
  const __m256 eps = _mm256_set1_ps(k.eps);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 gj = _mm256_loadu_ps(g + j);
    const __m256 mj =
        _mm256_add_ps(_mm256_mul_ps(beta1, _mm256_loadu_ps(m + j)),
                      _mm256_mul_ps(one_minus_beta1, gj));
    const __m256 vj = _mm256_add_ps(
        _mm256_mul_ps(beta2, _mm256_loadu_ps(v + j)),
        _mm256_mul_ps(_mm256_mul_ps(one_minus_beta2, gj), gj));
    _mm256_storeu_ps(m + j, mj);
    _mm256_storeu_ps(v + j, vj);
    const __m256 mhat = _mm256_div_ps(mj, bc1);
    const __m256 vhat = _mm256_div_ps(vj, bc2);
    const __m256 delta = _mm256_div_ps(
        _mm256_mul_ps(lr, mhat), _mm256_add_ps(_mm256_sqrt_ps(vhat), eps));
    _mm256_storeu_ps(w + j, _mm256_sub_ps(_mm256_loadu_ps(w + j), delta));
  }
  adam_scalar(k, g + j, m + j, v + j, w + j, n - j);
}

AdamFn pick_adam() {
  return __builtin_cpu_supports("avx2") ? adam_avx2 : adam_scalar;
}
#else
AdamFn pick_adam() { return adam_scalar; }
#endif

const AdamFn g_adam = pick_adam();

}  // namespace

Sgd::Sgd(std::vector<Param> params, float lr, float momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (const Param& p : params_)
    velocity_.emplace_back(p.value->rows(), p.value->cols());
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Matrix& v = velocity_[i];
    const Matrix& g = *params_[i].grad;
    Matrix& w = *params_[i].value;
    for (std::size_t j = 0; j < w.size(); ++j) {
      v.data()[j] = momentum_ * v.data()[j] - lr_ * g.data()[j];
      w.data()[j] += v.data()[j];
    }
  }
}

Adam::Adam(std::vector<Param> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Param& p : params_) {
    m_.emplace_back(p.value->rows(), p.value->cols());
    v_.emplace_back(p.value->rows(), p.value->cols());
  }
}

void Adam::step() {
  ++t_;
  const AdamStep k{beta1_,
                   1.0f - beta1_,
                   beta2_,
                   1.0f - beta2_,
                   1.0f - std::pow(beta1_, static_cast<float>(t_)),
                   1.0f - std::pow(beta2_, static_cast<float>(t_)),
                   lr_,
                   eps_};
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Matrix& w = *params_[i].value;
    g_adam(k, params_[i].grad->data().data(), m_[i].data().data(),
           v_[i].data().data(), w.data().data(), w.size());
  }
}

void clip_grad_norm(const std::vector<Param>& params, float max_norm) {
  double total = 0.0;
  for (const Param& p : params)
    for (float g : p.grad->data()) total += static_cast<double>(g) * g;
  double norm = std::sqrt(total);
  if (norm <= max_norm || norm == 0.0) return;
  float scale = static_cast<float>(max_norm / norm);
  for (const Param& p : params)
    for (float& g : p.grad->data()) g *= scale;
}

}  // namespace xsec::dl
