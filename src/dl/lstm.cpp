#include "dl/lstm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace xsec::dl {

namespace {
/// Extracts gate `g` (0..3) from a B × 4H pre-activation matrix
/// (training path only — inference uses the fused step).
Matrix slice_gate(const Matrix& z, std::size_t gate, std::size_t hidden) {
  Matrix out(z.rows(), hidden);
  for (std::size_t r = 0; r < z.rows(); ++r)
    for (std::size_t c = 0; c < hidden; ++c)
      out.at(r, c) = z.at(r, gate * hidden + c);
  return out;
}

void write_gate(Matrix& z, std::size_t gate, std::size_t hidden,
                const Matrix& values) {
  for (std::size_t r = 0; r < z.rows(); ++r)
    for (std::size_t c = 0; c < hidden; ++c)
      z.at(r, gate * hidden + c) = values.at(r, c);
}
}  // namespace

LstmPredictor::LstmPredictor(LstmConfig config)
    : config_(config), rng_(config.seed) {
  assert(config_.input_dim > 0);
  const std::size_t d = config_.input_dim;
  const std::size_t h = config_.hidden_dim;
  wx_ = Matrix(d, 4 * h);
  wh_ = Matrix(h, 4 * h);
  b_ = Matrix(1, 4 * h);
  wx_.xavier_init(rng_, d, h);
  wh_.xavier_init(rng_, h, h);
  // Forget-gate bias starts at 1 (standard trick for gradient flow).
  for (std::size_t c = 0; c < h; ++c) b_.at(0, h + c) = 1.0f;
  grad_wx_ = Matrix(d, 4 * h);
  grad_wh_ = Matrix(h, 4 * h);
  grad_b_ = Matrix(1, 4 * h);
  wo_ = Matrix(h, d);
  bo_ = Matrix(1, d);
  wo_.xavier_init(rng_, h, d);
  grad_wo_ = Matrix(h, d);
  grad_bo_ = Matrix(1, d);
}

std::vector<Param> LstmPredictor::params() {
  return {{&wx_, &grad_wx_}, {&wh_, &grad_wh_}, {&b_, &grad_b_},
          {&wo_, &grad_wo_}, {&bo_, &grad_bo_}};
}

// ---- Fused inference path ----------------------------------------------

void LstmPredictor::step_fused(const Matrix& x, Workspace& ws) const {
  assert(ws.h.rows() == x.rows() && ws.h.cols() == config_.hidden_dim);
  // z = x·Wx + h·Wh + b. h·Wh lands in its own scratch so the elementwise
  // add matches add(matmul, matmul) in the reference path bit-for-bit.
  matmul_into(x, wx_, ws.z);
  matmul_into(ws.h, wh_, ws.hh);
  add_inplace(ws.z, ws.hh);
  add_row_vector_inplace(ws.z, b_);
  gate_pass(ws);
}

void LstmPredictor::gate_pass(Workspace& ws) const {
  const std::size_t h = config_.hidden_dim;
  const std::size_t batch = ws.z.rows();
  // One pass over the B×4H buffer: all four gate activations plus the
  // c/h update, no gate slicing. Every transcendental runs through the
  // eight-lane kernels: the i/f sigmoids are adjacent in the z layout so
  // one sigmoid_many call covers both. FP order per element is unchanged
  // (tanh_many/sigmoid_many are bit-identical to their scalar forms).
  ws.gates.resize(5, h);
  float* sif_buf = ws.gates.row(0);  // rows 0-1: sigmoid(i), sigmoid(f)
  float* gg_buf = ws.gates.row(2);
  float* go_buf = ws.gates.row(3);
  float* tc_buf = ws.gates.row(4);
  for (std::size_t r = 0; r < batch; ++r) {
    const float* zrow = ws.z.row(r);
    float* crow = ws.c.row(r);
    float* hrow = ws.h.row(r);
    sigmoid_many(zrow, sif_buf, 2 * h);
    tanh_many(zrow + 2 * h, gg_buf, h);
    sigmoid_many(zrow + 3 * h, go_buf, h);
    for (std::size_t j = 0; j < h; ++j) {
      // Separate products before the sum: keeps the FP order of
      // add(hadamard(f, c), hadamard(i, g)).
      const float fc = sif_buf[h + j] * crow[j];
      const float ig = sif_buf[j] * gg_buf[j];
      crow[j] = fc + ig;
    }
    tanh_many(crow, tc_buf, h);
    for (std::size_t j = 0; j < h; ++j) hrow[j] = go_buf[j] * tc_buf[j];
  }
}

void LstmPredictor::project_into(const Matrix& h, Matrix& y) const {
  matmul_into(h, wo_, y);
  add_row_vector_inplace(y, bo_);
  if (config_.sigmoid_output) sigmoid_inplace(y);
}

void LstmPredictor::window_errors(const std::vector<Matrix>& steps,
                                  const Matrix& targets, Workspace& ws,
                                  bool max_step, double* errors) const {
  const std::size_t d = config_.input_dim;
  const std::size_t n_steps = steps.size();
  const std::size_t batch = targets.rows();
  assert(n_steps > 0);
  assert(targets.cols() == d);
  ws.h.resize(batch, config_.hidden_dim);
  ws.h.zero();
  ws.c.resize(batch, config_.hidden_dim);
  ws.c.zero();
  if (max_step)
    for (std::size_t r = 0; r < batch; ++r) errors[r] = 0.0;
  for (std::size_t t = 0; t < n_steps; ++t) {
    assert(steps[t].rows() == batch && steps[t].cols() == d);
    step_fused(steps[t], ws);
    const bool last = t + 1 == n_steps;
    if (!max_step && !last) continue;
    project_into(ws.h, ws.y);
    const Matrix& target_t = last ? targets : steps[t + 1];
    for (std::size_t r = 0; r < batch; ++r) {
      const float* yrow = ws.y.row(r);
      const float* trow = target_t.row(r);
      double acc = 0.0;
      for (std::size_t c = 0; c < d; ++c) {
        double diff = static_cast<double>(yrow[c]) - trow[c];
        acc += diff * diff;
      }
      double err = acc / static_cast<double>(d);
      if (max_step)
        errors[r] = std::max(errors[r], err);
      else
        errors[r] = err;
    }
  }
}

void LstmPredictor::window_errors_strided(const Matrix& xs,
                                          std::size_t n_windows,
                                          std::size_t n_steps, Workspace& ws,
                                          bool max_step,
                                          double* errors) const {
  const std::size_t d = config_.input_dim;
  const std::size_t h = config_.hidden_dim;
  assert(n_steps > 0 && n_windows > 0);
  assert(xs.cols() == d);
  assert(xs.rows() >= n_windows + n_steps);  // inputs plus final targets
  // Window w reads input rows [w, w+n_steps); the last input row any
  // window touches is n_windows + n_steps - 2. One matmul covers them all.
  const std::size_t input_rows = n_windows + n_steps - 1;
  matmul_prefix_into(xs, input_rows, wx_, ws.zx);
  ws.h.resize(n_windows, h);
  ws.h.zero();
  ws.c.resize(n_windows, h);
  ws.c.zero();
  if (max_step)
    for (std::size_t r = 0; r < n_windows; ++r) errors[r] = 0.0;
  for (std::size_t t = 0; t < n_steps; ++t) {
    // The step-t pre-activations of all windows are zx rows [t, t+B) —
    // one contiguous gather instead of a fresh x·Wx matmul.
    ws.z.resize(n_windows, 4 * h);
    std::memcpy(ws.z.row(0), ws.zx.row(t),
                n_windows * 4 * h * sizeof(float));
    matmul_into(ws.h, wh_, ws.hh);
    add_inplace(ws.z, ws.hh);
    add_row_vector_inplace(ws.z, b_);
    gate_pass(ws);
    const bool last = t + 1 == n_steps;
    if (!max_step && !last) continue;
    project_into(ws.h, ws.y);
    for (std::size_t r = 0; r < n_windows; ++r) {
      const float* yrow = ws.y.row(r);
      // The record that actually followed window r's step t.
      const float* trow = xs.row(r + t + 1);
      double acc = 0.0;
      for (std::size_t c = 0; c < d; ++c) {
        double diff = static_cast<double>(yrow[c]) - trow[c];
        acc += diff * diff;
      }
      double err = acc / static_cast<double>(d);
      if (max_step)
        errors[r] = std::max(errors[r], err);
      else
        errors[r] = err;
    }
  }
}

// ---- Training path ------------------------------------------------------

Matrix LstmPredictor::forward_steps(const std::vector<Matrix>& steps,
                                    std::vector<StepCache>* caches,
                                    std::vector<Matrix>* hidden_states) {
  const std::size_t h = config_.hidden_dim;
  const std::size_t batch = steps.empty() ? 0 : steps[0].rows();
  Matrix h_t(batch, h);
  Matrix c_t(batch, h);
  if (caches) caches->clear();
  if (hidden_states) hidden_states->clear();

  for (const Matrix& x : steps) {
    Matrix z = add_row_vector(add(matmul(x, wx_), matmul(h_t, wh_)), b_);
    Matrix i = sigmoid_mat(slice_gate(z, 0, h));
    Matrix f = sigmoid_mat(slice_gate(z, 1, h));
    Matrix g = tanh_mat(slice_gate(z, 2, h));
    Matrix o = sigmoid_mat(slice_gate(z, 3, h));
    Matrix c_next = add(hadamard(f, c_t), hadamard(i, g));
    Matrix tanh_c = tanh_mat(c_next);
    Matrix h_next = hadamard(o, tanh_c);

    if (caches) {
      StepCache cache;
      cache.h_prev = std::move(h_t);
      cache.c_prev = std::move(c_t);
      cache.i = std::move(i);
      cache.f = std::move(f);
      cache.g = std::move(g);
      cache.o = std::move(o);
      cache.tanh_c = std::move(tanh_c);
      caches->push_back(std::move(cache));
    }
    h_t = std::move(h_next);
    c_t = std::move(c_next);
    if (hidden_states) hidden_states->push_back(h_t);
  }
  return h_t;
}

void LstmPredictor::backward_steps(
    const std::vector<Matrix>& steps, const std::vector<StepCache>& caches,
    const std::vector<Matrix>& grad_h_per_step) {
  assert(grad_h_per_step.size() == caches.size());
  assert(steps.size() == caches.size());
  const std::size_t h = config_.hidden_dim;
  const std::size_t batch = steps.empty() ? 0 : steps[0].rows();
  Matrix dh(batch, h);
  Matrix dc(batch, h);

  for (std::size_t t = caches.size(); t-- > 0;) {
    const StepCache& s = caches[t];
    dh = add(dh, grad_h_per_step[t]);
    // h = o ∘ tanh(c)
    Matrix do_ = hadamard(dh, s.tanh_c);
    Matrix dtanh_c = hadamard(dh, s.o);
    // dc += dtanh_c * (1 - tanh(c)^2)
    Matrix dc_from_h = dtanh_c;
    for (std::size_t i = 0; i < dc_from_h.size(); ++i) {
      float tc = s.tanh_c.data()[i];
      dc_from_h.data()[i] *= 1.0f - tc * tc;
    }
    Matrix dc_total = add(dc, dc_from_h);

    // c = f ∘ c_prev + i ∘ g
    Matrix df = hadamard(dc_total, s.c_prev);
    Matrix dc_prev = hadamard(dc_total, s.f);
    Matrix di = hadamard(dc_total, s.g);
    Matrix dg = hadamard(dc_total, s.i);

    // Through gate nonlinearities back to pre-activations.
    auto sig_back = [](Matrix& grad, const Matrix& y) {
      for (std::size_t i = 0; i < grad.size(); ++i) {
        float v = y.data()[i];
        grad.data()[i] *= v * (1.0f - v);
      }
    };
    sig_back(di, s.i);
    sig_back(df, s.f);
    sig_back(do_, s.o);
    for (std::size_t i = 0; i < dg.size(); ++i) {
      float v = s.g.data()[i];
      dg.data()[i] *= 1.0f - v * v;
    }

    Matrix dz(dh.rows(), 4 * h);
    write_gate(dz, 0, h, di);
    write_gate(dz, 1, h, df);
    write_gate(dz, 2, h, dg);
    write_gate(dz, 3, h, do_);

    // z = x Wx + h_prev Wh + b. The input x is read from the caller's
    // step vector (the cache stores no copy of it).
    add_inplace(grad_wx_, matmul_at(steps[t], dz));
    add_inplace(grad_wh_, matmul_at(s.h_prev, dz));
    add_inplace(grad_b_, sum_rows(dz));

    // At t = 0 h_prev is the fixed zero state: nothing reads its gradient.
    if (t > 0) dh = matmul_bt(dz, wh_);
    dc = std::move(dc_prev);
  }
}

Matrix LstmPredictor::project(const Matrix& h) const {
  Matrix pre = add_row_vector(matmul(h, wo_), bo_);
  return config_.sigmoid_output ? sigmoid_mat(pre) : pre;
}

double LstmPredictor::fit(const std::vector<SequenceSample>& samples,
                          const LstmTrainConfig& train) {
  assert(!samples.empty());
  const std::size_t n_steps = samples[0].window.size();
  const std::size_t d = config_.input_dim;
  // One parameter list for the whole run: zero-grad, clipping, and the
  // optimizer all reuse it instead of rebuilding a vector per batch.
  const std::vector<Param> plist = params();
  Adam optimizer(plist, train.learning_rate);

  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  double mean_loss = 0.0;
  for (int epoch = 0; epoch < train.epochs; ++epoch) {
    if (train.shuffle) rng_.shuffle(order.begin(), order.end());
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += train.batch_size) {
      std::size_t end = std::min(start + train.batch_size, order.size());
      std::size_t batch = end - start;

      std::vector<Matrix> steps(n_steps, Matrix(batch, d));
      Matrix targets(batch, d);
      for (std::size_t i = start; i < end; ++i) {
        const SequenceSample& sample = samples[order[i]];
        assert(sample.window.size() == n_steps);
        for (std::size_t t = 0; t < n_steps; ++t)
          for (std::size_t c = 0; c < d; ++c)
            steps[t].at(i - start, c) = sample.window[t][c];
        for (std::size_t c = 0; c < d; ++c)
          targets.at(i - start, c) = sample.target[c];
      }

      for (const Param& p : plist) p.grad->zero();
      std::vector<StepCache> caches;
      std::vector<Matrix> hs;
      forward_steps(steps, &caches, &hs);

      // Per-step next-record prediction loss: at step t the model predicts
      // steps[t+1] (or the target after the last step).
      double loss = 0.0;
      std::vector<Matrix> grad_h(n_steps);
      for (std::size_t t = 0; t < n_steps; ++t) {
        const Matrix& target_t = (t + 1 < n_steps) ? steps[t + 1] : targets;
        Matrix y = project(hs[t]);
        Matrix diff = sub(y, target_t);
        double step_loss = 0.0;
        for (float v : diff.data())
          step_loss += static_cast<double>(v) * v;
        loss += step_loss / static_cast<double>(diff.size() * n_steps);

        Matrix g = diff;
        scale_inplace(g, 2.0f / static_cast<float>(diff.size() * n_steps));
        if (config_.sigmoid_output) {
          for (std::size_t i = 0; i < g.size(); ++i) {
            float yv = y.data()[i];
            g.data()[i] *= yv * (1.0f - yv);
          }
        }
        add_inplace(grad_wo_, matmul_at(hs[t], g));
        add_inplace(grad_bo_, sum_rows(g));
        grad_h[t] = matmul_bt(g, wo_);
      }
      backward_steps(steps, caches, grad_h);
      clip_grad_norm(plist, train.grad_clip);
      optimizer.step();

      epoch_loss += loss;
      ++batches;
    }
    mean_loss = batches ? epoch_loss / static_cast<double>(batches) : 0.0;
    if (train.on_epoch) train.on_epoch(epoch, mean_loss);
  }
  return mean_loss;
}

std::vector<float> LstmPredictor::predict(
    const std::vector<std::vector<float>>& window) {
  const std::size_t d = config_.input_dim;
  Workspace ws;
  ws.h.resize(1, config_.hidden_dim);
  ws.h.zero();
  ws.c.resize(1, config_.hidden_dim);
  ws.c.zero();
  Matrix x(1, d);
  for (const auto& step : window) {
    assert(step.size() == d);
    for (std::size_t c = 0; c < d; ++c) x.at(0, c) = step[c];
    step_fused(x, ws);
  }
  project_into(ws.h, ws.y);
  std::vector<float> out(d);
  for (std::size_t c = 0; c < d; ++c) out[c] = ws.y.at(0, c);
  return out;
}

double LstmPredictor::prediction_error(const SequenceSample& sample) {
  std::vector<float> predicted = predict(sample.window);
  double acc = 0.0;
  for (std::size_t c = 0; c < predicted.size(); ++c) {
    double diff = static_cast<double>(predicted[c]) - sample.target[c];
    acc += diff * diff;
  }
  return acc / static_cast<double>(predicted.size());
}

namespace {
/// Shared batched-evaluation driver: assembles kBatch-sized chunks of
/// samples into step matrices and scores them through the fused workspace
/// path. One buffer set is reused across chunks.
std::vector<double> batched_errors(const LstmPredictor& model,
                                   const std::vector<SequenceSample>& samples,
                                   std::size_t input_dim, bool max_step) {
  std::vector<double> errors;
  errors.reserve(samples.size());
  if (samples.empty()) return errors;
  errors.resize(samples.size());

  const std::size_t n_steps = samples[0].window.size();
  const std::size_t d = input_dim;
  const std::size_t kBatch = 64;
  std::vector<Matrix> steps(n_steps);
  Matrix targets;
  LstmPredictor::Workspace ws;
  for (std::size_t start = 0; start < samples.size(); start += kBatch) {
    std::size_t end = std::min(start + kBatch, samples.size());
    std::size_t batch = end - start;
    for (std::size_t t = 0; t < n_steps; ++t) steps[t].resize(batch, d);
    targets.resize(batch, d);
    for (std::size_t i = start; i < end; ++i) {
      const SequenceSample& sample = samples[i];
      assert(sample.window.size() == n_steps);
      for (std::size_t t = 0; t < n_steps; ++t)
        for (std::size_t c = 0; c < d; ++c)
          steps[t].at(i - start, c) = sample.window[t][c];
      for (std::size_t c = 0; c < d; ++c)
        targets.at(i - start, c) = sample.target[c];
    }
    model.window_errors(steps, targets, ws, max_step, errors.data() + start);
  }
  return errors;
}
}  // namespace

std::vector<double> LstmPredictor::max_step_errors(
    const std::vector<SequenceSample>& samples) {
  return batched_errors(*this, samples, config_.input_dim, /*max_step=*/true);
}

std::vector<double> LstmPredictor::prediction_errors(
    const std::vector<SequenceSample>& samples) {
  return batched_errors(*this, samples, config_.input_dim, /*max_step=*/false);
}

}  // namespace xsec::dl
