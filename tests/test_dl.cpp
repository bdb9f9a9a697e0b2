// Deep-learning substrate tests: tensor ops, layer gradients (numerical
// checks), optimizers, autoencoder + LSTM end-to-end on toy problems,
// metrics, serialization, fused-kernel bit-identity, and the
// zero-allocation guarantee of the warmed inference paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#include "common/bytes.hpp"
#include "detect/ensemble.hpp"
#include "detect/scorer.hpp"
#include "dl/autoencoder.hpp"
#include "dl/layers.hpp"
#include "dl/lstm.hpp"
#include "dl/metrics.hpp"
#include "dl/optim.hpp"
#include "dl/serialize.hpp"
#include "dl/tensor.hpp"
#include "mobiflow/trace.hpp"

// --- Heap-allocation hook ---------------------------------------------
//
// Counts every operator-new in this binary so the allocation tests can
// assert that a warmed inference path performs zero heap allocations, and
// tracks the largest single request so a corpus-scoring test can bound
// its working set.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::size_t> g_largest_alloc{0};

void note_alloc(std::size_t size) {
  ++g_heap_allocs;
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_largest_alloc.compare_exchange_weak(seen, size,
                                                std::memory_order_relaxed)) {
  }
}
}  // namespace

// GCC pairs our malloc-backed operator new with the default delete at
// some call sites and warns; the pairing here is in fact consistent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace xsec::dl {
namespace {

/// Same shape and the same float bit patterns (so a -0/+0 flip fails).
::testing::AssertionResult same_bits(const Matrix& want, const Matrix& got) {
  if (!want.same_shape(got))
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << ", want "
           << want.rows() << "x" << want.cols();
  if (want.size() != 0 &&
      std::memcmp(want.data().data(), got.data().data(),
                  want.size() * sizeof(float)) != 0)
    return ::testing::AssertionFailure() << "float bits differ";
  return ::testing::AssertionSuccess();
}

// --- Matrix ----------------------------------------------------------

TEST(Matrix, MatmulKnownValues) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(Matrix, TransposedVariantsAgree) {
  Rng rng(1);
  Matrix a(3, 4);
  Matrix b(4, 5);
  a.xavier_init(rng, 3, 4);
  b.xavier_init(rng, 4, 5);
  // matmul_bt(a, b^T stored as (5x4)) == matmul(a, b)
  Matrix bt = b.transposed();
  Matrix via_bt = matmul_bt(a, bt);
  Matrix direct = matmul(a, b);
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_NEAR(via_bt.data()[i], direct.data()[i], 1e-5);
  // matmul_at(a^T stored as a (3x4), c) == matmul(a^T, c)
  Matrix c(3, 2);
  c.xavier_init(rng, 3, 2);
  Matrix via_at = matmul_at(a, c);
  Matrix direct_at = matmul(a.transposed(), c);
  for (std::size_t i = 0; i < direct_at.size(); ++i)
    EXPECT_NEAR(via_at.data()[i], direct_at.data()[i], 1e-5);
}

TEST(Matrix, ElementwiseOps) {
  Matrix a = Matrix::from_rows({{1, 2}});
  Matrix b = Matrix::from_rows({{3, 4}});
  EXPECT_FLOAT_EQ(add(a, b).at(0, 1), 6);
  EXPECT_FLOAT_EQ(sub(a, b).at(0, 0), -2);
  EXPECT_FLOAT_EQ(hadamard(a, b).at(0, 1), 8);
  Matrix row = Matrix::from_rows({{10, 20}});
  EXPECT_FLOAT_EQ(add_row_vector(a, row).at(0, 1), 22);
  Matrix two = Matrix::from_rows({{1, 2}, {3, 4}});
  Matrix sums = sum_rows(two);
  EXPECT_FLOAT_EQ(sums.at(0, 0), 4);
  EXPECT_FLOAT_EQ(sums.at(0, 1), 6);
}

// --- Numerical gradient checking --------------------------------------

/// Checks layer backward against central finite differences of a scalar
/// loss L = sum(forward(x) * weights_const).
void check_layer_gradients(Layer& layer, Matrix x, float tolerance = 2e-2f) {
  Matrix out = layer.forward(x);
  // L = sum of outputs; dL/dout = 1.
  Matrix grad_out(out.rows(), out.cols(), 1.0f);
  layer.zero_grad();
  Matrix grad_in = layer.backward(grad_out);

  const float eps = 1e-3f;
  auto loss_of = [&layer](const Matrix& input) {
    Matrix output = layer.forward(input);
    double total = 0;
    for (float v : output.data()) total += v;
    return total;
  };
  // Check input gradient.
  for (std::size_t i = 0; i < x.size(); i += std::max<std::size_t>(
                                            1, x.size() / 7)) {
    Matrix xp = x;
    xp.data()[i] += eps;
    Matrix xm = x;
    xm.data()[i] -= eps;
    double numeric = (loss_of(xp) - loss_of(xm)) / (2 * eps);
    EXPECT_NEAR(grad_in.data()[i], numeric, tolerance)
        << "input grad mismatch at " << i;
  }
  // Check parameter gradients.
  for (Param p : layer.params()) {
    for (std::size_t i = 0; i < p.value->size();
         i += std::max<std::size_t>(1, p.value->size() / 5)) {
      float saved = p.value->data()[i];
      p.value->data()[i] = saved + eps;
      double lp = loss_of(x);
      p.value->data()[i] = saved - eps;
      double lm = loss_of(x);
      p.value->data()[i] = saved;
      double numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(p.grad->data()[i], numeric, tolerance)
          << "param grad mismatch at " << i;
    }
  }
}

TEST(Gradients, Linear) {
  Rng rng(3);
  Linear layer(4, 3, rng);
  Matrix x(2, 4);
  x.xavier_init(rng, 4, 3);
  check_layer_gradients(layer, x);
}

TEST(Gradients, Relu) {
  Rng rng(4);
  Relu layer;
  Matrix x(2, 5);
  x.xavier_init(rng, 5, 5);
  for (float& v : x.data()) v += (v >= 0 ? 0.1f : -0.1f);  // avoid kink
  check_layer_gradients(layer, x);
}

TEST(Gradients, SigmoidAndTanh) {
  Rng rng(5);
  Matrix x(2, 4);
  x.xavier_init(rng, 4, 4);
  Sigmoid sigmoid;
  check_layer_gradients(sigmoid, x);
  Tanh tanh_layer;
  check_layer_gradients(tanh_layer, x);
}

TEST(Gradients, SequentialStack) {
  Rng rng(6);
  Sequential net;
  net.add(std::make_unique<Linear>(4, 6, rng));
  net.add(std::make_unique<Relu>());
  net.add(std::make_unique<Linear>(6, 2, rng));
  net.add(std::make_unique<Sigmoid>());
  Matrix x(3, 4);
  x.xavier_init(rng, 4, 4);
  check_layer_gradients(net, x);
}

TEST(Gradients, BackwardParamsAccumulatesBackwardsParamGradients) {
  // Training skips the first layer's input gradient; every parameter
  // gradient must still come out bit-identical to a full backward pass.
  auto build = [] {
    Rng rng(7);
    Sequential net;
    net.add(std::make_unique<Linear>(5, 6, rng));
    net.add(std::make_unique<Relu>());
    net.add(std::make_unique<Linear>(6, 3, rng));
    return net;
  };
  Rng rng(8);
  Matrix x(4, 5);
  x.xavier_init(rng, 4, 5);
  Matrix grad_out(4, 3);
  grad_out.xavier_init(rng, 4, 3);
  Sequential full = build();
  Sequential skip = build();
  full.forward(x);
  skip.forward(x);
  full.zero_grad();
  skip.zero_grad();
  full.backward(grad_out);
  skip.backward_params(grad_out);
  const std::vector<Param> want = full.params();
  const std::vector<Param> got = skip.params();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_TRUE(same_bits(*want[i].grad, *got[i].grad)) << "param " << i;
}

// --- Optimizers ---------------------------------------------------------

TEST(Optim, SgdAndAdamMinimizeQuadratic) {
  // minimize f(w) = sum (w - 3)^2 via explicit gradient.
  for (int use_adam = 0; use_adam <= 1; ++use_adam) {
    Matrix w(1, 4, 0.0f);
    Matrix g(1, 4);
    std::vector<Param> params = {{&w, &g}};
    std::unique_ptr<Optimizer> opt;
    if (use_adam)
      opt = std::make_unique<Adam>(params, 0.1f);
    else
      opt = std::make_unique<Sgd>(params, 0.05f, 0.9f);
    for (int step = 0; step < 300; ++step) {
      for (std::size_t i = 0; i < w.size(); ++i)
        g.data()[i] = 2 * (w.data()[i] - 3.0f);
      opt->step();
    }
    for (float v : w.data()) EXPECT_NEAR(v, 3.0f, 0.05f);
  }
}

TEST(Optim, AdamStepBitIdenticalToTextbookLoop) {
  // Adam updates eight lanes at a time where the host allows; every
  // element must match the textbook scalar update bit for bit, tails
  // included.
  const float lr = 3e-3f, beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
  Rng rng(12);
  for (std::size_t n : {1u, 7u, 8u, 9u, 63u, 415u}) {
    Matrix w(1, n), g(1, n);
    for (float& v : w.data()) v = static_cast<float>(rng.uniform(-1, 1));
    Matrix ref_w = w;
    std::vector<float> m(n, 0.0f), v(n, 0.0f);
    Adam adam({{&w, &g}}, lr, beta1, beta2, eps);
    for (int t = 1; t <= 5; ++t) {
      for (float& x : g.data())
        x = rng.chance(0.2) ? 0.0f : static_cast<float>(rng.uniform(-4, 4));
      adam.step();
      const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
      const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
      for (std::size_t j = 0; j < n; ++j) {
        float gj = g.data()[j];
        m[j] = beta1 * m[j] + (1.0f - beta1) * gj;
        v[j] = beta2 * v[j] + (1.0f - beta2) * gj * gj;
        float mhat = m[j] / bc1;
        float vhat = v[j] / bc2;
        ref_w.data()[j] -= lr * mhat / (std::sqrt(vhat) + eps);
      }
      ASSERT_TRUE(same_bits(ref_w, w)) << n << " elements, step " << t;
    }
  }
}

TEST(Optim, ClipGradNorm) {
  Matrix w(1, 2);
  Matrix g = Matrix::from_rows({{3.0f, 4.0f}});  // norm 5
  std::vector<Param> params = {{&w, &g}};
  clip_grad_norm(params, 1.0f);
  double norm = std::sqrt(g.at(0, 0) * g.at(0, 0) + g.at(0, 1) * g.at(0, 1));
  EXPECT_NEAR(norm, 1.0, 1e-5);
  // Below the cap: untouched.
  Matrix g2 = Matrix::from_rows({{0.3f, 0.4f}});
  std::vector<Param> params2 = {{&w, &g2}};
  clip_grad_norm(params2, 1.0f);
  EXPECT_FLOAT_EQ(g2.at(0, 0), 0.3f);
}

// --- Autoencoder ---------------------------------------------------------

Matrix toy_benign_data(Rng& rng, std::size_t n) {
  // Two one-hot groups with a fixed correlation: class k in group 1 pairs
  // with class k in group 2.
  Matrix data(n, 8, 0.0f);
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t k = rng.uniform_u64(0, 3);
    data.at(r, k) = 1.0f;
    data.at(r, 4 + k) = 1.0f;
  }
  return data;
}

TEST(Autoencoder, LearnsToyDistributionAndFlagsOutliers) {
  Rng rng(7);
  Matrix benign = toy_benign_data(rng, 256);
  Autoencoder model(AutoencoderConfig{8, {16, 4}, 99});
  TrainConfig train;
  train.epochs = 120;
  train.learning_rate = 5e-3f;
  double final_loss = model.fit(benign, train);
  EXPECT_LT(final_loss, 0.05);

  auto benign_errors = model.reconstruction_errors(benign);
  double benign_mean = 0;
  for (double e : benign_errors) benign_mean += e;
  benign_mean /= static_cast<double>(benign_errors.size());

  // An outlier breaking the correlation must reconstruct worse.
  Matrix outlier(1, 8, 0.0f);
  outlier.at(0, 0) = 1.0f;
  outlier.at(0, 4 + 2) = 1.0f;  // mismatched pair
  double outlier_error = model.reconstruction_errors(outlier)[0];
  EXPECT_GT(outlier_error, benign_mean * 3);
}

TEST(Autoencoder, EpochCallbackInvokedAndLossDecreases) {
  Rng rng(8);
  Matrix data = toy_benign_data(rng, 64);
  Autoencoder model(AutoencoderConfig{8, {8, 2}, 1});
  std::vector<double> losses;
  TrainConfig train;
  train.epochs = 30;
  train.on_epoch = [&](int, double loss) { losses.push_back(loss); };
  model.fit(data, train);
  ASSERT_EQ(losses.size(), 30u);
  EXPECT_LT(losses.back(), losses.front());
}

TEST(Autoencoder, DeterministicGivenSeed) {
  Rng rng(9);
  Matrix data = toy_benign_data(rng, 64);
  auto run = [&data] {
    Autoencoder model(AutoencoderConfig{8, {8, 2}, 55});
    TrainConfig train;
    train.epochs = 10;
    model.fit(data, train);
    return model.reconstruction_errors(data);
  };
  EXPECT_EQ(run(), run());
}

// --- LSTM ------------------------------------------------------------

std::vector<SequenceSample> toy_sequences(std::size_t n) {
  // Deterministic cyclic pattern over 4 one-hot symbols: 0 1 2 3 0 1 ...
  std::vector<SequenceSample> samples;
  for (std::size_t start = 0; start < n; ++start) {
    SequenceSample s;
    for (std::size_t t = 0; t < 3; ++t) {
      std::vector<float> x(4, 0.0f);
      x[(start + t) % 4] = 1.0f;
      s.window.push_back(x);
    }
    s.target.assign(4, 0.0f);
    s.target[(start + 3) % 4] = 1.0f;
    samples.push_back(std::move(s));
  }
  return samples;
}

TEST(Lstm, LearnsCyclicSequence) {
  auto samples = toy_sequences(64);
  LstmPredictor model(LstmConfig{4, 16, 11});
  LstmTrainConfig train;
  train.epochs = 150;
  train.learning_rate = 5e-3f;
  double loss = model.fit(samples, train);
  EXPECT_LT(loss, 0.03);

  // Prediction puts most mass on the correct next symbol.
  auto predicted = model.predict(samples[0].window);
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < predicted.size(); ++i)
    if (predicted[i] > predicted[argmax]) argmax = i;
  EXPECT_EQ(argmax, 3u);  // window 0,1,2 -> next is 3
}

TEST(Lstm, AnomalousNextSymbolScoresHigher) {
  auto samples = toy_sequences(64);
  LstmPredictor model(LstmConfig{4, 16, 12});
  LstmTrainConfig train;
  train.epochs = 150;
  train.learning_rate = 5e-3f;
  model.fit(samples, train);

  double benign_error = model.prediction_error(samples[0]);
  SequenceSample anomalous = samples[0];
  anomalous.target.assign(4, 0.0f);
  anomalous.target[1] = 1.0f;  // wrong symbol follows
  EXPECT_GT(model.prediction_error(anomalous), benign_error * 4);
}

TEST(Lstm, MaxStepErrorsCatchMidWindowAnomaly) {
  auto samples = toy_sequences(64);
  LstmPredictor model(LstmConfig{4, 16, 13});
  LstmTrainConfig train;
  train.epochs = 150;
  train.learning_rate = 5e-3f;
  model.fit(samples, train);

  SequenceSample corrupted = samples[0];
  corrupted.window[2].assign(4, 0.0f);
  corrupted.window[2][0] = 1.0f;  // out-of-order symbol mid-window
  double clean = model.max_step_errors({samples[0]})[0];
  double broken = model.max_step_errors({corrupted})[0];
  EXPECT_GT(broken, clean * 3);
}

TEST(Lstm, BatchedAndSingleErrorsAgree) {
  auto samples = toy_sequences(10);
  LstmPredictor model(LstmConfig{4, 8, 14});
  LstmTrainConfig train;
  train.epochs = 5;
  model.fit(samples, train);
  auto batched = model.prediction_errors(samples);
  for (std::size_t i = 0; i < samples.size(); ++i)
    EXPECT_NEAR(batched[i], model.prediction_error(samples[i]), 1e-9);
}

// --- Metrics ----------------------------------------------------------

TEST(Metrics, ConfusionMath) {
  Confusion c;
  c.tp = 8;
  c.fp = 2;
  c.tn = 85;
  c.fn = 5;
  EXPECT_NEAR(c.accuracy(), 0.93, 1e-9);
  EXPECT_NEAR(c.precision(), 0.8, 1e-9);
  EXPECT_NEAR(c.recall(), 8.0 / 13.0, 1e-9);
  double p = c.precision(), r = c.recall();
  EXPECT_NEAR(c.f1(), 2 * p * r / (p + r), 1e-9);
}

TEST(Metrics, UndefinedCellsAreNaN) {
  Confusion c;
  c.tn = 10;
  EXPECT_TRUE(std::isnan(c.precision()));
  EXPECT_TRUE(std::isnan(c.recall()));
  EXPECT_TRUE(std::isnan(c.f1()));
  EXPECT_NEAR(c.accuracy(), 1.0, 1e-9);
}

TEST(Metrics, EvaluateThresholdStrictlyGreater) {
  Confusion c = evaluate_threshold({0.5, 1.0, 2.0}, {false, false, true}, 1.0);
  EXPECT_EQ(c.tp, 1u);
  EXPECT_EQ(c.fp, 0u);
  EXPECT_EQ(c.tn, 2u);  // score == threshold is benign
}

TEST(Metrics, KfoldPartitionsEverything) {
  auto folds = kfold_indices(10, 3);
  ASSERT_EQ(folds.size(), 3u);
  std::vector<int> seen(10, 0);
  for (const auto& [train, test] : folds) {
    EXPECT_EQ(train.size() + test.size(), 10u);
    for (std::size_t i : test) ++seen[i];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

// --- Serialization ------------------------------------------------------

TEST(Serialize, RoundTripRestoresWeights) {
  Rng rng(20);
  Linear a(4, 3, rng);
  Linear b(4, 3, rng);
  Bytes blob = save_params(a.params());
  ASSERT_TRUE(load_params(b.params(), blob).ok());
  EXPECT_EQ(a.weight().data(), b.weight().data());
  EXPECT_EQ(a.bias().data(), b.bias().data());
}

TEST(Serialize, ShapeMismatchRejected) {
  Rng rng(21);
  Linear a(4, 3, rng);
  Linear wrong(3, 4, rng);
  Bytes blob = save_params(a.params());
  EXPECT_FALSE(load_params(wrong.params(), blob).ok());
}

TEST(Serialize, LstmModelRoundTrip) {
  LstmPredictor a(LstmConfig{4, 8, 1});
  LstmPredictor b(LstmConfig{4, 8, 2});
  auto samples = toy_sequences(8);
  EXPECT_NE(a.prediction_errors(samples), b.prediction_errors(samples));
  Bytes blob = save_params(a.params());
  ASSERT_TRUE(load_params(b.params(), blob).ok());
  EXPECT_EQ(a.prediction_errors(samples), b.prediction_errors(samples));
}

// --- Fused/into kernel bit-identity -----------------------------------
//
// The inference path must reproduce the reference math bit-for-bit (same
// FP operation order within every dot product), so Table 2 numbers do not
// move when the fast kernels are used. These are exact-equality checks.

/// Textbook per-element matmul, accumulating over k in ascending order —
/// the FP order the production kernel must preserve.
Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < b.cols(); ++c) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a.at(r, k) * b.at(k, c);
      out.at(r, c) = acc;
    }
  return out;
}

/// The training products as textbook loops: out = a^T * b, skipping zero
/// a-elements and accumulating each output over k in ascending order from
/// +0, and out = a * b^T as a plain dot product that multiplies the zeros.
/// The kernel-backed matmul_at/matmul_bt must match both bit for bit.
Matrix naive_matmul_at(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const float* arow = a.row(k);
    const float* brow = b.row(k);
    for (std::size_t r = 0; r < a.cols(); ++r) {
      float av = arow[r];
      if (av == 0.0f) continue;
      float* orow = out.row(r);
      for (std::size_t c = 0; c < b.cols(); ++c) orow[c] += av * brow[c];
    }
  }
  return out;
}

Matrix naive_matmul_bt(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    float* orow = out.row(r);
    for (std::size_t c = 0; c < b.rows(); ++c) {
      const float* brow = b.row(c);
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      orow[c] = acc;
    }
  }
  return out;
}

TEST(FusedKernels, MatmulVariantsBitIdenticalAcrossShapesAndDensities) {
  Rng rng(71);
  // cols hit every tile tail (64/32/8/1 under AVX2, 32/8/1 baseline);
  // inner spans single-k up to the AE's 5 × 83 flattened window.
  const std::size_t kCols[] = {1, 7, 8, 31, 33, 64, 65, 128, 415};
  const std::size_t kInner[] = {1, 9, 83, 415};
  const double kDensities[] = {0.0, 0.1, 0.5, 1.0};
  // Reused across iterations so the capacity-retaining resize path (shrink
  // then regrow) is exercised, not just fresh buffers.
  Matrix into_out, prefix_out;
  std::size_t case_no = 0;
  for (std::size_t n : kCols)
    for (std::size_t k : kInner)
      for (double density : kDensities) {
        // 1..40 rows: below, at and across the 16-row block edge.
        const std::size_t m = 1 + (case_no * 7) % 40;
        ++case_no;
        // One extra row past the prefix, never zero, so a prefix multiply
        // that read it would show.
        Matrix a(m + 1, k);
        Matrix b(k, n);
        for (float& v : a.data()) {
          if (rng.chance(density))
            v = static_cast<float>(rng.uniform(-2, 2));
          else
            v = rng.chance(0.5) ? -0.0f : 0.0f;
        }
        for (std::size_t r = 0; r < m; r += 5)  // all-zero rows
          if (density > 0.0 && density < 1.0)
            for (std::size_t c = 0; c < k; ++c) a.at(r, c) = 0.0f;
        for (std::size_t c = 0; c < k; ++c) a.at(m, c) = 1.0f;
        for (float& v : b.data()) {
          const double u = rng.uniform();
          v = u < 0.05   ? 0.0f
              : u < 0.1 ? -0.0f
                        : static_cast<float>(rng.uniform(-2, 2));
        }
        SCOPED_TRACE(::testing::Message() << m << "x" << k << " * " << k
                                          << "x" << n << " density "
                                          << density);

        matmul_prefix_into(a, m, b, prefix_out);
        a.resize(m, k);  // drops the extra row, keeps the first m
        const Matrix ref = naive_matmul(a, b);
        ASSERT_TRUE(same_bits(ref, prefix_out));
        matmul_into(a, b, into_out);
        ASSERT_TRUE(same_bits(ref, into_out));
        ASSERT_TRUE(same_bits(ref, matmul(a, b)));

        // The training products on the same operands: a^T * b with a's
        // transpose as the left operand, and a * b^T with b's transpose.
        const Matrix at = a.transposed();
        const Matrix bt = b.transposed();
        ASSERT_TRUE(same_bits(naive_matmul_at(at, b), matmul_at(at, b)));
        matmul_at_into(at, b, into_out);
        ASSERT_TRUE(same_bits(naive_matmul_at(at, b), into_out));
        ASSERT_TRUE(same_bits(naive_matmul_bt(a, bt), matmul_bt(a, bt)));
        matmul_bt_into(a, bt, into_out);
        ASSERT_TRUE(same_bits(naive_matmul_bt(a, bt), into_out));
      }

  // The live training shapes: every (in, out) pair a backward pass
  // multiplies, at the full batch of 32 and at batch tails. Linear layers
  // of the autoencoder (415/128/32 wide, 83-feature windows of 5) compute
  // dW = x^T * g and dx = g * W^T; the LSTM (hidden 64, four gates = 256,
  // 83 features) computes dWx = x^T * dz, dWh = h^T * dz, dh = dz * Wh^T
  // and its output head's dWo = h^T * g, dh = g * Wo^T.
  const std::size_t kPairs[][2] = {{415, 128}, {128, 32}, {32, 128},
                                   {128, 415}, {83, 256}, {64, 256},
                                   {64, 83}};
  const std::size_t kBatches[] = {32, 17, 6, 1};
  for (const auto& pair : kPairs)
    for (std::size_t batch : kBatches) {
      const std::size_t in = pair[0];
      const std::size_t out = pair[1];
      // x: batch × in (forward input, ~half zeros like standardized
      // one-hot rows and ReLU outputs), g: batch × out (upstream
      // gradient), w: in × out (weights). Zero rows and ±0 in every
      // operand.
      Matrix x(batch, in), g(batch, out), w(in, out);
      auto fill = [&rng](Matrix& m, double zero_share) {
        for (float& v : m.data()) {
          if (rng.chance(zero_share))
            v = rng.chance(0.5) ? -0.0f : 0.0f;
          else
            v = static_cast<float>(rng.uniform(-2, 2));
        }
        for (std::size_t r = 0; r < m.rows(); r += 7)
          for (std::size_t c = 0; c < m.cols(); ++c)
            m.at(r, c) = rng.chance(0.5) ? -0.0f : 0.0f;
      };
      fill(x, 0.5);
      fill(g, 0.1);
      fill(w, 0.05);
      SCOPED_TRACE(::testing::Message() << "batch " << batch << ", " << in
                                        << " -> " << out);
      ASSERT_TRUE(same_bits(naive_matmul_at(x, g), matmul_at(x, g)));
      ASSERT_TRUE(same_bits(naive_matmul_bt(g, w), matmul_bt(g, w)));
    }
}

TEST(FusedKernels, IntoAndInplaceElementwiseMatchAllocatingOps) {
  Rng rng(72);
  Matrix out;
  for (int iter = 0; iter < 20; ++iter) {
    std::size_t m = rng.uniform_u64(1, 9);
    std::size_t n = rng.uniform_u64(1, 21);
    Matrix a(m, n);
    Matrix b(m, n);
    Matrix row(1, n);
    for (float& v : a.data()) v = static_cast<float>(rng.uniform(-3, 3));
    for (float& v : b.data()) v = static_cast<float>(rng.uniform(-3, 3));
    for (float& v : row.data()) v = static_cast<float>(rng.uniform(-3, 3));

    add_into(a, b, out);
    ASSERT_EQ(add(a, b).data(), out.data());
    sub_into(a, b, out);
    ASSERT_EQ(sub(a, b).data(), out.data());
    hadamard_into(a, b, out);
    ASSERT_EQ(hadamard(a, b).data(), out.data());
    add_row_vector_into(a, row, out);
    ASSERT_EQ(add_row_vector(a, row).data(), out.data());
    sum_rows_into(a, out);
    ASSERT_EQ(sum_rows(a).data(), out.data());

    Matrix acc = a;
    add_inplace(acc, b);
    ASSERT_EQ(add(a, b).data(), acc.data());
    acc = a;
    add_row_vector_inplace(acc, row);
    ASSERT_EQ(add_row_vector(a, row).data(), acc.data());
  }
}

TEST(FusedKernels, TanhScalarBitIdenticalToStdTanh) {
  // The vendored fdlibm tanh must match the libm one bit-for-bit —
  // otherwise every LSTM score drifts from the reference implementation.
  // scripts/verify_tanhf.cpp proves this over all 2^32 bit patterns; here
  // we pin the branch boundaries plus a dense random sample.
  auto check = [](float x) {
    float got = tanh_scalar(x);
    float want = std::tanh(x);
    std::uint32_t gb, wb;
    std::memcpy(&gb, &got, sizeof(gb));
    std::memcpy(&wb, &want, sizeof(wb));
    if (std::isnan(got) && std::isnan(want)) return;
    ASSERT_EQ(gb, wb) << "x = " << x;
  };
  // Branch thresholds of the fdlibm routine (and one ulp either side).
  const std::uint32_t edges[] = {
      0x00000000u, 0x00000001u, 0x24000000u, 0x33000000u, 0x3eb17218u,
      0x3f800000u, 0x3F851592u, 0x41100000u, 0x4195b844u, 0x41b00000u,
      0x42b17218u, 0x7f7fffffu, 0x7f800000u, 0x7fc00000u};
  for (std::uint32_t e : edges)
    for (std::int32_t d : {-1, 0, 1})
      for (std::uint32_t sign : {0u, 0x80000000u}) {
        std::uint32_t u = (e + static_cast<std::uint32_t>(d)) | sign;
        float x;
        std::memcpy(&x, &u, sizeof(x));
        check(x);
      }
  Rng rng(74);
  for (int i = 0; i < 200000; ++i) {
    // Log-uniform magnitude covers denormals through saturation.
    float mag = static_cast<float>(std::pow(2.0, rng.uniform(-140, 10)));
    check(rng.chance(0.5) ? mag : -mag);
    // Plus the gate-realistic range the LSTM actually feeds it.
    check(static_cast<float>(rng.uniform(-30, 30)));
  }
}

TEST(FusedKernels, TanhManyMatchesTanhScalarIncludingTails) {
  // The vectorized batch tanh must agree with the scalar routine lane for
  // lane, across SIMD-width boundaries, for odd tails, and in place.
  Rng rng(75);
  std::vector<float> xs(67), out(67), inplace(67);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                        std::size_t{9}, std::size_t{16}, std::size_t{64},
                        std::size_t{67}}) {
    for (int iter = 0; iter < 50; ++iter) {
      for (std::size_t i = 0; i < n; ++i) {
        double mag = std::pow(2.0, rng.uniform(-30, 6));
        xs[i] = static_cast<float>(rng.chance(0.5) ? mag : -mag);
      }
      if (iter == 0 && n >= 8) {
        // Poison one lane with non-finite input: the whole vector must
        // fall back to the scalar path without disturbing neighbours.
        xs[3] = std::numeric_limits<float>::infinity();
        xs[5] = -std::numeric_limits<float>::quiet_NaN();
      }
      tanh_many(xs.data(), out.data(), n);
      std::copy(xs.begin(), xs.begin() + n, inplace.begin());
      tanh_many(inplace.data(), inplace.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        float want = tanh_scalar(xs[i]);
        std::uint32_t gb, wb, ib;
        std::memcpy(&gb, &out[i], sizeof(gb));
        std::memcpy(&wb, &want, sizeof(wb));
        std::memcpy(&ib, &inplace[i], sizeof(ib));
        if (std::isnan(out[i]) && std::isnan(want)) continue;
        ASSERT_EQ(gb, wb) << "n=" << n << " i=" << i << " x=" << xs[i];
        ASSERT_EQ(ib, wb) << "in-place n=" << n << " i=" << i;
      }
    }
  }
}

TEST(FusedKernels, SigmoidManyMatchesSigmoidScalarIncludingTails) {
  // Same contract as the batch tanh: the vectorized sigmoid (a port of
  // the libm FMA expf fast path, see sigmoidf.cpp) must agree with
  // sigmoid_scalar lane for lane. scripts/verify_tanhf.cpp proves the
  // identity over all 2^32 bit patterns; this pins SIMD-width boundaries,
  // odd tails, in-place use, the |x| >= 88 over/underflow fallback, and
  // non-finite lanes.
  Rng rng(76);
  std::vector<float> xs(67), out(67), inplace(67);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                        std::size_t{9}, std::size_t{16}, std::size_t{64},
                        std::size_t{67}}) {
    for (int iter = 0; iter < 50; ++iter) {
      for (std::size_t i = 0; i < n; ++i) {
        double mag = std::pow(2.0, rng.uniform(-30, 8));
        xs[i] = static_cast<float>(rng.chance(0.5) ? mag : -mag);
      }
      if (iter == 0 && n >= 8) {
        // Poison lanes: non-finite and beyond the expf overflow cutoff.
        // The whole vector must take the scalar route untouched.
        xs[3] = std::numeric_limits<float>::infinity();
        xs[5] = -std::numeric_limits<float>::quiet_NaN();
        xs[6] = -150.0f;
      }
      if (iter == 1 && n >= 8) xs[2] = 200.0f;
      sigmoid_many(xs.data(), out.data(), n);
      std::copy(xs.begin(), xs.begin() + n, inplace.begin());
      sigmoid_many(inplace.data(), inplace.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        float want = sigmoid_scalar(xs[i]);
        std::uint32_t gb, wb, ib;
        std::memcpy(&gb, &out[i], sizeof(gb));
        std::memcpy(&wb, &want, sizeof(wb));
        std::memcpy(&ib, &inplace[i], sizeof(ib));
        if (std::isnan(out[i]) && std::isnan(want)) continue;
        ASSERT_EQ(gb, wb) << "n=" << n << " i=" << i << " x=" << xs[i];
        ASSERT_EQ(ib, wb) << "in-place n=" << n << " i=" << i;
      }
    }
  }
}

TEST(FusedKernels, SequentialInferBitIdenticalToForward) {
  Rng rng(73);
  Sequential net;
  net.add(std::make_unique<Linear>(9, 7, rng));
  net.add(std::make_unique<Relu>());
  net.add(std::make_unique<Linear>(7, 4, rng));
  net.add(std::make_unique<Tanh>());
  net.add(std::make_unique<Linear>(4, 9, rng));
  net.add(std::make_unique<Sigmoid>());
  for (std::size_t batch : {6u, 1u, 11u}) {
    Matrix x(batch, 9);
    for (float& v : x.data()) v = static_cast<float>(rng.uniform(-2, 2));
    Matrix fwd = net.forward(x);
    const Matrix& inf = net.infer(x);
    ASSERT_EQ(fwd.data(), inf.data()) << "batch " << batch;
  }
}

TEST(FusedKernels, LstmFusedPathMatchesGateByGateReference) {
  for (bool sigmoid_output : {false, true}) {
    const std::size_t d = 3;
    const std::size_t hidden = 5;
    const std::size_t batch = 4;
    const std::size_t n_steps = 6;
    LstmPredictor model(LstmConfig{d, hidden, 77, sigmoid_output});
    // params() exposes {Wx, Wh, b, Wo, bo} — enough to rebuild the cell
    // gate by gate with the reference (allocating) ops.
    auto plist = model.params();
    const Matrix& wx = *plist[0].value;
    const Matrix& wh = *plist[1].value;
    const Matrix& b = *plist[2].value;
    const Matrix& wo = *plist[3].value;
    const Matrix& bo = *plist[4].value;

    Rng rng(74);
    std::vector<Matrix> steps(n_steps, Matrix(batch, d));
    Matrix targets(batch, d);
    for (auto& step : steps)
      for (float& v : step.data()) v = static_cast<float>(rng.uniform(-1, 1));
    for (float& v : targets.data()) v = static_cast<float>(rng.uniform(-1, 1));

    auto slice_gate = [&](const Matrix& z, std::size_t gate) {
      Matrix out(z.rows(), hidden);
      for (std::size_t r = 0; r < z.rows(); ++r)
        for (std::size_t c = 0; c < hidden; ++c)
          out.at(r, c) = z.at(r, gate * hidden + c);
      return out;
    };
    auto project = [&](const Matrix& h) {
      Matrix y = add_row_vector(matmul(h, wo), bo);
      if (sigmoid_output) y = sigmoid_mat(y);
      return y;
    };
    auto row_mse = [&](const Matrix& y, const Matrix& target,
                       std::size_t r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < d; ++c) {
        double diff = static_cast<double>(y.at(r, c)) - target.at(r, c);
        acc += diff * diff;
      }
      return acc / static_cast<double>(d);
    };

    // Reference forward: materialized per-gate matrices, allocating ops.
    Matrix h(batch, hidden);
    Matrix c(batch, hidden);
    std::vector<double> ref_max(batch, 0.0);
    std::vector<double> ref_final(batch, 0.0);
    for (std::size_t t = 0; t < n_steps; ++t) {
      Matrix z =
          add_row_vector(add(matmul(steps[t], wx), matmul(h, wh)), b);
      Matrix i = sigmoid_mat(slice_gate(z, 0));
      Matrix f = sigmoid_mat(slice_gate(z, 1));
      Matrix g = tanh_mat(slice_gate(z, 2));
      Matrix o = sigmoid_mat(slice_gate(z, 3));
      c = add(hadamard(f, c), hadamard(i, g));
      h = hadamard(o, tanh_mat(c));
      Matrix y = project(h);
      const Matrix& target_t = (t + 1 < n_steps) ? steps[t + 1] : targets;
      for (std::size_t r = 0; r < batch; ++r) {
        ref_max[r] = std::max(ref_max[r], row_mse(y, target_t, r));
        if (t + 1 == n_steps) ref_final[r] = row_mse(y, targets, r);
      }
    }

    LstmPredictor::Workspace ws;
    std::vector<double> fused_max(batch);
    std::vector<double> fused_final(batch);
    model.window_errors(steps, targets, ws, /*max_step=*/true,
                        fused_max.data());
    model.window_errors(steps, targets, ws, /*max_step=*/false,
                        fused_final.data());
    for (std::size_t r = 0; r < batch; ++r) {
      ASSERT_EQ(ref_max[r], fused_max[r]) << "row " << r;
      ASSERT_EQ(ref_final[r], fused_final[r]) << "row " << r;
    }
  }
}

// --- Training golden ---------------------------------------------------
//
// Retraining is bit-reproducible, and the training kernels are pinned to
// the textbook loops' float bits, so a fixed-seed fit lands on the same
// weights, scaler and threshold on every build. The constants are the
// fnv1a64 of save_state() after the fits below, captured from the scalar
// textbook training loops; a change to any training bit fails here, not
// only in the Table 2 regeneration. (The activations' vendored tanhf/expf
// match glibc's libm bit for bit, so the constants assume a glibc host.)

/// `n` consecutive 0/1 feature rows of width `dim`, one-hot-like: each row
/// sets a few of the first dim - 3 columns and never the last three, so
/// the standardized inputs keep exact-zero columns as live features do.
std::vector<float> golden_rows(std::size_t n, std::size_t dim) {
  Rng rng(0x60D);
  std::vector<float> rows(n * dim, 0.0f);
  for (std::size_t r = 0; r < n; ++r) {
    rows[r * dim + r % 3] = 1.0f;
    for (std::size_t c = 3; c + 3 < dim; ++c)
      if (rng.chance(0.3)) rows[r * dim + c] = 1.0f;
  }
  return rows;
}

TEST(TrainingGolden, FixedSeedFitsHashToPinnedStates) {
  const std::size_t window = 5;
  const std::size_t dim = 12;
  // 70 training windows: two full batches of 32 and a tail of 6.
  const std::size_t n = 70;
  detect::DetectorConfig config;
  config.seed = 99;
  detect::FineTuneConfig tune;
  tune.learning_rate = 3e-3f;

  {
    const std::size_t flat = window * dim;
    std::vector<float> windows = golden_rows(n * window, dim);
    detect::AutoencoderDetector ae(window, dim, config, {16, 8});
    Matrix raw(n, flat);
    std::memcpy(raw.row(0), windows.data(), windows.size() * sizeof(float));
    ae.fit_scaler(raw);
    ASSERT_TRUE(ae.fine_tune(windows.data(), n, window, tune));
    EXPECT_EQ(fnv1a(ae.save_state()), 0xcd2faa19002a448aull);
  }
  {
    const std::size_t rows_per = window + 1;
    std::vector<float> windows = golden_rows(n * rows_per, dim);
    std::vector<SequenceSample> raw(n);
    for (std::size_t w = 0; w < n; ++w) {
      const float* base = windows.data() + w * rows_per * dim;
      for (std::size_t t = 0; t < window; ++t)
        raw[w].window.emplace_back(base + t * dim, base + (t + 1) * dim);
      raw[w].target.assign(base + window * dim, base + rows_per * dim);
    }
    detect::LstmDetector lstm(window, dim, config, 8);
    lstm.fit_scaler(raw);
    ASSERT_TRUE(lstm.fine_tune(windows.data(), n, rows_per, tune));
    EXPECT_EQ(fnv1a(lstm.save_state()), 0x24a17dc76933273eull);
  }
}

// --- Zero-allocation guarantee ----------------------------------------

/// Heap allocations made by scoring a live-shaped autoencoder (window 5,
/// 83 features, hidden {128, 32}) over 0/1 feature rows, after one warm-up
/// at the largest batch — all on the calling thread.
std::uint64_t real_shape_scoring_allocs() {
  const std::size_t window = 5;
  const std::size_t dim = 83;
  detect::AutoencoderDetector ae(window, dim, {}, {128, 32});
  Rng rng(76);
  const std::size_t max_windows = 16;
  std::vector<float> rows((max_windows + window) * dim);
  for (float& v : rows) v = rng.chance(0.1) ? 1.0f : 0.0f;
  std::vector<double> scores(max_windows);
  ae.score_windows(rows.data(), dim, window, max_windows, scores.data());

  const std::uint64_t before = g_heap_allocs.load();
  ae.score_window(rows.data(), window);
  ae.score_windows(rows.data(), dim, window, 1, scores.data());
  ae.score_windows(rows.data(), dim, window, 8, scores.data());
  ae.score_windows(rows.data(), dim, window, max_windows, scores.data());
  return g_heap_allocs.load() - before;
}

TEST(Allocation, WarmedDetectorScoringAllocatesNothing) {
  const std::size_t window = 5;
  const std::size_t dim = 12;
  detect::DetectorConfig config;
  detect::AutoencoderDetector ae(window, dim, config, {16, 8});
  detect::LstmDetector lstm(window, dim, config, 8);
  std::vector<detect::FeatureGroup> groups;
  groups.push_back({"low", {0, 1, 2, 3, 4, 5}});
  groups.push_back({"high", {6, 7, 8, 9, 10, 11}});
  detect::EnsembleDetector ensemble(window, dim, groups);

  Rng rng(75);
  const std::size_t max_windows = 16;
  std::vector<float> rows((max_windows + window) * dim);
  for (float& v : rows) v = static_cast<float>(rng.uniform(0, 1));
  std::vector<double> scores(max_windows);

  // Warm every workspace at the largest batch it will see (buffers only
  // grow, so smaller batches afterwards cannot allocate).
  ae.score_windows(rows.data(), dim, window, max_windows, scores.data());
  lstm.score_windows(rows.data(), dim, window + 1, max_windows,
                     scores.data());
  ensemble.score_windows(rows.data(), dim, window, max_windows,
                         scores.data());

  const std::uint64_t before = g_heap_allocs.load();
  ae.score_window(rows.data(), window);
  ae.score_windows(rows.data(), dim, window, 3, scores.data());
  ae.score_windows(rows.data(), dim, window, max_windows, scores.data());
  lstm.score_window(rows.data(), window + 1);
  lstm.score_windows(rows.data(), dim, window + 1, max_windows,
                     scores.data());
  ensemble.score_window(rows.data(), window);
  ensemble.score_windows(rows.data(), dim, window, max_windows,
                         scores.data());
  const std::uint64_t after = g_heap_allocs.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(real_shape_scoring_allocs(), 0u);
}

TEST(Allocation, CorpusScoringAllocatesBoundedBlocks) {
  // Calibration and Table 2 scoring stage the corpus kScoreChunk windows
  // at a time through the inference workspace, so no block grows with the
  // corpus: the largest request is one chunk's staging matrix (as large
  // as the reconstruction) or the output vector itself.
  const std::size_t window = 5;
  const std::size_t dim = 83;
  const std::size_t flat = window * dim;
  const std::size_t n = 8 * detect::kScoreChunk + 11;
  detect::AutoencoderDetector ae(window, dim, {}, {128, 32});
  Rng rng(77);
  Matrix raw(n, flat);
  for (float& v : raw.data()) v = rng.chance(0.1) ? 1.0f : 0.0f;

  g_largest_alloc.store(0);
  std::vector<double> scores = ae.window_scores(raw);
  const std::size_t largest = g_largest_alloc.load();
  ASSERT_EQ(scores.size(), n);
  const std::size_t bound = std::max(
      detect::kScoreChunk * flat * sizeof(float), n * sizeof(double));
  EXPECT_LE(largest, bound);
}

TEST(Allocation, ForgedTraceCountAllocatesBoundedBlocks) {
  // Spill files and incident reports carry a u32 entry count that a
  // forged payload can set to anything: the decoder may reserve at most
  // one entry per remaining byte, however large the claim.
  mobiflow::Trace one;
  one.add(mobiflow::Record{}, true);
  Bytes forged = one.serialize();
  for (std::size_t i = 4; i < 8; ++i) forged[i] = 0xFF;  // count field

  g_largest_alloc.store(0);
  EXPECT_FALSE(mobiflow::Trace::deserialize(forged).ok());
  EXPECT_LE(g_largest_alloc.load(),
            (forged.size() - 8) * sizeof(mobiflow::LabeledRecord));

  // The bare header (magic + count, no entries) reserves nothing at all.
  forged.resize(8);
  g_largest_alloc.store(0);
  EXPECT_FALSE(mobiflow::Trace::deserialize(forged).ok());
  EXPECT_LE(g_largest_alloc.load(), 256u);
}

TEST(Allocation, WarmedScoringOnWorkerThreadAllocatesNothing) {
  // A shard worker warms its own per-thread matmul scratch; once warmed,
  // scoring on that thread must not allocate either.
  std::uint64_t allocs = ~0ull;
  std::thread worker([&] { allocs = real_shape_scoring_allocs(); });
  worker.join();
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace xsec::dl
