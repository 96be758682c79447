// Tests for the neural-network substrate: activations, losses (value and
// gradient), Linear and LSTM layers (numerical gradient checks), Adam, and a
// learnability check on a toy sequence task.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/activations.h"
#include "src/nn/adam.h"
#include "src/nn/linear.h"
#include "src/nn/losses.h"
#include "src/nn/lstm.h"
#include "src/nn/sequence_network.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"

namespace cloudgen {
namespace {

constexpr float kFdEps = 1e-3f;
constexpr double kGradTol = 2e-2;  // Relative tolerance for f32 finite differences.

void ExpectClose(double analytic, double numeric, const std::string& label) {
  // f32 losses of magnitude O(1) probed with eps=1e-3 carry ~5e-5 of absolute
  // finite-difference noise; allow that floor on top of the relative band.
  const double scale = std::max(std::fabs(analytic), std::fabs(numeric));
  EXPECT_NEAR(analytic, numeric, kGradTol * scale + 1e-4) << label;
}

TEST(Activations, SigmoidStableInTails) {
  EXPECT_NEAR(SigmoidScalar(0.0f), 0.5f, 1e-7);
  EXPECT_NEAR(SigmoidScalar(100.0f), 1.0f, 1e-7);
  EXPECT_NEAR(SigmoidScalar(-100.0f), 0.0f, 1e-7);
  EXPECT_NEAR(SigmoidScalar(2.0f), 1.0f / (1.0f + std::exp(-2.0f)), 1e-6);
}

TEST(Activations, MaxShiftedExpHealthyRowSumsAndOrders) {
  const float row[4] = {1.0f, 2.0f, 0.5f, -3.0f};
  std::vector<double> weights;
  const double sum = MaxShiftedExp(row, 4, &weights);
  ASSERT_EQ(weights.size(), 4u);
  EXPECT_GT(sum, 0.0);
  EXPECT_LE(sum, 4.0);  // Every term is exp(x <= 0) so sum is in (0, n].
  EXPECT_EQ(weights[1], 1.0);  // Max element exponentiates to exactly 1.
  EXPECT_GT(weights[1], weights[0]);
  EXPECT_GT(weights[0], weights[2]);
  EXPECT_GT(weights[2], weights[3]);
}

// Regression: an all-(-inf) row used to produce weights of exp(-inf - -inf)
// = exp(NaN) = NaN, which the categorical sampler then read as "always index
// 0". The contract is now zero-fill + 0.0 sum — the degenerate signal every
// consumer (guards, samplers) already understands.
TEST(Activations, MaxShiftedExpDegenerateRowsZeroFill) {
  const float ninf = -std::numeric_limits<float>::infinity();
  const float pinf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();

  const float all_ninf[3] = {ninf, ninf, ninf};
  const float has_nan[3] = {1.0f, nan, 2.0f};
  const float has_pinf[3] = {1.0f, pinf, 2.0f};
  const float nan_wins_max[3] = {nan, nan, nan};
  for (const float* row : {all_ninf, has_nan, has_pinf, nan_wins_max}) {
    std::vector<double> weights(3, 123.0);
    EXPECT_EQ(MaxShiftedExp(row, 3, &weights), 0.0);
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(weights[c], 0.0);
    }
  }
}

// A single finite logit among -inf neighbours is a valid (deterministic)
// distribution, not a degenerate row.
TEST(Activations, MaxShiftedExpSingleFiniteLogitIsPointMass) {
  const float ninf = -std::numeric_limits<float>::infinity();
  const float row[3] = {ninf, 4.0f, ninf};
  std::vector<double> weights;
  const double sum = MaxShiftedExp(row, 3, &weights);
  EXPECT_EQ(sum, 1.0);
  EXPECT_EQ(weights[0], 0.0);
  EXPECT_EQ(weights[1], 1.0);
  EXPECT_EQ(weights[2], 0.0);
}

TEST(Losses, SoftmaxCrossEntropyValueAndGradient) {
  Matrix logits(1, 3);
  logits(0, 0) = 1.0f;
  logits(0, 1) = 2.0f;
  logits(0, 2) = 0.5f;
  Matrix dlogits;
  const double loss = SoftmaxCrossEntropy(logits, {1}, &dlogits);
  // Hand-computed: log-sum-exp(1,2,0.5) - 2.
  const double lse = std::log(std::exp(1.0) + std::exp(2.0) + std::exp(0.5));
  EXPECT_NEAR(loss, lse - 2.0, 1e-5);

  // Finite-difference gradient.
  for (size_t c = 0; c < 3; ++c) {
    Matrix bumped = logits;
    bumped(0, c) += kFdEps;
    Matrix unused;
    const double loss_plus = SoftmaxCrossEntropy(bumped, {1}, &unused);
    bumped(0, c) -= 2 * kFdEps;
    const double loss_minus = SoftmaxCrossEntropy(bumped, {1}, &unused);
    const double numeric = (loss_plus - loss_minus) / (2 * kFdEps);
    ExpectClose(dlogits(0, c), numeric, "softmax grad " + std::to_string(c));
  }
}

TEST(Losses, SoftmaxCrossEntropyIgnoresMaskedRows) {
  Matrix logits(2, 3, 1.0f);
  logits(1, 0) = 9.0f;
  Matrix dlogits;
  const double loss = SoftmaxCrossEntropy(logits, {kIgnoreTarget, 0}, &dlogits);
  // Only row 1 counts.
  EXPECT_GT(loss, 0.0);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(dlogits(0, c), 0.0f);
  }
}

TEST(Losses, MaskedBceMatchesHandComputed) {
  Matrix logits(1, 3);
  logits(0, 0) = 0.0f;   // h = 0.5
  logits(0, 1) = 1.0f;   // h = sigmoid(1)
  logits(0, 2) = -2.0f;  // Masked out.
  Matrix targets(1, 3);
  targets(0, 0) = 0.0f;
  targets(0, 1) = 1.0f;
  Matrix mask(1, 3, 1.0f);
  mask(0, 2) = 0.0f;
  Matrix dlogits;
  const double loss = MaskedBceWithLogits(logits, targets, mask, &dlogits);
  const double h1 = 1.0 / (1.0 + std::exp(-1.0));
  const double expected = (-std::log(0.5) - std::log(h1)) / 2.0;
  EXPECT_NEAR(loss, expected, 1e-6);
  EXPECT_FLOAT_EQ(dlogits(0, 2), 0.0f);

  // Gradient of the unmasked entries by finite differences.
  for (size_t c = 0; c < 2; ++c) {
    Matrix bumped = logits;
    Matrix unused;
    bumped(0, c) += kFdEps;
    const double lp = MaskedBceWithLogits(bumped, targets, mask, &unused);
    bumped(0, c) -= 2 * kFdEps;
    const double lm = MaskedBceWithLogits(bumped, targets, mask, &unused);
    ExpectClose(dlogits(0, c), (lp - lm) / (2 * kFdEps), "bce grad " + std::to_string(c));
  }
}

TEST(Losses, CensoredSoftmaxCeUncensoredMatchesPlainCe) {
  Matrix logits(1, 4);
  logits(0, 0) = 0.3f;
  logits(0, 1) = -1.0f;
  logits(0, 2) = 2.0f;
  logits(0, 3) = 0.0f;
  Matrix d1;
  Matrix d2;
  const double plain = SoftmaxCrossEntropy(logits, {2}, &d1);
  const double censoring_aware = CensoredSoftmaxCrossEntropy(logits, {2}, {0}, &d2);
  EXPECT_NEAR(plain, censoring_aware, 1e-9);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(d1(0, c), d2(0, c), 1e-6);
  }
}

TEST(Losses, CensoredSoftmaxCeTailValueAndGradient) {
  Matrix logits(1, 3);
  logits(0, 0) = 1.0f;
  logits(0, 1) = 0.0f;
  logits(0, 2) = -0.5f;
  Matrix dlogits;
  // Censored in bin 1: loss = -log(p1 + p2).
  const double loss = CensoredSoftmaxCrossEntropy(logits, {1}, {1}, &dlogits);
  const double z = std::exp(1.0) + std::exp(0.0) + std::exp(-0.5);
  const double tail = (std::exp(0.0) + std::exp(-0.5)) / z;
  EXPECT_NEAR(loss, -std::log(tail), 1e-6);
  // Finite differences.
  for (size_t c = 0; c < 3; ++c) {
    Matrix bumped = logits;
    Matrix unused;
    bumped(0, c) += kFdEps;
    const double lp = CensoredSoftmaxCrossEntropy(bumped, {1}, {1}, &unused);
    bumped(0, c) -= 2 * kFdEps;
    const double lm = CensoredSoftmaxCrossEntropy(bumped, {1}, {1}, &unused);
    ExpectClose(dlogits(0, c), (lp - lm) / (2 * kFdEps),
                "censored ce grad " + std::to_string(c));
  }
}

TEST(Losses, CensoredSoftmaxCeCensoredInBinZeroIsFree) {
  // Censored in bin 0: the tail is the whole distribution → loss 0, zero grad.
  Matrix logits(1, 3, 0.5f);
  Matrix dlogits;
  const double loss = CensoredSoftmaxCrossEntropy(logits, {0}, {1}, &dlogits);
  EXPECT_NEAR(loss, 0.0, 1e-9);
  EXPECT_NEAR(dlogits.SquaredNorm(), 0.0, 1e-12);
}

TEST(Losses, MaskedBceEmptyMaskIsZero) {
  Matrix logits(2, 2, 1.0f);
  Matrix targets(2, 2);
  Matrix mask(2, 2);  // All zero.
  Matrix dlogits;
  EXPECT_DOUBLE_EQ(MaskedBceWithLogits(logits, targets, mask, &dlogits), 0.0);
  EXPECT_DOUBLE_EQ(dlogits.SquaredNorm(), 0.0);
}

TEST(Linear, GradientCheck) {
  Rng rng(1);
  Linear layer(3, 2, rng);
  Matrix x(2, 3);
  x.RandomUniform(rng, 1.0f);
  // Scalar loss: sum of squared outputs / 2 → dY = Y.
  auto loss_fn = [&](Linear& l) {
    Matrix y;
    l.ForwardInference(x, &y);
    return 0.5 * y.SquaredNorm();
  };
  Matrix y;
  layer.ForwardInference(x, &y);
  Matrix dx;
  layer.Backward(x, y, &dx);

  auto params = layer.Params();
  auto grads = layer.Grads();
  for (size_t p = 0; p < params.size(); ++p) {
    for (size_t i = 0; i < params[p]->Size(); ++i) {
      float& w = params[p]->Data()[i];
      const float orig = w;
      w = orig + kFdEps;
      const double lp = loss_fn(layer);
      w = orig - kFdEps;
      const double lm = loss_fn(layer);
      w = orig;
      ExpectClose(grads[p]->Data()[i], (lp - lm) / (2 * kFdEps),
                  "linear param " + std::to_string(p) + "/" + std::to_string(i));
    }
  }
  // Input gradient.
  for (size_t i = 0; i < x.Size(); ++i) {
    const float orig = x.Data()[i];
    x.Data()[i] = orig + kFdEps;
    const double lp = loss_fn(layer);
    x.Data()[i] = orig - kFdEps;
    const double lm = loss_fn(layer);
    x.Data()[i] = orig;
    ExpectClose(dx.Data()[i], (lp - lm) / (2 * kFdEps), "linear dx " + std::to_string(i));
  }
}

// Full BPTT gradient check for a single LSTM layer on a short sequence. The
// scalar loss is sum_t dot(w_t, h_t) with fixed random weights, so the
// per-step output gradients are exactly w_t.
TEST(LstmLayer, BpttGradientCheck) {
  Rng rng(2);
  const size_t in_dim = 3;
  const size_t hidden = 4;
  const size_t steps = 3;
  const size_t batch = 2;
  LstmLayer layer(in_dim, hidden, rng);

  std::vector<Matrix> inputs(steps);
  std::vector<Matrix> loss_weights(steps);
  for (size_t t = 0; t < steps; ++t) {
    inputs[t].Resize(batch, in_dim);
    inputs[t].RandomUniform(rng, 1.0f);
    loss_weights[t].Resize(batch, hidden);
    loss_weights[t].RandomUniform(rng, 1.0f);
  }

  auto loss_fn = [&](LstmLayer& l) {
    std::vector<Matrix> outputs;
    l.ForwardSequence(inputs, &outputs);
    double loss = 0.0;
    for (size_t t = 0; t < steps; ++t) {
      for (size_t i = 0; i < outputs[t].Size(); ++i) {
        loss += static_cast<double>(outputs[t].Data()[i]) * loss_weights[t].Data()[i];
      }
    }
    return loss;
  };

  std::vector<Matrix> outputs;
  layer.ForwardSequence(inputs, &outputs);
  layer.ZeroGrads();
  std::vector<Matrix> dinputs;
  layer.BackwardSequence(loss_weights, &dinputs);

  auto params = layer.Params();
  auto grads = layer.Grads();
  for (size_t p = 0; p < params.size(); ++p) {
    for (size_t i = 0; i < params[p]->Size(); ++i) {
      float& w = params[p]->Data()[i];
      const float orig = w;
      w = orig + kFdEps;
      const double lp = loss_fn(layer);
      w = orig - kFdEps;
      const double lm = loss_fn(layer);
      w = orig;
      ExpectClose(grads[p]->Data()[i], (lp - lm) / (2 * kFdEps),
                  "lstm param " + std::to_string(p) + "/" + std::to_string(i));
    }
  }
  // Input gradients.
  for (size_t t = 0; t < steps; ++t) {
    for (size_t i = 0; i < inputs[t].Size(); ++i) {
      const float orig = inputs[t].Data()[i];
      inputs[t].Data()[i] = orig + kFdEps;
      const double lp = loss_fn(layer);
      inputs[t].Data()[i] = orig - kFdEps;
      const double lm = loss_fn(layer);
      inputs[t].Data()[i] = orig;
      ExpectClose(dinputs[t].Data()[i], (lp - lm) / (2 * kFdEps),
                  "lstm dx t" + std::to_string(t) + "/" + std::to_string(i));
    }
  }
}

// End-to-end gradient check through a 2-layer SequenceNetwork with the
// softmax cross-entropy loss — the exact training configuration.
TEST(SequenceNetwork, EndToEndGradientCheck) {
  Rng rng(3);
  SequenceNetworkConfig config;
  config.input_dim = 3;
  config.hidden_dim = 4;
  config.num_layers = 2;
  config.output_dim = 3;
  SequenceNetwork network(config, rng);

  const size_t steps = 3;
  const size_t batch = 2;
  std::vector<Matrix> inputs(steps);
  std::vector<std::vector<int32_t>> targets(steps, std::vector<int32_t>(batch));
  for (size_t t = 0; t < steps; ++t) {
    inputs[t].Resize(batch, config.input_dim);
    inputs[t].RandomUniform(rng, 1.0f);
    for (size_t b = 0; b < batch; ++b) {
      targets[t][b] = static_cast<int32_t>(rng.UniformInt(3));
    }
  }

  auto loss_fn = [&](SequenceNetwork& net) {
    std::vector<Matrix> logits;
    net.ForwardSequence(inputs, &logits);
    double loss = 0.0;
    Matrix unused;
    for (size_t t = 0; t < steps; ++t) {
      loss += SoftmaxCrossEntropy(logits[t], targets[t], &unused);
    }
    return loss;
  };

  std::vector<Matrix> logits;
  network.ForwardSequence(inputs, &logits);
  network.ZeroGrads();
  std::vector<Matrix> dlogits(steps);
  for (size_t t = 0; t < steps; ++t) {
    SoftmaxCrossEntropy(logits[t], targets[t], &dlogits[t]);
  }
  network.BackwardSequence(dlogits);

  auto params = network.Params();
  auto grads = network.Grads();
  // Spot-check a subset of parameters from every tensor.
  for (size_t p = 0; p < params.size(); ++p) {
    const size_t stride = std::max<size_t>(1, params[p]->Size() / 7);
    for (size_t i = 0; i < params[p]->Size(); i += stride) {
      float& w = params[p]->Data()[i];
      const float orig = w;
      w = orig + kFdEps;
      const double lp = loss_fn(network);
      w = orig - kFdEps;
      const double lm = loss_fn(network);
      w = orig;
      ExpectClose(grads[p]->Data()[i], (lp - lm) / (2 * kFdEps),
                  "net param " + std::to_string(p) + "/" + std::to_string(i));
    }
  }
}

// A generation step is the training forward: both run the one LSTM step and
// the same head call, so the comparisons below use memcmp on the raw float
// storage rather than EXPECT_FLOAT_EQ (which would treat -0.0f and +0.0f as
// equal).
bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.Rows() == b.Rows() && a.Cols() == b.Cols() &&
         std::memcmp(a.Data(), b.Data(), a.Size() * sizeof(float)) == 0;
}

TEST(SequenceNetwork, StepForwardMatchesSequenceForward) {
  Rng rng(4);
  SequenceNetworkConfig config;
  config.input_dim = 5;
  config.hidden_dim = 6;
  config.num_layers = 2;
  config.output_dim = 4;
  SequenceNetwork network(config, rng);

  const size_t steps = 4;
  std::vector<Matrix> inputs(steps);
  for (auto& m : inputs) {
    m.Resize(1, config.input_dim);
    m.RandomUniform(rng, 1.0f);
  }
  std::vector<Matrix> seq_logits;
  network.ForwardSequence(inputs, &seq_logits);

  LstmState state = network.MakeState(1);
  StepWorkspace ws;
  for (size_t t = 0; t < steps; ++t) {
    Matrix step_logits;
    network.StepLogits(inputs[t], &state, &step_logits, &ws);
    EXPECT_TRUE(BitwiseEqual(step_logits, seq_logits[t])) << "t=" << t;
  }
}

// A 3-sequence minibatch: row r of every StepBatch tick equals row r of the
// training forward at that timestep, bit for bit, for a dense head and for a
// factored one (whose StepBatch stops at the hidden state, so the test
// applies the head to the stepped rows itself).
TEST(SequenceNetwork, StepBatchRowsMatchSequenceForwardMinibatch) {
  for (const size_t clusters : {size_t{0}, size_t{3}}) {
    SCOPED_TRACE(clusters > 0 ? "factored" : "dense");
    Rng rng(13);
    SequenceNetworkConfig config;
    config.input_dim = 7;
    config.hidden_dim = 9;
    config.num_layers = 2;
    config.output_dim = 11;
    config.factored_clusters = clusters;
    SequenceNetwork network(config, rng);

    const size_t steps = 5;
    const size_t batch = 3;
    std::vector<Matrix> inputs(steps);
    for (auto& m : inputs) {
      m.Resize(batch, config.input_dim);
      m.RandomUniform(rng, 2.0f);
    }
    std::vector<Matrix> seq_logits;
    network.ForwardSequence(inputs, &seq_logits);

    BatchStepWorkspace ws;
    network.EnsureBatchStep(batch, &ws);
    Matrix logits;
    for (size_t t = 0; t < steps; ++t) {
      ws.x = inputs[t];
      network.StepBatch(&ws);
      if (network.IsFactored()) {
        network.FactoredHead().ForwardInference(ws.state.h.back(), &logits);
      } else {
        logits = ws.logits;
      }
      ASSERT_EQ(logits.Rows(), batch);
      ASSERT_EQ(logits.Cols(), seq_logits[t].Cols());
      for (size_t r = 0; r < batch; ++r) {
        EXPECT_EQ(std::memcmp(logits.Row(r), seq_logits[t].Row(r),
                              logits.Cols() * sizeof(float)),
                  0)
            << "t=" << t << " row " << r;
      }
    }
  }
}

TEST(SequenceNetwork, SaveLoadRoundTrip) {
  Rng rng(5);
  SequenceNetworkConfig config;
  config.input_dim = 4;
  config.hidden_dim = 5;
  config.num_layers = 2;
  config.output_dim = 3;
  SequenceNetwork network(config, rng);

  std::stringstream stream;
  network.Save(stream);
  SequenceNetwork loaded;
  loaded.Load(stream);
  EXPECT_EQ(loaded.Config().input_dim, config.input_dim);
  EXPECT_EQ(loaded.NumParameters(), network.NumParameters());

  Matrix x(1, 4);
  x.RandomUniform(rng, 1.0f);
  LstmState s1 = network.MakeState(1);
  LstmState s2 = loaded.MakeState(1);
  StepWorkspace ws;
  Matrix y1;
  Matrix y2;
  network.StepLogits(x, &s1, &y1, &ws);
  loaded.StepLogits(x, &s2, &y2, &ws);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(y1(0, c), y2(0, c));
  }
}

TEST(SequenceNetwork, WorkspaceRouteSeesWeightsWrittenThroughParams) {
  Rng rng(10);
  SequenceNetworkConfig config;
  config.input_dim = 5;
  config.hidden_dim = 8;
  config.num_layers = 2;
  config.output_dim = 4;
  SequenceNetwork network(config, rng);
  StepWorkspace ws;
  Matrix x(1, config.input_dim);
  x.RandomUniform(rng, 1.0f);
  Matrix before_logits;
  LstmState before_state = network.MakeState(1);
  network.StepLogits(x, &before_state, &before_logits, &ws);

  // A caller may write through the returned pointers at any time; the next
  // step must see the new weight, bitwise equal to the training forward.
  network.Params()[0]->Data()[0] += 0.25f;
  const std::vector<Matrix> inputs = {x};
  std::vector<Matrix> seq_logits;
  network.ForwardSequence(inputs, &seq_logits);
  LstmState ws_state = network.MakeState(1);
  Matrix ws_logits;
  network.StepLogits(x, &ws_state, &ws_logits, &ws);
  EXPECT_FALSE(BitwiseEqual(before_logits, ws_logits)) << "weight write not seen";
  EXPECT_TRUE(BitwiseEqual(seq_logits[0], ws_logits));
}

TEST(SequenceNetwork, LoadedNetworkWorkspaceRouteMatchesOriginal) {
  Rng rng(11);
  SequenceNetworkConfig config;
  config.input_dim = 4;
  config.hidden_dim = 6;
  config.num_layers = 2;
  config.output_dim = 5;
  SequenceNetwork network(config, rng);

  std::stringstream stream;
  network.Save(stream);
  SequenceNetwork loaded;
  loaded.Load(stream);

  Matrix x(1, config.input_dim);
  x.RandomUniform(rng, 1.0f);
  LstmState ref_state = network.MakeState(1);
  LstmState loaded_state = loaded.MakeState(1);
  StepWorkspace ref_ws;
  StepWorkspace ws;
  Matrix ref_logits;
  Matrix loaded_logits;
  network.StepLogits(x, &ref_state, &ref_logits, &ref_ws);
  loaded.StepLogits(x, &loaded_state, &loaded_logits, &ws);
  EXPECT_TRUE(BitwiseEqual(ref_logits, loaded_logits));
}

// ForwardSequence keeps a *view* of the caller's inputs instead of deep
// copies; backprop through that view must be deterministic — two identical
// forward+backward passes produce bitwise-identical gradients.
TEST(LstmLayer, CachedInputViewGradientsAreBitwiseDeterministic) {
  Rng rng(12);
  const size_t in_dim = 5;
  const size_t hidden = 7;
  const size_t steps = 4;
  const size_t batch = 3;
  LstmLayer layer(in_dim, hidden, rng);

  std::vector<Matrix> inputs(steps);
  std::vector<Matrix> doutputs(steps);
  for (size_t t = 0; t < steps; ++t) {
    inputs[t].Resize(batch, in_dim);
    inputs[t].RandomUniform(rng, 1.0f);
    doutputs[t].Resize(batch, hidden);
    doutputs[t].RandomUniform(rng, 1.0f);
  }

  auto run = [&](std::vector<Matrix>* grads_out, std::vector<Matrix>* dinputs) {
    std::vector<Matrix> outputs;
    layer.ForwardSequence(inputs, &outputs);
    layer.ZeroGrads();
    layer.BackwardSequence(doutputs, dinputs);
    grads_out->clear();
    for (const Matrix* g : layer.Grads()) {
      grads_out->push_back(*g);
    }
  };

  std::vector<Matrix> grads1;
  std::vector<Matrix> grads2;
  std::vector<Matrix> dinputs1;
  std::vector<Matrix> dinputs2;
  run(&grads1, &dinputs1);
  run(&grads2, &dinputs2);
  ASSERT_EQ(grads1.size(), grads2.size());
  for (size_t i = 0; i < grads1.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(grads1[i], grads2[i])) << "grad " << i;
  }
  ASSERT_EQ(dinputs1.size(), dinputs2.size());
  for (size_t t = 0; t < dinputs1.size(); ++t) {
    EXPECT_TRUE(BitwiseEqual(dinputs1[t], dinputs2[t])) << "dinput " << t;
  }
}

// The gate activation the LSTM step ran before it became contiguous passes
// over a vector tanh, kept verbatim: one scalar loop, libm tanh, SigmoidScalar
// and f*cp + i*g. The step must still reproduce it bit for bit, at many rows
// and at one.
void ScalarGatesRow(const float* bias, const float* cp, float* g, float* h_row,
                    float* c_row, size_t hidden) {
  for (size_t j = 0; j < hidden; ++j) {
    const float i_gate = SigmoidScalar(g[j] + bias[j]);
    const float f_gate = SigmoidScalar(g[hidden + j] + bias[hidden + j]);
    const float g_gate = std::tanh(g[2 * hidden + j] + bias[2 * hidden + j]);
    const float o_gate = SigmoidScalar(g[3 * hidden + j] + bias[3 * hidden + j]);
    const float c_val = f_gate * cp[j] + i_gate * g_gate;
    g[j] = i_gate;
    g[hidden + j] = f_gate;
    g[2 * hidden + j] = g_gate;
    g[3 * hidden + j] = o_gate;
    c_row[j] = c_val;
    h_row[j] = o_gate * std::tanh(c_val);
  }
}

// One value from each class of tanhf's input: +-0; |x| < 2^-55, subnormals
// included; the expm1f range below and above 1, with its edges; |x| >= 22.
constexpr float kTanhClasses[] = {0.0f,  -0.0f, 0x1p-60f, -0x1p-56f, 1e-40f, -1e-45f,
                                  0x1p-55f, 0.3f,  -0.7f,    1.0f,     -1.0f,  3.5f,
                                  -9.0f,   21.99f, 22.0f,    -22.0f,   40.0f,  -1e5f};
constexpr size_t kNumTanhClasses = sizeof(kTanhClasses) / sizeof(kTanhClasses[0]);
constexpr size_t kGateHiddenSizes[] = {1, 5, 16, 17, 24, 64};

// A layer whose gate pre-activations are its input: in_dim = 4H, wx = I,
// wh = 0, and a bias that is zero except on the o gates.
LstmLayer PassThroughLayer(size_t hidden) {
  Rng rng(31);
  LstmLayer layer(4 * hidden, hidden, rng);
  std::vector<Matrix*> params = layer.Params();
  params[0]->SetZero();
  for (size_t j = 0; j < 4 * hidden; ++j) {
    (*params[0])(j, j) = 1.0f;
  }
  params[1]->SetZero();
  params[2]->SetZero();
  for (size_t j = 3 * hidden; j < 4 * hidden; ++j) {
    (*params[2])(0, j) = (j % 2 == 0) ? 0.5f : 0.0f;
  }
  return layer;
}

TEST(LstmLayer, GatePassesMatchScalarLoopOnEveryRoute) {
  for (const size_t hidden : kGateHiddenSizes) {
    SCOPED_TRACE("hidden " + std::to_string(hidden));
    const size_t rows = kNumTanhClasses + 3;
    const LstmLayer layer = PassThroughLayer(hidden);
    Rng rng(32);
    // Even (r + j): i = 0 and f = 1, so c = cp carries cp's class into the
    // c kernel; odd: i, f random. The g pre-activation cycles the classes.
    Matrix x(rows, 4 * hidden);
    Matrix h_prev(rows, hidden);
    Matrix c_prev(rows, hidden);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < hidden; ++j) {
        const bool pass_cp = (r + j) % 2 == 0;
        x(r, j) = pass_cp ? -200.0f : static_cast<float>(rng.Normal(0.0, 2.0));
        x(r, hidden + j) = pass_cp ? 30.0f : static_cast<float>(rng.Normal(0.0, 2.0));
        x(r, 2 * hidden + j) = kTanhClasses[(r + j) % kNumTanhClasses];
        x(r, 3 * hidden + j) = static_cast<float>(rng.Normal(0.0, 2.0));
        h_prev(r, j) = static_cast<float>(rng.Normal(0.0, 1.0));
        c_prev(r, j) = kTanhClasses[(r + 2 * j + 5) % kNumTanhClasses];
      }
    }

    // The reference: the step's two GEMMs, then the scalar loop per row.
    const std::vector<const Matrix*> params = layer.Params();
    Matrix gates_ref(rows, 4 * hidden);
    Gemm(false, false, 1.0f, x, *params[0], 0.0f, &gates_ref);
    Gemm(false, false, 1.0f, h_prev, *params[1], 1.0f, &gates_ref);
    Matrix h_ref(rows, hidden);
    Matrix c_ref(rows, hidden);
    for (size_t r = 0; r < rows; ++r) {
      ScalarGatesRow(params[2]->Row(0), c_prev.Row(r), gates_ref.Row(r), h_ref.Row(r),
                     c_ref.Row(r), hidden);
    }

    // The step updates h and c in place: cp is c_row.
    Matrix h = h_prev;
    Matrix c = c_prev;
    Matrix gates;
    layer.StepForwardBatch(x, &h, &c, &gates);
    EXPECT_TRUE(BitwiseEqual(h, h_ref)) << "StepForwardBatch h";
    EXPECT_TRUE(BitwiseEqual(c, c_ref)) << "StepForwardBatch c";
    EXPECT_TRUE(BitwiseEqual(gates, gates_ref)) << "StepForwardBatch gates";

    // One row at a time through a one-layer network carrying the same
    // weights: the step generation runs at batch 1.
    SequenceNetworkConfig config;
    config.input_dim = 4 * hidden;
    config.hidden_dim = hidden;
    config.num_layers = 1;
    config.output_dim = 3;
    SequenceNetwork network(config, rng);
    for (size_t p = 0; p < 3; ++p) {
      *network.Params()[p] = *params[p];
    }
    StepWorkspace ws;
    Matrix x_row(1, 4 * hidden);
    Matrix logits;
    for (size_t r = 0; r < rows; ++r) {
      LstmState state = network.MakeState(1);
      std::copy(h_prev.Row(r), h_prev.Row(r) + hidden, state.h[0].Row(0));
      std::copy(c_prev.Row(r), c_prev.Row(r) + hidden, state.c[0].Row(0));
      std::copy(x.Row(r), x.Row(r) + 4 * hidden, x_row.Row(0));
      network.StepLogits(x_row, &state, &logits, &ws);
      const float* want_gates = gates_ref.Row(r);
      EXPECT_EQ(std::memcmp(state.h[0].Row(0), h_ref.Row(r), hidden * sizeof(float)), 0)
          << "StepLogits h, row " << r;
      EXPECT_EQ(std::memcmp(state.c[0].Row(0), c_ref.Row(r), hidden * sizeof(float)), 0)
          << "StepLogits c, row " << r;
      EXPECT_EQ(std::memcmp(ws.gates.Row(0), want_gates, 4 * hidden * sizeof(float)), 0)
          << "StepLogits gates, row " << r;
    }
  }
}

// Training's forward pass caches tanh(c_t) for BPTT. With i = f = 1 and
// o = 1/2 every c grows by its g each step, so after 30 steps the cells span
// tanh's classes; the o-gate bias gradient of a unit loss on the last output
// reads the cached tanh(c) back exactly: (1 * tanh(c)) * 1/2 * 1/2.
TEST(LstmLayer, ForwardSequenceCachedTanhMatchesScalarLoop) {
  constexpr size_t kSteps = 30;
  for (const size_t hidden : kGateHiddenSizes) {
    SCOPED_TRACE("hidden " + std::to_string(hidden));
    LstmLayer layer = PassThroughLayer(hidden);
    (*layer.Params()[2]).SetZero();
    for (size_t shift = 0; shift < kNumTanhClasses; ++shift) {
      std::vector<Matrix> inputs(kSteps, Matrix(1, 4 * hidden));
      for (Matrix& x : inputs) {
        for (size_t j = 0; j < hidden; ++j) {
          x(0, j) = 30.0f;
          x(0, hidden + j) = 30.0f;
          x(0, 2 * hidden + j) = kTanhClasses[(shift + j) % kNumTanhClasses];
        }
      }
      std::vector<Matrix> outputs;
      layer.ForwardSequence(inputs, &outputs);

      const std::vector<Matrix*> params = layer.Params();
      Matrix h_ref(1, hidden);
      Matrix c_ref(1, hidden);
      Matrix gates_ref;
      for (size_t t = 0; t < kSteps; ++t) {
        gates_ref.Resize(1, 4 * hidden);
        Gemm(false, false, 1.0f, inputs[t], *params[0], 0.0f, &gates_ref);
        Gemm(false, false, 1.0f, h_ref, *params[1], 1.0f, &gates_ref);
        ScalarGatesRow(params[2]->Row(0), c_ref.Row(0), gates_ref.Row(0), h_ref.Row(0),
                       c_ref.Row(0), hidden);
        ASSERT_TRUE(BitwiseEqual(outputs[t], h_ref)) << "h at step " << t;
      }

      std::vector<Matrix> doutputs(kSteps, Matrix(1, hidden));
      doutputs.back().Fill(1.0f);
      layer.ZeroGrads();
      layer.BackwardSequence(doutputs, nullptr);
      const Matrix& grad_b = *layer.Grads()[2];
      for (size_t j = 0; j < hidden; ++j) {
        const float o_gate = gates_ref(0, 3 * hidden + j);
        const float want =
            0.0f + (1.0f * std::tanh(c_ref(0, j))) * o_gate * (1.0f - o_gate);
        const float got = grad_b(0, 3 * hidden + j);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
            << "cached tanh(" << c_ref(0, j) << "), unit " << j;
      }
    }
  }
}

TEST(Adam, MinimizesQuadratic) {
  // One 1x1 parameter, loss (w-3)^2; gradient supplied manually.
  Matrix w(1, 1);
  Matrix g(1, 1);
  AdamConfig config;
  config.learning_rate = 0.1f;
  Adam adam({&w}, {&g}, config);
  for (int i = 0; i < 500; ++i) {
    g(0, 0) = 2.0f * (w(0, 0) - 3.0f);
    adam.Step();
  }
  EXPECT_NEAR(w(0, 0), 3.0f, 0.05f);
}

TEST(Adam, WeightDecayShrinksWeights) {
  Matrix w(1, 1, 10.0f);
  Matrix g(1, 1);  // Zero data gradient; only decay acts.
  AdamConfig config;
  config.learning_rate = 0.05f;
  config.weight_decay = 0.1f;
  Adam adam({&w}, {&g}, config);
  for (int i = 0; i < 200; ++i) {
    g.SetZero();
    adam.Step();
  }
  EXPECT_LT(std::fabs(w(0, 0)), 5.0f);
}

TEST(Adam, ClipNormCapsGradient) {
  Matrix w(1, 2);
  Matrix g(1, 2);
  AdamConfig config;
  config.clip_norm = 1.0f;
  Adam adam({&w}, {&g}, config);
  g(0, 0) = 30.0f;
  g(0, 1) = 40.0f;  // Norm 50.
  adam.Step();
  EXPECT_NEAR(adam.LastGradNorm(), 50.0, 1e-3);
  // After clipping the applied gradient had norm 1; check g was scaled.
  const double norm = std::sqrt(g.SquaredNorm());
  EXPECT_NEAR(norm, 1.0, 1e-4);
}

// Learnability: a 1-layer network must learn a deterministic cyclic sequence
// (predict next token of 0,1,2,0,1,2,...) to near-zero loss.
TEST(SequenceNetwork, LearnsCyclicToyTask) {
  Rng rng(6);
  SequenceNetworkConfig config;
  config.input_dim = 3;
  config.hidden_dim = 16;
  config.num_layers = 1;
  config.output_dim = 3;
  SequenceNetwork network(config, rng);
  Adam adam(network.Params(), network.Grads(), AdamConfig{.learning_rate = 1e-2f});

  const size_t steps = 12;
  const size_t batch = 4;
  std::vector<Matrix> inputs(steps);
  std::vector<std::vector<int32_t>> targets(steps, std::vector<int32_t>(batch));
  for (size_t t = 0; t < steps; ++t) {
    inputs[t].Resize(batch, 3);
    for (size_t b = 0; b < batch; ++b) {
      const int32_t current = static_cast<int32_t>((t + b) % 3);
      inputs[t](b, static_cast<size_t>(current)) = 1.0f;
      targets[t][b] = (current + 1) % 3;
    }
  }

  double last_loss = 0.0;
  std::vector<Matrix> logits;
  std::vector<Matrix> dlogits(steps);
  for (int iter = 0; iter < 300; ++iter) {
    network.ZeroGrads();
    network.ForwardSequence(inputs, &logits);
    last_loss = 0.0;
    for (size_t t = 0; t < steps; ++t) {
      last_loss += SoftmaxCrossEntropy(logits[t], targets[t], &dlogits[t]);
    }
    last_loss /= static_cast<double>(steps);
    network.BackwardSequence(dlogits);
    adam.Step();
  }
  EXPECT_LT(last_loss, 0.05) << "network failed to learn a trivial cycle";
}

}  // namespace
}  // namespace cloudgen
