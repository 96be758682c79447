#include "src/eval/discriminator.h"

#include <algorithm>
#include <vector>

#include "src/core/flavor_model.h"
#include "src/nn/activations.h"
#include "src/nn/adam.h"
#include "src/nn/losses.h"
#include "src/nn/sequence_network.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace cloudgen {
namespace {

// A labeled window of token ids.
struct Window {
  std::vector<int32_t> tokens;
  float label;  // 1 = real, 0 = generated.
};

std::vector<Window> CutWindows(const Trace& trace, size_t window, float label) {
  // History days are irrelevant here (no temporal features); use 1.
  const FlavorStream stream = BuildFlavorStream(trace, 1);
  std::vector<Window> windows;
  for (size_t start = 0; start + window <= stream.tokens.size(); start += window) {
    Window w;
    w.tokens.assign(stream.tokens.begin() + static_cast<long>(start),
                    stream.tokens.begin() + static_cast<long>(start + window));
    w.label = label;
    windows.push_back(std::move(w));
  }
  return windows;
}

}  // namespace

DiscriminatorResult DiscriminateTraces(const Trace& real, const Trace& generated,
                                       const DiscriminatorConfig& config, Rng& rng) {
  CG_CHECK(real.NumFlavors() == generated.NumFlavors());
  const size_t vocab = real.NumFlavors() + 1;  // Flavors + EOB.

  std::vector<Window> windows = CutWindows(real, config.window, 1.0f);
  std::vector<Window> fake = CutWindows(generated, config.window, 0.0f);
  // Balance the classes so 50% is the uninformed baseline.
  const size_t per_class = std::min(windows.size(), fake.size());
  windows.resize(per_class);
  fake.resize(per_class);
  windows.insert(windows.end(), fake.begin(), fake.end());
  CG_CHECK_MSG(windows.size() >= 8, "too few windows to train a discriminator");
  std::shuffle(windows.begin(), windows.end(), rng);

  const auto train_count =
      static_cast<size_t>(config.train_fraction * static_cast<double>(windows.size()));
  DiscriminatorResult result;
  result.train_windows = train_count;
  result.test_windows = windows.size() - train_count;
  CG_CHECK(result.train_windows > 0 && result.test_windows > 0);

  SequenceNetworkConfig net_config;
  net_config.input_dim = vocab;
  net_config.hidden_dim = config.hidden_dim;
  net_config.num_layers = config.num_layers;
  net_config.output_dim = 1;
  SequenceNetwork network(net_config, rng);
  Adam optimizer(network.Params(), network.Grads(),
                 AdamConfig{.learning_rate = config.learning_rate, .clip_norm = 5.0f});

  // Minibatch training: per-step logistic loss against the window label (the
  // prediction sharpens as context accumulates; per-step supervision trains
  // faster than last-step-only).
  const size_t batch = std::min(config.batch_size, result.train_windows);
  std::vector<Matrix> inputs(config.window, Matrix(batch, vocab));
  std::vector<Matrix> logits;
  std::vector<Matrix> dlogits(config.window);
  Matrix targets(batch, 1);
  Matrix mask(batch, 1, 1.0f);

  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    for (size_t begin = 0; begin + batch <= result.train_windows; begin += batch) {
      for (size_t t = 0; t < config.window; ++t) {
        inputs[t].SetZero();
        for (size_t b = 0; b < batch; ++b) {
          inputs[t](b, static_cast<size_t>(windows[begin + b].tokens[t])) = 1.0f;
        }
      }
      for (size_t b = 0; b < batch; ++b) {
        targets(b, 0) = windows[begin + b].label;
      }
      network.ZeroGrads();
      network.ForwardSequence(inputs, &logits);
      for (size_t t = 0; t < config.window; ++t) {
        MaskedBceWithLogits(logits[t], targets, mask, &dlogits[t]);
        dlogits[t].Scale(1.0f / static_cast<float>(config.window));
      }
      network.BackwardSequence(dlogits);
      optimizer.Step();
    }
  }

  // Held-out accuracy: classify each window by its final-step logit.
  size_t correct = 0;
  Matrix x(1, vocab);
  Matrix step_logits;
  StepWorkspace ws;
  for (size_t i = result.train_windows; i < windows.size(); ++i) {
    LstmState state = network.MakeState(1);
    float logit = 0.0f;
    for (size_t t = 0; t < config.window; ++t) {
      x.SetZero();
      x(0, static_cast<size_t>(windows[i].tokens[t])) = 1.0f;
      network.StepLogits(x, &state, &step_logits, &ws);
      logit = step_logits(0, 0);
    }
    const bool predicted_real = SigmoidScalar(logit) >= 0.5f;
    if (predicted_real == (windows[i].label > 0.5f)) {
      ++correct;
    }
  }
  result.accuracy = static_cast<double>(correct) / static_cast<double>(result.test_windows);
  return result;
}

}  // namespace cloudgen
