#include "src/nn/sequence_network.h"

#include <cstdint>
#include <istream>
#include <ostream>
#include <utility>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace cloudgen {

namespace {

// First u64 of a factored-head model stream. Dense files start with
// input_dim, which is a small dimension in practice; this sentinel sits far
// outside any plausible value so the two formats are distinguishable and
// dense files stay bitwise-unchanged.
constexpr uint64_t kFactoredNetMagic = 0xFAC7'0FED'0000'0001ull;

}  // namespace

SequenceNetwork::SequenceNetwork(const SequenceNetworkConfig& config, Rng& rng,
                                 FactoredVocabMap map)
    : config_(config),
      lstm_(config.input_dim, config.hidden_dim, config.num_layers, rng) {
  CG_CHECK(config.input_dim > 0 && config.output_dim > 0);
  CG_CHECK(config.hidden_dim > 0 && config.num_layers > 0);
  if (map.NumClusters() == 0 && config.factored_clusters > 0) {
    map = MakeBalancedVocabMap(config.output_dim, config.factored_clusters);
  }
  if (map.NumClusters() > 0) {
    CG_CHECK(map.NumTokens() == config.output_dim);
    fhead_ = ClassFactoredHead(config.hidden_dim, std::move(map), rng);
    // The balanced map clamps the cluster count into [1, output_dim], and an
    // explicit map brings its own; mirror it in the config so Save/Load
    // round-trips the effective value.
    config_.factored_clusters = fhead_.NumClusters();
  } else {
    head_ = Linear(config.hidden_dim, config.output_dim, rng);
  }
}

void SequenceNetwork::ForwardSequence(const std::vector<Matrix>& inputs,
                                      std::vector<Matrix>* logits) {
  CG_CHECK(logits != nullptr);
  lstm_.ForwardSequence(inputs, &cached_hidden_);
  const size_t steps = cached_hidden_.size();
  logits->resize(steps);
  for (size_t t = 0; t < steps; ++t) {
    // The backward reads each step's head input from cached_hidden_.
    if (IsFactored()) {
      fhead_.ForwardInference(cached_hidden_[t], &(*logits)[t]);
    } else {
      head_.ForwardInference(cached_hidden_[t], &(*logits)[t]);
    }
  }
}

void SequenceNetwork::BackwardSequence(const std::vector<Matrix>& dlogits) {
  const size_t steps = cached_hidden_.size();
  CG_CHECK_MSG(steps > 0, "BackwardSequence before ForwardSequence");
  CG_CHECK(dlogits.size() == steps);
  std::vector<Matrix> dhidden(steps);
  for (size_t t = 0; t < steps; ++t) {
    if (IsFactored()) {
      fhead_.Backward(cached_hidden_[t], dlogits[t], &dhidden[t]);
    } else {
      head_.Backward(cached_hidden_[t], dlogits[t], &dhidden[t]);
    }
  }
  lstm_.BackwardSequence(dhidden);
}

LstmState SequenceNetwork::MakeState(size_t batch) const { return lstm_.ZeroState(batch); }

void SequenceNetwork::StepLogits(const Matrix& x, LstmState* state, Matrix* logits,
                                 StepWorkspace* ws) const {
  CG_CHECK(logits != nullptr);
  StepRecurrent(x, state, ws);
  if (IsFactored()) {
    // Factored heads emit the concat [u | v] row — the evaluation/debug
    // view. Generation samples two levels straight from the hidden state
    // (StepRecurrent + ClassFactoredHead pieces) and never calls this.
    fhead_.ForwardInference(state->h.back(), logits);
  } else {
    head_.ForwardInference(state->h.back(), logits);
  }
}

void SequenceNetwork::StepRecurrent(const Matrix& x, LstmState* state,
                                    StepWorkspace* ws) const {
  CG_CHECK(state != nullptr && ws != nullptr);
  CG_CHECK(state->h.size() == config_.num_layers && state->c.size() == config_.num_layers);
  lstm_.StepForwardBatch(x, state, &ws->gates);
}

void SequenceNetwork::EnsureBatchStep(size_t rows, BatchStepWorkspace* ws) const {
  CG_CHECK(ws != nullptr && rows > 0);
  const size_t h4 = 4 * config_.hidden_dim;
  ws->x.EnsureShape(rows, config_.input_dim);
  ws->gates.EnsureShape(rows, h4);
  if (ws->state.h.size() != config_.num_layers) {
    ws->state = lstm_.ZeroState(rows);
  } else if (ws->state.h[0].Rows() != rows) {
    for (size_t l = 0; l < config_.num_layers; ++l) {
      ws->state.h[l].Resize(rows, config_.hidden_dim);
      ws->state.c[l].Resize(rows, config_.hidden_dim);
    }
  }
}

void SequenceNetwork::StepBatch(BatchStepWorkspace* ws) const {
  CG_CHECK(ws != nullptr);
  lstm_.StepForwardBatch(ws->x, &ws->state, &ws->gates);
  if (!IsFactored()) {
    // One GEMM over all gathered rows: the same head call as StepLogits,
    // and per-row chains do not depend on the row count.
    head_.ForwardInference(ws->state.h.back(), &ws->logits);
  }
}

std::vector<Matrix*> SequenceNetwork::Params() {
  std::vector<Matrix*> params = lstm_.Params();
  for (Matrix* p : IsFactored() ? fhead_.Params() : head_.Params()) {
    params.push_back(p);
  }
  return params;
}

std::vector<const Matrix*> SequenceNetwork::Params() const {
  std::vector<const Matrix*> params = lstm_.Params();
  for (const Matrix* p : IsFactored() ? fhead_.Params() : head_.Params()) {
    params.push_back(p);
  }
  return params;
}

std::vector<Matrix*> SequenceNetwork::Grads() {
  std::vector<Matrix*> grads = lstm_.Grads();
  for (Matrix* g : IsFactored() ? fhead_.Grads() : head_.Grads()) {
    grads.push_back(g);
  }
  return grads;
}

void SequenceNetwork::ZeroGrads() {
  lstm_.ZeroGrads();
  if (IsFactored()) {
    fhead_.ZeroGrads();
  } else {
    head_.ZeroGrads();
  }
}

size_t SequenceNetwork::NumParameters() const {
  size_t count = 0;
  for (const Matrix* p : Params()) {
    count += p->Size();
  }
  return count;
}

void SequenceNetwork::Save(std::ostream& out) const {
  if (IsFactored()) {
    // Factored files lead with a sentinel no dense file can start with
    // (dense files start with input_dim), then a 5-field header. Dense
    // files keep the original 4-field layout bitwise-unchanged.
    out.write(reinterpret_cast<const char*>(&kFactoredNetMagic),
              sizeof(kFactoredNetMagic));
    const uint64_t dims[5] = {config_.input_dim, config_.hidden_dim,
                              config_.num_layers, config_.output_dim,
                              config_.factored_clusters};
    out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
    lstm_.Save(out);
    fhead_.Save(out);
    return;
  }
  const uint64_t dims[4] = {config_.input_dim, config_.hidden_dim, config_.num_layers,
                            config_.output_dim};
  out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  lstm_.Save(out);
  head_.Save(out);
}

void SequenceNetwork::Load(std::istream& in) {
  uint64_t first = 0;
  in.read(reinterpret_cast<char*>(&first), sizeof(first));
  CG_CHECK_MSG(static_cast<bool>(in), "SequenceNetwork::Load: truncated stream");
  if (first == kFactoredNetMagic) {
    uint64_t dims[5] = {0, 0, 0, 0, 0};
    in.read(reinterpret_cast<char*>(dims), sizeof(dims));
    CG_CHECK_MSG(static_cast<bool>(in), "SequenceNetwork::Load: truncated stream");
    config_.input_dim = dims[0];
    config_.hidden_dim = dims[1];
    config_.num_layers = dims[2];
    config_.output_dim = dims[3];
    config_.factored_clusters = dims[4];
    CG_CHECK_MSG(config_.factored_clusters > 0,
                 "SequenceNetwork::Load: factored file with zero clusters");
    lstm_.Load(in);
    fhead_.Load(in);
    CG_CHECK_MSG(fhead_.NumClusters() == config_.factored_clusters &&
                     fhead_.NumTokens() == config_.output_dim,
                 "SequenceNetwork::Load: factored head/header mismatch");
    head_ = Linear();
    return;
  }
  uint64_t dims[3] = {0, 0, 0};
  in.read(reinterpret_cast<char*>(dims), sizeof(dims));
  CG_CHECK_MSG(static_cast<bool>(in), "SequenceNetwork::Load: truncated stream");
  config_.input_dim = first;
  config_.hidden_dim = dims[0];
  config_.num_layers = dims[1];
  config_.output_dim = dims[2];
  config_.factored_clusters = 0;
  lstm_.Load(in);
  head_.Load(in);
  fhead_ = ClassFactoredHead();
}

}  // namespace cloudgen
