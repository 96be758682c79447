// SequenceNetwork — a stacked LSTM with a linear output head. Both paper
// models are instances of this network; they differ only in input encoding
// and loss:
//  * flavor model:   logits → softmax over K flavors + EOB   (§2.2)
//  * lifetime model: logits → J per-bin hazard logits        (§2.3)
#ifndef SRC_NN_SEQUENCE_NETWORK_H_
#define SRC_NN_SEQUENCE_NETWORK_H_

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "src/nn/factored_softmax.h"
#include "src/nn/linear.h"
#include "src/nn/lstm.h"
#include "src/tensor/matrix.h"

namespace cloudgen {

class Rng;

struct SequenceNetworkConfig {
  size_t input_dim = 0;
  size_t hidden_dim = 64;
  size_t num_layers = 2;
  size_t output_dim = 0;
  // > 0 swaps the dense output head for a class-factored two-level softmax
  // with this many balanced clusters over output_dim tokens (lamtram's
  // SoftmaxClass; see src/nn/factored_softmax.h). Changes the logits shape:
  // ForwardSequence/StepLogits emit the concat [u | v] of width
  // factored_clusters + output_dim, paired with FactoredSoftmaxCrossEntropy;
  // generation samples two levels without materializing the concat. 0 keeps
  // the dense head (the bitwise oracle path) byte-for-byte.
  size_t factored_clusters = 0;
};

// Preallocated scratch for the one-stream step (StepLogits/StepRecurrent).
// Every caller declares one: a generator owns one for its lifetime, and an
// evaluation loop one per pass (not shared across threads). Buffers grow on
// first use and are reused for every subsequent token, so the steady state
// performs no heap allocation per step.
struct StepWorkspace {
  Matrix gates;  // (1, 4*hidden): [i|f|g|o] gate pre/post-activations.
  // Sampling-side buffers owned here so model generators stay allocation-free
  // too (softmax probabilities, hazard/PMF conversions).
  std::vector<double> probs;
  std::vector<double> scratch;
  // Float logits/accumulator scratch for a factored head's cluster and
  // member-slice GEMVs, and its cluster-weight vector; the lifetime model's
  // dense hazard head runs its sigmoids in flogits.
  std::vector<float> flogits;
  std::vector<float> facc;
  std::vector<double> cweights;
};

// Preallocated scratch for the batched multi-stream generation step: the
// driver gathers each active stream's encoded input and per-layer h/c rows
// into these matrices, runs one StepBatch, and scatters the state (and, for
// dense heads, the logits row) back to the stream. Buffers are shaped per
// tick but vector capacity only grows, so once the high-water batch size has
// been seen the step performs no heap allocation per token (same discipline
// as StepWorkspace; enforced by alloc_test).
struct BatchStepWorkspace {
  Matrix x;         // (B, input_dim): gathered step inputs.
  Matrix gates;     // (B, 4*hidden): shared gate scratch.
  Matrix logits;    // (B, output_dim): batched dense-head outputs.
  LstmState state;  // Per-layer (B, hidden) gathered h/c.
};

class SequenceNetwork {
 public:
  SequenceNetwork() = default;
  // A non-empty `map` (over output_dim tokens) lays out a class-factored head
  // and overrides config.factored_clusters; an empty one keeps the config's
  // head: dense at 0, else MakeBalancedVocabMap's balanced clusters.
  SequenceNetwork(const SequenceNetworkConfig& config, Rng& rng, FactoredVocabMap map = {});

  const SequenceNetworkConfig& Config() const { return config_; }

  // Training forward over a minibatch of sequences. `inputs` is T matrices of
  // shape (B, input_dim); `logits` receives T matrices of shape (B, output_dim).
  // Hidden state starts at zero (per §4.2 of the paper).
  void ForwardSequence(const std::vector<Matrix>& inputs, std::vector<Matrix>* logits);

  // Backward from per-step logit gradients; accumulates into the grads.
  void BackwardSequence(const std::vector<Matrix>& dlogits);

  // One step of one stream (evaluation and single-stream generation).
  // `state` persists across calls; the step runs the LSTM stack's one
  // forward step (StackedLstm::StepForwardBatch) on its row, with `ws` as
  // scratch, and needs no preparation after construction, Load() or a write
  // through Params(). The logits row is the output head on the new hidden
  // state; for a factored head it is the concat [u | v].
  LstmState MakeState(size_t batch = 1) const;
  void StepLogits(const Matrix& x, LstmState* state, Matrix* logits,
                  StepWorkspace* ws) const;

  // Recurrent-only single step (no output head); the caller samples from
  // state->h.back() afterwards. This is the generation step for factored
  // heads, which never materialize full logits.
  void StepRecurrent(const Matrix& x, LstmState* state, StepWorkspace* ws) const;

  // Batched multi-stream generation step. EnsureBatchStep shapes `ws` for
  // `rows` gathered streams (reusing capacity — see BatchStepWorkspace);
  // StepBatch then advances all rows of ws->state through the LSTM stack
  // from ws->x and, for dense heads, fills ws->logits via the output head.
  // Factored heads stop at the hidden state: the caller samples per stream
  // from ws->state.h.back() rows. Row r of every output is
  // bitwise-identical to a single-stream StepLogits/StepRecurrent on that
  // stream alone: both run the same LSTM step and head, whose per-element
  // GEMM chains are batch-size independent.
  //
  // Concurrency: both calls are const and only read the weights; all
  // mutable scratch lives in `ws`. Concurrent callers with distinct
  // workspaces — one BatchStepWorkspace pair per shard in the sharded
  // generation scheduler — are safe and share nothing.
  void EnsureBatchStep(size_t rows, BatchStepWorkspace* ws) const;
  void StepBatch(BatchStepWorkspace* ws) const;

  bool IsFactored() const { return config_.factored_clusters > 0; }
  // Valid only when IsFactored().
  const ClassFactoredHead& FactoredHead() const { return fhead_; }

  std::vector<Matrix*> Params();
  std::vector<const Matrix*> Params() const;
  std::vector<Matrix*> Grads();
  void ZeroGrads();
  size_t NumParameters() const;

  void Save(std::ostream& out) const;
  void Load(std::istream& in);

 private:
  SequenceNetworkConfig config_;
  StackedLstm lstm_;
  Linear head_;              // Dense head; default-empty when factored.
  ClassFactoredHead fhead_;  // Factored head; default-empty when dense.
  // Cached top-layer hidden states from the last ForwardSequence, needed to
  // backprop through the shared head applied at every step.
  std::vector<Matrix> cached_hidden_;
};

}  // namespace cloudgen

#endif  // SRC_NN_SEQUENCE_NETWORK_H_
