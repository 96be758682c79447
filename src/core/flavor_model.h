// Stage 2: flavor-sequence LSTM (§2.2).
//
// Models the per-period sequence of requested flavors as a token stream over
// K flavors plus an end-of-batch (EOB) token. At each step the network
// receives a one-hot of the previous token plus the period's temporal
// features, and emits softmax logits over the K+1 tokens. Training minimizes
// next-token NLL with Adam; generation samples tokens until the requested
// number of batches (EOB tokens) have been produced.
#ifndef SRC_CORE_FLAVOR_MODEL_H_
#define SRC_CORE_FLAVOR_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/encoding.h"
#include "src/core/gen_guard.h"
#include "src/core/trainer.h"
#include "src/nn/sequence_network.h"
#include "src/trace/trace.h"
#include "src/util/status.h"

namespace cloudgen {

class Rng;

struct FlavorModelConfig {
  size_t hidden_dim = 64;
  size_t num_layers = 2;
  size_t seq_len = 96;
  size_t batch_size = 24;
  size_t epochs = 3;
  float learning_rate = 3e-3f;
  float weight_decay = 1e-6f;
  float clip_norm = 5.0f;
  // Multiplicative learning-rate decay applied after every epoch.
  float lr_decay = 1.0f;
  // > 0 trains a class-factored two-level softmax head with this many
  // balanced clusters instead of the dense head (src/nn/factored_softmax.h).
  // Generation then samples cluster-then-member in O(sqrt(K)) per token.
  // Draw counts differ from the dense head (two Categorical draws per
  // token), so factored models are a different sampling distribution, not a
  // bitwise variant of the dense oracle. 0 keeps the dense head.
  size_t factored_clusters = 0;
  // Checkpointing, resume, and divergence-watchdog behaviour.
  TrainRecoveryConfig recovery;
};

// A token-stream view of a trace (shared with evaluation).
struct FlavorStream {
  // Token at each step (flavor id or EOB).
  std::vector<int32_t> tokens;
  // Period of each step (for temporal features).
  std::vector<int64_t> periods;
  // In-window DOH day of each step.
  std::vector<int32_t> doh_days;
};

// The flavor trainer's recipe: next-token NLL over `stream`, each step's
// input encoding the previous token (the vocabulary's EOB token before the
// first step) and the step's temporal features. The single-LSTM ablation
// runs it on its EOP stream, whose vocabulary's EOB slot is the EOP token.
Status TrainTokenNetwork(const FlavorStream& stream, const FlavorInputEncoder& encoder,
                         const FlavorModelConfig& config, const TrainerIdentity& trainer,
                         SequenceNetwork* network, Rng& rng);

// Safety cap on jobs sampled per period: bounds runaway token sequences.
inline constexpr size_t kGenMaxJobsPerPeriod = 20000;

class FlavorLstmModel {
 public:
  FlavorLstmModel() = default;

  // Trains on `train` (from scratch, or resuming from a checkpoint when
  // `config.recovery` says so). `history_days` defines the DOH block width
  // (shared with the arrival model). Deterministic given `rng`. Fails with
  // ABORTED when the divergence watchdog exhausts its rollback budget and
  // with INVALID_ARGUMENT on an empty training stream.
  Status Train(const Trace& train, int history_days, const FlavorModelConfig& config,
               Rng& rng);
  // The training body behind Train, for models that reuse the flavor model
  // on a vocabulary of their own (src/core/resource_model.h): a non-empty
  // `map` lays out the factored head in place of config.factored_clusters
  // (SequenceNetwork's constructor), and `trainer` names the run, its
  // telemetry and its checkpoints.
  Status Train(const Trace& train, int history_days, const FlavorModelConfig& config,
               FactoredVocabMap map, const TrainerIdentity& trainer, Rng& rng);

  bool IsTrained() const { return encoder_ != nullptr; }
  const FlavorVocab& Vocab() const;
  size_t NumParameters() const { return network_.NumParameters(); }
  // Network access for the batched engine (src/core/batch_generator.h) and
  // head-introspection in tests.
  const SequenceNetwork& Network() const { return network_; }

  // Teacher-forced evaluation on a trace (future periods encode DOH = N).
  struct EvalResult {
    // Over all tokens (flavors + EOB): the full sequence likelihood view.
    double nll = 0.0;
    double one_best_err = 0.0;
    size_t steps = 0;
    // Over flavor targets only (EOB steps are context), the Table-2 view that
    // is directly comparable to the baselines.
    double nll_flavor_only = 0.0;
    double one_best_err_flavor_only = 0.0;
    size_t flavor_steps = 0;
  };
  EvalResult Evaluate(const Trace& test) const;

  // Next-token distribution given a context; exposed for tests.
  std::vector<double> NextTokenProbs(const FlavorStream& stream, size_t upto_step) const;

  // Stateful token generator for consecutive periods of one sampled trace
  // (hidden state persists across periods, so cross-period momentum carries
  // through). The trace loop that drives it is TraceStreamMachine
  // (src/core/batch_generator.h).
  class Generator {
   public:
    // `eob_scale` post-processes the EOB token's probability at every step
    // (footnote 5 of the paper): values < 1 stretch batches, values > 1
    // shorten them — a what-if knob for simulating larger or smaller batches
    // without retraining. 1.0 leaves the learned distribution untouched.
    // `guard` selects the numeric-health policy applied to every step's
    // logits and sampling weights (src/core/gen_guard.h); on healthy
    // outputs all policies are bitwise-identical.
    Generator(const FlavorLstmModel& model, int doh_day, double eob_scale = 1.0,
              GuardPolicy guard = GuardPolicy::kAbort);

    // Token machine for one period. Protocol: StartPeriod(period,
    // n_batches), then while PeriodActive() either call StepToken
    // (single-stream: encode + LSTM step + sample in one call) or the split
    // halves — BeginStep(x_row) to encode this step's input into a gathered
    // batch row, an external LSTM step that scatters h/c (and, for dense
    // heads, the logits row) back into MutableState()/MutableLogits(), then
    // ConsumeStep to sample and advance. Sampling stops at the n_batches-th
    // EOB or at `max_jobs` jobs (a safety cap on runaway sequences). Token
    // draws come only from `rng`, so a stream's output depends only on its
    // own Rng regardless of how steps are batched. TakeBatches() yields the
    // period's batches of flavors (also a partial period's, when the caller
    // stops stepping early).
    void StartPeriod(int64_t period, int64_t n_batches,
                     size_t max_jobs = kGenMaxJobsPerPeriod);
    bool PeriodActive() const { return period_active_; }
    void StepToken(Rng& rng);
    void BeginStep(float* x_row);
    void ConsumeStep(Rng& rng);
    std::vector<std::vector<int32_t>> TakeBatches() {
      period_active_ = false;
      return std::move(batches_);
    }

    // Gather/scatter access for the batched driver. MutableLogits() is only
    // written for dense-head models; factored models sample from the
    // scattered hidden state directly.
    LstmState* MutableState() { return &state_; }
    Matrix* MutableLogits() { return &logits_; }

    // Exact generator state (previous-token feedback + hidden state) for
    // streaming-mode generation checkpoints. The DOH day travels ahead of
    // it in the checkpoint and is restored through `doh_day`. LoadState
    // returns DATA_LOSS on a truncated stream and FAILED_PRECONDITION when
    // the token or the LSTM shape does not fit this generator's model.
    void SaveState(std::ostream& out) const;
    Status LoadState(std::istream& in, int doh_day);

   private:
    // Shared post-sample tail: batch/EOB bookkeeping, job cap, feedback.
    void AdvanceToken(size_t token, size_t eob);
    // Two-level sample for factored heads (cluster draw + member draw, with
    // the EOB scale folded in exactly); includes the guard handling and the
    // empty-batch EOB reinterpretation.
    size_t SampleFactoredToken(Rng& rng);

    const FlavorLstmModel& model_;
    int doh_day_;
    double eob_scale_;
    GuardPolicy guard_;
    LstmState state_;
    size_t prev_token_;
    Matrix input_;
    Matrix logits_;
    // Reused scratch for the network's workspace route: steady-state token
    // sampling performs no heap allocation.
    StepWorkspace ws_;
    // Pre-step snapshot for --guard=fallback (same-shape copies: no
    // steady-state allocation). Unused under other policies.
    LstmState fallback_state_;
    // Open-period machine state (StartPeriod .. TakeBatches).
    std::vector<std::vector<int32_t>> batches_;
    int64_t period_ = 0;
    int64_t n_batches_ = 0;
    size_t max_jobs_ = kGenMaxJobsPerPeriod;
    size_t total_jobs_ = 0;
    bool period_active_ = false;
  };

  // Atomic (temp + rename) model persistence.
  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path, int history_days, size_t num_flavors);

 private:
  friend class Generator;

  FlavorModelConfig config_;
  std::unique_ptr<FlavorInputEncoder> encoder_;
  SequenceNetwork network_;

  // Builds the token stream (period → batch → job, EOB after each batch).
  FlavorStream BuildStream(const Trace& trace) const;
};

// Stream construction is exposed for baselines and tests: every baseline in
// Table 2 is evaluated on exactly this stream.
FlavorStream BuildFlavorStream(const Trace& trace, int history_days);

// Index of the largest weight among indices != `exclude` (ties keep the
// lowest index). Used by the generator's empty-batch fallback: when an EOB is
// sampled for an empty batch, the most likely *flavor* is emitted instead,
// regardless of where the EOB token sits in the vocabulary. Exposed for tests.
size_t ArgmaxExcluding(const std::vector<double>& weights, size_t exclude);

}  // namespace cloudgen

#endif  // SRC_CORE_FLAVOR_MODEL_H_
