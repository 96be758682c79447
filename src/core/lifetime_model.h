// Stage 3: lifetime LSTM (§2.3) — the paper's main conceptual contribution.
//
// A stacked LSTM runs over the *sequence of jobs* (ordered period → batch →
// arrival) and at each step emits J logits, one per lifetime bin; each logit
// parameterizes that bin's discrete-time hazard through a logistic function.
// Because the network is recurrent over jobs, the predicted lifetime
// distribution of each job conditions on the lifetimes of all previous jobs
// — the "inter-case" extension of neural survival prediction.
//
// Censoring: a job censored in bin c contributes survival credit for bins
// < c and nothing afterwards. This is expressed with a per-bin mask on the
// BCE-with-logits loss (exactly the paper's BCEWithLogitsLoss + weight-mask
// construction, §4.1), and with input features that tell the *next* job
// whether its predecessor is known to have terminated (§2.3.3).
#ifndef SRC_CORE_LIFETIME_MODEL_H_
#define SRC_CORE_LIFETIME_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/encoding.h"
#include "src/core/gen_guard.h"
#include "src/nn/sequence_network.h"
#include "src/survival/binning.h"
#include "src/trace/trace.h"
#include "src/util/status.h"

namespace cloudgen {

class Rng;

// Output-head parameterization (§2.3.1): the paper (following Kvamme &
// Borgan) parameterizes the discrete *hazard*; the PMF-softmax head is the
// alternative they cite as slightly worse, kept here for the ablation.
enum class LifetimeHead { kHazard, kPmf };

struct LifetimeModelConfig {
  LifetimeHead head = LifetimeHead::kHazard;
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
  // Checkpointing, resume, and divergence-watchdog behaviour.
  TrainRecoveryConfig recovery;
};

// One job step of the lifetime stream.
struct LifetimeStep {
  int64_t period = 0;
  int32_t doh_day = 1;
  int32_t flavor = 0;
  size_t batch_size = 1;
  bool first_in_batch = false;
  size_t bin = 0;        // Event bin (or censoring bin when censored).
  bool censored = false;
};

// The job-ordered stream used for training and evaluation.
struct LifetimeStream {
  std::vector<LifetimeStep> steps;
  // True (uncensored) lifetimes in seconds where known; -1 when censored.
  std::vector<double> lifetimes_seconds;
};

LifetimeStream BuildLifetimeStream(const Trace& trace, const LifetimeBinning& binning,
                                   int history_days);

class LifetimeLstmModel {
 public:
  LifetimeLstmModel() = default;

  // Trains on `train` (from scratch, or resuming from a checkpoint when
  // `config.recovery` says so). Fails with ABORTED when the divergence
  // watchdog exhausts its rollback budget.
  Status Train(const Trace& train, const LifetimeBinning& binning, int history_days,
               const LifetimeModelConfig& config, Rng& rng);

  bool IsTrained() const { return encoder_ != nullptr; }
  const LifetimeBinning& Binning() const;
  size_t NumParameters() const { return network_.NumParameters(); }
  // Network access for the batched engine (src/core/batch_generator.h).
  const SequenceNetwork& Network() const { return network_; }

  struct EvalResult {
    double bce = 0.0;           // Masked BCE over all hazard terms.
    double one_best_err = 0.0;  // Over uncensored steps only.
    // Mean per-job NLL: -log PMF(event bin) for uncensored jobs, -log of the
    // tail probability for censored ones. Comparable across head types.
    double job_nll = 0.0;
    size_t steps = 0;
    size_t uncensored_steps = 0;
  };
  EvalResult Evaluate(const Trace& test) const;

  // Per-job predicted hazards under teacher forcing (for Survival-MSE).
  std::vector<std::vector<double>> PredictHazards(const Trace& test) const;

  // Stateful generator mirroring FlavorLstmModel::Generator: call StepJob for
  // every job of a sampled trace in generation order.
  class Generator {
   public:
    // `guard` selects the numeric-health policy applied to every step's
    // logits and hazard vector (src/core/gen_guard.h); on healthy outputs
    // all policies are bitwise-identical.
    Generator(const LifetimeLstmModel& model, int doh_day,
              GuardPolicy guard = GuardPolicy::kAbort);

    // Samples the lifetime *bin* for a job; feeds the sampled outcome back as
    // the next step's previous-lifetime features.
    size_t StepJob(int64_t period, int32_t flavor, size_t batch_size, Rng& rng);

    // Split halves for the batched engine (src/core/batch_generator.h),
    // mirroring FlavorLstmModel::Generator::BeginStep/ConsumeStep:
    // BeginJobStep encodes the job's input into `x_row`; an external batched
    // LSTM step then scatters h/c and the logits row back into
    // MutableState()/MutableLogits(), and ConsumeJobStep samples the bin and
    // feeds it back. StepJob is exactly BeginJobStep + StepLogits +
    // ConsumeJobStep, so the two routes draw identically from `rng`.
    void BeginJobStep(int64_t period, int32_t flavor, size_t batch_size,
                      float* x_row);
    size_t ConsumeJobStep(Rng& rng);
    LstmState* MutableState() { return &state_; }
    Matrix* MutableLogits() { return &logits_; }

    // Exact generator state (previous-lifetime feedback + hidden state) for
    // streaming-mode generation checkpoints. The DOH day travels ahead of
    // it in the checkpoint and is restored through `doh_day`. LoadState
    // returns DATA_LOSS on a truncated stream and FAILED_PRECONDITION when
    // the bin or the LSTM shape does not fit this generator's model.
    void SaveState(std::ostream& out) const;
    Status LoadState(std::istream& in, int doh_day);

   private:
    const LifetimeLstmModel& model_;
    int doh_day_;
    GuardPolicy guard_;
    LstmState state_;
    PrevLifetime prev_;
    Matrix input_;
    Matrix logits_;
    // Reused scratch for the network's step (and the guard's replay of it):
    // steady-state job sampling performs no heap allocation.
    StepWorkspace ws_;
    std::vector<double> hazard_;
    // Pre-step snapshot for --guard=fallback (same-shape copies: no
    // steady-state allocation). Unused under other policies.
    LstmState fallback_state_;
    // Period of the job between BeginJobStep and ConsumeJobStep (guard
    // messages only).
    int64_t pending_period_ = 0;
  };

  // Atomic (temp + rename) model persistence.
  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path, const LifetimeBinning& binning,
                      int history_days, size_t num_flavors);

 private:
  LifetimeModelConfig config_;
  std::unique_ptr<LifetimeInputEncoder> encoder_;
  std::unique_ptr<LifetimeBinning> binning_;
  SequenceNetwork network_;
  int history_days_ = 0;
  size_t num_flavors_ = 0;

  void EncodeStep(const LifetimeStep& step, const PrevLifetime& prev, float* out) const;
  std::vector<double> LogitsToHazard(const Matrix& logits) const;
  // Buffer-reusing form for the generation hot loop: writes the per-bin
  // hazard into `hazard`; `scratch` holds the intermediate PMF for the
  // softmax head. Identical arithmetic to LogitsToHazard.
  void LogitsToHazardInto(const Matrix& logits, std::vector<double>* hazard,
                          std::vector<double>* scratch) const;
};

}  // namespace cloudgen

#endif  // SRC_CORE_LIFETIME_MODEL_H_
