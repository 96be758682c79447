// The single-LSTM alternative (§7, "Alternative Modeling Approaches"): one
// network controls both arrivals and flavors by emitting an end-of-period
// (EOP) token stream — no explicit Poisson arrival stage.
//
// Token vocabulary: K flavors, EOB (= K), EOP (= K+1). Every period
// contributes its batches (each closed by EOB) followed by exactly one EOP —
// including empty periods, which contribute a bare EOP.
//
// The paper reports that this variant "was exquisitely sensitive to the
// timely sampling of [EOP] tokens" and offers no explicit arrival-rate
// parameter for what-if scaling; it is implemented here to reproduce that
// negative result (see bench/ablation_single_lstm).
#ifndef SRC_CORE_SINGLE_LSTM_MODEL_H_
#define SRC_CORE_SINGLE_LSTM_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/encoding.h"
#include "src/core/flavor_model.h"
#include "src/nn/sequence_network.h"
#include "src/trace/trace.h"
#include "src/util/status.h"

namespace cloudgen {

class CancelToken;
class Rng;

// Reuses the flavor-model hyperparameters; `factored_clusters` is ignored
// (the head is always dense).
using SingleLstmConfig = FlavorModelConfig;

// The EOP token stream of a trace: period → batches (each closed by EOB) →
// EOP, for every period of the window including empty ones. Exposed for
// tests.
FlavorStream BuildEopStream(const Trace& trace, int history_days);

class SingleLstmModel {
 public:
  SingleLstmModel() = default;

  // Trains with the flavor trainer's recipe on the EOP stream (from scratch,
  // or resuming from a checkpoint when `config.recovery` says so). Fails
  // with ABORTED when the divergence watchdog exhausts its rollback budget
  // and with INVALID_ARGUMENT on an empty training stream.
  Status Train(const Trace& train, int history_days, const SingleLstmConfig& config,
               Rng& rng);

  bool IsTrained() const { return encoder_ != nullptr; }
  size_t EopToken() const;

  // Generates all batches for consecutive periods starting at `period`;
  // every call consumes tokens until the EOP for that period is sampled.
  // Periods must be requested in order (state persists).
  class Generator {
   public:
    // `guard` selects the numeric-health policy applied to every step's
    // logits and sampling weights (src/core/gen_guard.h).
    explicit Generator(const SingleLstmModel& model, int doh_day,
                       GuardPolicy guard = GuardPolicy::kAbort);

    // When `cancel` is set, the token loop winds down early once
    // cancellation is requested (the partial period is discarded by the
    // caller, never persisted).
    std::vector<std::vector<int32_t>> GeneratePeriod(int64_t period, Rng& rng,
                                                     size_t max_jobs = 20000,
                                                     const CancelToken* cancel = nullptr);

   private:
    const SingleLstmModel& model_;
    int doh_day_;
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
  };

 private:
  friend class Generator;

  // Vocabulary = flavors + EOB + EOP; encoded via FlavorInputEncoder with a
  // (K+2)-token vocab.
  std::unique_ptr<FlavorInputEncoder> encoder_;
  SequenceNetwork network_;
  size_t num_flavors_ = 0;
};

}  // namespace cloudgen

#endif  // SRC_CORE_SINGLE_LSTM_MODEL_H_
