// Numeric-health guards for the generation hot path.
//
// Training has had isfinite watchdogs since PR 1 (divergence rollback in
// both LSTM trainers), but inference had none: a single non-finite logit —
// a corrupted model file that passed its CRC because it was *written*
// corrupt, an overflowing activation on an out-of-distribution input — would
// silently poison every downstream sample. The guards validate each step's
// outputs (flavor/single-LSTM softmax logits and sampling weights, lifetime
// hazards) and react per policy:
//
//   off       Legacy behavior: no checks (the sampler may abort on NaN).
//   abort     Throw GuardViolation; the CLI maps it to exit code 6. Default:
//             a month-scale run should fail loudly and resumably, not emit
//             garbage.
//   resample  Sanitize the offending distribution (drop non-finite /
//             negative weights, clamp hazards; degrade to uniform if nothing
//             valid remains) and keep sampling.
//   fallback  Replay the step from a pre-step state snapshot. The step is
//             a pure function of its input and state, so on healthy weights
//             the replay reproduces the step bit for bit, and a transient
//             fault in the step's outputs recovers to the exact trace an
//             unfaulted run would produce. Escalates to GuardViolation if
//             the replayed step is unhealthy too.
//
// The checks consume no RNG draws and, on healthy outputs, change nothing —
// guarded and unguarded runs are bitwise-identical. Violations and
// reactions are counted under gen.guard.* (docs/OBSERVABILITY.md);
// CLOUDGEN_FAULT=gen_nan_logit exercises every policy deterministically.
#ifndef SRC_CORE_GEN_GUARD_H_
#define SRC_CORE_GEN_GUARD_H_

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cloudgen {

enum class GuardPolicy : int {
  kOff = 0,
  kAbort = 1,
  kResample = 2,
  kFallback = 3,
};

// Parses "off|abort|resample|fallback" (the CLI --guard values).
bool ParseGuardPolicy(std::string_view name, GuardPolicy* policy);
const char* GuardPolicyName(GuardPolicy policy);

// Thrown on --guard=abort (or when a fallback recompute is unhealthy too).
// Propagates through the thread pool's exception capture (ParallelFor,
// RunAll) to the caller; the CLI converts it to exit code 6.
class GuardViolation : public std::runtime_error {
 public:
  explicit GuardViolation(const std::string& message)
      : std::runtime_error(message) {}
};

// One pass over a step's raw logits.
bool AllFinite(const float* values, size_t n);

// Sampling weights must be finite, non-negative, and sum to something
// positive (Rng::Categorical normalizes internally).
bool ValidWeights(const std::vector<double>& weights);

// Discrete-time hazards must be finite probabilities in [0, 1].
bool ValidHazard(const std::vector<double>& hazard);

// Repairs for --guard=resample. SanitizeWeights zeroes non-finite/negative
// entries and degrades to uniform when nothing positive survives;
// SanitizeHazard clamps to [0, 1] with non-finite entries pinned to 1
// (pessimistic: the job terminates in that bin).
void SanitizeWeights(std::vector<double>* weights);
void SanitizeHazard(std::vector<double>* hazard);

// gen.guard.* counter bumps (cached registry handles; see metrics.h).
void CountGuardViolation();
void CountGuardResample();
void CountGuardFallback();

// Counts gen.guard.aborts and throws GuardViolation(message).
[[noreturn]] void GuardAbort(const std::string& message);

}  // namespace cloudgen

#endif  // SRC_CORE_GEN_GUARD_H_
