// Bounded retry with exponential backoff and deterministic jitter for
// *transient* (UNAVAILABLE) failures: segment-manifest rewrites under
// injected io_write faults, serve clients reconnecting to a draining or
// restarting server.
//
// The policy is explicit and the jitter stream is seeded, so a given policy
// produces the same backoff schedule on every run — retry behaviour is
// testable, never luck. Only UNAVAILABLE is retried: every other code means
// the operation would fail the same way again (bad input, quota rejection,
// corrupt data), and retrying it would just hide the bug for max_attempts
// iterations.
#ifndef SRC_UTIL_RETRY_H_
#define SRC_UTIL_RETRY_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/util/rng.h"
#include "src/util/status.h"

namespace cloudgen {

class CancelToken;

struct RetryPolicy {
  int max_attempts = 5;            // Total tries, including the first.
  double base_backoff_sec = 0.05;  // Sleep before the second attempt.
  double multiplier = 2.0;         // Backoff growth per attempt.
  double max_backoff_sec = 2.0;    // Cap on any single sleep.
  double jitter = 0.5;             // Each sleep is scaled by [1-j, 1+j).
  uint64_t jitter_seed = 0xB0FFEDull;
};

// True when `status` is worth retrying under a RetryPolicy (UNAVAILABLE:
// timeouts, dropped connections, injected io faults, a draining server).
bool IsRetryable(const Status& status);

// Jittered sleep before attempt `attempt + 1` (attempt is 1-based); draws
// one uniform from `rng`, so a fixed seed gives a fixed schedule.
double BackoffSeconds(const RetryPolicy& policy, int attempt, Rng& rng);

// Sleeps ~`seconds` in short slices, returning false early once `cancel`
// fires (nullptr never fires).
bool SleepWithCancel(double seconds, const CancelToken* cancel);

// Runs `op` up to policy.max_attempts times, sleeping a jittered backoff
// between attempts. Returns the first OK or non-retryable status as-is;
// after exhausting attempts returns ABORTED wrapping the last transient
// error ("gave up after retries", matching the divergence-watchdog
// convention). Cancellation during a backoff returns ABORTED immediately.
// Counters: retry.attempts (re-tries only), retry.giveups.
Status RetryVoid(const RetryPolicy& policy, const std::string& what,
                 const std::function<Status()>& op,
                 const CancelToken* cancel = nullptr);

namespace retry_internal {
void CountRetry(const std::string& what);
Status GiveUp(const RetryPolicy& policy, const std::string& what, const Status& last);
}  // namespace retry_internal

}  // namespace cloudgen

#endif  // SRC_UTIL_RETRY_H_
