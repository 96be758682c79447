// Cooperative cancellation for long-running generation work.
//
// A CancelToken is a cheap flag shared between a requester (a SIGINT/SIGTERM
// handler, a CLI deadline, or a test) and the loops doing the work. The
// contract is *cooperative*: nothing is interrupted mid-write — loops check
// the token at safe boundaries (between traces, between generation
// periods, inside per-period token loops) and wind down cleanly,
// sealing the current output segment and writing a generation checkpoint so
// the run can be resumed bitwise-identically.
//
//   Cancelled()  one relaxed atomic load — safe on the hottest loops.
//   Poll()       Cancelled() plus a deadline check (a steady_clock read);
//                call it at coarse boundaries (per period / per trace), not
//                per token.
//
// RequestCancel() only stores to lock-free atomics, so it is async-signal-
// safe; InstallCancelSignalHandlers() routes SIGINT/SIGTERM to the global
// token for the CLI's graceful-stop path (exit code 5, see
// docs/ROBUSTNESS.md).
#ifndef SRC_UTIL_CANCEL_H_
#define SRC_UTIL_CANCEL_H_

#include <atomic>
#include <cstdint>

namespace cloudgen {

enum class CancelReason : int {
  kNone = 0,
  kRequested = 1,  // Programmatic RequestCancel (tests, embedding code).
  kSignal = 2,     // SIGINT / SIGTERM.
  kDeadline = 3,   // --deadline-sec expired.
};

const char* CancelReasonName(CancelReason reason);

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  // Async-signal-safe: performs only lock-free atomic stores. The first
  // reason to land wins; later requests keep the flag set but do not
  // overwrite the reason.
  void RequestCancel(CancelReason reason = CancelReason::kRequested);

  // True once cancellation has been requested (or a deadline observed by
  // Poll() has expired). One relaxed load.
  bool Cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  // Arms a deadline `seconds_from_now` from the current steady clock;
  // non-positive values trip on the next Poll(). Poll() converts an expired
  // deadline into a cancellation with reason kDeadline.
  void SetDeadline(double seconds_from_now);

  // Cancelled(), additionally checking the armed deadline. Reads the steady
  // clock, so call at coarse boundaries only.
  bool Poll() const;

  CancelReason Reason() const {
    return static_cast<CancelReason>(reason_.load(std::memory_order_relaxed));
  }

  // Clears the flag, reason, and deadline (tests and repeated CLI runs in
  // one process).
  void Reset();

 private:
  mutable std::atomic<bool> cancelled_{false};
  mutable std::atomic<int> reason_{static_cast<int>(CancelReason::kNone)};
  // Steady-clock deadline in ns since the clock's epoch; 0 = disarmed.
  std::atomic<int64_t> deadline_ns_{0};
};

// Process-wide token used by the CLI; the signal handlers below write to it.
CancelToken& GlobalCancelToken();

// Routes SIGINT and SIGTERM to GlobalCancelToken().RequestCancel(kSignal).
// Idempotent; safe to call before work starts.
void InstallCancelSignalHandlers();

}  // namespace cloudgen

#endif  // SRC_UTIL_CANCEL_H_
