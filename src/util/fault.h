// Deterministic fault injection for exercising cloudgen's recovery paths.
//
// Armed from the environment:
//   CLOUDGEN_FAULT=io_write:0.3,nan_grad:0.1     # flat kind:probability pairs
//   CLOUDGEN_FAULT_PLAN=/path/to/plan            # declarative fault plan file
//   CLOUDGEN_FAULT_SEED=1234                     # optional; fixed default
//
// CLOUDGEN_FAULT_PLAN takes precedence over CLOUDGEN_FAULT; the flat spec is
// itself valid plan syntax (degenerate sugar for `kind prob=P` rules). The
// full plan grammar — one-shots, call-count windows, periodic bursts,
// site/tenant/shard scope arming — lives in src/util/fault_plan.h.
//
// Kinds:
//   io_write      Commit of an atomic file write fails (the temp file is
//                 removed; any previous file at the destination survives).
//   read_truncate A checkpoint/model payload read behaves as if truncated.
//   nan_grad      A NaN is planted in the gradients before an optimizer step.
//   gen_nan_logit A NaN is planted in a generation step's logits right after
//                 the network's step, exercising the numeric guards
//                 (src/core/gen_guard.h). The guard's fallback replays the
//                 step from the pre-step snapshot, and the replay is *not*
//                 poisoned, so --guard=fallback completes bitwise-identically
//                 to a fault-free run.
//   gen_write_kill The process _Exits with kFaultKillExitCode in the window
//                 between sealing a trace segment and updating the segment
//                 manifest — the worst-ordered real crash the resume path
//                 must absorb (the orphan segment is regenerated
//                 identically on --resume-gen).
//   net_accept_fail  An accepted serve connection is torn down before the
//                 handler sees it — accept(2) failing under fd pressure.
//                 The daemon must count it and keep accepting, never exit.
//   net_partial_write  A socket write delivers only a prefix of the frame
//                 and the connection dies — the peer observes a truncated
//                 frame followed by EOF. Clients must treat it as a
//                 reconnect-and-resume, never as data.
//   net_conn_drop A socket read/write fails as if the peer vanished
//                 mid-stream. Exercises the serve client's retry/backoff
//                 and offset-resume path.
//   io_enospc     An atomic file commit fails as if the disk were full
//                 (RESOURCE_EXHAUSTED). Segmented generation parks at the
//                 seal boundary (exit 5, --resume-gen completes
//                 byte-identically once space returns); the serve daemon
//                 flips to degraded and sheds new OPENs with retryable
//                 UNAVAILABLE.
//   fd_exhaust    accept(2) fails as if the process were out of file
//                 descriptors (EMFILE). The accept loop must back off
//                 exponentially instead of spinning, and the daemon reports
//                 degraded health while the pressure lasts.
//   stream_stall  A serve stream's generation step wedges (makes no
//                 progress) until the supervisor watchdog cuts it. The
//                 session is checkpointed and the client resumes
//                 byte-identically on reconnect.
//
// Injection sites query ShouldInject(kind); draws come from a private
// deterministic stream, so a given spec + seed yields the same fault
// schedule on every run — tests assert on recovery behaviour, not luck.
// (Under the multi-threaded serve daemon the *interleaving* of draws across
// connections is scheduler-dependent; tests there assert recovery and byte
// identity, not the exact fault schedule.) The injector is a process-wide
// singleton and thread-safe; tests reconfigure it directly via
// Configure()/Disarm() instead of the environment.
#ifndef SRC_UTIL_FAULT_H_
#define SRC_UTIL_FAULT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "src/util/rng.h"
#include "src/util/status.h"

namespace cloudgen {

enum class FaultKind : int {
  kIoWrite = 0,
  kReadTruncate = 1,
  kNanGrad = 2,
  kGenNanLogit = 3,
  kGenWriteKill = 4,
  kNetAcceptFail = 5,
  kNetPartialWrite = 6,
  kNetConnDrop = 7,
  kIoEnospc = 8,
  kFdExhaust = 9,
  kStreamStall = 10,
};
inline constexpr int kNumFaultKinds = 11;

// Exit code used by the gen_write_kill fault (and asserted by the kill/resume
// harness). Outside the CLI's real exit-code namespace (0-8).
inline constexpr int kFaultKillExitCode = 42;

const char* FaultKindName(FaultKind kind);
// Parses a fault kind name; returns false for unknown names.
bool ParseFaultKindName(std::string_view name, FaultKind* kind);

// The ambient scope an injection-site call is made under, used by plan rules
// with site=/tenant=/shard= filters. Thread-local: each thread carries its
// own scope, set by the RAII ScopedFaultSite below at the boundaries where
// work changes hats (serve session threads, sink seals, generation shards).
struct FaultScope {
  const char* site = "";  // "" = unscoped. Tags: serve, sink, gen, client.
  std::string tenant;     // "" = no tenant attached.
  int64_t shard = -1;     // <0 = no shard attached.
};

// Tags all ShouldInject calls made by this thread while alive. Nests;
// the innermost scope wins, and the previous scope is restored on exit.
// `site` must outlive the scope (string literals at the call sites).
class ScopedFaultSite {
 public:
  explicit ScopedFaultSite(const char* site, std::string tenant = "",
                           int64_t shard = -1);
  ~ScopedFaultSite();
  ScopedFaultSite(const ScopedFaultSite&) = delete;
  ScopedFaultSite& operator=(const ScopedFaultSite&) = delete;

 private:
  FaultScope saved_;
};

// This thread's current fault scope.
const FaultScope& CurrentFaultScope();

struct FaultPlan;  // src/util/fault_plan.h

class FaultInjector {
 public:
  // Process-wide injector, armed once from CLOUDGEN_FAULT_PLAN /
  // CLOUDGEN_FAULT on first use.
  static FaultInjector& Global();

  // Private injectors for tests and plan-determinism replays. Most code
  // wants Global(); a private instance shares nothing but the thread-local
  // scope.
  FaultInjector();
  ~FaultInjector();

  // Parses `spec` as a fault plan — the legacy "kind:prob[,kind:prob...]"
  // spec and the full plan grammar are both accepted. An empty spec disarms
  // everything. Replaces the previous configuration and resets the injection
  // counters and the deterministic stream.
  Status Configure(const std::string& spec, uint64_t seed = kDefaultSeed);

  // Installs an already-parsed plan. Same reset semantics as Configure().
  Status ConfigurePlan(const FaultPlan& plan, uint64_t seed = kDefaultSeed);

  // Disarms all kinds (used by tests to restore a clean state).
  void Disarm();

  // True when a fault of `kind` fires at this site under the calling
  // thread's current scope. Every rule matching (kind, scope) sees the call:
  // rule call-counters advance and probabilistic rules draw from the
  // deterministic stream whether or not an earlier rule already fired.
  bool ShouldInject(FaultKind kind);

  // Lock-free: one relaxed atomic load against the armed-kind bitmask. True
  // when any rule targets `kind`, regardless of scope filters.
  bool Armed(FaultKind kind) const;
  // Faults fired since the last Configure()/Disarm().
  size_t InjectedCount(FaultKind kind) const;

  static constexpr uint64_t kDefaultSeed = 0x5EEDFA17C0FFEEull;

 private:
  // Guards the rules, the draw stream and the counters: serve connection
  // handlers query injection sites concurrently. Armed() and the
  // disarmed-kind fast path in ShouldInject read armed_mask_ without the
  // lock; Configure()/Disarm() publish the mask with release stores after
  // swapping the rules under the lock.
  mutable std::mutex mu_;
  std::atomic<uint32_t> armed_mask_{0};
  std::unique_ptr<FaultPlan> plan_;
  size_t injected_[kNumFaultKinds] = {};
  Rng rng_;
};

}  // namespace cloudgen

#endif  // SRC_UTIL_FAULT_H_
