// Batched multi-stream generation engine.
//
// The single-stream generator spends almost all of its time in batch-1 GEMVs:
// one trace advances one token at a time, so every LSTM layer multiplies a
// (1, H) row against (·, 4H) weights. This engine steps many independent
// traces in lockstep instead: each tick it gathers the active streams' step
// inputs and per-layer h/c rows into one matrix, runs a single blocked GEMM
// per LSTM layer (SequenceNetwork::StepBatch), and scatters the results back.
// A batch-1 step is the same LSTM step on one row, and the GEMM kernels
// compute each output element as one fixed p-ascending reduction at any row
// count, so row r of a batched step is bitwise-identical to a batch-1 step
// of that stream alone — and each stream samples only from its
// own Rng::Stream — so generated traces are byte-identical for ANY window
// size and thread count (window 1, the single-stream route, is the oracle).
//
// Two layers:
//  * TraceStreamMachine — one trace as a resumable state machine, and the
//    only code that sequences the paper's per-period loop (arrival draw,
//    flavor tokens until the N-th EOB, one lifetime per job). Advance()
//    runs everything that is not an LSTM step (arrival Poisson draws,
//    duration sampling, job emission, period/phase transitions) until the
//    machine either needs a flavor-token or lifetime-job LSTM step, or the
//    trace is complete. The needed step can be run whole (single-stream
//    route: Generate, GenerateStreaming, and any one-machine tick group) or
//    split into gather/scatter halves for batching.
//  * BatchTraceEngine — the tick loop: partitions active machines by which
//    network they need (flavor vs lifetime), steps each group as one batch,
//    retires finished traces, and refills the window from the remaining
//    indices. Ragged batches are handled by compaction: done machines leave
//    the active set, so the batch shrinks to exactly the live streams.
#ifndef SRC_CORE_BATCH_GENERATOR_H_
#define SRC_CORE_BATCH_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/workload_model.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace cloudgen {

// One trace being generated, decomposed so the LSTM steps can be executed
// externally. Each stream draws only from its own Rng, so its bytes do not
// depend on how its steps are batched.
class TraceStreamMachine {
 public:
  // kPeriodStart: paused at a period boundary (period-by-period machines
  // only); the next Advance() enters period().
  enum class Need { kFlavorStep, kLifetimeStep, kPeriodStart, kDone };

  // Trace `index` of the family anchored at `base` (GenerateMany, serve):
  // draws only from Rng::Stream(base, index), takes rates from the model's
  // own arrival stage, and winds down early once options.cancel trips.
  TraceStreamMachine(const WorkloadModel& model,
                     const WorkloadModel::GenerateOptions& options, uint64_t base,
                     size_t index);

  // One trace drawn from `rng` (the caller reads the advanced state back
  // through rng()) with rates from `arrivals`; the DOH day is the first draw
  // and always comes from the model's own arrival stage. With
  // `pause_at_periods` the machine stops at every period start
  // (Need::kPeriodStart) and never reads options.cancel: its caller drains
  // Jobs(), commits, checkpoints and polls cancellation there. Without it
  // the machine polls options.cancel like the batched route.
  TraceStreamMachine(const WorkloadModel& model, const BatchArrivalModel& arrivals,
                     const WorkloadModel::GenerateOptions& options, Rng rng,
                     bool pause_at_periods);

  Need need() const { return need_; }
  size_t index() const { return index_; }
  // The period being generated; at a pause, the period the next Advance()
  // enters.
  int64_t period() const { return period_; }
  const Rng& rng() const { return rng_; }

  // Runs all non-NN work until the next LSTM step is needed, the machine
  // pauses, or the trace is done. Must be called once after construction
  // (and after LoadState), and is re-entered automatically by
  // FinishNeededStep/RunNeededStepSingle. On a paused machine it first
  // enters the period it is paused at.
  void Advance();

  // Split execution of the needed step: BeginNeededStep encodes the step
  // input into `x_row` (a gathered batch row); after the external batched
  // LSTM step scatters h/c (and logits, when StepWantsLogits()) back through
  // StepState()/StepLogits(), FinishNeededStep samples, applies the result,
  // and advances to the next needed step.
  void BeginNeededStep(float* x_row);
  void FinishNeededStep();
  // Runs the needed step whole on the machine's own state and workspace —
  // used when a tick group has exactly one machine. It is the same LSTM step
  // a 1-row batch would run, without the gather and scatter copies.
  void RunNeededStepSingle();
  // Advance() followed by single-stream steps until the machine pauses or
  // is done: the whole single-trace route.
  void RunSingle();

  // Gather/scatter access for the needed step's generator.
  LstmState* StepState();
  Matrix* StepLogits();
  // False when the needed step's head samples from the hidden state directly
  // (class-factored flavor head) and no logits row exists to scatter.
  bool StepWantsLogits() const;

  // Jobs emitted since construction or the last ClearJobs().
  const std::vector<Job>& Jobs() const { return trace_.Jobs(); }
  void ClearJobs() { trace_.MutableJobs().clear(); }
  Trace&& TakeTrace() { return std::move(trace_); }

  // Exact state at a period boundary (paused or done), for streaming
  // checkpoints: doh_day, next_user, flavor generator state, lifetime
  // generator state, Rng. LoadState restores it into a machine built for the
  // same model and options, positioned at the start of `period`; call
  // Advance() next. DATA_LOSS when the blob is truncated or has trailing
  // bytes, FAILED_PRECONDITION when it does not fit the model (DOH day,
  // previous flavor token or lifetime bin out of range, LSTM layer count or
  // width). A machine whose load failed must be discarded.
  std::string SaveState() const;
  Status LoadState(const std::string& blob, int64_t period);

 private:
  void EmitJob(size_t bin);

  const WorkloadModel& model_;
  const WorkloadModel::GenerateOptions& options_;
  const BatchArrivalModel& arrivals_;
  const LifetimeBinning& binning_;
  // options.cancel, or null when the caller owns cancellation.
  const CancelToken* cancel_;
  bool pause_at_periods_;
  size_t index_ = 0;
  Rng rng_;
  Trace trace_;
  int doh_day_;
  FlavorLstmModel::Generator flavor_gen_;
  LifetimeLstmModel::Generator lifetime_gen_;
  bool factored_flavor_;

  enum class Phase { kPeriodStart, kFlavor, kLifetime };
  Phase phase_ = Phase::kPeriodStart;
  Need need_ = Need::kDone;
  int64_t period_;
  std::vector<std::vector<int32_t>> batches_;
  size_t batch_idx_ = 0;
  size_t job_idx_ = 0;
  int64_t user_ = 0;
  int64_t next_user_ = 0;
};

class BatchTraceEngine {
 public:
  BatchTraceEngine(const WorkloadModel& model,
                   const WorkloadModel::GenerateOptions& options, uint64_t base);

  // Generates the indices {first, first + stride, ...} that fall in
  // [first, end) with at most `window` streams in flight. Completed traces
  // are handed to `emit` in completion order (NOT index order —
  // RunShardedBatchEngines reorders); `emit` returning false stops the
  // engine early and abandons the remaining partial traces. Stride 1 runs a
  // contiguous range; the sharded scheduler's shard s of S owns every S-th
  // index starting at first + s, so the union over shards is exactly
  // [first, end) and each shard's reorder backlog stays small.
  void RunStrided(size_t first, size_t stride, size_t end, size_t window,
                  const std::function<bool(size_t, Trace&&)>& emit);

  // Work tallies for this engine instance, cumulative across runs. A
  // tick is one lockstep iteration (<= 2 batched network steps); rows is the
  // total machine-steps executed, so rows / (ticks * window) is the mean
  // window occupancy.
  uint64_t TicksRun() const { return ticks_; }
  uint64_t RowsStepped() const { return rows_; }

 private:
  void StepGroup(const SequenceNetwork& net,
                 const std::vector<TraceStreamMachine*>& group,
                 BatchStepWorkspace* ws);

  const WorkloadModel& model_;
  const WorkloadModel::GenerateOptions& options_;
  uint64_t base_;
  // One workspace per network; capacity persists across ticks, so the steady
  // state performs no per-token heap allocation (see BatchStepWorkspace).
  BatchStepWorkspace flavor_ws_;
  BatchStepWorkspace lifetime_ws_;
  uint64_t ticks_ = 0;
  uint64_t rows_ = 0;
};

// Sharded tick scheduler: partitions [first, first + count) round-robin over
// `shards` independent BatchTraceEngines (shard s owns indices first + s,
// first + s + shards, ...) and runs one engine per ThreadPool task, so up to
// `shards` batch windows are in flight at once. Each shard owns its own
// machines, workspaces, and per-stream Rng::Streams, and runs its inner
// per-layer GEMM fan-out under ScopedInnerParallelism(pool / shards) so
// shards never oversubscribe the pool. Engines retire traces in completion
// order; this function holds the one reorder buffer in generation, so `emit`
// sees traces strictly in index order, one call at a time, and because
// every trace is a pure function of (base, index) the output is
// byte-identical at any window, shard and thread count. `emit` returning
// false stops every shard early; it is not called again. Records the
// `gen.shard.{ticks,rows}` counters and `gen.shard.occupancy` gauge.
// `shards <= 1` runs one engine on the calling thread. `window` must be >= 1.
void RunShardedBatchEngines(const WorkloadModel& model,
                            const WorkloadModel::GenerateOptions& options,
                            uint64_t base, size_t first, size_t count,
                            size_t window, size_t shards,
                            const std::function<bool(size_t, Trace&&)>& emit);

}  // namespace cloudgen

#endif  // SRC_CORE_BATCH_GENERATOR_H_
