// The end-to-end three-stage workload generator (Fig. 2, §2.4).
//
// Stage 1 samples the number of user batches for each period from the Poisson
// regression; stage 2 runs the flavor LSTM until that many EOB tokens have
// been emitted; stage 3 runs the lifetime LSTM over the generated jobs and
// samples a lifetime bin per job, converted to a real duration by CDI (or
// stepped) interpolation. Start/end times are emitted as 5-minute periods;
// batches receive fresh synthetic user ids (the paper generates no real ids).
//
// Because the arrival rate is an explicit parameter, what-if scaling (e.g.
// the paper's 10× stress test) is a single multiplier on the sampled rate.
#ifndef SRC_CORE_WORKLOAD_MODEL_H_
#define SRC_CORE_WORKLOAD_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/arrival_model.h"
#include "src/core/flavor_model.h"
#include "src/core/lifetime_model.h"
#include "src/obs/fidelity_monitor.h"
#include "src/survival/interpolation.h"
#include "src/trace/trace.h"
#include "src/util/status.h"

namespace cloudgen {

class CancelToken;
class TraceSink;

struct WorkloadModelConfig {
  ArrivalModelConfig arrival;
  FlavorModelConfig flavor;
  LifetimeModelConfig lifetime;
};

class WorkloadModel {
 public:
  WorkloadModel() = default;

  // Trains all three stages on `train`. The lifetime binning defaults to the
  // paper's 47-bin scheme. Fails when a stage's training stream is empty or
  // its divergence watchdog gives up.
  Status Train(const Trace& train, const WorkloadModelConfig& config, Rng& rng);
  Status Train(const Trace& train, const WorkloadModelConfig& config,
               const LifetimeBinning& binning, Rng& rng);

  bool IsTrained() const { return flavor_model_.IsTrained(); }

  struct GenerateOptions {
    int64_t from_period = 0;
    int64_t to_period = 0;
    DohMode doh_mode = DohMode::kGeometricSample;
    double arrival_scale = 1.0;  // 10× stress test: set to 10.
    // What-if batch-size modification (footnote 5): < 1 stretches batches,
    // > 1 shortens them, by scaling the EOB token's sampled probability.
    double eob_scale = 1.0;
    Interpolation interpolation = Interpolation::kCdi;
    // Numeric-health policy applied to every LSTM generation step
    // (src/core/gen_guard.h). On healthy outputs all policies produce
    // bitwise-identical traces.
    GuardPolicy guard = GuardPolicy::kAbort;
    // Optional cooperative cancellation (src/util/cancel.h). Generation
    // winds down at the next safe boundary; sink-based runs seal what is
    // buffered and checkpoint so --resume-gen continues bitwise-identically.
    const CancelToken* cancel = nullptr;
    // Max traces stepped in lockstep by the batched multi-stream engine
    // (GenerateMany, GenerateTraceRowsRange; see
    // src/core/batch_generator.h): each tick runs the active streams' LSTM
    // steps as one blocked GEMM batch instead of per-trace GEMVs. Must be
    // >= 1. Output bytes are identical for every window — each stream draws
    // only from its own Rng::Stream and batched GEMM rows are bitwise-equal
    // to batch-1 steps — so this is purely a throughput knob; window 1 is
    // the single-stream GEMV route and the oracle for batching.
    // Deliberately NOT part of the resume fingerprint: checkpoints transfer
    // across window settings.
    size_t batch_window = 256;
  };

  // Samples one synthetic trace covering [from_period, to_period). One DOH
  // day is sampled per trace so the whole sample coheres with one recent-past
  // behaviour pattern. Draws from `rng` and leaves it advanced past the
  // trace, so repeated calls on one Rng sample successive traces.
  Trace Generate(const GenerateOptions& options, Rng& rng) const;

  // Ablation hook (Fig. 8's "remove the DOH features"): generate with an
  // externally-fitted stage-1 arrival model (e.g. one fit without DOH) while
  // keeping the trained flavor/lifetime LSTMs. The DOH day is still drawn
  // from this model's own arrival stage.
  Trace GenerateWithArrivalModel(const BatchArrivalModel& arrivals,
                                 const GenerateOptions& options, Rng& rng) const;

  // Repeated sampling for prediction intervals / scheduler tuning. Traces
  // are generated in parallel on the global thread pool, each from its own
  // deterministic seed-derived RNG stream (Rng::Stream), so the result is
  // bitwise-identical for any thread count.
  std::vector<Trace> GenerateMany(const GenerateOptions& options, size_t count,
                                  Rng& rng) const;

  // Sink-based generation: where the output goes and how the run is made
  // crash-consistent and resumable.
  struct GenerateRun {
    TraceSink* sink = nullptr;  // Required.
    // Checkpoint file updated after every sealed segment; empty disables
    // checkpointing (and therefore resume).
    std::string checkpoint_path;
    // Load `checkpoint_path` (when present) and continue from its cursor.
    // The checkpoint's fingerprint must match this run's options/count and
    // `config_fingerprint`, otherwise FAILED_PRECONDITION.
    bool resume = false;
    // Caller context folded into the fingerprint (e.g. the CLI seed), so a
    // resume with a different seed is rejected instead of silently mixing
    // RNG streams.
    uint64_t config_fingerprint = 0;
  };
  struct GenerateReport {
    uint64_t traces = 0;  // Traces flushed to the sink by this run.
    uint64_t jobs = 0;    // Jobs flushed to the sink by this run.
    bool resumed = false;
    // Cancellation stopped the run at a safe boundary; everything flushed is
    // sealed + checkpointed and a resume run completes the output.
    bool interrupted = false;
    // The run stopped because the disk filled (RESOURCE_EXHAUSTED from the
    // sink or checkpoint) — a parked run: everything sealed so far is
    // durable and a resume run completes byte-identically once space
    // returns. Implies `interrupted`.
    bool parked = false;
  };

  // Streams `count` traces into `run.sink` in index order, sealing and
  // checkpointing as segments fill. Trace i is a pure function of the RNG
  // base and i (Rng::Stream), so thread count never changes the bytes and
  // resume regenerates exactly the missing suffix. Returns OK with
  // report->interrupted when cancelled. The vector-returning GenerateMany
  // delegates here through an InMemoryTraceSink.
  Status GenerateMany(const GenerateOptions& options, size_t count, Rng& rng,
                      const GenerateRun& run, GenerateReport* report) const;

  // Streams ONE trace period by period — the month-scale serving shape —
  // holding one period's jobs in memory at a time. The periods of a trace
  // share evolving LSTM/RNG state, so checkpoints carry an exact state blob
  // (TraceStreamMachine::SaveState) captured at a period boundary; resume is
  // bitwise-identical, and a blob that is truncated or does not fit the
  // model fails the resume with DATA_LOSS / FAILED_PRECONDITION.
  // Cancellation lands only at period boundaries.
  Status GenerateStreaming(const GenerateOptions& options, Rng& rng,
                           const GenerateRun& run, GenerateReport* report) const;

  // Serve support (src/serve): the RNG anchor a sink-based GenerateMany run
  // seeded with Rng(seed) derives on its fresh path (one draw). Trace i of
  // that family is a pure function of (TraceFamilyBase(seed), i) via
  // Rng::Stream, which lets the daemon regenerate any single trace of a
  // requested family on demand — byte-identical to a single-process
  // `generate --seed <seed>` run — without a sink or a manifest.
  static uint64_t TraceFamilyBase(uint64_t seed);

  // Appends the concatenated rows (AppendJobRow format) of traces
  // [first, first + count), in index order — the bytes GenerateMany would
  // flush for that index range. The range shares one batched engine run,
  // sharded one window per pool thread, so the serve fetch path amortizes
  // window fill across traces instead of paying a cold engine per trace.
  void GenerateTraceRowsRange(const GenerateOptions& options, uint64_t base,
                              size_t first, size_t count, std::string* out) const;

  // Online fidelity telemetry (src/obs/fidelity_monitor.h): reference
  // distributions the monitor compares the generated stream against, derived
  // from the fitted stages without sampling —
  //   arrival:  mean IRLS Poisson rate over [from_period, to_period) at DOH
  //             day 1 (the modal day under the geometric DOH prior), times
  //             arrival_scale;
  //   flavors:  the flavor head's teacher-forced next-token distribution
  //             from the start-of-batch (EOB) context, EOB stripped and
  //             renormalized;
  //   lifetime: teacher-forced hazards for a probe job folded into a bin
  //             PMF/CDF (p_j = h_j * prod_{k<j}(1 - h_k), tail mass on the
  //             open bin).
  // All three sources are deterministic and RNG-free, so computing the
  // reference never perturbs generation.
  obs::FidelityReference ComputeFidelityReference(const GenerateOptions& options) const;
  // Convenience: installs ComputeFidelityReference's output into the global
  // monitor and enables it (CLI --fidelity, serve).
  void EnableFidelityMonitor(const GenerateOptions& options) const;

  // Stage accessors for stage-wise evaluation (§5).
  const BatchArrivalModel& ArrivalModel() const { return arrival_model_; }
  const FlavorLstmModel& FlavorModel() const { return flavor_model_; }
  const LifetimeLstmModel& LifetimeModel() const { return lifetime_model_; }
  const FlavorCatalog& Flavors() const { return flavors_; }
  int HistoryDays() const { return arrival_model_.HistoryDays(); }

  // Model persistence (the flavor and lifetime networks; the arrival model is
  // cheap and is always refit). Each network file is written atomically and
  // carries a CRC-validated header, so a torn or corrupted file is detected
  // at load time rather than aborting mid-parse.
  Status SaveToFiles(const std::string& prefix) const;
  Status LoadNetworksFromFiles(const std::string& prefix, const Trace& train,
                               const WorkloadModelConfig& config);

 private:
  BatchArrivalModel arrival_model_;
  FlavorLstmModel flavor_model_;
  LifetimeLstmModel lifetime_model_;
  FlavorCatalog flavors_;
};

}  // namespace cloudgen

#endif  // SRC_CORE_WORKLOAD_MODEL_H_
