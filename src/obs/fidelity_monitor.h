// Observe-only online fidelity monitor: accumulates the empirical lifetime,
// arrival, and flavor-mix distributions of generated traces as generation
// proceeds (hooked into TraceStreamMachine, the one generation loop) and
// publishes drift distances against reference distributions derived from the
// fitted model (survival hazards, IRLS arrival rates, flavor head marginals).
// The stream is counted in three obs::Histograms at the model's own edges:
// lifetimes on the lifetime model's bin edges, flavor ids on one bucket per
// flavor, batches per period with no edges (count and sum). A bucket counts
// v <= edge exactly, so the empirical CDF at each bin edge, and the KS
// distance over those edges, are exact.
//
// Contract (same as the rest of src/obs): the monitor never reads or advances
// an Rng and nothing feeds back into model arithmetic — generated trace bytes
// are identical whether the monitor is enabled or not, at any thread count
// (pinned by tests/fidelity_test.cc). Disabled, every hook costs one relaxed
// atomic load. The reference is computed by src/core (which owns the models)
// and handed over as plain vectors, so this module stays std-only.
#ifndef SRC_OBS_FIDELITY_MONITOR_H_
#define SRC_OBS_FIDELITY_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/obs/metrics.h"

namespace cloudgen {
namespace obs {

// Model-derived reference distributions the empirical stream is compared to.
// Built by WorkloadModel::ComputeFidelityReference (src/core).
struct FidelityReference {
  // Finite lifetime-bin upper edges in seconds (ascending) and the model's
  // lifetime CDF evaluated at each edge. The open last bin carries the
  // remaining mass (its CDF point would be 1 and is omitted).
  std::vector<double> lifetime_edges_sec;
  std::vector<double> lifetime_cdf;
  // Marginal next-flavor distribution (EOB stripped, renormalized); index is
  // the flavor id. Ids past its end count as drift.
  std::vector<double> flavor_marginals;
  // Expected batch arrivals per period over the generation horizon
  // (mean IRLS rate x arrival_scale).
  double mean_batches_per_period = 0.0;
};

class FidelityMonitor {
 public:
  static FidelityMonitor& Global();

  // Installs a reference and a fresh set of histograms built from it, and
  // turns the hooks on. Not safe against a generation run already in flight
  // — callers enable before generating (the CLI does it right after model
  // load).
  void Enable(FidelityReference reference);
  void Disable();
  bool Enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Hot hooks — called per emitted job / per stepped period by the
  // generation engines. Guarded by one relaxed load when disabled.
  void ObserveJob(double lifetime_seconds, int64_t flavor) {
    if (!Enabled()) {
      return;
    }
    ObserveJobImpl(lifetime_seconds, flavor);
  }
  void ObservePeriodBatches(int64_t n_batches) {
    if (!Enabled()) {
      return;
    }
    ObservePeriodBatchesImpl(n_batches);
  }

  // Degenerate-sampling visibility (satellite): counted unconditionally so a
  // drift score can never be silently polluted by uniform-fallback draws or
  // guard interventions that happened while the monitor was off.
  void CountFallbackDraw();
  void CountGuardEvent();

  // Computes and publishes the drift gauges + series from the accumulated
  // stream (cold path; the rolling exporter calls it each interval and the
  // CLI once at exit). No-op while disabled.
  //   fidelity.lifetime.ks    sup |F_emp - F_model| over the finite bin edges
  //   fidelity.flavor.tv      total variation, empirical vs marginal mix
  //   fidelity.arrival.rel_err  |mean batches/period - reference| / reference
  //   fidelity.lifetime.p50/.p95  smallest bin edge where F_emp reaches
  //                           0.5/0.95 (seconds; the last finite edge when
  //                           the quantile lies in the open bin)
  //   fidelity.jobs.observed  gauge mirror of the observed-job count
  void PublishDrift();

  // Snapshot accessors for tests and offline analysis (empty before the
  // first Enable).
  HistogramData LifetimeSnapshot() const;
  HistogramData ArrivalSnapshot() const;
  HistogramData FlavorSnapshot() const;
  FidelityReference Reference() const;

 private:
  // One Enable's reference and the stream counted against it.
  struct Accumulators {
    Accumulators(FidelityReference ref, const Accumulators* replaced_set);
    const FidelityReference reference;
    Histogram lifetimes;  // Seconds, on reference.lifetime_edges_sec.
    Histogram flavors;    // Edges 0..K-1: bucket k counts flavor k.
    Histogram batches;    // No edges: count and sum only.
    // The set this one replaced. Never freed, because a racing hot-path
    // Observe may still hold it; the chain keeps it reachable, so a leak
    // checker does not report it.
    const Accumulators* const replaced;
  };

  FidelityMonitor() = default;

  void ObserveJobImpl(double lifetime_seconds, int64_t flavor);
  void ObservePeriodBatchesImpl(int64_t n_batches);

  std::atomic<bool> enabled_{false};
  // Replaced whole by Enable; the hot path reads the pointer with one
  // acquire load. publish_seq_ numbers the drift series points.
  std::atomic<Accumulators*> accumulators_{nullptr};
  std::atomic<uint64_t> publish_seq_{0};
};

}  // namespace obs
}  // namespace cloudgen

#endif  // SRC_OBS_FIDELITY_MONITOR_H_
