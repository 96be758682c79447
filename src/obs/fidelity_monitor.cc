#include "src/obs/fidelity_monitor.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace cloudgen {
namespace obs {

namespace {

// Edges 0, 1, ..., n - 1: an id i in [0, n) lands in bucket i, and larger
// ids in the overflow bucket.
std::vector<double> IdEdges(size_t n) {
  std::vector<double> edges(n);
  for (size_t i = 0; i < n; ++i) {
    edges[i] = static_cast<double>(i);
  }
  return edges;
}

// Smallest edge at which the empirical CDF reaches q (the rank walk of
// HistogramQuantile without its in-bucket interpolation); the last finite
// edge when the rank falls in the overflow bucket, 0 when empty.
double EdgeQuantile(const HistogramData& hist, double q) {
  if (hist.count == 0 || hist.edges.empty()) {
    return 0.0;
  }
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(hist.count))));
  uint64_t cum = 0;
  for (size_t b = 0; b < hist.edges.size(); ++b) {
    cum += hist.counts[b];
    if (cum >= rank) {
      return hist.edges[b];
    }
  }
  return hist.edges.back();
}

}  // namespace

FidelityMonitor& FidelityMonitor::Global() {
  // Leaked like Registry::Global(): generation code caches no state from the
  // monitor, but exit-time telemetry export may still publish from it.
  static FidelityMonitor* monitor = new FidelityMonitor();
  return *monitor;
}

FidelityMonitor::Accumulators::Accumulators(FidelityReference ref,
                                            const Accumulators* replaced_set)
    : reference(std::move(ref)),
      lifetimes(reference.lifetime_edges_sec),
      flavors(IdEdges(reference.flavor_marginals.size())),
      batches(std::vector<double>()),
      replaced(replaced_set) {}

void FidelityMonitor::Enable(FidelityReference reference) {
  enabled_.store(false, std::memory_order_relaxed);
  // The old set is never freed (a racing hot-path Observe may still hold the
  // previous pointer); Enable happens a handful of times per process.
  Accumulators* fresh = new Accumulators(
      std::move(reference), accumulators_.load(std::memory_order_relaxed));
  accumulators_.store(fresh, std::memory_order_release);
  enabled_.store(true, std::memory_order_relaxed);
}

void FidelityMonitor::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void FidelityMonitor::ObserveJobImpl(double lifetime_seconds, int64_t flavor) {
  static Counter& jobs = Registry::Global().GetCounter("fidelity.jobs.observed");
  Accumulators* acc = accumulators_.load(std::memory_order_acquire);
  if (acc != nullptr) {
    acc->lifetimes.Observe(lifetime_seconds);
    acc->flavors.Observe(static_cast<double>(flavor));
  }
  jobs.Add(1);
}

void FidelityMonitor::ObservePeriodBatchesImpl(int64_t n_batches) {
  static Counter& periods = Registry::Global().GetCounter("fidelity.periods.observed");
  Accumulators* acc = accumulators_.load(std::memory_order_acquire);
  if (acc != nullptr) {
    acc->batches.Observe(static_cast<double>(n_batches));
  }
  periods.Add(1);
}

void FidelityMonitor::CountFallbackDraw() {
  static Counter& fallback = Registry::Global().GetCounter("fidelity.fallback_draws");
  fallback.Add(1);
}

void FidelityMonitor::CountGuardEvent() {
  static Counter& guard = Registry::Global().GetCounter("fidelity.guard_events");
  guard.Add(1);
}

HistogramData FidelityMonitor::LifetimeSnapshot() const {
  const Accumulators* acc = accumulators_.load(std::memory_order_acquire);
  return acc == nullptr ? HistogramData{} : acc->lifetimes.Data();
}

HistogramData FidelityMonitor::ArrivalSnapshot() const {
  const Accumulators* acc = accumulators_.load(std::memory_order_acquire);
  return acc == nullptr ? HistogramData{} : acc->batches.Data();
}

HistogramData FidelityMonitor::FlavorSnapshot() const {
  const Accumulators* acc = accumulators_.load(std::memory_order_acquire);
  return acc == nullptr ? HistogramData{} : acc->flavors.Data();
}

FidelityReference FidelityMonitor::Reference() const {
  const Accumulators* acc = accumulators_.load(std::memory_order_acquire);
  return acc == nullptr ? FidelityReference{} : acc->reference;
}

void FidelityMonitor::PublishDrift() {
  const Accumulators* acc = accumulators_.load(std::memory_order_acquire);
  if (!Enabled() || acc == nullptr) {
    return;
  }
  static Gauge& ks_gauge = Registry::Global().GetGauge("fidelity.lifetime.ks");
  static Gauge& tv_gauge = Registry::Global().GetGauge("fidelity.flavor.tv");
  static Gauge& arrival_gauge = Registry::Global().GetGauge("fidelity.arrival.rel_err");
  static Gauge& p50_gauge = Registry::Global().GetGauge("fidelity.lifetime.p50");
  static Gauge& p95_gauge = Registry::Global().GetGauge("fidelity.lifetime.p95");
  static Gauge& jobs_gauge = Registry::Global().GetGauge("fidelity.jobs.observed");
  static Series& ks_series = Registry::Global().GetSeries("fidelity.lifetime.ks");
  static Series& tv_series = Registry::Global().GetSeries("fidelity.flavor.tv");
  static Series& arrival_series = Registry::Global().GetSeries("fidelity.arrival.rel_err");

  const FidelityReference& reference = acc->reference;
  const HistogramData lifetimes = acc->lifetimes.Data();
  const HistogramData flavors = acc->flavors.Data();
  const HistogramData arrivals = acc->batches.Data();

  // KS-style sup-distance between the empirical lifetime CDF and the model
  // CDF at the finite bin edges, exact because the histogram counts at those
  // same edges. Empty stream => 0 drift (nothing observed contradicts
  // nothing).
  double ks = 0.0;
  if (lifetimes.count > 0) {
    uint64_t cum = 0;
    for (size_t j = 0; j < reference.lifetime_cdf.size() && j < lifetimes.edges.size(); ++j) {
      cum += lifetimes.counts[j];
      const double emp = static_cast<double>(cum) / static_cast<double>(lifetimes.count);
      ks = std::max(ks, std::fabs(emp - reference.lifetime_cdf[j]));
    }
  }
  // Total variation 0.5 * sum |empirical - reference| over the flavor ids;
  // mass in the overflow bucket (ids outside the reference) counts fully.
  double tv = 0.0;
  if (flavors.count > 0) {
    const double n = static_cast<double>(flavors.count);
    for (size_t k = 0; k < reference.flavor_marginals.size(); ++k) {
      tv += std::fabs(static_cast<double>(flavors.counts[k]) / n - reference.flavor_marginals[k]);
    }
    tv = 0.5 * (tv + static_cast<double>(flavors.counts.back()) / n);
  }
  double arrival_rel_err = 0.0;
  if (arrivals.count > 0) {
    const double mean = arrivals.sum / static_cast<double>(arrivals.count);
    const double ref_mean = reference.mean_batches_per_period;
    arrival_rel_err = std::fabs(mean - ref_mean) / std::max(std::fabs(ref_mean), 1e-12);
  }

  ks_gauge.Set(ks);
  tv_gauge.Set(tv);
  arrival_gauge.Set(arrival_rel_err);
  p50_gauge.Set(EdgeQuantile(lifetimes, 0.50));
  p95_gauge.Set(EdgeQuantile(lifetimes, 0.95));
  jobs_gauge.Set(static_cast<double>(lifetimes.count));

  const double seq = static_cast<double>(publish_seq_.fetch_add(1, std::memory_order_relaxed));
  ks_series.Append(seq, ks);
  tv_series.Append(seq, tv);
  arrival_series.Append(seq, arrival_rel_err);
}

}  // namespace obs
}  // namespace cloudgen
