// Lock-cheap metrics registry: counters, gauges, fixed-bucket histograms and
// append-only series, exported as one JSON snapshot (`--metrics-out`).
//
// Hot-path contract: an update on an already-registered metric is a handful of
// relaxed atomic operations — no locks, no allocation. Counters and histograms
// shard their cells across a small fixed array indexed by a dense per-thread
// id, so concurrent writers from the thread pool (BPTT and generation shards)
// rarely touch the same cache line; a snapshot sums the shards. Registration
// (name lookup) takes a mutex and is meant to happen once per call site —
// cache the returned reference, e.g. in a function-local static.
//
// Telemetry is observe-only by design: nothing in this module reads or
// advances an Rng, and nothing feeds back into model arithmetic, so traces and
// model files are bitwise-identical whether or not a snapshot is ever taken.
//
// This library sits below src/util (cloudgen_util links cloudgen_obs), so it
// depends only on the standard library.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace cloudgen {
namespace obs {

// Dense id for the calling thread: 0 for the first thread that asks, 1 for
// the next, and so on. Stable for the thread's lifetime; used to pick metric
// shards and to tag log lines and trace spans.
uint32_t ThreadId();

// Shard fan-out for counters and histograms. A power of two so the shard
// index is a mask of ThreadId(); collisions are still exact (fetch_add).
inline constexpr size_t kMetricShards = 16;

namespace internal {

struct alignas(64) ShardCell {
  std::atomic<uint64_t> value{0};
};

// Adds `delta` to an atomic double stored as bits (CAS loop; uncontended in
// practice because each shard is written by few threads).
void AtomicDoubleAdd(std::atomic<uint64_t>* bits, double delta);

}  // namespace internal

// Monotonically increasing integer metric. Snapshot value is exact: every
// Add lands in some shard's fetch_add.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[ThreadId() & (kMetricShards - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  uint64_t Value() const;

 private:
  friend class Registry;
  Counter() = default;
  void Reset();
  internal::ShardCell shards_[kMetricShards];
};

// Last-write-wins double metric with an Add for up/down tracking (queue
// depth, busy workers). Single cell: gauges are written at coarse points.
class Gauge {
 public:
  void Set(double v);
  void Add(double delta);
  double Value() const;

 private:
  friend class Registry;
  Gauge() = default;
  void Reset();
  std::atomic<uint64_t> bits_{0};
};

struct HistogramData;

// Fixed-bucket histogram. Bucket i counts observations with
// v <= edges[i] (and v > edges[i-1]); one final overflow bucket catches
// v > edges.back(). Counts are exact and the count is their sum; `sum` is a
// relaxed double accumulation (exact while it holds integers below 2^53).
// Usually registered by name; the fidelity monitor also builds private ones.
class Histogram {
 public:
  // `edges` must be strictly increasing; may be empty (count and sum only).
  explicit Histogram(std::vector<double> edges);

  void Observe(double v);

  const std::vector<double>& Edges() const { return edges_; }
  size_t NumBuckets() const { return edges_.size() + 1; }
  // Aggregated per-bucket counts (NumBuckets() entries, overflow last).
  std::vector<uint64_t> BucketCounts() const;
  uint64_t Count() const;
  double Sum() const;
  // One self-consistent copy: `count` is the sum of the copied `counts`.
  HistogramData Data() const;

 private:
  friend class Registry;
  void Reset();

  std::vector<double> edges_;
  // kMetricShards rows of NumBuckets() bucket cells each.
  std::vector<internal::ShardCell> cells_;
  // Per-shard sums, stored as double bits.
  internal::ShardCell sums_[kMetricShards];
};

// Append-only (step, value) sequence for per-epoch/per-iteration telemetry
// (loss curves, IRLS deviance). Appends take a mutex — strictly cold-path.
class Series {
 public:
  void Append(double step, double value);
  std::vector<std::pair<double, double>> Points() const;

 private:
  friend class Registry;
  Series() = default;
  void Reset();
  mutable std::mutex mu_;
  std::vector<std::pair<double, double>> points_;
};

// Default histogram edges for millisecond timings: 0.01 ms .. ~2 min, one
// bucket per decade half-step.
const std::vector<double>& LatencyBucketsMs();

// Histogram edges for nanosecond-scale timings (per-token generation steps):
// 250 ns .. 10 ms, one bucket per decade half-step.
const std::vector<double>& StepLatencyBucketsNs();

// Plain-data aggregate of a registry's state, decoupled from the live metric
// objects so snapshots can also be reconstructed from a serialized
// `cloudgen.metrics.v1` file (util/metrics_json.h) and re-rendered — e.g. by
// `cloudgen metrics-dump --prom`.
struct HistogramData {
  std::vector<double> edges;
  std::vector<uint64_t> counts;  // edges.size() + 1 entries, overflow last.
  uint64_t count = 0;
  double sum = 0.0;
};
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;
  std::map<std::string, std::vector<std::pair<double, double>>> series;
};

// Quantile estimate (q in [0, 1]) from fixed-bucket histogram counts with
// linear interpolation inside the target bucket; the overflow bucket reports
// the last finite edge. Returns 0 for an empty histogram.
double HistogramQuantile(const HistogramData& hist, double q);

// Prometheus text exposition (version 0.0.4) of a snapshot: names are
// sanitized (non [a-zA-Z0-9_] -> '_') and prefixed `cloudgen_`; histograms
// render cumulative `_bucket{le=...}` rows plus `_sum`/`_count`, and every
// non-empty histogram additionally emits derived `_p50`/`_p95`/`_p99`
// gauges so latency percentiles are scrapeable directly. Series have no
// Prometheus equivalent and are skipped (their latest values are published
// as gauges by the producers that need them scraped).
void WritePrometheusText(const RegistrySnapshot& snap, std::ostream& out);

// Name-keyed registry. Metrics are created on first Get* and live for the
// process lifetime (Reset zeroes values but never invalidates references, so
// cached references stay safe).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Process-wide registry (never destroyed).
  static Registry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  // An existing histogram is returned as-is; `edges` only applies on first
  // registration and must be strictly increasing.
  Histogram& GetHistogram(const std::string& name, const std::vector<double>& edges);
  Histogram& GetHistogram(const std::string& name);  // LatencyBucketsMs().
  Series& GetSeries(const std::string& name);

  // JSON snapshot of every registered metric, keys sorted by name:
  //   {"schema": "cloudgen.metrics.v1",
  //    "counters": {...}, "gauges": {...},
  //    "histograms": {name: {"edges": [...], "counts": [...],
  //                          "count": N, "sum": S}},
  //    "series": {name: [[step, value], ...]}}
  void WriteJson(std::ostream& out) const;

  // Plain-data copy of every registered metric.
  RegistrySnapshot Snapshot() const;

  // Prometheus text exposition of the current state (see WritePrometheusText).
  void WritePrometheus(std::ostream& out) const;

  // Derives `<hist>.p50` / `<hist>.p95` / `<hist>.p99` gauges for every
  // histogram with at least one observation (HistogramQuantile). Called at
  // snapshot time by the rolling exporter and the exit-time export, so JSON
  // snapshots carry scrape-ready percentiles without any hot-path cost.
  void UpdatePercentileGauges();

  // Zeroes all values in place (references stay valid). For tests.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Series>> series_;
};

}  // namespace obs
}  // namespace cloudgen

#endif  // SRC_OBS_METRICS_H_
