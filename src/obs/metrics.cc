#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace cloudgen {
namespace obs {

uint32_t ThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace internal {

void AtomicDoubleAdd(std::atomic<uint64_t>* bits, double delta) {
  uint64_t observed = bits->load(std::memory_order_relaxed);
  while (true) {
    const uint64_t desired = std::bit_cast<uint64_t>(std::bit_cast<double>(observed) + delta);
    if (bits->compare_exchange_weak(observed, desired, std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace internal

// --- Counter ---------------------------------------------------------------

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const internal::ShardCell& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (internal::ShardCell& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// --- Gauge -----------------------------------------------------------------

void Gauge::Set(double v) {
  bits_.store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
}

void Gauge::Add(double delta) { internal::AtomicDoubleAdd(&bits_, delta); }

double Gauge::Value() const {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

void Gauge::Reset() { bits_.store(0, std::memory_order_relaxed); }

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> edges)
    : edges_(std::move(edges)), cells_(kMetricShards * (edges_.size() + 1)) {}

void Histogram::Observe(double v) {
  // The bucket is the first edge >= v; with ascending edges that is the
  // number of edges below v. Counting them is branch-free and vectorizes,
  // where a scan that stops at the edge mispredicts its exit. A NaN is
  // below no edge's `<=`, so it counts every edge: the overflow bucket.
  size_t bucket = 0;
  for (const double edge : edges_) {
    bucket += !(v <= edge);
  }
  const size_t shard = ThreadId() & (kMetricShards - 1);
  cells_[shard * NumBuckets() + bucket].value.fetch_add(1, std::memory_order_relaxed);
  internal::AtomicDoubleAdd(&sums_[shard].value, v);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(NumBuckets(), 0);
  for (size_t shard = 0; shard < kMetricShards; ++shard) {
    for (size_t b = 0; b < NumBuckets(); ++b) {
      counts[b] += cells_[shard * NumBuckets() + b].value.load(std::memory_order_relaxed);
    }
  }
  return counts;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const internal::ShardCell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const internal::ShardCell& cell : sums_) {
    total += std::bit_cast<double>(cell.value.load(std::memory_order_relaxed));
  }
  return total;
}

HistogramData Histogram::Data() const {
  HistogramData data;
  data.edges = edges_;
  data.counts = BucketCounts();
  for (uint64_t c : data.counts) {
    data.count += c;
  }
  data.sum = Sum();
  return data;
}

void Histogram::Reset() {
  for (internal::ShardCell& cell : cells_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
  for (internal::ShardCell& cell : sums_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
}

// --- Series ----------------------------------------------------------------

void Series::Append(double step, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  points_.emplace_back(step, value);
}

std::vector<std::pair<double, double>> Series::Points() const {
  std::lock_guard<std::mutex> lock(mu_);
  return points_;
}

void Series::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
}

// --- Registry --------------------------------------------------------------

const std::vector<double>& LatencyBucketsMs() {
  static const std::vector<double>* buckets = new std::vector<double>{
      0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0,
      1000.0, 3000.0, 10000.0, 30000.0, 120000.0};
  return *buckets;
}

const std::vector<double>& StepLatencyBucketsNs() {
  static const std::vector<double>* buckets = new std::vector<double>{
      250.0,     500.0,     1000.0,    2500.0,    5000.0,     10000.0,
      25000.0,   50000.0,   100000.0,  250000.0,  500000.0,   1000000.0,
      2500000.0, 5000000.0, 10000000.0};
  return *buckets;
}

Registry& Registry::Global() {
  // Leaked on purpose: pool workers and exit-time code may still be holding
  // metric references; the registry must outlive every other static.
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) {
    slot.reset(new Counter());
  }
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) {
    slot.reset(new Gauge());
  }
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name,
                                  const std::vector<double>& edges) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) {
    slot.reset(new Histogram(edges));
  }
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  return GetHistogram(name, LatencyBucketsMs());
}

Series& Registry::GetSeries(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Series>& slot = series_[name];
  if (!slot) {
    slot.reset(new Series());
  }
  return *slot;
}

namespace {

// Integral values print as integers; everything else round-trips via %.17g
// (dyadic rationals like 0.25 still come out short).
void AppendNumber(std::ostream& out, double v) {
  if (std::isfinite(v) && v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 1e15) {
    out << static_cast<long long>(v);
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

void AppendString(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

void Registry::WriteJson(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\n  \"schema\": \"cloudgen.metrics.v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "\n" : ",\n") << "    ";
    first = false;
    AppendString(out, name);
    out << ": " << counter->Value();
  }
  out << (first ? "},\n" : "\n  },\n");

  out << "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "\n" : ",\n") << "    ";
    first = false;
    AppendString(out, name);
    out << ": ";
    AppendNumber(out, gauge->Value());
  }
  out << (first ? "},\n" : "\n  },\n");

  out << "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    out << (first ? "\n" : ",\n") << "    ";
    first = false;
    AppendString(out, name);
    out << ": {\"edges\": [";
    for (size_t i = 0; i < hist->Edges().size(); ++i) {
      if (i > 0) {
        out << ", ";
      }
      AppendNumber(out, hist->Edges()[i]);
    }
    out << "], \"counts\": [";
    const HistogramData data = hist->Data();
    for (size_t i = 0; i < data.counts.size(); ++i) {
      if (i > 0) {
        out << ", ";
      }
      out << data.counts[i];
    }
    out << "], \"count\": " << data.count << ", \"sum\": ";
    AppendNumber(out, data.sum);
    out << "}";
  }
  out << (first ? "},\n" : "\n  },\n");

  out << "  \"series\": {";
  first = true;
  for (const auto& [name, series] : series_) {
    out << (first ? "\n" : ",\n") << "    ";
    first = false;
    AppendString(out, name);
    out << ": [";
    const auto points = series->Points();
    for (size_t i = 0; i < points.size(); ++i) {
      if (i > 0) {
        out << ", ";
      }
      out << "[";
      AppendNumber(out, points[i].first);
      out << ", ";
      AppendNumber(out, points[i].second);
      out << "]";
    }
    out << "]";
  }
  out << (first ? "}\n" : "\n  }\n");
  out << "}\n";
}

double HistogramQuantile(const HistogramData& hist, double q) {
  if (hist.count == 0 || hist.counts.empty()) {
    return 0.0;
  }
  const double clamped_q = std::min(1.0, std::max(0.0, q));
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(clamped_q * static_cast<double>(hist.count))));
  uint64_t cum = 0;
  for (size_t b = 0; b < hist.counts.size(); ++b) {
    const uint64_t in_bucket = hist.counts[b];
    if (cum + in_bucket < rank) {
      cum += in_bucket;
      continue;
    }
    if (b >= hist.edges.size()) {
      // Overflow bucket is unbounded; the last finite edge is the best
      // defensible estimate.
      return hist.edges.empty() ? 0.0 : hist.edges.back();
    }
    const double lo = b == 0 ? 0.0 : hist.edges[b - 1];
    const double hi = hist.edges[b];
    const double frac =
        in_bucket == 0 ? 1.0
                       : static_cast<double>(rank - cum) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * frac;
  }
  return hist.edges.empty() ? 0.0 : hist.edges.back();
}

namespace {

std::string PrometheusName(const std::string& name, const char* suffix = "") {
  std::string out = "cloudgen_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  out += suffix;
  return out;
}

}  // namespace

void WritePrometheusText(const RegistrySnapshot& snap, std::ostream& out) {
  for (const auto& [name, value] : snap.counters) {
    // The conventional _total suffix also keeps counters from colliding with
    // a same-named gauge (e.g. the fidelity.jobs.observed counter/gauge pair).
    const std::string prom = PrometheusName(name, "_total");
    out << "# TYPE " << prom << " counter\n" << prom << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = PrometheusName(name);
    out << "# TYPE " << prom << " gauge\n" << prom << " ";
    AppendNumber(out, value);
    out << "\n";
  }
  for (const auto& [name, hist] : snap.histograms) {
    const std::string prom = PrometheusName(name);
    out << "# TYPE " << prom << " histogram\n";
    uint64_t cum = 0;
    for (size_t b = 0; b < hist.edges.size() && b < hist.counts.size(); ++b) {
      cum += hist.counts[b];
      out << prom << "_bucket{le=\"";
      AppendNumber(out, hist.edges[b]);
      out << "\"} " << cum << "\n";
    }
    out << prom << "_bucket{le=\"+Inf\"} " << hist.count << "\n";
    out << prom << "_sum ";
    AppendNumber(out, hist.sum);
    out << "\n" << prom << "_count " << hist.count << "\n";
    if (hist.count > 0) {
      // Derived percentile gauges: the scrape-side p95 most dashboards and
      // the acceptance gates want, without needing recording rules.
      const struct {
        const char* suffix;
        double q;
      } kQuantiles[] = {{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}};
      for (const auto& [suffix, q] : kQuantiles) {
        const std::string gauge = PrometheusName(name, suffix);
        out << "# TYPE " << gauge << " gauge\n" << gauge << " ";
        AppendNumber(out, HistogramQuantile(hist, q));
        out << "\n";
      }
    }
  }
}

RegistrySnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.emplace(name, hist->Data());
  }
  for (const auto& [name, series] : series_) {
    snap.series[name] = series->Points();
  }
  return snap;
}

void Registry::WritePrometheus(std::ostream& out) const {
  WritePrometheusText(Snapshot(), out);
}

void Registry::UpdatePercentileGauges() {
  // Snapshot first, then set gauges: GetGauge retakes mu_, so deriving while
  // iterating histograms_ under the lock would self-deadlock.
  std::vector<std::pair<std::string, HistogramData>> hists;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hists.reserve(histograms_.size());
    for (const auto& [name, hist] : histograms_) {
      HistogramData data = hist->Data();
      if (data.count > 0) {
        hists.emplace_back(name, std::move(data));
      }
    }
  }
  for (const auto& [name, data] : hists) {
    GetGauge(name + ".p50").Set(HistogramQuantile(data, 0.50));
    GetGauge(name + ".p95").Set(HistogramQuantile(data, 0.95));
    GetGauge(name + ".p99").Set(HistogramQuantile(data, 0.99));
  }
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, hist] : histograms_) {
    hist->Reset();
  }
  for (auto& [name, series] : series_) {
    series->Reset();
  }
}

}  // namespace obs
}  // namespace cloudgen
