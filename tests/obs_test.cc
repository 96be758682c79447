// Telemetry subsystem tests: registry correctness under parallel hammering,
// histogram bucket-edge semantics, span nesting and export formats, and the
// observe-only contract (telemetry on vs off never changes model bytes or
// generated traces).
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/workload_model.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_span.h"
#include "src/synth/synthetic_cloud.h"
#include "src/util/metrics_exporter.h"
#include "src/util/metrics_json.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace cloudgen {
namespace {

// --- Counters under parallel load ------------------------------------------

TEST(ObsCounter, ExactUnderParallelForHammering) {
  obs::Registry registry;
  obs::Counter& counter = registry.GetCounter("test.hammer");
  constexpr size_t kItems = 10000;
  constexpr uint64_t kPerItem = 3;
  SetGlobalThreads(8);
  GlobalThreadPool().ParallelFor(0, kItems, [&](size_t) {
    for (uint64_t i = 0; i < kPerItem; ++i) {
      counter.Add();
    }
  });
  SetGlobalThreads(1);
  // Sharding may route different threads to the same cell, but every Add is a
  // fetch_add — the aggregate must be exact, not approximate.
  EXPECT_EQ(counter.Value(), kItems * kPerItem);
}

TEST(ObsCounter, AddWithArgumentAndIdentity) {
  obs::Registry registry;
  obs::Counter& counter = registry.GetCounter("test.add");
  counter.Add(5);
  counter.Add();
  EXPECT_EQ(counter.Value(), 6u);
  // Same name must return the same metric instance.
  EXPECT_EQ(&counter, &registry.GetCounter("test.add"));
}

// --- Gauges ------------------------------------------------------------------

TEST(ObsGauge, SetAndAdd) {
  obs::Registry registry;
  obs::Gauge& gauge = registry.GetGauge("test.gauge");
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(4.5);
  EXPECT_EQ(gauge.Value(), 4.5);
  gauge.Add(1.0);
  gauge.Add(-0.5);
  EXPECT_EQ(gauge.Value(), 5.0);
  gauge.Set(-2.0);
  EXPECT_EQ(gauge.Value(), -2.0);
}

// --- Histogram bucket semantics ---------------------------------------------

TEST(ObsHistogram, BucketEdgeSemantics) {
  obs::Registry registry;
  obs::Histogram& hist = registry.GetHistogram("test.hist", {1.0, 2.0, 4.0});
  ASSERT_EQ(hist.NumBuckets(), 4u);  // 3 edges + overflow.
  hist.Observe(0.5);  // <= 1        -> bucket 0
  hist.Observe(1.0);  // == edge     -> bucket 0 (le semantics)
  hist.Observe(1.5);  //             -> bucket 1
  hist.Observe(4.0);  // == last edge-> bucket 2
  hist.Observe(4.1);  // > last edge -> overflow
  const std::vector<uint64_t> counts = hist.BucketCounts();
  EXPECT_EQ(counts, (std::vector<uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(hist.Count(), 5u);
  EXPECT_DOUBLE_EQ(hist.Sum(), 0.5 + 1.0 + 1.5 + 4.0 + 4.1);
}

// Observe counts the edges below a value instead of scanning for the first
// edge >= it. Both must pick the same bucket for every double: the edges
// themselves and their neighbours, +-0, +-inf, NaN and random values, on
// edge sets as short as one edge and as long as the lifetime bins.
TEST(ObsHistogram, BucketIsTheFirstEdgeAtOrAboveTheValue) {
  std::vector<double> lifetime_like;
  for (int i = 0; i < 46; ++i) {
    lifetime_like.push_back(60.0 * std::pow(1.3, i));
  }
  const std::vector<std::vector<double>> edge_sets = {
      {0.0}, {-1.0, 0.0, 2.5}, {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, lifetime_like};
  Rng rng(17);
  for (const std::vector<double>& edges : edge_sets) {
    SCOPED_TRACE("edges " + std::to_string(edges.size()));
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> values = {0.0,
                                  -0.0,
                                  inf,
                                  -inf,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  -std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::denorm_min(),
                                  std::numeric_limits<double>::max(),
                                  -std::numeric_limits<double>::max()};
    for (const double edge : edges) {
      values.push_back(edge);
      values.push_back(std::nextafter(edge, -inf));
      values.push_back(std::nextafter(edge, inf));
    }
    for (int i = 0; i < 200; ++i) {
      values.push_back(rng.Uniform(edges.front() - 10.0, edges.back() + 10.0));
    }
    obs::Histogram hist(edges);
    std::vector<uint64_t> want(hist.NumBuckets(), 0);
    for (const double v : values) {
      size_t bucket = edges.size();
      for (size_t i = 0; i < edges.size(); ++i) {
        if (v <= edges[i]) {
          bucket = i;
          break;
        }
      }
      ++want[bucket];
      hist.Observe(v);
      ASSERT_EQ(hist.BucketCounts(), want) << "value " << v;
    }
  }
}

TEST(ObsHistogram, ExactCountUnderParallelObserve) {
  obs::Registry registry;
  obs::Histogram& hist = registry.GetHistogram("test.phist", {10.0, 100.0});
  constexpr size_t kItems = 5000;
  SetGlobalThreads(8);
  GlobalThreadPool().ParallelFor(0, kItems, [&](size_t i) {
    hist.Observe(static_cast<double>(i % 150));
  });
  SetGlobalThreads(1);
  EXPECT_EQ(hist.Count(), kItems);
  const std::vector<uint64_t> counts = hist.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0] + counts[1] + counts[2], kItems);
  // i % 150: values 0..10 -> bucket 0, 11..100 -> bucket 1, 101..149 -> over.
  // 5000 = 33 full cycles + a partial cycle of residues 0..49.
  EXPECT_EQ(counts[0], (kItems / 150) * 11 + 11);
  EXPECT_EQ(counts[2], (kItems / 150) * 49);
}

TEST(ObsHistogram, DefaultEdgesAreLatencyBuckets) {
  obs::Registry registry;
  obs::Histogram& hist = registry.GetHistogram("test.default");
  EXPECT_EQ(hist.Edges(), obs::LatencyBucketsMs());
}

// --- Series -----------------------------------------------------------------

TEST(ObsSeries, PreservesAppendOrder) {
  obs::Registry registry;
  obs::Series& series = registry.GetSeries("test.series");
  series.Append(0, 2.5);
  series.Append(1, 1.25);
  series.Append(2, 0.75);
  const auto points = series.Points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0], std::make_pair(0.0, 2.5));
  EXPECT_EQ(points[1], std::make_pair(1.0, 1.25));
  EXPECT_EQ(points[2], std::make_pair(2.0, 0.75));
}

// --- ScopedTimer ------------------------------------------------------------

TEST(ObsScopedTimer, FeedsHistogram) {
  obs::Registry registry;
  obs::Histogram& hist = registry.GetHistogram("test.timer_ms");
  {
    ScopedTimer timer(&hist);
    Timer spin;
    while (spin.ElapsedSeconds() < 0.001) {
    }
  }
  EXPECT_EQ(hist.Count(), 1u);
  EXPECT_GE(hist.Sum(), 1.0);  // At least the 1 ms we spun.
}

TEST(ObsScopedTimer, NullHistogramIsPlainTimer) {
  ScopedTimer timer(nullptr);  // Must not crash on destruction.
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
}

// --- Registry JSON snapshot --------------------------------------------------

TEST(ObsRegistry, JsonGolden) {
  obs::Registry registry;
  registry.GetCounter("jobs").Add(3);
  registry.GetGauge("rate").Set(2.5);
  obs::Histogram& hist = registry.GetHistogram("lat", {1.0, 10.0});
  hist.Observe(0.5);
  hist.Observe(5.0);
  registry.GetSeries("loss").Append(0, 0.5);
  std::ostringstream out;
  registry.WriteJson(out);
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"schema\": \"cloudgen.metrics.v1\",\n"
            "  \"counters\": {\n"
            "    \"jobs\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"rate\": 2.5\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"lat\": {\"edges\": [1, 10], \"counts\": [1, 1, 0], "
            "\"count\": 2, \"sum\": 5.5}\n"
            "  },\n"
            "  \"series\": {\n"
            "    \"loss\": [[0, 0.5]]\n"
            "  }\n"
            "}\n");
}

TEST(ObsRegistry, EmptyJsonIsValid) {
  obs::Registry registry;
  std::ostringstream out;
  registry.WriteJson(out);
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"schema\": \"cloudgen.metrics.v1\",\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {},\n"
            "  \"series\": {}\n"
            "}\n");
}

TEST(ObsRegistry, ResetZeroesInPlaceKeepingReferences) {
  obs::Registry registry;
  obs::Counter& counter = registry.GetCounter("c");
  obs::Series& series = registry.GetSeries("s");
  counter.Add(7);
  series.Append(0, 1.0);
  registry.Reset();
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_TRUE(series.Points().empty());
  counter.Add(1);  // The cached reference must still be live.
  EXPECT_EQ(registry.GetCounter("c").Value(), 1u);
}

// --- Histogram-derived percentiles ------------------------------------------

TEST(ObsHistogramQuantile, InterpolatesWithinBucketsAndClampsOverflow) {
  obs::HistogramData hist;
  hist.edges = {1.0, 2.0, 4.0};
  hist.counts = {2, 2, 0, 1};  // One observation past the last edge.
  hist.count = 5;
  hist.sum = 10.0;
  // rank = max(1, ceil(q * count)); linear interpolation inside the bucket.
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(hist, 0.0), 0.5);   // rank 1 of 2 in [0,1].
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(hist, 0.4), 1.0);   // rank 2 hits the edge.
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(hist, 0.5), 1.5);   // rank 3 of 2 in (1,2].
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(hist, 1.0), 4.0);   // Overflow clamps.
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(obs::HistogramData{}, 0.5), 0.0);
}

TEST(ObsRegistry, UpdatePercentileGaugesDerivesFromNonEmptyHistograms) {
  obs::Registry registry;
  obs::Histogram& hist = registry.GetHistogram("verb.ms", {1.0, 10.0});
  registry.GetHistogram("empty.ms", {1.0});
  hist.Observe(0.5);
  hist.Observe(5.0);
  registry.UpdatePercentileGauges();
  EXPECT_DOUBLE_EQ(registry.GetGauge("verb.ms.p50").Value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("verb.ms.p95").Value(), 10.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("verb.ms.p99").Value(), 10.0);
  // Empty histograms contribute no gauges (checked via the snapshot so the
  // probe itself doesn't create one).
  const obs::RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.gauges.count("empty.ms.p50"), 0u);
}

// --- Prometheus text exposition ----------------------------------------------

TEST(ObsPrometheus, TextExpositionGolden) {
  obs::Registry registry;
  registry.GetCounter("gen.shard.ticks").Add(12);
  registry.GetCounter("jobs").Add(3);
  registry.GetGauge("bench.gen.tokens_per_sec_sharded").Set(50000);
  registry.GetGauge("fidelity.lifetime.ks").Set(0.25);
  registry.GetGauge("gen.shard.occupancy").Set(0.75);
  obs::Histogram& hist = registry.GetHistogram("lat.ms", {1.0, 10.0});
  hist.Observe(0.5);
  hist.Observe(5.0);
  registry.GetSeries("loss").Append(0, 0.5);  // Series are not exposed.
  std::ostringstream out;
  registry.WritePrometheus(out);
  EXPECT_EQ(out.str(),
            "# TYPE cloudgen_gen_shard_ticks_total counter\n"
            "cloudgen_gen_shard_ticks_total 12\n"
            "# TYPE cloudgen_jobs_total counter\n"
            "cloudgen_jobs_total 3\n"
            "# TYPE cloudgen_bench_gen_tokens_per_sec_sharded gauge\n"
            "cloudgen_bench_gen_tokens_per_sec_sharded 50000\n"
            "# TYPE cloudgen_fidelity_lifetime_ks gauge\n"
            "cloudgen_fidelity_lifetime_ks 0.25\n"
            "# TYPE cloudgen_gen_shard_occupancy gauge\n"
            "cloudgen_gen_shard_occupancy 0.75\n"
            "# TYPE cloudgen_lat_ms histogram\n"
            "cloudgen_lat_ms_bucket{le=\"1\"} 1\n"
            "cloudgen_lat_ms_bucket{le=\"10\"} 2\n"
            "cloudgen_lat_ms_bucket{le=\"+Inf\"} 2\n"
            "cloudgen_lat_ms_sum 5.5\n"
            "cloudgen_lat_ms_count 2\n"
            "# TYPE cloudgen_lat_ms_p50 gauge\n"
            "cloudgen_lat_ms_p50 1\n"
            "# TYPE cloudgen_lat_ms_p95 gauge\n"
            "cloudgen_lat_ms_p95 10\n"
            "# TYPE cloudgen_lat_ms_p99 gauge\n"
            "cloudgen_lat_ms_p99 10\n");
}

// --- Snapshot JSON round-trip ------------------------------------------------

TEST(ObsMetricsJson, RoundTripsRegistrySnapshot) {
  obs::Registry registry;
  registry.GetCounter("jobs").Add(3);
  registry.GetGauge("rate").Set(2.5);
  obs::Histogram& hist = registry.GetHistogram("lat", {1.0, 10.0});
  hist.Observe(0.5);
  hist.Observe(5.0);
  registry.GetSeries("loss").Append(0, 0.5);
  std::ostringstream out;
  registry.WriteJson(out);

  obs::RegistrySnapshot snap;
  ASSERT_TRUE(ParseMetricsSnapshot(out.str(), &snap).ok());
  EXPECT_EQ(snap.counters.at("jobs"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("rate"), 2.5);
  const obs::HistogramData& parsed = snap.histograms.at("lat");
  EXPECT_EQ(parsed.edges, (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(parsed.counts, (std::vector<uint64_t>{1, 1, 0}));
  EXPECT_EQ(parsed.count, 2u);
  EXPECT_DOUBLE_EQ(parsed.sum, 5.5);
  ASSERT_EQ(snap.series.at("loss").size(), 1u);
  EXPECT_EQ(snap.series.at("loss")[0], std::make_pair(0.0, 0.5));
}

TEST(ObsMetricsJson, RejectsMalformedAndWrongSchema) {
  obs::RegistrySnapshot snap;
  EXPECT_FALSE(ParseMetricsSnapshot("{", &snap).ok());
  EXPECT_FALSE(ParseMetricsSnapshot("", &snap).ok());
  EXPECT_FALSE(ParseMetricsSnapshot("{\"schema\": \"other.v9\"}", &snap).ok());
  // Histogram with counts/edges length mismatch is rejected, not mis-read.
  EXPECT_FALSE(ParseMetricsSnapshot(
                   "{\"schema\": \"cloudgen.metrics.v1\", \"counters\": {}, "
                   "\"gauges\": {}, \"histograms\": {\"h\": {\"edges\": [1], "
                   "\"counts\": [1], \"count\": 1, \"sum\": 1}}, "
                   "\"series\": {}}",
                   &snap)
                   .ok());
}

// --- Rolling exporter ---------------------------------------------------------

TEST(ObsExporter, StartAndStopEachWriteAParseableSnapshot) {
  const std::string base = ::testing::TempDir() + "obs_exporter_test.json";
  RollingMetricsExporter::Options options;
  options.base_path = base;
  options.interval_sec = 3600.0;  // Only the Start and Stop snapshots fire.
  RollingMetricsExporter exporter(options);
  exporter.Start();
  exporter.Start();  // Idempotent.
  exporter.Stop();
  exporter.Stop();  // Idempotent.
  EXPECT_EQ(exporter.SnapshotsWritten(), 2u);
  for (const char* suffix : {".roll-000000.json", ".roll-000001.json"}) {
    std::ifstream in(base + suffix, std::ios::binary);
    ASSERT_TRUE(in) << suffix;
    std::ostringstream buf;
    buf << in.rdbuf();
    obs::RegistrySnapshot snap;
    EXPECT_TRUE(ParseMetricsSnapshot(buf.str(), &snap).ok()) << suffix;
  }
}

// --- Trace spans -------------------------------------------------------------

// Serializes tests that mutate the global collector (the gtest default runner
// is single-threaded, so a fixture reset is enough).
class ObsSpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::TraceCollector::Global().Reset();
    obs::TraceCollector::Global().SetEnabled(true);
  }
  void TearDown() override {
    obs::TraceCollector::Global().SetEnabled(false);
    obs::TraceCollector::Global().Reset();
  }
};

TEST_F(ObsSpanTest, DisabledCollectorRecordsNothing) {
  obs::TraceCollector::Global().SetEnabled(false);
  { CG_SPAN("invisible"); }
  EXPECT_EQ(obs::TraceCollector::Global().NumEvents(), 0u);
}

TEST_F(ObsSpanTest, NestedSpansCloseInnerFirst) {
  {
    CG_SPAN("outer");
    { CG_SPAN("inner"); }
  }
  const std::vector<obs::SpanEvent> events = obs::TraceCollector::Global().Events();
  ASSERT_EQ(events.size(), 2u);
  // Completion order: inner closes before outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  // The outer span starts no later and ends no earlier than the inner one.
  EXPECT_LE(events[1].ts_us, events[0].ts_us);
  EXPECT_GE(events[1].ts_us + events[1].dur_us, events[0].ts_us + events[0].dur_us);
}

TEST_F(ObsSpanTest, SpansRecordFromPoolThreads) {
  SetGlobalThreads(4);
  GlobalThreadPool().ParallelFor(0, 64, [&](size_t) { CG_SPAN("pool_item"); });
  SetGlobalThreads(1);
  EXPECT_EQ(obs::TraceCollector::Global().NumEvents(), 64u);
}

TEST(ObsTrace, ChromeTraceGolden) {
  obs::TraceCollector collector;
  // Parent and child share a start; the longer (parent) span must be emitted
  // first so chrome://tracing nests them correctly.
  collector.Record("child", 100, 40, 1);
  collector.Record("parent", 100, 90, 1);
  collector.Record("late", 500, 10, 2);
  std::ostringstream out;
  collector.WriteChromeTrace(out);
  EXPECT_EQ(out.str(),
            "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
            "  {\"name\": \"parent\", \"cat\": \"cloudgen\", \"ph\": \"X\", "
            "\"ts\": 100, \"dur\": 90, \"pid\": 0, \"tid\": 1},\n"
            "  {\"name\": \"child\", \"cat\": \"cloudgen\", \"ph\": \"X\", "
            "\"ts\": 100, \"dur\": 40, \"pid\": 0, \"tid\": 1},\n"
            "  {\"name\": \"late\", \"cat\": \"cloudgen\", \"ph\": \"X\", "
            "\"ts\": 500, \"dur\": 10, \"pid\": 0, \"tid\": 2}\n"
            "]}\n");
}

TEST(ObsTrace, EmptyChromeTraceIsValid) {
  obs::TraceCollector collector;
  std::ostringstream out;
  collector.WriteChromeTrace(out);
  EXPECT_EQ(out.str(), "{\"displayTimeUnit\": \"ms\", \"traceEvents\": []}\n");
}

// --- Observe-only contract ---------------------------------------------------

SynthProfile ObsTinyProfile() {
  SynthProfile profile = AzureLikeProfile(0.3);
  profile.train_days = 2;
  profile.dev_days = 1;
  profile.test_days = 1;
  profile.num_flavors = 4;
  profile.num_users = 12;
  return profile;
}

WorkloadModelConfig ObsTinyConfig() {
  WorkloadModelConfig config;
  config.flavor.hidden_dim = 8;
  config.flavor.num_layers = 1;
  config.flavor.seq_len = 16;
  config.flavor.batch_size = 8;
  config.flavor.epochs = 2;
  config.lifetime.hidden_dim = 8;
  config.lifetime.num_layers = 1;
  config.lifetime.seq_len = 16;
  config.lifetime.batch_size = 8;
  config.lifetime.epochs = 2;
  return config;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Trains + generates with span collection toggled and returns the model bytes
// plus a digest of the generated jobs.
std::pair<std::string, std::string> TrainAndGenerate(bool telemetry_on,
                                                     const std::string& prefix) {
  obs::TraceCollector::Global().SetEnabled(telemetry_on);
  const Trace full = SyntheticCloud(ObsTinyProfile(), 321).Generate();
  const Trace train =
      ApplyObservationWindow(full, 0, 2 * kPeriodsPerDay, 2 * kPeriodsPerDay);
  WorkloadModel model;
  Rng rng(42);
  EXPECT_TRUE(model.Train(train, ObsTinyConfig(), rng).ok());
  EXPECT_TRUE(model.SaveToFiles(prefix).ok());

  WorkloadModel::GenerateOptions options;
  options.from_period = 3 * kPeriodsPerDay;
  options.to_period = 3 * kPeriodsPerDay + 12;
  Rng gen_rng(99);
  const Trace generated = model.Generate(options, gen_rng);
  std::ostringstream digest;
  for (const Job& job : generated.Jobs()) {
    digest << job.start_period << "," << job.end_period << "," << job.flavor << ","
           << job.user << ";";
  }
  obs::TraceCollector::Global().SetEnabled(false);
  return {ReadFileBytes(prefix + ".flavor.bin") + ReadFileBytes(prefix + ".lifetime.bin"),
          digest.str()};
}

// The tentpole invariant: telemetry is observe-only. Turning span collection
// on (and letting every counter/series fire) must leave trained model bytes
// and generated traces bitwise-identical.
TEST(ObsDeterminism, TelemetryOnOffBitwiseIdentical) {
  obs::TraceCollector::Global().Reset();
  const std::string dir = ::testing::TempDir();
  const auto off = TrainAndGenerate(false, dir + "obs_off");
  const auto on = TrainAndGenerate(true, dir + "obs_on");
  ASSERT_FALSE(off.first.empty());
  EXPECT_EQ(off.first, on.first) << "model bytes differ with telemetry enabled";
  EXPECT_EQ(off.second, on.second) << "generated jobs differ with telemetry enabled";
  // The instrumented pipeline must actually have recorded spans when on.
  EXPECT_GT(obs::TraceCollector::Global().NumEvents(), 0u);
  obs::TraceCollector::Global().Reset();
}

}  // namespace
}  // namespace cloudgen
