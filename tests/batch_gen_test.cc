// Byte-identity suite for the batched multi-stream inference engine
// (src/core/batch_generator.h). The engine's contract is that generation is
// purely a throughput knob: for ANY batch window and ANY thread count, every
// trace is bitwise-identical to the single-stream oracle route
// (batch_window = 1, where every step is a batch-1 GEMV), because each
// stream draws only from its own Rng::Stream and batched GEMM rows reduce in
// the same per-element order as batch-1 GEMVs.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/batch_generator.h"
#include "src/core/workload_model.h"
#include "src/obs/metrics.h"
#include "src/synth/synthetic_cloud.h"
#include "src/trace/trace.h"
#include "src/util/check.h"
#include "src/util/fault.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace cloudgen {
namespace {

SynthProfile TinyProfile() {
  SynthProfile profile = AzureLikeProfile(0.4);
  profile.train_days = 2;
  profile.dev_days = 1;
  profile.test_days = 1;
  profile.num_flavors = 5;
  profile.num_users = 20;
  return profile;
}

WorkloadModelConfig TinyConfig() {
  WorkloadModelConfig config;
  config.flavor.hidden_dim = 16;
  config.flavor.num_layers = 1;
  config.flavor.seq_len = 32;
  config.flavor.batch_size = 16;
  config.flavor.epochs = 3;
  config.lifetime.hidden_dim = 16;
  config.lifetime.num_layers = 1;
  config.lifetime.seq_len = 32;
  config.lifetime.batch_size = 16;
  config.lifetime.epochs = 3;
  return config;
}

Trace TrainingTrace() {
  const Trace full = SyntheticCloud(TinyProfile(), 606).Generate();
  return ApplyObservationWindow(full, 0, 2 * kPeriodsPerDay, 2 * kPeriodsPerDay);
}

// Trains the shared dense-head model once; every test reuses it.
const WorkloadModel& DenseModel() {
  static const WorkloadModel* model = [] {
    SetGlobalThreads(1);
    auto* m = new WorkloadModel();
    Rng rng(42);
    CG_CHECK(m->Train(TrainingTrace(), TinyConfig(), rng).ok());
    return m;
  }();
  return *model;
}

// Same training data, but with the class-factored softmax head on the flavor
// network. A different sampling distribution than the dense head, so it is
// only ever compared against its own single-stream oracle.
const WorkloadModel& FactoredModel() {
  static const WorkloadModel* model = [] {
    SetGlobalThreads(1);
    auto* m = new WorkloadModel();
    WorkloadModelConfig config = TinyConfig();
    config.flavor.factored_clusters = 3;
    Rng rng(42);
    CG_CHECK(m->Train(TrainingTrace(), config, rng).ok());
    return m;
  }();
  return *model;
}

void ExpectSameTrace(const Trace& a, const Trace& b, size_t which,
                     const std::string& what) {
  ASSERT_EQ(a.NumJobs(), b.NumJobs()) << what << " trace " << which;
  for (size_t j = 0; j < a.NumJobs(); ++j) {
    const Job& x = a.Jobs()[j];
    const Job& y = b.Jobs()[j];
    ASSERT_EQ(x.start_period, y.start_period)
        << what << " trace " << which << " job " << j;
    ASSERT_EQ(x.end_period, y.end_period)
        << what << " trace " << which << " job " << j;
    ASSERT_EQ(x.flavor, y.flavor) << what << " trace " << which << " job " << j;
    ASSERT_EQ(x.user, y.user) << what << " trace " << which << " job " << j;
    ASSERT_EQ(x.censored, y.censored)
        << what << " trace " << which << " job " << j;
  }
}

// GenerateMany at seed 99, which keeps one batch window in flight per pool
// thread.
std::vector<Trace> GenerateAt(const WorkloadModel& model,
                              WorkloadModel::GenerateOptions options,
                              size_t count, size_t window, size_t threads) {
  SetGlobalThreads(threads);
  options.batch_window = window;
  Rng rng(99);
  std::vector<Trace> traces = model.GenerateMany(options, count, rng);
  SetGlobalThreads(1);
  return traces;
}

// The sharded scheduler at an explicit shard count, over the trace family
// GenerateAt draws (seed 99), collected in emit order.
std::vector<Trace> RunShardedAt(const WorkloadModel& model,
                                const WorkloadModel::GenerateOptions& options,
                                size_t count, size_t window, size_t threads,
                                size_t shards) {
  SetGlobalThreads(threads);
  std::vector<Trace> traces;
  RunShardedBatchEngines(model, options, WorkloadModel::TraceFamilyBase(99), 0, count,
                         window, shards, [&traces](size_t i, Trace&& trace) {
                           EXPECT_EQ(i, traces.size()) << "emitted out of index order";
                           traces.push_back(std::move(trace));
                           return true;
                         });
  SetGlobalThreads(1);
  return traces;
}

void ExpectSameTraces(const std::vector<Trace>& oracle,
                      const std::vector<Trace>& got, const std::string& what) {
  ASSERT_EQ(oracle.size(), got.size()) << what;
  for (size_t i = 0; i < oracle.size(); ++i) {
    ExpectSameTrace(oracle[i], got[i], i, what);
  }
}

WorkloadModel::GenerateOptions BaseOptions() {
  WorkloadModel::GenerateOptions options;
  options.from_period = 3 * kPeriodsPerDay;
  options.to_period = 3 * kPeriodsPerDay + 24;
  return options;
}

// The tentpole identity: batched generation at every window size and thread
// count reproduces the single-stream oracle byte for byte. Windows below the
// trace count force constant retire/refill churn (the active set is ragged on
// every tick); windows above it run the whole population in one batch.
TEST(BatchGenIdentity, BatchedMatchesOracleAcrossWindowsAndThreads) {
  const WorkloadModel& model = DenseModel();
  const WorkloadModel::GenerateOptions options = BaseOptions();
  constexpr size_t kCount = 70;  // > 64 so the 64-window actually refills.

  const std::vector<Trace> oracle =
      GenerateAt(model, options, kCount, /*window=*/1, /*threads=*/1);
  size_t total_jobs = 0;
  for (const Trace& trace : oracle) {
    total_jobs += trace.NumJobs();
  }
  ASSERT_GT(total_jobs, 0u);  // The window must actually produce work.

  for (const size_t window : {size_t{1}, size_t{7}, size_t{64}, size_t{513}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      const std::string what = "window=" + std::to_string(window) +
                               " threads=" + std::to_string(threads);
      ExpectSameTraces(oracle, GenerateAt(model, options, kCount, window, threads),
                       what);
    }
  }
}

// Window 1 steps every trace on the same single-step route Generate takes, so
// trace i of the family is Generate on Rng::Stream(base, i).
TEST(BatchGenIdentity, WindowOneMatchesSingleTraceGenerate) {
  const WorkloadModel& model = DenseModel();
  const WorkloadModel::GenerateOptions options = BaseOptions();
  constexpr size_t kCount = 6;

  const std::vector<Trace> oracle =
      GenerateAt(model, options, kCount, /*window=*/1, /*threads=*/1);
  const uint64_t base = WorkloadModel::TraceFamilyBase(99);
  for (size_t i = 0; i < kCount; ++i) {
    Rng stream = Rng::Stream(base, i);
    ExpectSameTrace(oracle[i], model.Generate(options, stream), i, "Generate");
  }
}

// Generate drives one machine directly, so it bumps the generation counters
// at the same points as the engine does for the same trace, and never the
// engine's own gen.batch.* / gen.shard.* counters.
TEST(BatchGenIdentity, SingleTraceRouteCountsLikeTheEngine) {
  const WorkloadModel& model = DenseModel();
  const WorkloadModel::GenerateOptions options = BaseOptions();
  const std::vector<std::string> generation = {"gen.periods", "gen.batches", "gen.jobs",
                                               "gen.tokens"};
  const std::vector<std::string> engine = {"gen.batch.ticks", "gen.batch.rows",
                                           "gen.batch.singles", "gen.shard.ticks",
                                           "gen.shard.rows"};
  const auto snapshot = [](const std::vector<std::string>& names) {
    std::vector<uint64_t> values;
    for (const std::string& name : names) {
      values.push_back(obs::Registry::Global().GetCounter(name).Value());
    }
    return values;
  };
  const auto delta = [](const std::vector<uint64_t>& after,
                        const std::vector<uint64_t>& before) {
    std::vector<uint64_t> d;
    for (size_t k = 0; k < after.size(); ++k) {
      d.push_back(after[k] - before[k]);
    }
    return d;
  };

  const std::vector<uint64_t> gen0 = snapshot(generation);
  const std::vector<uint64_t> engine0 = snapshot(engine);
  Rng stream = Rng::Stream(WorkloadModel::TraceFamilyBase(99), 0);
  const Trace trace = model.Generate(options, stream);
  const std::vector<uint64_t> gen1 = snapshot(generation);
  EXPECT_EQ(snapshot(engine), engine0);
  const std::vector<uint64_t> single = delta(gen1, gen0);
  EXPECT_EQ(single[0], static_cast<uint64_t>(options.to_period - options.from_period));
  EXPECT_EQ(single[2], trace.NumJobs());

  GenerateAt(model, options, /*count=*/1, /*window=*/1, /*threads=*/1);
  EXPECT_EQ(delta(snapshot(generation), gen1), single);
  EXPECT_NE(snapshot(engine), engine0);
}

// Staggered stream lengths: a longer horizon and a scaled arrival rate make
// per-stream token counts diverge sharply, so mid-tick groups are ragged
// (some streams in the flavor phase, others in the lifetime phase, retiring
// at very different tick counts). Identity must survive all of it.
TEST(BatchGenIdentity, RaggedStaggeredStreamsStayByteIdentical) {
  const WorkloadModel& model = DenseModel();
  WorkloadModel::GenerateOptions options = BaseOptions();
  options.to_period = 3 * kPeriodsPerDay + 48;
  options.arrival_scale = 2.0;
  constexpr size_t kCount = 20;

  const std::vector<Trace> oracle =
      GenerateAt(model, options, kCount, /*window=*/1, /*threads=*/1);
  ExpectSameTraces(oracle, GenerateAt(model, options, kCount, 7, 4),
                   "ragged window=7 threads=4");
  ExpectSameTraces(oracle, GenerateAt(model, options, kCount, 3, 1),
                   "ragged window=3 threads=1");
}

// The what-if knobs ride the same sampling path; batching must not disturb
// them (eob_scale reweights the EOB probability, stepped interpolation
// changes the duration transform).
TEST(BatchGenIdentity, WhatIfKnobsMatchOracle) {
  const WorkloadModel& model = DenseModel();
  WorkloadModel::GenerateOptions options = BaseOptions();
  options.eob_scale = 0.5;
  options.interpolation = Interpolation::kStepped;
  constexpr size_t kCount = 12;

  const std::vector<Trace> oracle =
      GenerateAt(model, options, kCount, /*window=*/1, /*threads=*/1);
  ExpectSameTraces(oracle, GenerateAt(model, options, kCount, 5, 4),
                   "eob_scale window=5 threads=4");
}

// Class-factored softmax: a different sampling distribution than the dense
// head (two draws per token), compared against its own single-stream oracle.
TEST(BatchGenIdentity, FactoredHeadBatchedMatchesOracle) {
  const WorkloadModel& model = FactoredModel();
  ASSERT_TRUE(model.FlavorModel().Network().IsFactored());
  const WorkloadModel::GenerateOptions options = BaseOptions();
  constexpr size_t kCount = 24;

  const std::vector<Trace> oracle =
      GenerateAt(model, options, kCount, /*window=*/1, /*threads=*/1);
  size_t total_jobs = 0;
  for (const Trace& trace : oracle) {
    total_jobs += trace.NumJobs();
  }
  ASSERT_GT(total_jobs, 0u);

  for (const size_t window : {size_t{1}, size_t{7}, size_t{64}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      const std::string what = "factored window=" + std::to_string(window) +
                               " threads=" + std::to_string(threads);
      ExpectSameTraces(oracle, GenerateAt(model, options, kCount, window, threads),
                       what);
    }
  }
}

// Sharded tick scheduler (RunShardedBatchEngines): the full shards x windows
// x threads matrix must reproduce the single-window oracle (one thread, so
// one shard) byte for byte. Shards beyond the thread count still run (they
// just share workers); windows below count/shards force per-shard
// retire/refill churn.
TEST(BatchGenIdentity, ShardedMatchesOracleAcrossShardsWindowsAndThreads) {
  const WorkloadModel& model = DenseModel();
  const WorkloadModel::GenerateOptions options = BaseOptions();
  constexpr size_t kCount = 70;

  const std::vector<Trace> oracle =
      GenerateAt(model, options, kCount, /*window=*/64, /*threads=*/1);
  size_t total_jobs = 0;
  for (const Trace& trace : oracle) {
    total_jobs += trace.NumJobs();
  }
  ASSERT_GT(total_jobs, 0u);

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    for (const size_t window : {size_t{1}, size_t{7}, size_t{64}}) {
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        const std::string what = "shards=" + std::to_string(shards) +
                                 " window=" + std::to_string(window) +
                                 " threads=" + std::to_string(threads);
        ExpectSameTraces(
            oracle, RunShardedAt(model, options, kCount, window, threads, shards),
            what);
      }
    }
  }
  // GenerateMany's own shard count (one per pool thread) is the same bytes too.
  ExpectSameTraces(oracle,
                   GenerateAt(model, options, kCount, /*window=*/7, /*threads=*/4),
                   "auto shards threads=4");
}

// --guard=fallback replays a poisoned step from the pre-step snapshot on the
// generator's own one-row state. With every step poisoned inside the batched
// engine, each step's output comes from that replay, and the traces must
// still equal the clean run byte for byte — for the dense and the factored
// head.
TEST(BatchGenIdentity, FallbackRouteRecoversBitwiseWhenBatched) {
  WorkloadModel::GenerateOptions options = BaseOptions();
  options.guard = GuardPolicy::kFallback;
  constexpr size_t kCount = 8;
  obs::Counter& fallbacks = obs::Registry::Global().GetCounter("gen.guard.fallbacks");
  for (const WorkloadModel* model : {&DenseModel(), &FactoredModel()}) {
    const std::string what =
        model->FlavorModel().Network().IsFactored() ? "factored" : "dense";
    const std::vector<Trace> clean =
        GenerateAt(*model, options, kCount, /*window=*/4, /*threads=*/1);
    const uint64_t before = fallbacks.Value();
    std::vector<Trace> recovered;
    {
      struct DisarmOnExit {
        ~DisarmOnExit() { FaultInjector::Global().Disarm(); }
      } disarm;
      ASSERT_TRUE(FaultInjector::Global().Configure("gen_nan_logit:1.0").ok());
      recovered = GenerateAt(*model, options, kCount, /*window=*/4, /*threads=*/1);
    }
    EXPECT_FALSE(FaultInjector::Global().Armed(FaultKind::kGenNanLogit));
    EXPECT_GT(fallbacks.Value(), before) << what;
    ExpectSameTraces(clean, recovered, what + " fallback window=4");
  }
}

}  // namespace
}  // namespace cloudgen
