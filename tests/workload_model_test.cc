// End-to-end tests for the three-stage WorkloadModel: training, generation
// structure, what-if scaling, determinism, and persistence.
#include "src/core/workload_model.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "src/synth/synthetic_cloud.h"
#include "src/trace/stats.h"
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
  profile.num_flavors = 6;
  profile.num_users = 30;
  return profile;
}

WorkloadModelConfig TinyConfig() {
  WorkloadModelConfig config;
  config.flavor.hidden_dim = 24;
  config.flavor.num_layers = 1;
  config.flavor.seq_len = 48;
  config.flavor.batch_size = 16;
  config.flavor.epochs = 25;
  config.flavor.learning_rate = 5e-3f;
  config.lifetime.hidden_dim = 24;
  config.lifetime.num_layers = 1;
  config.lifetime.seq_len = 48;
  config.lifetime.batch_size = 16;
  config.lifetime.epochs = 25;
  config.lifetime.learning_rate = 5e-3f;
  return config;
}

class WorkloadModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    full_ = new Trace(SyntheticCloud(TinyProfile(), 505).Generate());
    train_ = new Trace(
        ApplyObservationWindow(*full_, 0, 2 * kPeriodsPerDay, 2 * kPeriodsPerDay));
    model_ = new WorkloadModel();
    Rng rng(16);
    ASSERT_TRUE(model_->Train(*train_, TinyConfig(), rng).ok());
  }

  static void TearDownTestSuite() {
    delete model_;
    delete train_;
    delete full_;
    model_ = nullptr;
    train_ = nullptr;
    full_ = nullptr;
  }

  void TearDown() override { FaultInjector::Global().Disarm(); }

  static Trace* full_;
  static Trace* train_;
  static WorkloadModel* model_;
};

Trace* WorkloadModelTest::full_ = nullptr;
Trace* WorkloadModelTest::train_ = nullptr;
WorkloadModel* WorkloadModelTest::model_ = nullptr;

TEST_F(WorkloadModelTest, TrainsAllStages) {
  EXPECT_TRUE(model_->IsTrained());
  EXPECT_TRUE(model_->ArrivalModel().IsFitted());
  EXPECT_TRUE(model_->FlavorModel().IsTrained());
  EXPECT_TRUE(model_->LifetimeModel().IsTrained());
  EXPECT_EQ(model_->HistoryDays(), 2);
}

TEST_F(WorkloadModelTest, GeneratesStructuredTrace) {
  WorkloadModel::GenerateOptions options;
  options.from_period = 3 * kPeriodsPerDay;
  options.to_period = 4 * kPeriodsPerDay;
  Rng rng(17);
  const Trace generated = model_->Generate(options, rng);
  ASSERT_GT(generated.NumJobs(), 200u);
  EXPECT_EQ(generated.WindowStart(), options.from_period);
  EXPECT_EQ(generated.NumFlavors(), train_->NumFlavors());
  int64_t prev = options.from_period;
  for (const Job& job : generated.Jobs()) {
    EXPECT_GE(job.start_period, prev);
    EXPECT_LT(job.start_period, options.to_period);
    EXPECT_GE(job.end_period, job.start_period);
    EXPECT_FALSE(job.censored);
    prev = job.start_period;
  }
  // Volume in the right ballpark of the training rate (within 3x).
  const double train_rate =
      static_cast<double>(train_->NumJobs()) / static_cast<double>(train_->WindowPeriods());
  const double gen_rate = static_cast<double>(generated.NumJobs()) /
                          static_cast<double>(generated.WindowPeriods());
  EXPECT_GT(gen_rate, train_rate / 3.0);
  EXPECT_LT(gen_rate, train_rate * 3.0);
}

TEST_F(WorkloadModelTest, BatchesAreReconstructible) {
  WorkloadModel::GenerateOptions options;
  options.from_period = 0;
  options.to_period = kPeriodsPerDay / 2;
  Rng rng(18);
  const Trace generated = model_->Generate(options, rng);
  const std::vector<PeriodBatches> periods = BuildBatches(generated);
  size_t batches = 0;
  bool multi_job_batch = false;
  for (const auto& period : periods) {
    batches += period.batches.size();
    for (const auto& batch : period.batches) {
      multi_job_batch |= batch.job_indices.size() > 1;
    }
  }
  EXPECT_GT(batches, 20u);
  EXPECT_TRUE(multi_job_batch) << "the generator must emit multi-VM batches";
}

TEST_F(WorkloadModelTest, TenXScalingMultipliesVolume) {
  WorkloadModel::GenerateOptions options;
  options.from_period = 0;
  options.to_period = kPeriodsPerDay / 2;
  Rng rng1(19);
  const size_t base = model_->Generate(options, rng1).NumJobs();
  options.arrival_scale = 10.0;
  Rng rng2(19);
  const size_t scaled = model_->Generate(options, rng2).NumJobs();
  EXPECT_NEAR(static_cast<double>(scaled) / static_cast<double>(base), 10.0, 3.0);
}

TEST_F(WorkloadModelTest, EobScaleControlsBatchSizes) {
  // Footnote-5 what-if: scaling the EOB probability down stretches batches,
  // scaling it up shortens them.
  auto mean_batch_size = [&](double eob_scale, uint64_t seed) {
    WorkloadModel::GenerateOptions options;
    options.from_period = 0;
    options.to_period = kPeriodsPerDay / 2;
    options.eob_scale = eob_scale;
    Rng rng(seed);
    const Trace trace = model_->Generate(options, rng);
    const std::vector<PeriodBatches> periods = BuildBatches(trace);
    size_t jobs = 0;
    size_t batches = 0;
    for (const auto& period : periods) {
      for (const auto& batch : period.batches) {
        jobs += batch.job_indices.size();
        ++batches;
      }
    }
    return static_cast<double>(jobs) / static_cast<double>(std::max<size_t>(1, batches));
  };
  const double stretched = mean_batch_size(0.3, 30);
  const double nominal = mean_batch_size(1.0, 30);
  const double shortened = mean_batch_size(3.0, 30);
  EXPECT_GT(stretched, nominal * 1.2);
  EXPECT_LT(shortened, nominal);
}

TEST_F(WorkloadModelTest, GenerationDeterministicGivenRng) {
  WorkloadModel::GenerateOptions options;
  options.from_period = 0;
  options.to_period = 36;
  Rng rng1(20);
  Rng rng2(20);
  const Trace a = model_->Generate(options, rng1);
  const Trace b = model_->Generate(options, rng2);
  ASSERT_EQ(a.NumJobs(), b.NumJobs());
  for (size_t i = 0; i < a.NumJobs(); ++i) {
    EXPECT_EQ(a.Jobs()[i].flavor, b.Jobs()[i].flavor);
    EXPECT_EQ(a.Jobs()[i].end_period, b.Jobs()[i].end_period);
  }
}

TEST_F(WorkloadModelTest, ArrivalModelOverrideDrivesRates) {
  // The Fig.-8 ablation hook: generation with an externally fitted arrival
  // model must follow that model's rates, not the internal one's.
  BatchArrivalModel tiny;
  ArrivalModelConfig config;
  config.use_doh = false;
  // Fit on a thinned view of the training data (every third batch) so the
  // override's rate is clearly lower.
  Trace thinned(train_->Flavors(), train_->WindowStart(), train_->WindowEnd());
  size_t kept = 0;
  for (const Job& job : train_->Jobs()) {
    if (job.user % 3 == 0) {
      thinned.Add(job);
      ++kept;
    }
  }
  ASSERT_GT(kept, 100u);
  tiny.Fit(thinned, ArrivalGranularity::kBatches, config);

  WorkloadModel::GenerateOptions options;
  options.from_period = 0;
  options.to_period = kPeriodsPerDay / 2;
  Rng rng1(40);
  Rng rng2(40);
  const size_t full = model_->Generate(options, rng1).NumJobs();
  const size_t thin =
      model_->GenerateWithArrivalModel(tiny, options, rng2).NumJobs();
  EXPECT_LT(static_cast<double>(thin), 0.7 * static_cast<double>(full));
}

bool SameJobs(const Trace& a, const Trace& b) {
  if (a.NumJobs() != b.NumJobs()) {
    return false;
  }
  for (size_t i = 0; i < a.NumJobs(); ++i) {
    const Job& x = a.Jobs()[i];
    const Job& y = b.Jobs()[i];
    if (x.start_period != y.start_period || x.end_period != y.end_period ||
        x.flavor != y.flavor || x.user != y.user || x.censored != y.censored) {
      return false;
    }
  }
  return true;
}

// GenerateMany must be bitwise-deterministic for any thread count on both
// step routes: each trace draws from its own seed-derived RNG stream.
TEST_F(WorkloadModelTest, GenerateManyIdenticalAcrossThreadsAndRoutes) {
  WorkloadModel::GenerateOptions options;
  options.from_period = 0;
  options.to_period = 36;
  options.guard = GuardPolicy::kFallback;
  const size_t count = 6;

  SetGlobalThreads(1);
  Rng rng1(25);
  const std::vector<Trace> serial = model_->GenerateMany(options, count, rng1);
  ASSERT_EQ(serial.size(), count);

  SetGlobalThreads(4);
  Rng rng4(25);
  const std::vector<Trace> threaded = model_->GenerateMany(options, count, rng4);
  ASSERT_EQ(threaded.size(), count);
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(SameJobs(serial[i], threaded[i])) << "trace " << i;
  }

  // Replayed steps, still at 4 threads, must match as well: with every
  // step poisoned, --guard=fallback replays each one from its snapshot.
  ASSERT_TRUE(FaultInjector::Global().Configure("gen_nan_logit:1.0").ok());
  Rng rng_ref(25);
  const std::vector<Trace> reference = model_->GenerateMany(options, count, rng_ref);
  ASSERT_EQ(reference.size(), count);
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(SameJobs(serial[i], reference[i])) << "trace " << i;
  }
  // Restore the library default (inline-only) pool.
  SetGlobalThreads(1);
}

TEST_F(WorkloadModelTest, SaveLoadNetworksRoundTrip) {
  const std::string prefix = ::testing::TempDir() + "/cg_workload_model";
  ASSERT_TRUE(model_->SaveToFiles(prefix).ok());
  WorkloadModel loaded;
  ASSERT_TRUE(loaded.LoadNetworksFromFiles(prefix, *train_, TinyConfig()).ok());
  EXPECT_TRUE(loaded.IsTrained());
  // Generation from the loaded model matches the original bit-for-bit.
  WorkloadModel::GenerateOptions options;
  options.from_period = 0;
  options.to_period = 36;
  Rng rng1(21);
  Rng rng2(21);
  const Trace a = model_->Generate(options, rng1);
  const Trace b = loaded.Generate(options, rng2);
  ASSERT_EQ(a.NumJobs(), b.NumJobs());
  std::remove((prefix + ".flavor.bin").c_str());
  std::remove((prefix + ".lifetime.bin").c_str());
}

}  // namespace
}  // namespace cloudgen
