// Numeric-guard tests: policy parsing, the validators/sanitizers, and the
// end-to-end policy behaviors on a trained model with gen_nan_logit armed —
// abort throws, fallback recovers bitwise-identically by replaying the step,
// resample degrades gracefully but completes.
#include "src/core/gen_guard.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/workload_model.h"
#include "src/obs/metrics.h"
#include "src/synth/synthetic_cloud.h"
#include "src/util/fault.h"
#include "src/util/rng.h"

namespace cloudgen {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(GuardPolicyTest, ParsesEveryCliValue) {
  GuardPolicy policy = GuardPolicy::kOff;
  ASSERT_TRUE(ParseGuardPolicy("off", &policy));
  EXPECT_EQ(policy, GuardPolicy::kOff);
  ASSERT_TRUE(ParseGuardPolicy("abort", &policy));
  EXPECT_EQ(policy, GuardPolicy::kAbort);
  ASSERT_TRUE(ParseGuardPolicy("resample", &policy));
  EXPECT_EQ(policy, GuardPolicy::kResample);
  ASSERT_TRUE(ParseGuardPolicy("fallback", &policy));
  EXPECT_EQ(policy, GuardPolicy::kFallback);
  EXPECT_FALSE(ParseGuardPolicy("strict", &policy));
  EXPECT_FALSE(ParseGuardPolicy("", &policy));
}

TEST(GuardPolicyTest, NamesRoundTrip) {
  for (const GuardPolicy policy :
       {GuardPolicy::kOff, GuardPolicy::kAbort, GuardPolicy::kResample,
        GuardPolicy::kFallback}) {
    GuardPolicy parsed = GuardPolicy::kOff;
    ASSERT_TRUE(ParseGuardPolicy(GuardPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
}

TEST(GuardValidatorTest, AllFiniteScansTheFullSpan) {
  const float good[] = {0.0f, -3.5f, 7.0f};
  EXPECT_TRUE(AllFinite(good, 3));
  const float bad_tail[] = {1.0f, 2.0f, std::numeric_limits<float>::quiet_NaN()};
  EXPECT_FALSE(AllFinite(bad_tail, 3));
  EXPECT_TRUE(AllFinite(bad_tail, 2));  // NaN outside the span is invisible.
  const float inf[] = {std::numeric_limits<float>::infinity()};
  EXPECT_FALSE(AllFinite(inf, 1));
  EXPECT_TRUE(AllFinite(nullptr, 0));
}

TEST(GuardValidatorTest, ValidWeightsRequiresFiniteNonNegativePositiveSum) {
  EXPECT_TRUE(ValidWeights({0.2, 0.8}));
  EXPECT_TRUE(ValidWeights({0.0, 1.0}));
  EXPECT_FALSE(ValidWeights({0.0, 0.0}));   // Nothing to sample.
  EXPECT_FALSE(ValidWeights({1.0, -0.1}));  // Negative mass.
  EXPECT_FALSE(ValidWeights({1.0, kNan}));
  EXPECT_FALSE(ValidWeights({1.0, kInf}));
  EXPECT_FALSE(ValidWeights({}));
}

TEST(GuardValidatorTest, ValidHazardRequiresProbabilities) {
  EXPECT_TRUE(ValidHazard({0.0, 0.5, 1.0}));
  EXPECT_FALSE(ValidHazard({1.5}));
  EXPECT_FALSE(ValidHazard({-0.1}));
  EXPECT_FALSE(ValidHazard({kNan}));
  EXPECT_FALSE(ValidHazard({}));
}

TEST(GuardSanitizerTest, SanitizeWeightsZeroesBadMassAndDegradesToUniform) {
  std::vector<double> mixed = {1.0, -2.0, kNan, 3.0};
  SanitizeWeights(&mixed);
  EXPECT_EQ(mixed, (std::vector<double>{1.0, 0.0, 0.0, 3.0}));
  EXPECT_TRUE(ValidWeights(mixed));

  std::vector<double> hopeless = {-1.0, kNan, kInf};
  SanitizeWeights(&hopeless);
  EXPECT_EQ(hopeless, (std::vector<double>{1.0, 1.0, 1.0}));
  EXPECT_TRUE(ValidWeights(hopeless));
}

TEST(GuardSanitizerTest, SanitizeHazardClampsAndPinsNonFinite) {
  std::vector<double> hazard = {0.5, 2.0, -0.5, kNan, kInf};
  SanitizeHazard(&hazard);
  EXPECT_EQ(hazard, (std::vector<double>{0.5, 1.0, 0.0, 1.0, 1.0}));
  EXPECT_TRUE(ValidHazard(hazard));
}

TEST(GuardAbortTest, ThrowsGuardViolationAndCountsIt) {
  obs::Counter& aborts = obs::Registry::Global().GetCounter("gen.guard.aborts");
  const double before = aborts.Value();
  EXPECT_THROW(GuardAbort("synthetic guard abort"), GuardViolation);
  EXPECT_EQ(aborts.Value(), before + 1.0);
  try {
    GuardAbort("synthetic guard abort");
    FAIL() << "GuardAbort returned";
  } catch (const GuardViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find("synthetic guard abort"),
              std::string::npos);
  }
}

// --- End-to-end policy behavior on a trained model ----------------------

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

class GenGuardModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Trace full = SyntheticCloud(TinyProfile(), 505).Generate();
    const Trace train =
        ApplyObservationWindow(full, 0, 2 * kPeriodsPerDay, 2 * kPeriodsPerDay);
    model_ = new WorkloadModel();
    Rng rng(16);
    ASSERT_TRUE(model_->Train(train, TinyConfig(), rng).ok());
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  void TearDown() override { FaultInjector::Global().Disarm(); }

  static WorkloadModel::GenerateOptions Options(GuardPolicy guard) {
    WorkloadModel::GenerateOptions options;
    options.from_period = 0;
    options.to_period = 36;
    options.guard = guard;
    return options;
  }

  static bool SameJobs(const Trace& a, const Trace& b) {
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

  static WorkloadModel* model_;
};

WorkloadModel* GenGuardModelTest::model_ = nullptr;

TEST_F(GenGuardModelTest, GuardsAreFreeOnHealthyOutputs) {
  // No faults: every policy produces the identical trace — the checks
  // consume no RNG draws and repair nothing.
  Rng rng_off(23);
  const Trace off = model_->Generate(Options(GuardPolicy::kOff), rng_off);
  ASSERT_GT(off.NumJobs(), 0u);
  for (const GuardPolicy policy : {GuardPolicy::kAbort, GuardPolicy::kResample,
                                   GuardPolicy::kFallback}) {
    Rng rng(23);
    EXPECT_TRUE(SameJobs(off, model_->Generate(Options(policy), rng)))
        << "policy " << GuardPolicyName(policy);
  }
}

TEST_F(GenGuardModelTest, AbortPolicyThrowsOnInjectedNan) {
  ASSERT_TRUE(
      FaultInjector::Global().Configure("gen_nan_logit:1.0").ok());
  obs::Counter& violations =
      obs::Registry::Global().GetCounter("gen.guard.violations");
  const double before = violations.Value();
  Rng rng(23);
  EXPECT_THROW(model_->Generate(Options(GuardPolicy::kAbort), rng),
               GuardViolation);
  EXPECT_GT(violations.Value(), before);
}

TEST_F(GenGuardModelTest, FallbackPolicyRecoversBitwiseIdentically) {
  // Baseline: no faults.
  Rng rng_clean(23);
  const Trace clean = model_->Generate(Options(GuardPolicy::kAbort), rng_clean);
  ASSERT_GT(clean.NumJobs(), 0u);

  // Poison every step; the fallback's replay of it is clean, so the output
  // must match the unfaulted run exactly.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("gen_nan_logit:1.0").ok());
  obs::Counter& fallbacks =
      obs::Registry::Global().GetCounter("gen.guard.fallbacks");
  const double before = fallbacks.Value();
  Rng rng_faulted(23);
  const Trace recovered =
      model_->Generate(Options(GuardPolicy::kFallback), rng_faulted);
  EXPECT_TRUE(SameJobs(clean, recovered))
      << "fallback route diverged from the unfaulted trace";
  EXPECT_GT(fallbacks.Value(), before);
}

TEST_F(GenGuardModelTest, ResamplePolicyCompletesUnderSustainedNans) {
  ASSERT_TRUE(
      FaultInjector::Global().Configure("gen_nan_logit:1.0").ok());
  obs::Counter& resamples =
      obs::Registry::Global().GetCounter("gen.guard.resamples");
  const double before = resamples.Value();
  Rng rng(23);
  const Trace degraded = model_->Generate(Options(GuardPolicy::kResample), rng);
  // The distributions were repaired, not aborted on: generation runs to the
  // end of the window and every sampled job is structurally sound.
  EXPECT_GT(resamples.Value(), before);
  for (const Job& job : degraded.Jobs()) {
    EXPECT_GE(job.end_period, job.start_period);
    EXPECT_GE(job.flavor, 0);
    EXPECT_LT(job.flavor, 6);
  }
}

}  // namespace
}  // namespace cloudgen
