// Tests for the lifetime LSTM (stage 3): stream construction with censoring,
// training, evaluation vs. Kaplan-Meier baselines, the stateful generator,
// and persistence.
#include "src/core/lifetime_model.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/lifetime_baselines.h"
#include "src/nn/activations.h"
#include "src/synth/synthetic_cloud.h"
#include "src/util/rng.h"

namespace cloudgen {
namespace {

SynthProfile TinyProfile() {
  SynthProfile profile = AzureLikeProfile(0.4);
  profile.train_days = 2;
  profile.dev_days = 1;
  profile.test_days = 1;
  profile.num_flavors = 6;
  profile.num_users = 30;
  profile.lifetime_repeat_prob = 0.9;
  return profile;
}

LifetimeModelConfig TinyConfig() {
  LifetimeModelConfig config;
  config.hidden_dim = 24;
  config.num_layers = 1;
  config.seq_len = 48;
  config.batch_size = 16;
  config.epochs = 25;
  config.learning_rate = 5e-3f;
  return config;
}

struct Fixture {
  Trace full;
  Trace train;
  Trace test;
  LifetimeBinning binning = MakePaperBinning();

  Fixture() {
    full = SyntheticCloud(TinyProfile(), 202).Generate();
    train = ApplyObservationWindow(full, 0, 2 * kPeriodsPerDay, 2 * kPeriodsPerDay);
    test = ApplyObservationWindow(full, 3 * kPeriodsPerDay, 4 * kPeriodsPerDay,
                                  4 * kPeriodsPerDay);
  }
};

TEST(LifetimeStream, StructureAndCensoring) {
  const Fixture fixture;
  const LifetimeStream stream = BuildLifetimeStream(fixture.train, fixture.binning, 2);
  ASSERT_EQ(stream.steps.size(), fixture.train.NumJobs());
  ASSERT_EQ(stream.lifetimes_seconds.size(), stream.steps.size());
  size_t censored = 0;
  size_t firsts = 0;
  for (size_t i = 0; i < stream.steps.size(); ++i) {
    const LifetimeStep& step = stream.steps[i];
    EXPECT_LT(step.bin, fixture.binning.NumBins());
    EXPECT_GE(step.batch_size, 1u);
    censored += step.censored ? 1 : 0;
    firsts += step.first_in_batch ? 1 : 0;
    if (step.censored) {
      EXPECT_DOUBLE_EQ(stream.lifetimes_seconds[i], -1.0);
    } else {
      EXPECT_GE(stream.lifetimes_seconds[i], 0.0);
    }
  }
  EXPECT_GT(censored, 0u) << "the 2-day window must censor some long VMs";
  EXPECT_GT(firsts, 0u);
  EXPECT_TRUE(stream.steps[0].first_in_batch);
}

TEST(LifetimeLstm, TrainEvaluateBeatsPerFlavorKm) {
  const Fixture fixture;
  LifetimeLstmModel model;
  Rng rng(11);
  ASSERT_TRUE(model.Train(fixture.train, fixture.binning, 2, TinyConfig(), rng).ok());
  ASSERT_TRUE(model.IsTrained());

  const LifetimeLstmModel::EvalResult lstm = model.Evaluate(fixture.test);
  ASSERT_GT(lstm.uncensored_steps, 100u);

  const LifetimeStream test_stream =
      BuildLifetimeStream(fixture.test, fixture.binning, 2);
  const PerFlavorKmBaseline km(fixture.train, fixture.binning);
  const LifetimeBaselineEval base = EvaluateLifetimeBaseline(km, test_stream);
  // Strong within-batch lifetime momentum: the recurrent model must beat the
  // order-blind KM on both the likelihood and the 1-best error.
  EXPECT_LT(lstm.bce, base.bce);
  EXPECT_LT(lstm.one_best_err, base.one_best_err);
}

TEST(LifetimeLstm, PredictHazardsShape) {
  const Fixture fixture;
  LifetimeLstmModel model;
  Rng rng(12);
  ASSERT_TRUE(model.Train(fixture.train, fixture.binning, 2, TinyConfig(), rng).ok());
  const auto hazards = model.PredictHazards(fixture.test);
  ASSERT_EQ(hazards.size(), fixture.test.NumJobs());
  for (const auto& hazard : hazards) {
    ASSERT_EQ(hazard.size(), fixture.binning.NumBins());
    for (double h : hazard) {
      EXPECT_GE(h, 0.0);
      EXPECT_LE(h, 1.0);
    }
    EXPECT_DOUBLE_EQ(hazard.back(), 1.0);
  }
}

TEST(LifetimeLstm, GeneratorSamplesValidBins) {
  const Fixture fixture;
  LifetimeLstmModel model;
  Rng rng(13);
  ASSERT_TRUE(model.Train(fixture.train, fixture.binning, 2, TinyConfig(), rng).ok());

  LifetimeLstmModel::Generator generator(model, 2);
  Rng gen_rng(14);
  for (int i = 0; i < 200; ++i) {
    const size_t bin = generator.StepJob(i / 10, i % 6, 3, gen_rng);
    EXPECT_LT(bin, fixture.binning.NumBins());
  }
}

TEST(LifetimeLstm, PmfHeadTrainsAndEvaluates) {
  const Fixture fixture;
  LifetimeLstmModel model;
  LifetimeModelConfig config = TinyConfig();
  config.head = LifetimeHead::kPmf;
  Rng rng(16);
  ASSERT_TRUE(model.Train(fixture.train, fixture.binning, 2, config, rng).ok());
  const auto eval = model.Evaluate(fixture.test);
  ASSERT_GT(eval.uncensored_steps, 100u);
  EXPECT_GT(eval.job_nll, 0.0);
  EXPECT_LT(eval.job_nll, std::log(47.0))
      << "a trained PMF head must beat the uniform distribution";
  // Hazards derived from the softmax are a valid hazard function.
  const auto hazards = model.PredictHazards(fixture.test);
  for (double h : hazards.front()) {
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0);
  }
  EXPECT_DOUBLE_EQ(hazards.front().back(), 1.0);
}

TEST(LifetimeLstm, HeadSurvivesSaveLoad) {
  const Fixture fixture;
  LifetimeLstmModel model;
  LifetimeModelConfig config = TinyConfig();
  config.head = LifetimeHead::kPmf;
  config.epochs = 2;
  Rng rng(17);
  ASSERT_TRUE(model.Train(fixture.train, fixture.binning, 2, config, rng).ok());
  const std::string path = ::testing::TempDir() + "/cg_pmf_model.bin";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  LifetimeLstmModel loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path, fixture.binning, 2, fixture.train.NumFlavors()).ok());
  const auto a = model.Evaluate(fixture.test);
  const auto b = loaded.Evaluate(fixture.test);
  EXPECT_NEAR(a.job_nll, b.job_nll, 1e-9);
  std::remove(path.c_str());
}

TEST(LifetimeLstm, SaveLoadPreservesEvaluation) {
  const Fixture fixture;
  LifetimeLstmModel model;
  Rng rng(15);
  ASSERT_TRUE(model.Train(fixture.train, fixture.binning, 2, TinyConfig(), rng).ok());
  const std::string path = ::testing::TempDir() + "/cg_lifetime_model.bin";
  ASSERT_TRUE(model.SaveToFile(path).ok());

  LifetimeLstmModel loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path, fixture.binning, 2, fixture.train.NumFlavors()).ok());
  const auto a = model.Evaluate(fixture.test);
  const auto b = loaded.Evaluate(fixture.test);
  EXPECT_NEAR(a.bce, b.bce, 1e-9);
  EXPECT_DOUBLE_EQ(a.one_best_err, b.one_best_err);
  std::remove(path.c_str());
}

// The hazard head's sigmoids run through the vector kernel. Each bin's
// hazard must equal the scalar loop it replaced, widened to double, bit for
// bit, at bin counts that end mid-vector, with the last bin open and one
// workspace reused across rows of every length.
TEST(LifetimeLstm, HazardHeadEqualsScalarSigmoidLoop) {
  const LifetimeLstmModel model;  // The default head is the hazard head.
  Rng rng(18);
  StepWorkspace ws;
  std::vector<double> hazard;
  for (const size_t bins : {size_t{1}, size_t{2}, size_t{17}, size_t{46}, size_t{47},
                            size_t{100}, size_t{9}}) {
    SCOPED_TRACE("bins " + std::to_string(bins));
    Matrix logits(1, bins);
    for (size_t j = 0; j < bins; ++j) {
      logits(0, j) = static_cast<float>(rng.Normal(0.0, 4.0));
    }
    if (bins > 4) {
      logits(0, 0) = 0.0f;
      logits(0, 1) = -0.0f;
      logits(0, 2) = -120.0f;
      logits(0, 3) = 95.0f;
    }
    model.LogitsToHazardInto(logits, &hazard, &ws);

    // The loop the kernel replaced, verbatim.
    std::vector<double> want(bins);
    const float* row = logits.Row(0);
    for (size_t j = 0; j < bins; ++j) {
      want[j] = SigmoidScalar(row[j]);
    }
    want.back() = 1.0;  // Open final bin.

    ASSERT_EQ(hazard.size(), bins);
    EXPECT_EQ(std::memcmp(hazard.data(), want.data(), bins * sizeof(double)), 0);
  }
}

}  // namespace
}  // namespace cloudgen
