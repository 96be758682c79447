// Tests for the flavor-sequence LSTM (stage 2): stream construction, training
// on a trace with strong flavor stickiness, evaluation vs. baselines, the
// stateful generator, and persistence.
#include "src/core/flavor_model.h"

#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/flavor_baselines.h"
#include "src/synth/synthetic_cloud.h"
#include "src/util/rng.h"

namespace cloudgen {
namespace {

// A small, strongly-structured cloud so a tiny LSTM can learn it quickly.
SynthProfile TinyProfile() {
  SynthProfile profile = AzureLikeProfile(0.4);
  profile.train_days = 2;
  profile.dev_days = 1;
  profile.test_days = 1;
  profile.num_flavors = 6;
  profile.num_users = 30;
  profile.flavor_repeat_prob = 0.95;
  return profile;
}

FlavorModelConfig TinyConfig() {
  FlavorModelConfig config;
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

  Fixture() {
    full = SyntheticCloud(TinyProfile(), 101).Generate();
    const int64_t train_end = 2 * kPeriodsPerDay;
    const int64_t test_start = 3 * kPeriodsPerDay;
    train = ApplyObservationWindow(full, 0, train_end, train_end);
    test = ApplyObservationWindow(full, test_start, 4 * kPeriodsPerDay,
                                  4 * kPeriodsPerDay);
  }
};

TEST(FlavorStream, StructureMatchesBatches) {
  const Fixture fixture;
  const FlavorStream stream = BuildFlavorStream(fixture.train, 2);
  ASSERT_FALSE(stream.tokens.empty());
  ASSERT_EQ(stream.tokens.size(), stream.periods.size());
  ASSERT_EQ(stream.tokens.size(), stream.doh_days.size());
  const auto eob = static_cast<int32_t>(fixture.train.NumFlavors());
  // Tokens: #jobs flavor tokens + #batches EOB tokens; the stream ends with
  // an EOB (every batch is closed).
  size_t eobs = 0;
  size_t flavors = 0;
  for (int32_t token : stream.tokens) {
    ASSERT_GE(token, 0);
    ASSERT_LE(token, eob);
    if (token == eob) {
      ++eobs;
    } else {
      ++flavors;
    }
  }
  EXPECT_EQ(flavors, fixture.train.NumJobs());
  EXPECT_EQ(stream.tokens.back(), eob);
  // Periods are non-decreasing and DOH days track them.
  for (size_t i = 1; i < stream.periods.size(); ++i) {
    EXPECT_LE(stream.periods[i - 1], stream.periods[i]);
  }
}

TEST(FlavorLstm, TrainEvaluateBeatsMultinomial) {
  const Fixture fixture;
  FlavorLstmModel model;
  Rng rng(5);
  ASSERT_TRUE(model.Train(fixture.train, 2, TinyConfig(), rng).ok());
  ASSERT_TRUE(model.IsTrained());
  EXPECT_GT(model.NumParameters(), 1000u);

  const FlavorLstmModel::EvalResult lstm = model.Evaluate(fixture.test);
  ASSERT_GT(lstm.flavor_steps, 100u);

  const FlavorStream test_stream = BuildFlavorStream(fixture.test, 2);
  const MultinomialFlavorBaseline multinomial(fixture.train);
  const FlavorBaselineEval base = EvaluateFlavorBaseline(
      multinomial, test_stream, fixture.test.NumFlavors());
  // With 95% within-batch repetition, even a tiny LSTM must beat the
  // order-blind multinomial on both metrics.
  EXPECT_LT(lstm.nll_flavor_only, base.nll);
  EXPECT_LT(lstm.one_best_err_flavor_only, base.one_best_err);
}

// One period of the generator's token machine on the single-stream route.
std::vector<std::vector<int32_t>> SamplePeriod(FlavorLstmModel::Generator& generator,
                                               int64_t period, int64_t n_batches, Rng& rng) {
  generator.StartPeriod(period, n_batches);
  while (generator.PeriodActive()) {
    generator.StepToken(rng);
  }
  return generator.TakeBatches();
}

TEST(FlavorLstm, GeneratorEmitsRequestedBatches) {
  const Fixture fixture;
  FlavorLstmModel model;
  Rng rng(6);
  ASSERT_TRUE(model.Train(fixture.train, 2, TinyConfig(), rng).ok());

  FlavorLstmModel::Generator generator(model, 2);
  Rng gen_rng(7);
  const auto batches = SamplePeriod(generator, 10, 5, gen_rng);
  ASSERT_EQ(batches.size(), 5u);
  for (const auto& batch : batches) {
    EXPECT_FALSE(batch.empty()) << "batches must contain at least one job";
    for (int32_t flavor : batch) {
      EXPECT_GE(flavor, 0);
      EXPECT_LT(flavor, static_cast<int32_t>(fixture.train.NumFlavors()));
    }
  }
  // Zero batches → no jobs.
  EXPECT_TRUE(SamplePeriod(generator, 11, 0, gen_rng).empty());
}

TEST(FlavorLstm, GeneratedBatchesAreSticky) {
  const Fixture fixture;
  FlavorLstmModel model;
  Rng rng(8);
  ASSERT_TRUE(model.Train(fixture.train, 2, TinyConfig(), rng).ok());

  FlavorLstmModel::Generator generator(model, 2);
  Rng gen_rng(9);
  size_t same = 0;
  size_t pairs = 0;
  for (int64_t period = 0; period < 40; ++period) {
    for (const auto& batch : SamplePeriod(generator, period, 3, gen_rng)) {
      for (size_t i = 1; i < batch.size(); ++i) {
        same += batch[i] == batch[i - 1] ? 1 : 0;
        ++pairs;
      }
    }
  }
  ASSERT_GT(pairs, 30u);
  EXPECT_GT(static_cast<double>(same) / static_cast<double>(pairs), 0.6)
      << "the model must reproduce within-batch flavor momentum";
}

// Regression coverage for the EOB-resampling fallback: when every non-EOB
// probability underflows, the generator must pick the best *non-EOB* token.
// The old loop scanned [1, size-1) and so could neither pick token 0 nor the
// last token when EOB sat elsewhere.
TEST(ArgmaxExcluding, PicksRunnerUpWhenMaxIsExcluded) {
  EXPECT_EQ(ArgmaxExcluding({0.1, 0.7, 0.3}, 1), 2u);
  EXPECT_EQ(ArgmaxExcluding({0.9, 0.2, 0.3}, 0), 2u);
}

TEST(ArgmaxExcluding, CanPickFirstAndLastToken) {
  // Token 0 is the best non-excluded choice.
  EXPECT_EQ(ArgmaxExcluding({0.8, 0.1, 0.9}, 2), 0u);
  // The last token is the best non-excluded choice.
  EXPECT_EQ(ArgmaxExcluding({0.9, 0.1, 0.8}, 0), 2u);
  EXPECT_EQ(ArgmaxExcluding({0.2, 0.1, 0.8}, 1), 2u);
}

TEST(ArgmaxExcluding, TiesKeepLowestIndex) {
  EXPECT_EQ(ArgmaxExcluding({0.5, 0.5, 0.5}, 1), 0u);
  EXPECT_EQ(ArgmaxExcluding({0.5, 0.5, 0.5}, 0), 1u);
  // All-zero weights (the underflow case that triggers the fallback).
  EXPECT_EQ(ArgmaxExcluding({0.0, 0.0, 0.0, 0.0}, 3), 0u);
}

TEST(FlavorLstm, SaveLoadPreservesEvaluation) {
  const Fixture fixture;
  FlavorLstmModel model;
  Rng rng(10);
  ASSERT_TRUE(model.Train(fixture.train, 2, TinyConfig(), rng).ok());
  const std::string path = ::testing::TempDir() + "/cg_flavor_model.bin";
  ASSERT_TRUE(model.SaveToFile(path).ok());

  FlavorLstmModel loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path, 2, fixture.train.NumFlavors()).ok());
  const auto a = model.Evaluate(fixture.test);
  const auto b = loaded.Evaluate(fixture.test);
  EXPECT_NEAR(a.nll, b.nll, 1e-9);
  EXPECT_DOUBLE_EQ(a.one_best_err, b.one_best_err);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cloudgen
