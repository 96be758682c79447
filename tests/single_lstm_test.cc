// Tests for the single-LSTM EOP-token variant (§7's rejected alternative).
#include "src/core/single_lstm_model.h"

#include <gtest/gtest.h>

#include "src/synth/synthetic_cloud.h"
#include "src/trace/stats.h"
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
  return profile;
}

SingleLstmConfig TinyConfig() {
  SingleLstmConfig config;
  config.hidden_dim = 24;
  config.num_layers = 1;
  config.seq_len = 48;
  config.batch_size = 16;
  config.epochs = 20;
  config.learning_rate = 5e-3f;
  return config;
}

TEST(SingleLstm, TrainsAndGeneratesPeriodStructure) {
  const Trace full = SyntheticCloud(TinyProfile(), 707).Generate();
  const Trace train = ApplyObservationWindow(full, 0, 2 * kPeriodsPerDay,
                                             2 * kPeriodsPerDay);
  SingleLstmModel model;
  Rng rng(1);
  ASSERT_TRUE(model.Train(train, 2, TinyConfig(), rng).ok());
  ASSERT_TRUE(model.IsTrained());
  EXPECT_EQ(model.EopToken(), 7u);

  SingleLstmModel::Generator generator(model, 2);
  Rng gen_rng(2);
  size_t total_jobs = 0;
  size_t total_batches = 0;
  for (int64_t p = 0; p < kPeriodsPerDay / 2; ++p) {
    const auto batches = generator.GeneratePeriod(p, gen_rng);
    total_batches += batches.size();
    for (const auto& batch : batches) {
      EXPECT_FALSE(batch.empty());
      total_jobs += batch.size();
      for (int32_t flavor : batch) {
        EXPECT_GE(flavor, 0);
        EXPECT_LT(flavor, 6);
      }
    }
  }
  // Rates in the same universe as the training data (not degenerate).
  const double train_jobs_per_period =
      static_cast<double>(train.NumJobs()) / static_cast<double>(train.WindowPeriods());
  const double gen_jobs_per_period =
      static_cast<double>(total_jobs) / static_cast<double>(kPeriodsPerDay / 2);
  EXPECT_GT(gen_jobs_per_period, train_jobs_per_period / 5.0);
  EXPECT_LT(gen_jobs_per_period, train_jobs_per_period * 5.0);
  EXPECT_GT(total_batches, 10u);
}

TEST(SingleLstm, EmptyPeriodsArePossible) {
  // With very low training rates, the model must sometimes emit bare EOPs.
  SynthProfile profile = TinyProfile();
  profile.base_batches_per_period = 0.3;
  const Trace full = SyntheticCloud(profile, 708).Generate();
  const Trace train = ApplyObservationWindow(full, 0, 2 * kPeriodsPerDay,
                                             2 * kPeriodsPerDay);
  SingleLstmModel model;
  Rng rng(3);
  ASSERT_TRUE(model.Train(train, 2, TinyConfig(), rng).ok());
  SingleLstmModel::Generator generator(model, 2);
  Rng gen_rng(4);
  size_t empty = 0;
  for (int64_t p = 0; p < 100; ++p) {
    if (generator.GeneratePeriod(p, gen_rng).empty()) {
      ++empty;
    }
  }
  EXPECT_GT(empty, 10u);
}

}  // namespace
}  // namespace cloudgen
