// Integration tests: the full paper pipeline at miniature scale — synthesize
// a provider, split/censor, train all three stages, generate trace
// collections, and check the §5/§6 orderings that constitute the paper's
// claims. Thresholds are deliberately loose: these guard the *shape* of the
// results, not exact values.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "src/baselines/flavor_baselines.h"
#include "src/baselines/generators.h"
#include "src/baselines/lifetime_baselines.h"
#include "src/core/workload_model.h"
#include "src/eval/capacity.h"
#include "src/sched/reuse_distance.h"
#include "src/synth/synthetic_cloud.h"
#include "src/util/rng.h"

namespace cloudgen {
namespace {

SynthProfile MiniProfile() {
  SynthProfile profile = AzureLikeProfile(0.5);
  profile.train_days = 3;
  profile.dev_days = 1;
  profile.test_days = 1;
  profile.num_flavors = 8;
  profile.num_users = 50;
  return profile;
}

WorkloadModelConfig MiniConfig() {
  WorkloadModelConfig config;
  config.flavor.hidden_dim = 32;
  config.flavor.num_layers = 1;
  config.flavor.seq_len = 64;
  config.flavor.batch_size = 16;
  config.flavor.epochs = 12;
  config.flavor.learning_rate = 5e-3f;
  config.lifetime.hidden_dim = 32;
  config.lifetime.num_layers = 1;
  config.lifetime.seq_len = 64;
  config.lifetime.batch_size = 16;
  config.lifetime.epochs = 12;
  config.lifetime.learning_rate = 5e-3f;
  return config;
}

// One shared pipeline for the whole suite (training dominates the runtime).
class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    profile_ = new SynthProfile(MiniProfile());
    full_ = new Trace(SyntheticCloud(*profile_, 999).Generate());
    const int64_t train_end = profile_->train_days * kPeriodsPerDay;
    const int64_t dev_end = train_end + kPeriodsPerDay;
    splits_ = new TraceSplits(SplitTrace(*full_, train_end, dev_end, full_->WindowEnd()));
    model_ = new WorkloadModel();
    Rng rng(1234);
    ASSERT_TRUE(model_->Train(splits_->train, MiniConfig(), rng).ok());
  }

  static void TearDownTestSuite() {
    delete model_;
    delete splits_;
    delete full_;
    delete profile_;
  }

  static SynthProfile* profile_;
  static Trace* full_;
  static TraceSplits* splits_;
  static WorkloadModel* model_;
};

SynthProfile* IntegrationTest::profile_ = nullptr;
Trace* IntegrationTest::full_ = nullptr;
TraceSplits* IntegrationTest::splits_ = nullptr;
WorkloadModel* IntegrationTest::model_ = nullptr;

// §5.2 ordering: the LSTM beats the order-blind baselines on next-flavor NLL.
TEST_F(IntegrationTest, FlavorOrderingHolds) {
  const Trace& test = splits_->test;
  const FlavorStream stream = BuildFlavorStream(test, model_->HistoryDays());
  const UniformFlavorBaseline uniform(test.NumFlavors());
  const MultinomialFlavorBaseline multinomial(splits_->train);
  const auto u = EvaluateFlavorBaseline(uniform, stream, test.NumFlavors());
  const auto m = EvaluateFlavorBaseline(multinomial, stream, test.NumFlavors());
  const auto lstm = model_->FlavorModel().Evaluate(test);
  EXPECT_LT(m.nll, u.nll);
  EXPECT_LT(lstm.nll_flavor_only, m.nll);
  EXPECT_LT(lstm.one_best_err_flavor_only, m.one_best_err);
}

// §5.3 ordering: LSTM < per-flavor KM < overall KM < coin flip on BCE.
TEST_F(IntegrationTest, LifetimeOrderingHolds) {
  const Trace& test = splits_->test;
  const LifetimeBinning binning = MakePaperBinning();
  const LifetimeStream stream =
      BuildLifetimeStream(test, binning, model_->HistoryDays());
  const CoinFlipBaseline coin(binning.NumBins());
  const OverallKmBaseline overall(splits_->train, binning);
  const PerFlavorKmBaseline per_flavor(splits_->train, binning);
  const auto c = EvaluateLifetimeBaseline(coin, stream);
  const auto o = EvaluateLifetimeBaseline(overall, stream);
  const auto p = EvaluateLifetimeBaseline(per_flavor, stream);
  const auto lstm = model_->LifetimeModel().Evaluate(test);
  EXPECT_LT(o.bce, c.bce);
  EXPECT_LE(p.bce, o.bce + 0.05);
  EXPECT_LT(lstm.bce, p.bce);
  EXPECT_LT(lstm.one_best_err, p.one_best_err);
}

// §6.2 reuse: LSTM traces match the actual reuse-at-0 proportion much better
// than Naive traces (which show too little reuse).
TEST_F(IntegrationTest, ReuseDistanceShapeHolds) {
  const Trace test_data = ApplyObservationWindow(
      *full_, splits_->test.WindowStart(), splits_->test.WindowEnd(), full_->WindowEnd());
  const std::vector<double> actual = ReuseDistanceProportions(test_data);

  const LifetimeBinning binning = MakePaperBinning();
  const NaiveGenerator naive(splits_->train, binning);
  const LstmGenerator lstm(*model_);
  Rng rng(77);
  double naive_err = 0.0;
  double lstm_err = 0.0;
  const int samples = 5;
  for (int s = 0; s < samples; ++s) {
    const Trace naive_trace = naive.Generate(test_data.WindowStart(),
                                             test_data.WindowEnd(), 1.0, rng);
    const Trace lstm_trace =
        lstm.Generate(test_data.WindowStart(), test_data.WindowEnd(), 1.0, rng);
    naive_err += std::fabs(ReuseDistanceProportions(naive_trace)[0] - actual[0]);
    lstm_err += std::fabs(ReuseDistanceProportions(lstm_trace)[0] - actual[0]);
  }
  EXPECT_LT(lstm_err, naive_err)
      << "LSTM reuse-at-0 must track the data better than Naive";
  // Naive has dramatically less reuse at distance 0 than real data.
  Rng rng2(78);
  const Trace naive_trace =
      naive.Generate(test_data.WindowStart(), test_data.WindowEnd(), 1.0, rng2);
  EXPECT_LT(ReuseDistanceProportions(naive_trace)[0], actual[0]);
}

// §6.1 mechanism: Naive's independence assumptions make its total-CPU
// prediction band far too narrow — the reason its coverage collapses in
// Fig. 7. At miniature scale, coverage itself is noisy (one test day), so we
// assert the band-width relationship directly.
TEST_F(IntegrationTest, NaiveCapacityBandTooNarrow) {
  const LifetimeBinning binning = MakePaperBinning();
  const NaiveGenerator naive(splits_->train, binning);
  const LstmGenerator lstm(*model_);
  Rng rng(88);
  const auto naive_result =
      EvaluateCapacity(naive, *full_, splits_->test.WindowStart(),
                       splits_->test.WindowEnd(), 12, 0.9, rng);
  const auto lstm_result =
      EvaluateCapacity(lstm, *full_, splits_->test.WindowStart(),
                       splits_->test.WindowEnd(), 12, 0.9, rng);
  auto mean_width = [](const CapacityEvalResult& result) {
    double acc = 0.0;
    for (size_t p = 0; p < result.bands.Length(); ++p) {
      acc += result.bands.hi[p] - result.bands.lo[p];
    }
    return acc / static_cast<double>(result.bands.Length());
  };
  EXPECT_GT(mean_width(lstm_result), 2.0 * mean_width(naive_result))
      << "batch+DOH-aware generation must produce much wider demand bands";
}

// The 10x what-if keeps the reuse shape (§6.2's closing experiment).
TEST_F(IntegrationTest, TenXPreservesReuseShape) {
  const LstmGenerator lstm(*model_);
  Rng rng(99);
  const Trace base = lstm.Generate(splits_->test.WindowStart(),
                                   splits_->test.WindowEnd(), 1.0, rng);
  const Trace scaled = lstm.Generate(splits_->test.WindowStart(),
                                     splits_->test.WindowEnd(), 10.0, rng);
  const std::vector<double> p1 = ReuseDistanceProportions(base);
  const std::vector<double> p10 = ReuseDistanceProportions(scaled);
  EXPECT_NEAR(p1[0], p10[0], 0.15) << "reuse-at-0 should be stable under scaling";
}

}  // namespace
}  // namespace cloudgen
