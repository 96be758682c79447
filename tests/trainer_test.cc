// Tests for the training driver shared by every sequence-network trainer:
// the minibatch sequence layout and the per-epoch telemetry.
#include "src/core/trainer.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/flavor_model.h"
#include "src/core/lifetime_model.h"
#include "src/core/resource_model.h"
#include "src/core/single_lstm_model.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_span.h"
#include "src/survival/binning.h"
#include "src/synth/synthetic_cloud.h"
#include "src/util/rng.h"

namespace cloudgen {
namespace {

TEST(SequenceBatching, LayoutCoversDistinctSteps) {
  const SequenceBatching batching(1000, {10, 4});
  EXPECT_EQ(batching.SeqLen(), 10u);
  EXPECT_EQ(batching.BatchSize(), 4u);
  // 100 sequences / 4 per minibatch = 25 minibatches.
  EXPECT_EQ(batching.NumMinibatches(), 25u);
  std::set<size_t> seen;
  for (size_t mb = 0; mb < batching.NumMinibatches(); ++mb) {
    for (size_t t = 0; t < batching.SeqLen(); ++t) {
      for (size_t b = 0; b < batching.BatchSize(); ++b) {
        const size_t idx = batching.StepIndex(mb, t, b);
        EXPECT_LT(idx, 1000u);
        EXPECT_TRUE(seen.insert(idx).second) << "duplicate step " << idx;
      }
    }
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(SequenceBatching, SequencesAreContiguousInTime) {
  const SequenceBatching batching(200, {10, 2});
  for (size_t mb = 0; mb < batching.NumMinibatches(); ++mb) {
    for (size_t b = 0; b < batching.BatchSize(); ++b) {
      for (size_t t = 1; t < batching.SeqLen(); ++t) {
        EXPECT_EQ(batching.StepIndex(mb, t, b), batching.StepIndex(mb, t - 1, b) + 1);
      }
    }
  }
}

TEST(SequenceBatching, ShrinksForTinyDatasets) {
  // 7 steps cannot fill a 16-step sequence; the layout halves seq_len until a
  // sequence fits.
  const SequenceBatching batching(7, {16, 8});
  EXPECT_GE(batching.NumMinibatches(), 1u);
  EXPECT_LE(batching.SeqLen() * batching.BatchSize(), 7u);
}

TEST(SequenceBatching, DropsLeftoverTail) {
  const SequenceBatching batching(109, {10, 2});
  // 10 sequences → 5 minibatches; steps 100..108 dropped.
  EXPECT_EQ(batching.NumMinibatches(), 5u);
  size_t max_idx = 0;
  for (size_t mb = 0; mb < batching.NumMinibatches(); ++mb) {
    for (size_t t = 0; t < batching.SeqLen(); ++t) {
      for (size_t b = 0; b < batching.BatchSize(); ++b) {
        max_idx = std::max(max_idx, batching.StepIndex(mb, t, b));
      }
    }
  }
  EXPECT_LT(max_idx, 100u);
}

TEST(SequenceBatching, EpochOrderIsPermutation) {
  const SequenceBatching batching(960, {12, 4});
  Rng rng(1);
  const std::vector<size_t> order = batching.EpochOrder(rng);
  EXPECT_EQ(order.size(), batching.NumMinibatches());
  std::set<size_t> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), order.size());
  // A different epoch shuffles differently (overwhelmingly likely).
  const std::vector<size_t> order2 = batching.EpochOrder(rng);
  EXPECT_NE(order, order2);
}

// perfbench and the docs read these names (perfbench's core.minibatches is
// train.flavor.minibatches + train.lifetime.minibatches). The driver builds
// them from each trainer's span name at runtime, so a typo would silently
// zero them rather than fail to compile.
TEST(TrainerTelemetry, EveryTrainerPublishesItsEpochMetricsAndSpans) {
  SynthProfile profile = AzureLikeProfile(0.3);
  profile.train_days = 1;
  profile.dev_days = 1;
  profile.test_days = 1;
  profile.num_flavors = 4;
  profile.num_users = 20;
  const Trace full = SyntheticCloud(profile, 405).Generate();
  const Trace train = ApplyObservationWindow(full, 0, kPeriodsPerDay, kPeriodsPerDay);
  const LifetimeBinning binning = MakePaperBinning();
  constexpr size_t kEpochs = 2;
  const SequenceBatchingSpec spec{24, 8};

  obs::Registry& registry = obs::Registry::Global();
  registry.Reset();
  obs::TraceCollector::Global().Reset();
  obs::TraceCollector::Global().SetEnabled(true);
  FlavorModelConfig flavor_config;
  flavor_config.hidden_dim = 8;
  flavor_config.num_layers = 1;
  flavor_config.seq_len = spec.seq_len;
  flavor_config.batch_size = spec.batch_size;
  flavor_config.epochs = kEpochs;
  LifetimeModelConfig lifetime_config;
  lifetime_config.hidden_dim = 8;
  lifetime_config.num_layers = 1;
  lifetime_config.seq_len = spec.seq_len;
  lifetime_config.batch_size = spec.batch_size;
  lifetime_config.epochs = kEpochs;
  Rng rng(9);
  FlavorLstmModel flavor;
  ASSERT_TRUE(flavor.Train(train, 1, flavor_config, rng).ok());
  LifetimeLstmModel lifetime;
  ASSERT_TRUE(lifetime.Train(train, binning, 1, lifetime_config, rng).ok());
  SingleLstmModel single;
  ASSERT_TRUE(single.Train(train, 1, flavor_config, rng).ok());
  std::set<double> cpus;
  std::set<double> mems;
  for (const Flavor& flavor : train.Flavors()) {
    cpus.insert(flavor.cpus);
    mems.insert(flavor.memory_gb);
  }
  MultiResourceLstmModel resource;
  ASSERT_TRUE(resource
                  .Train(train, ResourceQuantizer({cpus.begin(), cpus.end()}),
                         ResourceQuantizer({mems.begin(), mems.end()}), 1, flavor_config, rng)
                  .ok());
  obs::TraceCollector::Global().SetEnabled(false);
  const std::vector<obs::SpanEvent> spans = obs::TraceCollector::Global().Events();

  const struct {
    const char* span;
    size_t steps;
  } trainers[] = {
      {"train.flavor", BuildFlavorStream(train, 1).tokens.size()},
      {"train.lifetime", BuildLifetimeStream(train, binning, 1).steps.size()},
      {"train.single_lstm", BuildEopStream(train, 1).tokens.size()},
      // Relabelling jobs to joint (cpu, mem) classes keeps the flavor stream.
      {"train.resource", BuildFlavorStream(train, 1).tokens.size()},
  };
  for (const auto& trainer : trainers) {
    SCOPED_TRACE(trainer.span);
    const std::string name = trainer.span;
    const SequenceBatching batching(trainer.steps, spec);
    EXPECT_EQ(registry.GetCounter(name + ".minibatches").Value(),
              kEpochs * batching.NumMinibatches());
    for (const char* series : {".loss", ".grad_norm", ".lr", ".rows_per_sec"}) {
      EXPECT_EQ(registry.GetSeries(name + series).Points().size(), kEpochs) << series;
    }
    size_t run_spans = 0;
    size_t epoch_spans = 0;
    for (const obs::SpanEvent& span : spans) {
      run_spans += static_cast<size_t>(span.name == name);
      epoch_spans += static_cast<size_t>(span.name == name + "_epoch");
    }
    EXPECT_EQ(run_spans, 1u);
    EXPECT_EQ(epoch_spans, kEpochs);
  }
  EXPECT_EQ(registry.GetHistogram("time.train_epoch_ms").Count(), 4 * kEpochs);
}

}  // namespace
}  // namespace cloudgen
