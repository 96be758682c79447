// Tests for the "beyond flavors" multi-resource LSTM (§2.2.3): quantizer
// behaviour, training/evaluation, and generation with chained CPU→memory
// conditioning.
#include "src/core/resource_model.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "src/synth/synthetic_cloud.h"
#include "src/util/rng.h"

namespace cloudgen {
namespace {

TEST(ResourceQuantizer, NearestLevel) {
  const ResourceQuantizer quantizer({1.0, 2.0, 4.0, 8.0});
  EXPECT_EQ(quantizer.NumClasses(), 4u);
  EXPECT_EQ(quantizer.ClassOf(0.3), 0u);
  EXPECT_EQ(quantizer.ClassOf(1.0), 0u);
  EXPECT_EQ(quantizer.ClassOf(1.6), 1u);
  EXPECT_EQ(quantizer.ClassOf(2.9), 1u);   // 2.9 is closer to 2 than 4.
  EXPECT_EQ(quantizer.ClassOf(3.1), 2u);
  EXPECT_EQ(quantizer.ClassOf(100.0), 3u);
  EXPECT_DOUBLE_EQ(quantizer.ValueOf(2), 4.0);
}

TEST(ResourceQuantizer, SortsLevels) {
  const ResourceQuantizer quantizer({8.0, 1.0, 4.0});
  EXPECT_DOUBLE_EQ(quantizer.ValueOf(0), 1.0);
  EXPECT_DOUBLE_EQ(quantizer.ValueOf(2), 8.0);
}

SynthProfile TinyProfile() {
  SynthProfile profile = AzureLikeProfile(0.4);
  profile.train_days = 2;
  profile.dev_days = 1;
  profile.test_days = 1;
  profile.num_flavors = 6;
  profile.num_users = 30;
  return profile;
}

ResourceQuantizer CpuQuantizerFor(const Trace& trace) {
  std::vector<double> levels;
  for (const Flavor& flavor : trace.Flavors()) {
    levels.push_back(flavor.cpus);
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  return ResourceQuantizer(levels);
}

ResourceQuantizer MemQuantizerFor(const Trace& trace) {
  std::vector<double> levels;
  for (const Flavor& flavor : trace.Flavors()) {
    levels.push_back(flavor.memory_gb);
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  return ResourceQuantizer(levels);
}

struct Fixture {
  Trace full;
  Trace train;
  Trace test;

  Fixture() {
    full = SyntheticCloud(TinyProfile(), 606).Generate();
    train = ApplyObservationWindow(full, 0, 2 * kPeriodsPerDay, 2 * kPeriodsPerDay);
    test = ApplyObservationWindow(full, 3 * kPeriodsPerDay, 4 * kPeriodsPerDay,
                                  4 * kPeriodsPerDay);
  }
};

ResourceModelConfig TinyConfig() {
  ResourceModelConfig config;
  config.hidden_dim = 24;
  config.num_layers = 1;
  config.seq_len = 48;
  config.batch_size = 16;
  config.epochs = 20;
  return config;
}

TEST(MultiResourceLstm, TrainsAndBeatsIndependentBaseline) {
  const Fixture fixture;
  MultiResourceLstmModel model;
  Rng rng(1);
  const ResourceQuantizer cpu = CpuQuantizerFor(fixture.train);
  const ResourceQuantizer mem = MemQuantizerFor(fixture.train);
  ASSERT_TRUE(model.Train(fixture.train, cpu, mem, 2, TinyConfig(), rng).ok());
  ASSERT_TRUE(model.IsTrained());

  // The chained softmax is the factored head: one cluster of the M memory
  // classes per CPU class, then EOB alone.
  const SequenceNetwork& network = model.JointModel().Network();
  ASSERT_TRUE(network.IsFactored());
  const FactoredVocabMap& map = network.FactoredHead().Map();
  ASSERT_EQ(map.NumClusters(), cpu.NumClasses() + 1);
  for (size_t c = 0; c < cpu.NumClasses(); ++c) {
    EXPECT_EQ(map.SliceBegin(c), c * mem.NumClasses());
    EXPECT_EQ(map.SliceWidth(c), mem.NumClasses());
  }
  EXPECT_EQ(map.SliceWidth(cpu.NumClasses()), 1u);
  EXPECT_EQ(map.NumTokens(), cpu.NumClasses() * mem.NumClasses() + 1);

  const auto eval = model.Evaluate(fixture.test);
  ASSERT_GT(eval.steps, 100u);
  EXPECT_GT(eval.cpu_nll, 0.0);
  EXPECT_NEAR(eval.joint_nll, eval.cpu_nll + eval.mem_nll, 1e-9);

  // Baseline: i.i.d. classes at empirical frequencies — entropy of the joint.
  std::vector<double> joint(cpu.NumClasses() * mem.NumClasses(), 1.0);  // +1 smooth.
  for (const Job& job : fixture.train.Jobs()) {
    const Flavor& flavor = fixture.train.Flavors()[static_cast<size_t>(job.flavor)];
    joint[cpu.ClassOf(flavor.cpus) * mem.NumClasses() + mem.ClassOf(flavor.memory_gb)] +=
        1.0;
  }
  double total = 0.0;
  for (double c : joint) {
    total += c;
  }
  double baseline_nll = 0.0;
  size_t steps = 0;
  for (const Job& job : fixture.test.Jobs()) {
    const Flavor& flavor = fixture.test.Flavors()[static_cast<size_t>(job.flavor)];
    const size_t idx =
        cpu.ClassOf(flavor.cpus) * mem.NumClasses() + mem.ClassOf(flavor.memory_gb);
    baseline_nll -= std::log(joint[idx] / total);
    ++steps;
  }
  baseline_nll /= static_cast<double>(steps);
  EXPECT_LT(eval.joint_nll, baseline_nll)
      << "sequence conditioning must beat the i.i.d. joint multinomial";
}

TEST(MultiResourceLstm, GeneratorProducesValidRequests) {
  const Fixture fixture;
  MultiResourceLstmModel model;
  Rng rng(2);
  const ResourceQuantizer cpu = CpuQuantizerFor(fixture.train);
  const ResourceQuantizer mem = MemQuantizerFor(fixture.train);
  ASSERT_TRUE(model.Train(fixture.train, cpu, mem, 2, TinyConfig(), rng).ok());

  MultiResourceLstmModel::Generator generator(model, 2);
  Rng gen_rng(3);
  const auto batches = generator.GeneratePeriod(5, 4, gen_rng);
  ASSERT_EQ(batches.size(), 4u);
  size_t jobs = 0;
  for (const auto& batch : batches) {
    EXPECT_FALSE(batch.empty());
    for (const ResourceRequest& request : batch) {
      EXPECT_LT(request.cpu_class, cpu.NumClasses());
      EXPECT_LT(request.mem_class, mem.NumClasses());
      ++jobs;
    }
  }
  EXPECT_GT(jobs, 0u);
  EXPECT_TRUE(generator.GeneratePeriod(6, 0, gen_rng).empty());
}

TEST(MultiResourceLstm, GeneratedCpuMemPairsMatchCatalogCorrelation) {
  // In the training data CPU and memory are correlated through the flavor
  // catalog (memory = cpus x ratio). The chained heads must reproduce pairs
  // whose memory is plausible for the CPU — measured as the rate of generated
  // (cpu, mem) pairs that exist in the catalog.
  const Fixture fixture;
  MultiResourceLstmModel model;
  Rng rng(4);
  const ResourceQuantizer cpu = CpuQuantizerFor(fixture.train);
  const ResourceQuantizer mem = MemQuantizerFor(fixture.train);
  ASSERT_TRUE(model.Train(fixture.train, cpu, mem, 2, TinyConfig(), rng).ok());

  std::set<std::pair<size_t, size_t>> catalog_pairs;
  for (const Flavor& flavor : fixture.train.Flavors()) {
    catalog_pairs.emplace(cpu.ClassOf(flavor.cpus), mem.ClassOf(flavor.memory_gb));
  }
  MultiResourceLstmModel::Generator generator(model, 2);
  Rng gen_rng(5);
  size_t in_catalog = 0;
  size_t total = 0;
  for (int64_t period = 0; period < 60; ++period) {
    for (const auto& batch : generator.GeneratePeriod(period, 3, gen_rng)) {
      for (const ResourceRequest& request : batch) {
        in_catalog += catalog_pairs.count({request.cpu_class, request.mem_class});
        ++total;
      }
    }
  }
  ASSERT_GT(total, 100u);
  const double rate = static_cast<double>(in_catalog) / static_cast<double>(total);
  // Random pairing over classes would land in the catalog far less often.
  EXPECT_GT(rate, 0.75) << "memory must be conditioned on the generated CPU";
}

}  // namespace
}  // namespace cloudgen
