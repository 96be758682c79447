// Determinism-across-thread-counts regression tests. The parallel substrate
// (data-parallel BPTT, sharded GenerateMany) promises bitwise identity for
// any `--threads N`: work partitioning is fixed, reductions run in fixed
// shard order, and every generated trace draws from its own seed-derived
// Rng::Stream. These tests pin that contract.
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/trainer.h"
#include "src/core/workload_model.h"
#include "src/nn/losses.h"
#include "src/nn/sequence_network.h"
#include "src/synth/synthetic_cloud.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace cloudgen {
namespace {

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b, const std::string& what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  for (size_t i = 0; i < a.Size(); ++i) {
    ASSERT_EQ(a.Data()[i], b.Data()[i]) << what << " diverges at flat index " << i;
  }
}

SequenceNetwork MakeNetwork() {
  Rng rng(7);
  SequenceNetworkConfig config;
  config.input_dim = 16;
  config.hidden_dim = 24;
  config.num_layers = 2;
  config.output_dim = 10;
  return SequenceNetwork(config, rng);
}

// Runs one data-parallel BPTT pass at the given thread count and returns
// copies of the accumulated gradients.
std::vector<Matrix> BpttGradients(size_t threads) {
  SetGlobalThreads(threads);
  SequenceNetwork network = MakeNetwork();
  constexpr size_t kSteps = 6;
  constexpr size_t kBatch = 12;
  Rng rng(11);
  std::vector<Matrix> inputs(kSteps);
  std::vector<std::vector<int32_t>> targets(kSteps, std::vector<int32_t>(kBatch));
  for (size_t t = 0; t < kSteps; ++t) {
    inputs[t].Resize(kBatch, 16);
    inputs[t].RandomUniform(rng, 1.0f);
    for (size_t b = 0; b < kBatch; ++b) {
      targets[t][b] = static_cast<int32_t>(rng.UniformInt(10));
    }
  }
  DataParallelBptt bptt(&network, kBatch);
  const double loss = bptt.Run(
      inputs, [&](size_t r0, size_t r1, const std::vector<Matrix>& logits,
                  std::vector<Matrix>* dlogits) {
        const float weight =
            static_cast<float>(r1 - r0) / static_cast<float>(kBatch * kSteps);
        double sum = 0.0;
        std::vector<int32_t> shard_targets;
        for (size_t t = 0; t < kSteps; ++t) {
          shard_targets.assign(targets[t].begin() + static_cast<ptrdiff_t>(r0),
                               targets[t].begin() + static_cast<ptrdiff_t>(r1));
          sum += SoftmaxCrossEntropy(logits[t], shard_targets, &(*dlogits)[t]);
          (*dlogits)[t].Scale(weight);
        }
        return sum * static_cast<double>(weight);
      });
  EXPECT_GT(loss, 0.0);
  std::vector<Matrix> grads;
  for (const Matrix* g : network.Grads()) {
    grads.push_back(*g);
  }
  SetGlobalThreads(1);
  return grads;
}

TEST(ParallelDeterminism, BpttGradientsBitwiseIdenticalAcrossThreadCounts) {
  const std::vector<Matrix> g1 = BpttGradients(1);
  const std::vector<Matrix> g4 = BpttGradients(4);
  ASSERT_EQ(g1.size(), g4.size());
  for (size_t i = 0; i < g1.size(); ++i) {
    ExpectBitwiseEqual(g1[i], g4[i], "gradient " + std::to_string(i));
  }
}

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

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Trains a model at `threads` threads and returns the serialized bytes of
// both network files — the strongest equality we can assert.
std::pair<std::string, std::string> TrainedModelBytes(size_t threads,
                                                      const Trace& train,
                                                      const std::string& prefix) {
  SetGlobalThreads(threads);
  WorkloadModel model;
  Rng rng(42);
  EXPECT_TRUE(model.Train(train, TinyConfig(), rng).ok());
  EXPECT_TRUE(model.SaveToFiles(prefix).ok());
  SetGlobalThreads(1);
  return {FileBytes(prefix + ".flavor.bin"), FileBytes(prefix + ".lifetime.bin")};
}

TEST(ParallelDeterminism, TrainedModelFilesBitwiseIdenticalAcrossThreadCounts) {
  const Trace train = TrainingTrace();
  const std::string dir = ::testing::TempDir();
  const auto serial = TrainedModelBytes(1, train, dir + "det_t1");
  const auto parallel = TrainedModelBytes(4, train, dir + "det_t4");
  ASSERT_FALSE(serial.first.empty());
  ASSERT_FALSE(serial.second.empty());
  EXPECT_EQ(serial.first, parallel.first) << "flavor network bytes differ";
  EXPECT_EQ(serial.second, parallel.second) << "lifetime network bytes differ";
}

void ExpectSameTrace(const Trace& a, const Trace& b, size_t which) {
  ASSERT_EQ(a.NumJobs(), b.NumJobs()) << "trace " << which;
  for (size_t j = 0; j < a.NumJobs(); ++j) {
    const Job& x = a.Jobs()[j];
    const Job& y = b.Jobs()[j];
    ASSERT_EQ(x.start_period, y.start_period) << "trace " << which << " job " << j;
    ASSERT_EQ(x.end_period, y.end_period) << "trace " << which << " job " << j;
    ASSERT_EQ(x.flavor, y.flavor) << "trace " << which << " job " << j;
    ASSERT_EQ(x.user, y.user) << "trace " << which << " job " << j;
  }
}

TEST(ParallelDeterminism, GenerateManyIdenticalAcrossThreadCounts) {
  const Trace train = TrainingTrace();
  WorkloadModel model;
  Rng train_rng(42);
  SetGlobalThreads(1);
  ASSERT_TRUE(model.Train(train, TinyConfig(), train_rng).ok());

  WorkloadModel::GenerateOptions options;
  options.from_period = 3 * kPeriodsPerDay;
  options.to_period = 3 * kPeriodsPerDay + 24;
  constexpr size_t kCount = 6;

  Rng rng1(99);
  const std::vector<Trace> serial = model.GenerateMany(options, kCount, rng1);
  SetGlobalThreads(8);
  Rng rng8(99);
  const std::vector<Trace> parallel = model.GenerateMany(options, kCount, rng8);
  SetGlobalThreads(1);

  ASSERT_EQ(serial.size(), kCount);
  ASSERT_EQ(parallel.size(), kCount);
  size_t total_jobs = 0;
  for (size_t i = 0; i < kCount; ++i) {
    ExpectSameTrace(serial[i], parallel[i], i);
    total_jobs += serial[i].NumJobs();
  }
  EXPECT_GT(total_jobs, 0u);  // The window must actually produce work.
}

}  // namespace
}  // namespace cloudgen
