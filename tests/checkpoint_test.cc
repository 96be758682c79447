// Checkpoint/resume tests: the sealed checkpoint container, stage-tag and
// model-shape mismatch protection, and the central resilience guarantee — a
// training run stopped after a checkpoint (simulating SIGKILL) and resumed
// with --resume produces a model bitwise identical to an uninterrupted run,
// for every trainer.
#include "src/core/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/flavor_model.h"
#include "src/core/lifetime_model.h"
#include "src/core/resource_model.h"
#include "src/core/single_lstm_model.h"
#include "src/survival/binning.h"
#include "src/synth/synthetic_cloud.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace cloudgen {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(TrainCheckpoint, RoundTripsEpochAndPayload) {
  const std::string path = TempPath("ckpt_roundtrip.ckpt");
  const std::string payload = "optimizer+network+rng bytes";
  ASSERT_TRUE(TrainCheckpoint::Write(path, kCheckpointStageFlavor, 5, payload).ok());
  uint64_t next_epoch = 0;
  std::string loaded;
  ASSERT_TRUE(
      TrainCheckpoint::Read(path, kCheckpointStageFlavor, &next_epoch, &loaded).ok());
  EXPECT_EQ(next_epoch, 5u);
  EXPECT_EQ(loaded, payload);
  std::remove(path.c_str());
}

TEST(TrainCheckpoint, StageTagMismatchIsRejected) {
  // A flavor checkpoint must not resume into the lifetime trainer.
  const std::string path = TempPath("ckpt_stage.ckpt");
  ASSERT_TRUE(TrainCheckpoint::Write(path, kCheckpointStageFlavor, 1, "state").ok());
  uint64_t next_epoch = 0;
  std::string loaded;
  const Status status =
      TrainCheckpoint::Read(path, kCheckpointStageLifetime, &next_epoch, &loaded);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(TrainCheckpoint, MissingFileIsNotFound) {
  uint64_t next_epoch = 0;
  std::string loaded;
  const Status status = TrainCheckpoint::Read(TempPath("ckpt_nonexistent.ckpt"),
                                              kCheckpointStageFlavor, &next_epoch, &loaded);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

// Shared tiny training setup.
SynthProfile TinyProfile() {
  SynthProfile profile = AzureLikeProfile(0.3);
  profile.train_days = 1;
  profile.dev_days = 1;
  profile.test_days = 1;
  profile.num_flavors = 4;
  profile.num_users = 20;
  return profile;
}

FlavorModelConfig TinyConfig() {
  FlavorModelConfig config;
  config.hidden_dim = 12;
  config.num_layers = 1;
  config.seq_len = 24;
  config.batch_size = 8;
  config.epochs = 4;
  config.lr_decay = 0.9f;  // Exercise the LR schedule across the resume.
  return config;
}

Trace TrainWindow() {
  const Trace full = SyntheticCloud(TinyProfile(), 404).Generate();
  const int64_t end = kPeriodsPerDay;
  return ApplyObservationWindow(full, 0, end, end);
}

LifetimeModelConfig TinyLifetimeConfig(LifetimeHead head) {
  LifetimeModelConfig config;
  config.head = head;
  config.hidden_dim = 12;
  config.num_layers = 1;
  config.seq_len = 24;
  config.batch_size = 8;
  config.epochs = 4;
  config.lr_decay = 0.9f;
  return config;
}

template <typename Model>
std::string ModelFileBytes(const Model& model) {
  const std::string path = TempPath("resume_case.bin");
  std::string bytes;
  if (model.SaveToFile(path).ok()) {
    bytes = ReadAll(path);
  }
  std::remove(path.c_str());
  return bytes;
}

// The distinct values of one resource over the trace's catalog.
ResourceQuantizer Levels(const Trace& trace, double Flavor::*resource) {
  std::set<double> levels;
  for (const Flavor& flavor : trace.Flavors()) {
    levels.insert(flavor.*resource);
  }
  return ResourceQuantizer({levels.begin(), levels.end()});
}

// One trainer under test: trains a fresh model on `train` with `recovery`
// and returns the bytes that pin it — its model file (for the multi-resource
// model, its joint-class flavor model's), or for the single LSTM (which has
// no model file) the batches it generates over two days.
struct ResumeCase {
  const char* name;
  uint32_t stage_tag;
  std::function<Status(const Trace& train, const TrainRecoveryConfig& recovery,
                       std::string* bytes)>
      train;
};

std::vector<ResumeCase> ResumeCases() {
  const auto lifetime = [](LifetimeHead head) {
    return [head](const Trace& train, const TrainRecoveryConfig& recovery,
                  std::string* bytes) {
      LifetimeModelConfig config = TinyLifetimeConfig(head);
      config.recovery = recovery;
      LifetimeLstmModel model;
      Rng rng(77);
      const Status trained = model.Train(train, MakePaperBinning(), 1, config, rng);
      if (trained.ok()) {
        *bytes = ModelFileBytes(model);
      }
      return trained;
    };
  };
  return {
      {"flavor", kCheckpointStageFlavor,
       [](const Trace& train, const TrainRecoveryConfig& recovery, std::string* bytes) {
         FlavorModelConfig config = TinyConfig();
         config.recovery = recovery;
         FlavorLstmModel model;
         Rng rng(77);
         const Status trained = model.Train(train, 1, config, rng);
         if (trained.ok()) {
           *bytes = ModelFileBytes(model);
         }
         return trained;
       }},
      {"lifetime hazard head", kCheckpointStageLifetime, lifetime(LifetimeHead::kHazard)},
      {"lifetime PMF head", kCheckpointStageLifetime, lifetime(LifetimeHead::kPmf)},
      {"single LSTM", kCheckpointStageSingleLstm,
       [](const Trace& train, const TrainRecoveryConfig& recovery, std::string* bytes) {
         SingleLstmConfig config = TinyConfig();
         config.recovery = recovery;
         SingleLstmModel model;
         Rng rng(77);
         const Status trained = model.Train(train, 1, config, rng);
         if (trained.ok()) {
           SingleLstmModel::Generator generator(model, 1);
           Rng gen_rng(78);
           for (int64_t p = kPeriodsPerDay; p < 3 * kPeriodsPerDay; ++p) {
             for (const std::vector<int32_t>& batch : generator.GeneratePeriod(p, gen_rng)) {
               for (int32_t flavor : batch) {
                 *bytes += std::to_string(flavor) + ' ';
               }
               *bytes += ';';
             }
             *bytes += '\n';
           }
         }
         return trained;
       }},
      {"multi-resource", kCheckpointStageResource,
       [](const Trace& train, const TrainRecoveryConfig& recovery, std::string* bytes) {
         ResourceModelConfig config = TinyConfig();
         config.recovery = recovery;
         MultiResourceLstmModel model;
         Rng rng(77);
         const Status trained = model.Train(train, Levels(train, &Flavor::cpus),
                                            Levels(train, &Flavor::memory_gb), 1, config, rng);
         if (trained.ok()) {
           *bytes = ModelFileBytes(model.JointModel());
         }
         return trained;
       }},
  };
}

TEST(CheckpointResume, StoppedAndResumedRunIsBitwiseIdentical) {
  const Trace train = TrainWindow();
  for (const ResumeCase& trainer : ResumeCases()) {
    SCOPED_TRACE(trainer.name);
    const std::string ckpt = TempPath("resume_test.ckpt");
    std::remove(ckpt.c_str());

    // Run A: uninterrupted reference run.
    std::string straight;
    ASSERT_TRUE(trainer.train(train, TrainRecoveryConfig(), &straight).ok());
    ASSERT_FALSE(straight.empty());

    // Run B: same seed, checkpoints every epoch, halts after epoch 2 — the
    // same on-disk state a SIGKILL right after the checkpoint write leaves.
    TrainRecoveryConfig recovery;
    recovery.checkpoint_path = ckpt;
    recovery.stop_after_epoch = 2;
    std::string stopped;
    ASSERT_TRUE(trainer.train(train, recovery, &stopped).ok());
    uint64_t next_epoch = 0;
    std::string payload;
    ASSERT_TRUE(
        TrainCheckpoint::Read(ckpt, trainer.stage_tag, &next_epoch, &payload).ok());
    EXPECT_EQ(next_epoch, 2u);

    // Run C: resume from B's checkpoint and finish the remaining epochs.
    recovery.stop_after_epoch = 0;
    recovery.resume = true;
    std::string resumed;
    ASSERT_TRUE(trainer.train(train, recovery, &resumed).ok());
    EXPECT_EQ(straight, resumed) << "resumed weights diverged from the straight run";

    std::remove(ckpt.c_str());
  }
}

// Loading a checkpoint of another network shape used to abort mid-parse
// (or fail later in a GEMM). It must fail training with a Status before
// anything is loaded or written, so the other run's progress survives.
TEST(CheckpointResume, CheckpointOfAnotherShapeFailsAndIsKept) {
  const Trace train = TrainWindow();
  const auto shape = [](size_t hidden, size_t layers, size_t clusters) {
    FlavorModelConfig config = TinyConfig();
    config.hidden_dim = hidden;
    config.num_layers = layers;
    config.factored_clusters = clusters;
    return config;
  };
  const struct {
    const char* name;
    FlavorModelConfig writer;
    FlavorModelConfig resumer;
  } cases[] = {
      {"hidden 16 resumed at 24", shape(16, 1, 0), shape(24, 1, 0)},
      {"hidden 24 resumed at 16", shape(24, 1, 0), shape(16, 1, 0)},
      {"1 layer resumed at 2", shape(16, 1, 0), shape(16, 2, 0)},
      {"dense resumed as factored", shape(16, 1, 0), shape(16, 1, 2)},
  };
  const std::string ckpt = TempPath("resume_shape.flavor.ckpt");
  for (const auto& mismatch : cases) {
    SCOPED_TRACE(mismatch.name);
    std::remove(ckpt.c_str());
    FlavorModelConfig writer = mismatch.writer;
    writer.recovery.checkpoint_path = ckpt;
    writer.recovery.stop_after_epoch = 1;
    {
      FlavorLstmModel model;
      Rng rng(80);
      ASSERT_TRUE(model.Train(train, 1, writer, rng).ok());
    }
    const std::string before = ReadAll(ckpt);
    ASSERT_FALSE(before.empty());

    FlavorModelConfig resumer = mismatch.resumer;
    resumer.recovery.checkpoint_path = ckpt;
    resumer.recovery.resume = true;
    FlavorLstmModel model;
    Rng rng(80);
    const Status status = model.Train(train, 1, resumer, rng);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status.ToString();
    EXPECT_NE(status.message().find("remove it to start over"), std::string::npos)
        << status.ToString();
    EXPECT_EQ(ReadAll(ckpt), before) << "the rejected checkpoint was overwritten";
  }
  std::remove(ckpt.c_str());
}

TEST(CheckpointResume, CorruptCheckpointFallsBackToFreshStart) {
  const Trace train = TrainWindow();
  const std::string ckpt = TempPath("resume_corrupt.flavor.ckpt");
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out << "not a checkpoint at all";
  }
  FlavorModelConfig config = TinyConfig();
  config.epochs = 2;
  config.recovery.checkpoint_path = ckpt;
  config.recovery.resume = true;
  FlavorLstmModel model;
  Rng rng(78);
  // The unusable checkpoint is reported and ignored; training starts fresh
  // and still succeeds.
  ASSERT_TRUE(model.Train(train, 1, config, rng).ok());
  EXPECT_TRUE(model.IsTrained());
  std::remove(ckpt.c_str());
}

TEST(CheckpointResume, ResumeWithMissingFileStartsFresh) {
  const Trace train = TrainWindow();
  FlavorModelConfig config = TinyConfig();
  config.epochs = 2;
  config.recovery.checkpoint_path = TempPath("resume_missing.flavor.ckpt");
  config.recovery.resume = true;
  std::remove(config.recovery.checkpoint_path.c_str());
  FlavorLstmModel model;
  Rng rng(79);
  ASSERT_TRUE(model.Train(train, 1, config, rng).ok());
  EXPECT_TRUE(model.IsTrained());
  std::remove(config.recovery.checkpoint_path.c_str());
}

}  // namespace
}  // namespace cloudgen
