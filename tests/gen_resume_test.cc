// Kill/resume soak tests for sink-based generation: the sink route must
// byte-match the legacy vector route at any thread count, graceful
// cancellation plus --resume-gen must reassemble the exact uninterrupted
// byte string, a gen_write_kill crash in the seal→manifest window must be
// absorbed, and a stale/mismatched checkpoint must be rejected loudly.
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/gen_checkpoint.h"
#include "src/core/workload_model.h"
#include "src/synth/synthetic_cloud.h"
#include "src/trace/trace_sink.h"
#include "src/util/cancel.h"
#include "src/util/check.h"
#include "src/util/fault.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace cloudgen {
namespace {

constexpr uint64_t kSeed = 77;
constexpr size_t kCount = 4;

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

class GenResumeTest : public ::testing::Test {
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

  void TearDown() override {
    FaultInjector::Global().Disarm();
    SetGlobalThreads(1);
  }

  static WorkloadModel::GenerateOptions Options() {
    WorkloadModel::GenerateOptions options;
    options.from_period = 0;
    options.to_period = 36;
    return options;
  }

  static std::string Dir(const std::string& name) {
    return testing::TempDir() + "/" + std::to_string(::getpid()) + "." + name;
  }

  // The oracle byte string: the legacy vector route serialized row by row.
  static std::string ExpectedBytes() {
    Rng rng(kSeed);
    const std::vector<Trace> traces = model_->GenerateMany(Options(), kCount, rng);
    std::string out;
    for (size_t i = 0; i < traces.size(); ++i) {
      for (const Job& job : traces[i].Jobs()) {
        AppendJobRow(i, job, &out);
      }
    }
    return out;
  }

  // One sink-based run into `dir`. Returns the report; asserts OK status.
  // The run keeps one batch window in flight per pool thread, so the pool
  // size set before the call is its shard count.
  static WorkloadModel::GenerateReport RunSinkOnce(const std::string& dir, bool resume,
                                                   const CancelToken* cancel) {
    WorkloadModel::GenerateOptions options = Options();
    options.cancel = cancel;
    SegmentedFileSink::Options sink_options;
    sink_options.dir = dir;
    sink_options.segment_bytes = 256;  // Several seals per trace.
    sink_options.resume = resume;
    SegmentedFileSink sink(sink_options);
    EXPECT_TRUE(sink.Init().ok());
    WorkloadModel::GenerateRun run;
    run.sink = &sink;
    run.checkpoint_path = dir + "/gen.ckpt";
    run.resume = resume;
    run.config_fingerprint = kSeed;
    WorkloadModel::GenerateReport report;
    Rng rng(kSeed);
    EXPECT_TRUE(model_->GenerateMany(options, kCount, rng, run, &report).ok());
    return report;
  }

  static std::string ConcatOrDie(const std::string& dir) {
    std::string bytes;
    EXPECT_TRUE(ConcatSegments(dir, /*require_complete=*/true, &bytes).ok());
    return bytes;
  }

  static WorkloadModel* model_;
};

WorkloadModel* GenResumeTest::model_ = nullptr;

TEST_F(GenResumeTest, SinkRouteMatchesVectorRouteAcrossThreadCounts) {
  const std::string expected = ExpectedBytes();
  ASSERT_FALSE(expected.empty());
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SetGlobalThreads(threads);
    const std::string dir = Dir("sink_vs_vector_t" + std::to_string(threads));
    const WorkloadModel::GenerateReport report =
        RunSinkOnce(dir, /*resume=*/false, /*cancel=*/nullptr);
    EXPECT_EQ(report.traces, kCount);
    EXPECT_FALSE(report.interrupted);
    EXPECT_EQ(ConcatOrDie(dir), expected) << "threads=" << threads;
  }
}

TEST_F(GenResumeTest, StreamingRouteMatchesGenerate) {
  WorkloadModel::GenerateOptions options = Options();
  Rng rng_oracle(kSeed);
  const Trace oracle = model_->Generate(options, rng_oracle);
  std::string expected;
  for (const Job& job : oracle.Jobs()) {
    AppendJobRow(0, job, &expected);
  }

  const std::string dir = Dir("streaming_match");
  SegmentedFileSink::Options sink_options;
  sink_options.dir = dir;
  sink_options.segment_bytes = 256;
  SegmentedFileSink sink(sink_options);
  ASSERT_TRUE(sink.Init().ok());
  WorkloadModel::GenerateRun run;
  run.sink = &sink;
  run.checkpoint_path = dir + "/gen.ckpt";
  run.config_fingerprint = kSeed;
  WorkloadModel::GenerateReport report;
  Rng rng(kSeed);
  ASSERT_TRUE(model_->GenerateStreaming(options, rng, run, &report).ok());
  EXPECT_EQ(report.traces, 1u);
  EXPECT_EQ(report.jobs, oracle.NumJobs());
  EXPECT_EQ(ConcatOrDie(dir), expected);
}

TEST_F(GenResumeTest, PreCancelledRunCheckpointsNothingAndResumeCompletes) {
  const std::string expected = ExpectedBytes();
  const std::string dir = Dir("precancel");
  CancelToken cancel;
  cancel.RequestCancel();
  const WorkloadModel::GenerateReport first =
      RunSinkOnce(dir, /*resume=*/false, &cancel);
  EXPECT_TRUE(first.interrupted);
  EXPECT_EQ(first.traces, 0u);
  const WorkloadModel::GenerateReport second =
      RunSinkOnce(dir, /*resume=*/true, /*cancel=*/nullptr);
  EXPECT_FALSE(second.interrupted);
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(ConcatOrDie(dir), expected);
}

TEST_F(GenResumeTest, MidRunCancelThenResumeIsByteIdentical) {
  const std::string expected = ExpectedBytes();
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SetGlobalThreads(threads);
    const std::string dir = Dir("midcancel_t" + std::to_string(threads));
    // Fire the cancel from a side thread mid-run. Wherever the stop lands —
    // including "run already finished" — the resumed output must be the
    // same byte string.
    CancelToken cancel;
    std::thread trigger([&cancel] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      cancel.RequestCancel();
    });
    const WorkloadModel::GenerateReport first =
        RunSinkOnce(dir, /*resume=*/false, &cancel);
    trigger.join();
    if (first.interrupted) {
      const WorkloadModel::GenerateReport second =
          RunSinkOnce(dir, /*resume=*/true, /*cancel=*/nullptr);
      EXPECT_FALSE(second.interrupted);
      // Every trace is flushed exactly once across the two runs.
      EXPECT_EQ(first.traces + second.traces, kCount);
    }
    EXPECT_EQ(ConcatOrDie(dir), expected) << "threads=" << threads;
  }
}

TEST_F(GenResumeTest, StreamingDeadlineInterruptsThenResumesByteIdentically) {
  WorkloadModel::GenerateOptions options = Options();
  options.to_period = kPeriodsPerDay / 2;  // Long enough to outlive the deadline.
  Rng rng_oracle(kSeed);
  const Trace oracle = model_->Generate(options, rng_oracle);
  std::string expected;
  for (const Job& job : oracle.Jobs()) {
    AppendJobRow(0, job, &expected);
  }

  const std::string dir = Dir("streaming_deadline");
  auto run_once = [&](bool resume, const CancelToken* cancel) {
    WorkloadModel::GenerateOptions attempt = options;
    attempt.cancel = cancel;
    SegmentedFileSink::Options sink_options;
    sink_options.dir = dir;
    sink_options.segment_bytes = 256;
    sink_options.resume = resume;
    SegmentedFileSink sink(sink_options);
    EXPECT_TRUE(sink.Init().ok());
    WorkloadModel::GenerateRun run;
    run.sink = &sink;
    run.checkpoint_path = dir + "/gen.ckpt";
    run.resume = resume;
    run.config_fingerprint = kSeed;
    WorkloadModel::GenerateReport report;
    Rng rng(kSeed);
    EXPECT_TRUE(model_->GenerateStreaming(attempt, rng, run, &report).ok());
    return report;
  };

  CancelToken deadline;
  deadline.SetDeadline(0.01);
  WorkloadModel::GenerateReport report = run_once(/*resume=*/false, &deadline);
  // A few deadline-limited resumes exercise the checkpointed engine/RNG
  // state blob mid-trace; under heavy machine load an attempt may make zero
  // progress, so completion is guaranteed by a final unbounded resume
  // rather than by looping on deadlines.
  for (int attempt = 0; attempt < 5 && report.interrupted; ++attempt) {
    CancelToken next_deadline;
    next_deadline.SetDeadline(0.01);
    report = run_once(/*resume=*/true, &next_deadline);
  }
  if (report.interrupted) {
    report = run_once(/*resume=*/true, /*cancel=*/nullptr);
  }
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(ConcatOrDie(dir), expected);
}

// The shard count follows the pool size, which (like batch_window) is not
// in the checkpoint fingerprint, so a run checkpointed at one shard count
// must resume — accepted, not FAILED_PRECONDITION — at any other,
// byte-identically.
TEST_F(GenResumeTest, CheckpointTransfersAcrossShardCounts) {
  const std::string expected = ExpectedBytes();

  // Deterministic direction first: a pre-cancelled single-shard run leaves a
  // trace-0 checkpoint that a 4-shard resume must accept and complete.
  {
    const std::string dir = Dir("cross_shard_pre");
    SetGlobalThreads(1);
    CancelToken cancel;
    cancel.RequestCancel();
    const WorkloadModel::GenerateReport first =
        RunSinkOnce(dir, /*resume=*/false, &cancel);
    EXPECT_TRUE(first.interrupted);
    SetGlobalThreads(4);
    const WorkloadModel::GenerateReport second =
        RunSinkOnce(dir, /*resume=*/true, /*cancel=*/nullptr);
    EXPECT_TRUE(second.resumed);
    EXPECT_FALSE(second.interrupted);
    EXPECT_EQ(ConcatOrDie(dir), expected);
  }

  // Mid-run direction: interrupt a sharded run wherever the cancel lands and
  // finish it single-shard.
  {
    const std::string dir = Dir("cross_shard_mid");
    SetGlobalThreads(4);
    CancelToken cancel;
    std::thread trigger([&cancel] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      cancel.RequestCancel();
    });
    const WorkloadModel::GenerateReport first =
        RunSinkOnce(dir, /*resume=*/false, &cancel);
    trigger.join();
    SetGlobalThreads(1);
    if (first.interrupted) {
      const WorkloadModel::GenerateReport second =
          RunSinkOnce(dir, /*resume=*/true, /*cancel=*/nullptr);
      EXPECT_FALSE(second.interrupted);
      EXPECT_EQ(first.traces + second.traces, kCount);
    }
    EXPECT_EQ(ConcatOrDie(dir), expected);
  }
}

// Sharded analog of MidRunCancelThenResumeIsByteIdentical: repeated mid-run
// stops (the in-process SIGTERM path — the CLI's handler trips this same
// CancelToken) with multiple windows in flight, resumed at a different shard
// count each round.
TEST_F(GenResumeTest, ShardedMidRunCancelThenResumeIsByteIdentical) {
  const std::string expected = ExpectedBytes();
  for (int round = 0; round < 3; ++round) {
    const std::string dir = Dir("sharded_midcancel_r" + std::to_string(round));
    SetGlobalThreads(4);
    CancelToken cancel;
    std::thread trigger([&cancel, round] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2 * round + 1));
      cancel.RequestCancel();
    });
    const WorkloadModel::GenerateReport first =
        RunSinkOnce(dir, /*resume=*/false, &cancel);
    trigger.join();
    SetGlobalThreads(2);
    if (first.interrupted) {
      const WorkloadModel::GenerateReport second =
          RunSinkOnce(dir, /*resume=*/true, /*cancel=*/nullptr);
      EXPECT_FALSE(second.interrupted);
      EXPECT_EQ(first.traces + second.traces, kCount);
    }
    EXPECT_EQ(ConcatOrDie(dir), expected) << "round=" << round;
  }
}

TEST_F(GenResumeTest, KillBetweenSealAndManifestIsAbsorbedOnResume) {
  const std::string expected = ExpectedBytes();
  const std::string dir = Dir("write_kill");
  SetGlobalThreads(1);  // Keep the death-test fork single-threaded.
  EXPECT_EXIT(
      {
        // Armed only in the child: the first sealed segment _Exits the
        // process after the segment file lands but before the manifest and
        // checkpoint record it — the worst-ordered crash.
        ASSERT_TRUE(
            FaultInjector::Global().Configure("gen_write_kill:1.0").ok());
        RunSinkOnce(dir, /*resume=*/false, /*cancel=*/nullptr);
      },
      ::testing::ExitedWithCode(kFaultKillExitCode), "");
  // The child left an orphan segment file and an empty manifest with no
  // checkpoint. Resume must regenerate everything, identically.
  const WorkloadModel::GenerateReport report =
      RunSinkOnce(dir, /*resume=*/true, /*cancel=*/nullptr);
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.traces, kCount);
  EXPECT_EQ(ConcatOrDie(dir), expected);
}

// One streaming run of `model` into `dir` (256-byte segments, checkpoint at
// every seal); a pre-cancelled `cancel` stops it at the first period with a
// checkpoint holding the start-of-trace state blob.
Status StreamOnce(const WorkloadModel& model, const std::string& dir, bool resume,
                  const CancelToken* cancel) {
  WorkloadModel::GenerateOptions options;
  options.from_period = 0;
  options.to_period = 36;
  options.cancel = cancel;
  SegmentedFileSink::Options sink_options;
  sink_options.dir = dir;
  sink_options.segment_bytes = 256;
  sink_options.resume = resume;
  SegmentedFileSink sink(sink_options);
  EXPECT_TRUE(sink.Init().ok());
  WorkloadModel::GenerateRun run;
  run.sink = &sink;
  run.checkpoint_path = dir + "/gen.ckpt";
  run.resume = resume;
  run.config_fingerprint = kSeed;
  WorkloadModel::GenerateReport report;
  Rng rng(kSeed);
  return model.GenerateStreaming(options, rng, run, &report);
}

// The fixture's training data with a narrower network (hidden 16, not 24).
const WorkloadModel& Hidden16Model() {
  static const WorkloadModel* model = [] {
    const Trace full = SyntheticCloud(TinyProfile(), 505).Generate();
    const Trace train =
        ApplyObservationWindow(full, 0, 2 * kPeriodsPerDay, 2 * kPeriodsPerDay);
    WorkloadModelConfig config = TinyConfig();
    config.flavor.hidden_dim = 16;
    config.flavor.epochs = 2;
    config.lifetime.hidden_dim = 16;
    config.lifetime.epochs = 2;
    auto* m = new WorkloadModel();
    Rng rng(16);
    CG_CHECK(m->Train(train, config, rng).ok());
    return m;
  }();
  return *model;
}

// Writes a pre-cancelled streaming checkpoint of `writer` into `dir`, lets
// `edit` rewrite its state blob, and resumes with `reader`.
template <typename Edit>
Status ResumeEditedCheckpoint(const WorkloadModel& writer, const WorkloadModel& reader,
                              const std::string& dir, const Edit& edit) {
  CancelToken cancel;
  cancel.RequestCancel();
  EXPECT_TRUE(StreamOnce(writer, dir, /*resume=*/false, &cancel).ok());
  GenCursor cursor;
  EXPECT_TRUE(LoadGenCheckpoint(dir + "/gen.ckpt", &cursor).ok());
  edit(&cursor.state_blob);
  EXPECT_TRUE(SaveGenCheckpoint(dir + "/gen.ckpt", cursor).ok());
  return StreamOnce(reader, dir, /*resume=*/true, /*cancel=*/nullptr);
}

// Malformed or mismatched streaming state blobs fail the resume with a
// Status — never an abort, never a silently different trace.
TEST_F(GenResumeTest, MalformedStreamingStateFailsResumeWithStatus) {
  const WorkloadModel& model = *model_;
  // Blob layout for the fixture model (one 24-wide layer per network):
  // doh_day, next_user, flavor (previous token, layer count, h, c),
  // lifetime (valid, censored, previous bin, layer count, h, c), Rng.
  constexpr size_t kMatrix = 2 * sizeof(uint64_t) + 24 * sizeof(float);
  constexpr size_t kFlavorToken = sizeof(int32_t) + sizeof(int64_t);
  constexpr size_t kFlavorLayers = kFlavorToken + sizeof(uint64_t);
  constexpr size_t kLifetimeBin =
      kFlavorLayers + sizeof(uint64_t) + 2 * kMatrix + 2 * sizeof(uint8_t);
  const auto put_u64 = [](std::string* blob, size_t at, uint64_t value) {
    ASSERT_LE(at + sizeof(value), blob->size());
    std::memcpy(blob->data() + at, &value, sizeof(value));
  };
  const struct {
    const char* what;
    std::function<void(std::string*)> edit;
    StatusCode code;
  } cases[] = {
      {"cut by 20 bytes (inside the Rng tail)",
       [](std::string* b) { b->resize(b->size() - 20); }, StatusCode::kDataLoss},
      {"cut by 100 bytes (inside the lifetime LSTM state)",
       [](std::string* b) { b->resize(b->size() - 100); }, StatusCode::kDataLoss},
      {"trailing byte", [](std::string* b) { b->push_back('x'); }, StatusCode::kDataLoss},
      {"empty", [](std::string* b) { b->clear(); }, StatusCode::kDataLoss},
      {"DOH day out of range",
       [](std::string* b) {
         const int32_t doh = 1000;
         std::memcpy(b->data(), &doh, sizeof(doh));
       },
       StatusCode::kFailedPrecondition},
      {"previous flavor token out of range",
       [&](std::string* b) { put_u64(b, kFlavorToken, 1000); },
       StatusCode::kFailedPrecondition},
      {"flavor LSTM layer count",
       [&](std::string* b) { put_u64(b, kFlavorLayers, 2); },
       StatusCode::kFailedPrecondition},
      {"flavor LSTM matrix header (hostile size)",
       [&](std::string* b) { put_u64(b, kFlavorLayers + sizeof(uint64_t), uint64_t{1} << 40); },
       StatusCode::kFailedPrecondition},
      {"previous lifetime bin out of range",
       [&](std::string* b) { put_u64(b, kLifetimeBin, 1000); },
       StatusCode::kFailedPrecondition},
  };
  for (const auto& c : cases) {
    const std::string dir = Dir(std::string("bad_blob_") + std::to_string(&c - cases));
    const Status status = ResumeEditedCheckpoint(model, model, dir, c.edit);
    EXPECT_EQ(status.code(), c.code) << c.what << ": " << status.ToString();
  }
}

TEST_F(GenResumeTest, StreamingCheckpointOfAnotherWidthIsRejected) {
  const auto keep = [](std::string*) {};
  const Status narrower =
      ResumeEditedCheckpoint(*model_, Hidden16Model(), Dir("hidden24_on_16"), keep);
  EXPECT_EQ(narrower.code(), StatusCode::kFailedPrecondition) << narrower.ToString();
  const Status wider =
      ResumeEditedCheckpoint(Hidden16Model(), *model_, Dir("hidden16_on_24"), keep);
  EXPECT_EQ(wider.code(), StatusCode::kFailedPrecondition) << wider.ToString();
}

// A rejected resume leaves the output directory resumable: restoring the
// healthy checkpoint completes the exact uninterrupted byte string.
TEST_F(GenResumeTest, HealthyStreamingCheckpointResumesAfterRejectedOne) {
  Rng rng_oracle(kSeed);
  const Trace oracle = model_->Generate(Options(), rng_oracle);
  std::string expected;
  for (const Job& job : oracle.Jobs()) {
    AppendJobRow(0, job, &expected);
  }

  const std::string dir = Dir("healthy_after_bad");
  std::string healthy;
  const Status rejected =
      ResumeEditedCheckpoint(*model_, *model_, dir, [&healthy](std::string* b) {
        healthy = *b;
        b->resize(b->size() - 20);
      });
  EXPECT_EQ(rejected.code(), StatusCode::kDataLoss) << rejected.ToString();
  GenCursor cursor;
  ASSERT_TRUE(LoadGenCheckpoint(dir + "/gen.ckpt", &cursor).ok());
  cursor.state_blob = healthy;
  ASSERT_TRUE(SaveGenCheckpoint(dir + "/gen.ckpt", cursor).ok());
  ASSERT_TRUE(StreamOnce(*model_, dir, /*resume=*/true, /*cancel=*/nullptr).ok());
  EXPECT_EQ(ConcatOrDie(dir), expected);
}

TEST_F(GenResumeTest, ResumeWithMismatchedFingerprintIsRejected) {
  const std::string dir = Dir("fingerprint");
  CancelToken cancel;
  cancel.RequestCancel();
  const WorkloadModel::GenerateReport first =
      RunSinkOnce(dir, /*resume=*/false, &cancel);
  EXPECT_TRUE(first.interrupted);

  // Same directory, different seed folded into the fingerprint: the resume
  // must fail loudly instead of splicing two RNG streams into one output.
  SegmentedFileSink::Options sink_options;
  sink_options.dir = dir;
  sink_options.segment_bytes = 256;
  sink_options.resume = true;
  SegmentedFileSink sink(sink_options);
  ASSERT_TRUE(sink.Init().ok());
  WorkloadModel::GenerateRun run;
  run.sink = &sink;
  run.checkpoint_path = dir + "/gen.ckpt";
  run.resume = true;
  run.config_fingerprint = kSeed + 1;
  WorkloadModel::GenerateReport report;
  Rng rng(kSeed + 1);
  const Status status = model_->GenerateMany(Options(), kCount, rng, run, &report);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace cloudgen
