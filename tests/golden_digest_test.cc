// Golden byte digests for every generation route (ctest label `golden`).
//
// Each case serializes its generated jobs with AppendJobRow — the exact bytes
// the sinks seal and serve streams — and pins their CRC-32 (the single-LSTM
// ablation and the multi-resource model, which yield batches of flavors or
// resource requests rather than jobs, pin those). The values were
// recorded once and must never move: a refactor of the generation loop, the
// batched engine, the sink path or the checkpoint format that changes a
// single output byte fails here, even when every route still agrees with
// every other route built from the same tree. The tiny models are trained
// in-process with fixed seeds, so the digests also pin training; they are
// expected to hold on native and portable (-DCLOUDGEN_NATIVE_ARCH=OFF)
// builds alike.
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/arrival_model.h"
#include "src/core/gen_checkpoint.h"
#include "src/core/resource_model.h"
#include "src/core/single_lstm_model.h"
#include "src/core/workload_model.h"
#include "src/synth/synthetic_cloud.h"
#include "src/trace/trace_sink.h"
#include "src/util/cancel.h"
#include "src/util/check.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace cloudgen {
namespace {

SynthProfile Tiny(SynthProfile profile) {
  profile.train_days = 2;
  profile.dev_days = 1;
  profile.test_days = 1;
  profile.num_flavors = 6;
  profile.num_users = 24;
  return profile;
}

Trace TrainingTrace(const SynthProfile& profile) {
  const Trace full = SyntheticCloud(Tiny(profile), 606).Generate();
  return ApplyObservationWindow(full, 0, 2 * kPeriodsPerDay, 2 * kPeriodsPerDay);
}

WorkloadModelConfig TinyConfig(size_t factored_clusters) {
  WorkloadModelConfig config;
  config.flavor.hidden_dim = 16;
  config.flavor.num_layers = 2;
  config.flavor.seq_len = 32;
  config.flavor.batch_size = 16;
  config.flavor.epochs = 3;
  config.flavor.factored_clusters = factored_clusters;
  config.lifetime.hidden_dim = 12;
  config.lifetime.num_layers = 1;
  config.lifetime.seq_len = 32;
  config.lifetime.batch_size = 16;
  config.lifetime.epochs = 3;
  return config;
}

const WorkloadModel* TrainModel(const SynthProfile& profile,
                                const WorkloadModelConfig& config) {
  SetGlobalThreads(1);
  auto* model = new WorkloadModel();
  Rng rng(42);
  CG_CHECK(model->Train(TrainingTrace(profile), config, rng).ok());
  return model;
}

const WorkloadModel& AzureModel() {
  static const WorkloadModel* model = TrainModel(AzureLikeProfile(0.4), TinyConfig(0));
  return *model;
}

const WorkloadModel& FactoredModel() {
  static const WorkloadModel* model = TrainModel(AzureLikeProfile(0.4), TinyConfig(3));
  return *model;
}

const WorkloadModel& HuaweiModel() {
  static const WorkloadModel* model = TrainModel(HuaweiLikeProfile(0.4), TinyConfig(0));
  return *model;
}

// The PMF lifetime head trains through CensoredSoftmaxCrossEntropy, and both
// stages decay their learning rate after every epoch.
const WorkloadModel& PmfDecayModel() {
  static const WorkloadModel* model = [] {
    WorkloadModelConfig config = TinyConfig(0);
    config.lifetime.head = LifetimeHead::kPmf;
    config.flavor.lr_decay = 0.9f;
    config.lifetime.lr_decay = 0.9f;
    return TrainModel(AzureLikeProfile(0.4), config);
  }();
  return *model;
}

WorkloadModel::GenerateOptions Options() {
  WorkloadModel::GenerateOptions options;
  options.from_period = 3 * kPeriodsPerDay;
  options.to_period = 3 * kPeriodsPerDay + 48;
  return options;
}

void AppendTrace(size_t index, const Trace& trace, std::string* out) {
  for (const Job& job : trace.Jobs()) {
    AppendJobRow(index, job, out);
  }
}

std::string Rows(const std::vector<Trace>& traces) {
  std::string out;
  for (size_t i = 0; i < traces.size(); ++i) {
    AppendTrace(i, traces[i], &out);
  }
  return out;
}

// Asserts the digest and prints the observed value, so a deliberate format
// change can re-pin from the log.
void ExpectDigest(const std::string& bytes, uint32_t expected, const char* what) {
  ASSERT_FALSE(bytes.empty()) << what << " produced no rows";
  const uint32_t got = Crc32(bytes);
  EXPECT_EQ(got, expected) << what << ": got 0x" << std::hex << got << " over "
                           << std::dec << bytes.size() << " bytes";
}

// Zeroes the float payloads of the LSTM state written at `at` (a layer count,
// then per layer the h and c matrices as rows, cols and floats) and returns
// the offset just past it.
size_t MaskLstmState(std::string* blob, size_t at) {
  const auto read_u64 = [&](size_t pos) {
    uint64_t v = 0;
    CG_CHECK(pos + sizeof(v) <= blob->size());
    std::memcpy(&v, blob->data() + pos, sizeof(v));
    return v;
  };
  const uint64_t layers = read_u64(at);
  at += sizeof(uint64_t);
  for (uint64_t m = 0; m < 2 * layers; ++m) {
    const uint64_t floats = read_u64(at) * read_u64(at + sizeof(uint64_t));
    at += 2 * sizeof(uint64_t);
    CG_CHECK(at + floats * sizeof(float) <= blob->size());
    std::memset(blob->data() + at, 0, floats * sizeof(float));
    at += floats * sizeof(float);
  }
  return at;
}

// A streaming state blob with its LSTM float payloads zeroed and every other
// byte kept. The layout is doh_day | next_user | flavor state (previous
// token, LSTM state) | lifetime state (previous valid, censored, bin; LSTM
// state) | Rng (four state words, cached normal, flag). The last bits of the
// hidden-state floats follow the build's SIMD level (a -march=native build
// fuses multiply-adds), while the layout and every integer field must not.
std::string MaskedStateBlob(std::string blob) {
  size_t at = sizeof(int32_t) + sizeof(int64_t) + sizeof(uint64_t);
  at = MaskLstmState(&blob, at);
  at += 2 * sizeof(uint8_t) + sizeof(uint64_t);
  at = MaskLstmState(&blob, at);
  EXPECT_EQ(blob.size() - at, 4 * sizeof(uint64_t) + sizeof(double) + sizeof(uint8_t));
  return blob;
}

std::string Dir(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(::getpid()) + ".golden." + name;
}

// Calls RequestCancel() on its N-th Append, so a streaming run stops at the
// same period boundary every time.
class CancelOnAppendSink final : public TraceSink {
 public:
  CancelOnAppendSink(TraceSink* inner, CancelToken* cancel, uint64_t n)
      : inner_(inner), cancel_(cancel), n_(n) {}
  Status BeginTrace(size_t trace_index) override { return inner_->BeginTrace(trace_index); }
  Status Append(const Job& job) override {
    if (++appends_ == n_) {
      cancel_->RequestCancel();
    }
    return inner_->Append(job);
  }
  Status EndTrace() override { return inner_->EndTrace(); }
  Status CommitPoint(bool force, bool* sealed) override {
    return inner_->CommitPoint(force, sealed);
  }
  Status ResumeAt(uint64_t segments_sealed) override {
    return inner_->ResumeAt(segments_sealed);
  }
  Status Finish() override { return inner_->Finish(); }

 private:
  TraceSink* inner_;
  CancelToken* cancel_;
  uint64_t n_;
  uint64_t appends_ = 0;
};

// One streaming run into `dir` (256-byte segments, checkpointing at every
// seal). `cancel_on_append` > 0 interrupts the run deterministically.
WorkloadModel::GenerateReport StreamOnce(const std::string& dir, bool resume,
                                         uint64_t cancel_on_append) {
  SegmentedFileSink::Options sink_options;
  sink_options.dir = dir;
  sink_options.segment_bytes = 256;
  sink_options.resume = resume;
  SegmentedFileSink file_sink(sink_options);
  EXPECT_TRUE(file_sink.Init().ok());
  CancelToken cancel;
  CancelOnAppendSink sink(&file_sink, &cancel, cancel_on_append);
  WorkloadModel::GenerateOptions options = Options();
  options.cancel = &cancel;
  WorkloadModel::GenerateRun run;
  run.sink = &sink;
  run.checkpoint_path = dir + "/gen.ckpt";
  run.resume = resume;
  run.config_fingerprint = 5;
  WorkloadModel::GenerateReport report;
  Rng rng(5);
  EXPECT_TRUE(AzureModel().GenerateStreaming(options, rng, run, &report).ok());
  return report;
}

TEST(GoldenDigest, ConsecutiveGenerateCallsOnOneRng) {
  Rng rng(7);
  std::string bytes;
  AppendTrace(0, AzureModel().Generate(Options(), rng), &bytes);
  AppendTrace(1, AzureModel().Generate(Options(), rng), &bytes);
  ExpectDigest(bytes, 0x13cba66du, "two Generate calls on one Rng");
}

TEST(GoldenDigest, GenerateWithNoDohArrivalOverride) {
  BatchArrivalModel no_doh;
  ArrivalModelConfig config;
  config.use_doh = false;
  no_doh.Fit(TrainingTrace(AzureLikeProfile(0.4)), ArrivalGranularity::kBatches, config);
  Rng rng(8);
  std::string bytes;
  AppendTrace(0, AzureModel().GenerateWithArrivalModel(no_doh, Options(), rng), &bytes);
  ExpectDigest(bytes, 0x56e7e824u, "GenerateWithArrivalModel, no-DOH override");
}

TEST(GoldenDigest, GenerateManyAtDefaultWindowAndShards) {
  Rng rng(9);
  ExpectDigest(Rows(AzureModel().GenerateMany(Options(), 12, rng)), 0x9cd34335u,
               "GenerateMany, default window and shards");
}

TEST(GoldenDigest, WhatIfSettings) {
  WorkloadModel::GenerateOptions options = Options();
  options.eob_scale = 0.5;
  options.interpolation = Interpolation::kStepped;
  options.arrival_scale = 2.0;
  Rng rng(10);
  std::string bytes;
  AppendTrace(0, AzureModel().Generate(options, rng), &bytes);
  ExpectDigest(bytes, 0x8bf91a32u, "eob_scale 0.5, stepped, arrival_scale 2");
}

TEST(GoldenDigest, FactoredHead) {
  ASSERT_TRUE(FactoredModel().FlavorModel().Network().IsFactored());
  Rng rng(11);
  std::string bytes;
  AppendTrace(0, FactoredModel().Generate(Options(), rng), &bytes);
  ExpectDigest(bytes, 0xce116e0cu, "factored head, Generate");
  ExpectDigest(Rows(FactoredModel().GenerateMany(Options(), 8, rng)), 0xf2f94994u,
               "factored head, GenerateMany");
}

TEST(GoldenDigest, HuaweiLikeProfile) {
  Rng rng(12);
  std::string bytes;
  AppendTrace(0, HuaweiModel().Generate(Options(), rng), &bytes);
  ExpectDigest(bytes, 0x111f5277u, "HuaweiLike profile");
}

TEST(GoldenDigest, PmfHeadWithLearningRateDecay) {
  Rng rng(14);
  ExpectDigest(Rows(PmfDecayModel().GenerateMany(Options(), 8, rng)), 0xe4094335u,
               "PMF lifetime head, lr_decay 0.9, GenerateMany");
}

// The single-LSTM ablation trains on its own EOP token stream; its batches
// are written as text: one line per period, each batch's flavors closed by
// a ';'.
TEST(GoldenDigest, SingleLstmPeriods) {
  SetGlobalThreads(1);
  SingleLstmConfig config;
  config.hidden_dim = 16;
  config.num_layers = 1;
  config.seq_len = 32;
  config.batch_size = 16;
  config.epochs = 3;
  config.lr_decay = 0.9f;
  SingleLstmModel model;
  Rng train_rng(43);
  ASSERT_TRUE(model.Train(TrainingTrace(AzureLikeProfile(0.4)), 2, config, train_rng).ok());
  SingleLstmModel::Generator generator(model, 2);
  Rng rng(15);
  std::string bytes;
  for (int64_t p = 3 * kPeriodsPerDay; p < 4 * kPeriodsPerDay; ++p) {
    bytes += std::to_string(p) + ':';
    for (const std::vector<int32_t>& batch : generator.GeneratePeriod(p, rng)) {
      for (int32_t flavor : batch) {
        bytes += std::to_string(flavor) + ' ';
      }
      bytes += ';';
    }
    bytes += '\n';
  }
  ExpectDigest(bytes, 0xc24b6e50u, "single LSTM, one day of periods");
}

// The multi-resource model trains the flavor model on joint (cpu, mem)
// classes; its requests are written as text like the single LSTM's batches,
// each request as "cpu,mem".
TEST(GoldenDigest, MultiResourcePeriods) {
  SetGlobalThreads(1);
  const Trace train = TrainingTrace(AzureLikeProfile(0.4));
  std::set<double> cpus;
  std::set<double> mems;
  for (const Flavor& flavor : train.Flavors()) {
    cpus.insert(flavor.cpus);
    mems.insert(flavor.memory_gb);
  }
  ResourceModelConfig config;
  config.hidden_dim = 16;
  config.num_layers = 1;
  config.seq_len = 32;
  config.batch_size = 16;
  config.epochs = 3;
  MultiResourceLstmModel model;
  Rng train_rng(44);
  ASSERT_TRUE(model
                  .Train(train, ResourceQuantizer({cpus.begin(), cpus.end()}),
                         ResourceQuantizer({mems.begin(), mems.end()}), 2, config, train_rng)
                  .ok());
  MultiResourceLstmModel::Generator generator(model, 2);
  Rng rng(16);
  std::string bytes;
  for (int64_t p = 3 * kPeriodsPerDay; p < 3 * kPeriodsPerDay + 96; ++p) {
    bytes += std::to_string(p) + ':';
    for (const std::vector<ResourceRequest>& batch : generator.GeneratePeriod(p, 2, rng)) {
      for (const ResourceRequest& request : batch) {
        bytes += std::to_string(request.cpu_class) + ',' + std::to_string(request.mem_class) + ' ';
      }
      bytes += ';';
    }
    bytes += '\n';
  }
  ExpectDigest(bytes, 0xccedfa2eu, "multi-resource model, 96 periods of 2 batches");
}

TEST(GoldenDigest, ServeShapedRowRanges) {
  const uint64_t base = WorkloadModel::TraceFamilyBase(13);
  std::string chunk;
  AzureModel().GenerateTraceRowsRange(Options(), base, 2, 4, &chunk);
  ExpectDigest(chunk, 0x8af4c7d6u, "GenerateTraceRowsRange, traces [2, 6)");
  std::string single;
  AzureModel().GenerateTraceRowsRange(Options(), base, 6, 1, &single);
  ExpectDigest(single, 0xe8380245u, "GenerateTraceRowsRange, trace 6 alone");
}

TEST(GoldenDigest, StreamingSealedBytes) {
  const std::string dir = Dir("stream");
  const WorkloadModel::GenerateReport report =
      StreamOnce(dir, /*resume=*/false, /*cancel_on_append=*/0);
  EXPECT_FALSE(report.interrupted);
  std::string bytes;
  ASSERT_TRUE(ConcatSegments(dir, /*require_complete=*/true, &bytes).ok());
  ExpectDigest(bytes, 0xb9b010f7u, "GenerateStreaming sealed bytes");
}

// The state blob layout is part of the checkpoint format: a checkpoint
// written by one build must resume on the next, byte-identically.
TEST(GoldenDigest, InterruptedStreamingStateBlob) {
  const std::string dir = Dir("stream_cut");
  const WorkloadModel::GenerateReport first =
      StreamOnce(dir, /*resume=*/false, /*cancel_on_append=*/40);
  ASSERT_TRUE(first.interrupted);
  GenCursor cursor;
  ASSERT_TRUE(LoadGenCheckpoint(dir + "/gen.ckpt", &cursor).ok());
  EXPECT_EQ(cursor.next_period, 3 * kPeriodsPerDay + 14);
  EXPECT_EQ(cursor.state_blob.size(), 535u);
  ExpectDigest(MaskedStateBlob(cursor.state_blob), 0x670e9e63u,
               "interrupted streaming state blob, LSTM floats masked");

  const WorkloadModel::GenerateReport second =
      StreamOnce(dir, /*resume=*/true, /*cancel_on_append=*/0);
  EXPECT_TRUE(second.resumed);
  EXPECT_FALSE(second.interrupted);
  std::string bytes;
  ASSERT_TRUE(ConcatSegments(dir, /*require_complete=*/true, &bytes).ok());
  ExpectDigest(bytes, 0xb9b010f7u, "resumed streaming sealed bytes");
}

}  // namespace
}  // namespace cloudgen
