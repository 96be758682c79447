// End-to-end tests for the serve daemon and its client: wire-protocol
// round-trips, admission control, byte-identity between a fetched stream and
// a local generate at the same seed, offset resume, drain + checkpoint +
// restart, injected network faults, backpressure/idle handling, and the
// METRICS/HEALTH control verbs.
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/workload_model.h"
#include "src/obs/fidelity_monitor.h"
#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/stream_registry.h"
#include "src/synth/synthetic_cloud.h"
#include "src/trace/trace_sink.h"
#include "src/util/cancel.h"
#include "src/util/crc32.h"
#include "src/util/fault.h"
#include "src/util/net.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace cloudgen {
namespace serve {
namespace {

constexpr uint64_t kSeed = 77;
constexpr uint64_t kCount = 4;

double CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

// ---------------------------------------------------------------------------
// Protocol unit tests (no model, no server).
// ---------------------------------------------------------------------------

TEST(ProtocolTest, KvRoundTripAndRequiredKeyErrors) {
  std::map<std::string, std::string> kv;
  kv["tenant"] = "acme";
  kv["offset"] = "12345";
  kv["note"] = "value=with=equals";
  std::map<std::string, std::string> decoded;
  ASSERT_TRUE(DecodeKv(EncodeKv(kv), &decoded).ok());
  EXPECT_EQ(decoded, kv);

  uint64_t offset = 0;
  ASSERT_TRUE(KvGetU64(decoded, "offset", &offset).ok());
  EXPECT_EQ(offset, 12345u);
  EXPECT_EQ(KvGetU64(decoded, "missing", &offset).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(KvGetU64(decoded, "tenant", &offset).code(),
            StatusCode::kInvalidArgument);  // Non-numeric.
  EXPECT_EQ(DecodeKv("no_equals_sign\n", &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, U64LeRoundTrip) {
  std::string buf;
  PutU64Le(&buf, 0x0123456789ABCDEFull);
  uint64_t v = 0;
  ASSERT_TRUE(GetU64Le(buf, 0, &v));
  EXPECT_EQ(v, 0x0123456789ABCDEFull);
  EXPECT_FALSE(GetU64Le(buf, 1, &v));  // Out of range.
}

TEST(ProtocolTest, ErrorPayloadRoundTripPreservesCodeAndMessage) {
  const Status original =
      ResourceExhaustedError("tenant_quota: tenant 'acme' is at its limit");
  const Status decoded = DecodeErrorPayload(EncodeErrorPayload(original));
  EXPECT_EQ(decoded.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.message(), original.message());

  // Unknown/zero codes are INTERNAL, not trusted blindly.
  EXPECT_EQ(DecodeErrorPayload("code=0\nmessage=x\n").code(),
            StatusCode::kInternal);
  EXPECT_EQ(DecodeErrorPayload("code=99\nmessage=x\n").code(),
            StatusCode::kInternal);
}

TEST(ProtocolTest, FrameRoundTripOverSocketPair) {
  Socket a;
  Socket b;
  ASSERT_TRUE(SocketPair(&a, &b).ok());
  std::string payload = "hello";
  payload.push_back('\0');  // Binary-safe.
  payload += "world";
  ASSERT_TRUE(WriteFrame(a, FrameType::kData, payload, 2000, nullptr).ok());
  Frame frame;
  ASSERT_TRUE(ReadFrame(b, &frame, 2000, nullptr).ok());
  EXPECT_EQ(frame.type, FrameType::kData);
  EXPECT_EQ(frame.payload, payload);
}

TEST(ProtocolTest, CleanCloseBetweenFramesIsUnavailableWithCleanFlag) {
  Socket a;
  Socket b;
  ASSERT_TRUE(SocketPair(&a, &b).ok());
  a.Close();
  Frame frame;
  bool clean = false;
  const Status status = ReadFrame(b, &frame, 2000, nullptr, &clean);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(clean);
}

TEST(ProtocolTest, MidFrameDropIsRetryableUnavailableNotDataLoss) {
  // A peer that dies after a partial header (exactly what the injected
  // net_partial_write fault produces) must read as a reconnectable drop.
  Socket a;
  Socket b;
  ASSERT_TRUE(SocketPair(&a, &b).ok());
  const char partial[3] = {0x10, 0x00, 0x00};
  ASSERT_TRUE(WriteFully(a, partial, sizeof(partial), 2000, nullptr).ok());
  a.Close();
  Frame frame;
  bool clean = true;
  const Status status = ReadFrame(b, &frame, 2000, nullptr, &clean);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(clean);
  EXPECT_NE(status.message().find("mid-frame"), std::string::npos)
      << status.ToString();
}

TEST(ProtocolTest, OversizedFrameLengthIsDataLoss) {
  Socket a;
  Socket b;
  ASSERT_TRUE(SocketPair(&a, &b).ok());
  const uint32_t bogus = kMaxFramePayload + 1;
  unsigned char header[5];
  header[0] = static_cast<unsigned char>(bogus & 0xFF);
  header[1] = static_cast<unsigned char>((bogus >> 8) & 0xFF);
  header[2] = static_cast<unsigned char>((bogus >> 16) & 0xFF);
  header[3] = static_cast<unsigned char>((bogus >> 24) & 0xFF);
  header[4] = static_cast<unsigned char>(FrameType::kData);
  ASSERT_TRUE(WriteFully(a, header, sizeof(header), 2000, nullptr).ok());
  Frame frame;
  EXPECT_EQ(ReadFrame(b, &frame, 2000, nullptr).code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Admission-control unit tests.
// ---------------------------------------------------------------------------

TEST(StreamRegistryTest, TenantQuotaRejectsAndReleases) {
  ServeLimits limits;
  limits.max_streams = 8;
  limits.max_streams_per_tenant = 1;
  StreamRegistry registry(limits);

  StreamRegistry::Lease first;
  ASSERT_TRUE(registry.Admit("acme", "s1", &first).ok());
  StreamRegistry::Lease second;
  const Status rejected = registry.Admit("acme", "s2", &second);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.message().find("tenant_quota"), std::string::npos);
  // Another tenant is unaffected.
  StreamRegistry::Lease other;
  EXPECT_TRUE(registry.Admit("globex", "s1", &other).ok());
  EXPECT_EQ(registry.ActiveStreams(), 2u);
  // Releasing frees the quota slot.
  first.Release();
  EXPECT_TRUE(registry.Admit("acme", "s2", &second).ok());
}

TEST(StreamRegistryTest, ServerFullRejectsAcrossTenants) {
  ServeLimits limits;
  limits.max_streams = 2;
  limits.max_streams_per_tenant = 8;
  StreamRegistry registry(limits);
  StreamRegistry::Lease a;
  StreamRegistry::Lease b;
  StreamRegistry::Lease c;
  ASSERT_TRUE(registry.Admit("t1", "s", &a).ok());
  ASSERT_TRUE(registry.Admit("t2", "s", &b).ok());
  const Status rejected = registry.Admit("t3", "s", &c);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.message().find("server_full"), std::string::npos);
}

TEST(StreamRegistryTest, ByteReservationsAreBoundedAndReleasedWithTheLease) {
  ServeLimits limits;
  limits.max_total_buffer_bytes = 100;
  StreamRegistry registry(limits);
  StreamRegistry::Lease a;
  StreamRegistry::Lease b;
  ASSERT_TRUE(registry.Admit("t1", "s", &a).ok());
  ASSERT_TRUE(registry.Admit("t2", "s", &b).ok());
  EXPECT_TRUE(a.ReserveBytes(60));
  EXPECT_FALSE(b.ReserveBytes(60));  // Would burst past the global bound.
  EXPECT_TRUE(b.ReserveBytes(40));
  EXPECT_EQ(registry.BufferedBytes(), 100u);
  a.ReleaseBytes(60);
  EXPECT_TRUE(b.ReserveBytes(60));
  // Destroying a lease returns everything it still holds.
  b.Release();
  EXPECT_EQ(registry.BufferedBytes(), 0u);
  EXPECT_EQ(registry.ActiveStreams(), 1u);
  a.Release();
  EXPECT_EQ(registry.ActiveStreams(), 0u);
}

TEST(StreamRegistryTest, OversizedReservationIsRejectedNotWrapped) {
  ServeLimits limits;
  limits.max_total_buffer_bytes = 100;
  StreamRegistry registry(limits);
  StreamRegistry::Lease a;
  ASSERT_TRUE(registry.Admit("t1", "s", &a).ok());
  // Larger than the whole bound: must reject up front (a wrapped
  // current + n could otherwise slip under the bound check).
  EXPECT_FALSE(a.ReserveBytes(std::numeric_limits<size_t>::max()));
  EXPECT_FALSE(a.ReserveBytes(101));
  EXPECT_EQ(registry.BufferedBytes(), 0u);
}

// Reserve/release balance under concurrency and early-error paths: leases
// dropped with bytes still reserved (handler error), explicit partial
// releases, move-assignment, and quota rejects all racing. The accounting
// must never exceed the bound mid-run and must return to exactly zero.
TEST(StreamRegistryTest, ReserveReleaseBalanceHammer) {
  ServeLimits limits;
  limits.max_streams = 16;
  limits.max_streams_per_tenant = 4;
  limits.max_total_buffer_bytes = 1 << 14;
  StreamRegistry registry(limits);
  std::atomic<bool> over_bound{false};
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &over_bound, &limits, t]() {
      std::mt19937 gen(static_cast<unsigned>(1000 + t));
      const std::string tenant = "tenant-" + std::to_string(t % 3);
      for (int i = 0; i < kIters; ++i) {
        StreamRegistry::Lease lease;
        if (!registry.Admit(tenant, "s", &lease).ok()) {
          continue;  // Quota reject: must leave no residue.
        }
        size_t held = 0;
        for (int r = 0; r < 4; ++r) {
          const size_t n = 1u + gen() % 512;
          if (lease.ReserveBytes(n)) {
            held += n;
          }
          if (registry.BufferedBytes() > limits.max_total_buffer_bytes) {
            over_bound.store(true);
          }
        }
        switch (gen() % 3) {
          case 0:
            // Early error: drop the lease with bytes still reserved.
            break;
          case 1:
            // Well-behaved stream: return everything, then release.
            lease.ReleaseBytes(held);
            lease.Release();
            break;
          default: {
            // Move the grant; the moved-from lease must be inert.
            StreamRegistry::Lease moved = std::move(lease);
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(over_bound.load());
  EXPECT_EQ(registry.ActiveStreams(), 0u);
  EXPECT_EQ(registry.BufferedBytes(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end server tests over a tiny trained model (the gen_resume fixture).
// ---------------------------------------------------------------------------

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

class ServeTest : public ::testing::Test {
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

  static WorkloadModel::GenerateOptions GenOptions() {
    WorkloadModel::GenerateOptions options;
    options.from_period = 0;
    options.to_period = 36;
    return options;
  }

  static ServerOptions BaseServerOptions() {
    ServerOptions options;
    options.gen = GenOptions();
    options.io_timeout_ms = 5000;
    options.idle_timeout_ms = 5000;
    return options;
  }

  static std::string Dir(const std::string& name) {
    const std::string dir =
        testing::TempDir() + "/" + std::to_string(::getpid()) + "." + name;
    ::mkdir(dir.c_str(), 0777);
    return dir;
  }

  // The oracle: exactly what `cloudgen generate --seed kSeed --traces kCount`
  // serializes, via the legacy vector route.
  static std::string ExpectedBytes(
      uint64_t seed = kSeed, uint64_t count = kCount,
      const WorkloadModel::GenerateOptions& gen = GenOptions()) {
    Rng rng(seed);
    const std::vector<Trace> traces = model_->GenerateMany(gen, count, rng);
    std::string out;
    for (size_t i = 0; i < traces.size(); ++i) {
      for (const Job& job : traces[i].Jobs()) {
        AppendJobRow(i, job, &out);
      }
    }
    return out;
  }

  static FetchOptions BaseFetchOptions(uint16_t port) {
    FetchOptions options;
    options.port = port;
    options.seed = kSeed;
    options.traces = kCount;
    options.io_timeout_ms = 5000;
    options.connect_timeout_ms = 2000;
    options.retry.base_backoff_sec = 0.01;
    options.retry.max_backoff_sec = 0.05;
    return options;
  }

  // Opens a raw stream session (OPEN -> OPEN_OK) without granting credit, so
  // the stream stays admitted and stalled — the building block for quota,
  // idle, and drain tests.
  static Socket RawOpenOrDie(uint16_t port, const std::string& tenant,
                             const std::string& stream, uint64_t offset = 0) {
    StatusOr<Socket> conn = ConnectTcp("127.0.0.1", port, 2000);
    EXPECT_TRUE(conn.ok()) << conn.status().ToString();
    std::map<std::string, std::string> kv;
    kv["tenant"] = tenant;
    kv["stream"] = stream;
    kv["seed"] = std::to_string(kSeed);
    kv["traces"] = std::to_string(kCount);
    kv["offset"] = std::to_string(offset);
    EXPECT_TRUE(WriteFrame(conn.value(), FrameType::kOpen, EncodeKv(kv), 2000,
                           nullptr)
                    .ok());
    Frame frame;
    EXPECT_TRUE(ReadFrame(conn.value(), &frame, 5000, nullptr).ok());
    EXPECT_EQ(frame.type, FrameType::kOpenOk);
    return std::move(conn.value());
  }

  static void GrantCredit(Socket& conn, uint64_t bytes) {
    std::string payload;
    PutU64Le(&payload, bytes);
    ASSERT_TRUE(
        WriteFrame(conn, FrameType::kCredit, payload, 2000, nullptr).ok());
  }

  // Reads DATA frames until END (a raw session that was granted enough
  // credit for the whole stream).
  static void ReadToEnd(Socket& conn) {
    for (;;) {
      Frame frame;
      ASSERT_TRUE(ReadFrame(conn, &frame, 5000, nullptr).ok());
      if (frame.type == FrameType::kEnd) {
        return;
      }
      ASSERT_EQ(frame.type, FrameType::kData);
    }
  }

  // Writes `frames` CREDIT frames in one write. A server still lingering
  // after END reads and discards them; once it has closed, its kernel
  // answers with RST and the next write fails.
  static Status WriteCredits(Socket& conn, size_t frames) {
    std::string one;
    PutU64Le(&one, 1);
    std::string batch;
    for (size_t i = 0; i < frames; ++i) {
      batch.push_back(static_cast<char>(one.size()));
      batch.append(3, '\0');
      batch.push_back(static_cast<char>(FrameType::kCredit));
      batch += one;
    }
    return WriteFully(conn, batch.data(), batch.size(), 2000, nullptr);
  }

  static int64_t MsSince(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  static size_t CheckpointFilesIn(const std::string& dir) {
    size_t count = 0;
    if (DIR* d = ::opendir(dir.c_str())) {
      while (const dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.size() > 5 && name.substr(name.size() - 5) == ".ckpt") {
          ++count;
        }
      }
      ::closedir(d);
    }
    return count;
  }

  static void WaitForActiveStreams(const StreamServer& server, size_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.ActiveStreams() != want &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server.ActiveStreams(), want);
  }

  static WorkloadModel* model_;
};

WorkloadModel* ServeTest::model_ = nullptr;

TEST_F(ServeTest, FetchedStreamIsByteIdenticalToLocalGeneration) {
  const std::string expected = ExpectedBytes();
  ASSERT_FALSE(expected.empty());
  StreamServer server(model_, BaseServerOptions());
  ASSERT_TRUE(server.Start().ok());

  std::ostringstream out;
  FetchResult result;
  const Status status = FetchStream(BaseFetchOptions(server.Port()), out, &result);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out.str(), expected);
  EXPECT_EQ(result.bytes, expected.size());
  EXPECT_EQ(result.total_bytes, expected.size());
  EXPECT_EQ(result.rows, static_cast<uint64_t>(
                             std::count(expected.begin(), expected.end(), '\n')));
  EXPECT_EQ(result.crc, Crc32(expected));
  EXPECT_EQ(result.reconnects, 0);
}

TEST_F(ServeTest, TinyChunksAndCreditWindowStillByteIdentical) {
  // Many DATA frames and many CREDIT grants: the flow-control path itself
  // must not reorder, duplicate or drop a byte.
  const std::string expected = ExpectedBytes();
  ServerOptions server_options = BaseServerOptions();
  server_options.max_chunk_bytes = 64;
  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());

  FetchOptions fetch = BaseFetchOptions(server.Port());
  fetch.credit_bytes = 128;
  std::ostringstream out;
  FetchResult result;
  const Status status = FetchStream(fetch, out, &result);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out.str(), expected);
}

TEST_F(ServeTest, ResumeFromMidStreamOffsetYieldsTheExactSuffix) {
  const std::string expected = ExpectedBytes();
  ASSERT_GT(expected.size(), 2u);
  const uint64_t offset = expected.size() / 2;

  StreamServer server(model_, BaseServerOptions());
  ASSERT_TRUE(server.Start().ok());

  FetchOptions fetch = BaseFetchOptions(server.Port());
  fetch.start_offset = offset;
  fetch.start_crc_state =
      Crc32Update(kCrc32Init, expected.data(), static_cast<size_t>(offset));
  const double rows_before = CounterValue("serve.rows.sent");
  std::ostringstream out;
  FetchResult result;
  const Status status = FetchStream(fetch, out, &result);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const std::string suffix = expected.substr(static_cast<size_t>(offset));
  EXPECT_EQ(out.str(), suffix);
  EXPECT_EQ(result.bytes, expected.size() - offset);
  EXPECT_EQ(result.total_bytes, expected.size());
  EXPECT_EQ(result.crc, Crc32(expected));  // Whole-stream CRC across the seam.
  // serve.rows.sent counts rows whose last byte this session sent: the
  // prefix the client already had is skipped, not counted again.
  EXPECT_EQ(CounterValue("serve.rows.sent") - rows_before,
            static_cast<double>(std::count(suffix.begin(), suffix.end(), '\n')));
}

TEST_F(ServeTest, QuotaAndCapacityRejectsAreStructuredResourceExhausted) {
  ServerOptions server_options = BaseServerOptions();
  server_options.limits.max_streams = 2;
  server_options.limits.max_streams_per_tenant = 1;
  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());

  // Occupy one of the two global slots and leave the stream stalled (no
  // credit). With a slot still free the per-tenant quota is what rejects.
  Socket held_acme = RawOpenOrDie(server.Port(), "acme", "held");

  // Same tenant: per-tenant quota; the reject is immediate and structured.
  FetchOptions fetch = BaseFetchOptions(server.Port());
  fetch.tenant = "acme";
  fetch.stream = "second";
  std::ostringstream out;
  FetchResult result;
  Status status = FetchStream(fetch, out, &result);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("tenant_quota"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(result.reconnects, 0);  // RESOURCE_EXHAUSTED is never retried.

  // Fill the second (last) global slot from another tenant, then a fresh
  // tenant is turned away for capacity, not quota: server_full.
  Socket held_beta = RawOpenOrDie(server.Port(), "beta", "held");
  fetch.tenant = "globex";
  status = FetchStream(fetch, out, &result);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("server_full"), std::string::npos);

  // Closing the held streams frees the slots and the same fetch now succeeds.
  ASSERT_TRUE(WriteFrame(held_acme, FrameType::kClose, "", 2000, nullptr).ok());
  ASSERT_TRUE(WriteFrame(held_beta, FrameType::kClose, "", 2000, nullptr).ok());
  WaitForActiveStreams(server, 0);
  const std::string expected = ExpectedBytes();
  std::ostringstream out2;
  status = FetchStream(fetch, out2, &result);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out2.str(), expected);
}

TEST_F(ServeTest, MidStreamBufferPressureIsRetryableNotAHangOrReject) {
  ServerOptions server_options = BaseServerOptions();
  server_options.limits.max_total_buffer_bytes = 1;  // Every trace bursts it.
  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());

  FetchOptions fetch = BaseFetchOptions(server.Port());
  fetch.retry.max_attempts = 3;
  std::ostringstream out;
  FetchResult result;
  const Status status = FetchStream(fetch, out, &result);
  // Admission succeeded (not RESOURCE_EXHAUSTED); the pressure error is
  // retryable UNAVAILABLE, so the client retried until its budget ran out.
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_NE(status.message().find("gave up after 3 attempt(s)"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("buffer pressure"), std::string::npos);
}

TEST_F(ServeTest, DrainCheckpointsActiveStreamAndRestartResumesByteIdentically) {
  const std::string expected = ExpectedBytes();
  const uint64_t stop_at = expected.size() / 2;
  ASSERT_GT(stop_at, 0u);
  const std::string state_dir = Dir("serve_drain_state");
  const double resumes_before = CounterValue("serve.resume.checkpoint");

  std::string prefix;
  {
    ServerOptions server_options = BaseServerOptions();
    server_options.state_dir = state_dir;
    server_options.max_chunk_bytes = 256;
    StreamServer server(model_, server_options);
    ASSERT_TRUE(server.Start().ok());

    // Consume exactly stop_at bytes, then let the server stall on credit.
    Socket conn = RawOpenOrDie(server.Port(), "acme", "durable");
    GrantCredit(conn, stop_at);
    while (prefix.size() < stop_at) {
      Frame frame;
      ASSERT_TRUE(ReadFrame(conn, &frame, 5000, nullptr).ok());
      ASSERT_EQ(frame.type, FrameType::kData);
      uint64_t offset = 0;
      ASSERT_TRUE(GetU64Le(frame.payload, 0, &offset));
      ASSERT_EQ(offset, prefix.size());
      prefix.append(frame.payload, 8, frame.payload.size() - 8);
    }
    ASSERT_EQ(prefix.size(), stop_at);

    // SIGTERM-equivalent: drain checkpoints the stalled stream and tells the
    // client to come back.
    server.RequestDrain();
    Frame frame;
    const Status read_status = ReadFrame(conn, &frame, 5000, nullptr);
    if (read_status.ok()) {
      ASSERT_EQ(frame.type, FrameType::kError);
      const Status drained = DecodeErrorPayload(frame.payload);
      EXPECT_EQ(drained.code(), StatusCode::kUnavailable);
      EXPECT_NE(drained.message().find("draining"), std::string::npos);
    }  // A racing close is also a legal way to observe the drain.
    conn.Close();
    ASSERT_TRUE(server.Wait().ok());
    EXPECT_EQ(CheckpointFilesIn(state_dir), 1u);
  }

  // Restarted server, same state directory: the client resumes from its last
  // durable byte and the reassembled stream is byte-identical.
  ServerOptions server_options = BaseServerOptions();
  server_options.state_dir = state_dir;
  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());

  FetchOptions fetch = BaseFetchOptions(server.Port());
  fetch.tenant = "acme";
  fetch.stream = "durable";
  fetch.start_offset = stop_at;
  fetch.start_crc_state =
      Crc32Update(kCrc32Init, prefix.data(), prefix.size());
  std::ostringstream out;
  FetchResult result;
  const Status status = FetchStream(fetch, out, &result);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(prefix + out.str(), expected);
  EXPECT_EQ(result.total_bytes, expected.size());
  EXPECT_EQ(result.crc, Crc32(expected));
  // The drain checkpoint was actually consulted (accelerator path) and then
  // deleted once the stream completed.
  EXPECT_GT(CounterValue("serve.resume.checkpoint"), resumes_before);
  EXPECT_EQ(CheckpointFilesIn(state_dir), 0u);
}

TEST_F(ServeTest, InjectedConnDropsAndPartialWritesAreSurvivedByteIdentically) {
  const std::string expected = ExpectedBytes();
  StreamServer server(model_, BaseServerOptions());
  ASSERT_TRUE(server.Start().ok());

  // Both fault kinds together: reads/writes that die mid-stream and writes
  // that deliver a prefix then die (torn frames). The client must reconnect
  // and resume until the stream verifies.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("net_conn_drop:0.02,net_partial_write:0.02", 1234)
                  .ok());
  FetchOptions fetch = BaseFetchOptions(server.Port());
  fetch.credit_bytes = 1024;  // More frames -> more fault opportunities.
  fetch.retry.max_attempts = 10;
  std::ostringstream out;
  FetchResult result;
  const Status status = FetchStream(fetch, out, &result);
  FaultInjector::Global().Disarm();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out.str(), expected);
  EXPECT_EQ(result.crc, Crc32(expected));
}

TEST_F(ServeTest, AcceptFaultsNeverKillTheDaemon) {
  StreamServer server(model_, BaseServerOptions());
  ASSERT_TRUE(server.Start().ok());
  const double errors_before = CounterValue("serve.accept.errors");

  ASSERT_TRUE(FaultInjector::Global().Configure("net_accept_fail:1.0").ok());
  std::map<std::string, std::string> health;
  EXPECT_FALSE(FetchHealth("127.0.0.1", server.Port(), 2000, &health).ok());
  FaultInjector::Global().Disarm();

  // The daemon counted the failure and kept accepting. The count lands on
  // the accept thread just after the client observes its dropped connection,
  // so poll briefly instead of racing it.
  const auto counted_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (CounterValue("serve.accept.errors") <= errors_before &&
         std::chrono::steady_clock::now() < counted_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(CounterValue("serve.accept.errors"), errors_before);
  ASSERT_TRUE(FetchHealth("127.0.0.1", server.Port(), 2000, &health).ok());
  EXPECT_EQ(health["status"], "ok");
}

TEST_F(ServeTest, IdleClientIsDisconnectedWithAnExplicitTimeoutError) {
  ServerOptions server_options = BaseServerOptions();
  server_options.idle_timeout_ms = 300;
  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());
  const double timeouts_before = CounterValue("serve.idle_timeouts");

  Socket conn = RawOpenOrDie(server.Port(), "acme", "idler");
  // Grant nothing: the server must give up on us, not hold the slot forever.
  Frame frame;
  const Status status = ReadFrame(conn, &frame, 5000, nullptr);
  if (status.ok()) {
    ASSERT_EQ(frame.type, FrameType::kError);
    const Status error = DecodeErrorPayload(frame.payload);
    EXPECT_EQ(error.code(), StatusCode::kUnavailable);
    EXPECT_NE(error.message().find("idle"), std::string::npos)
        << error.ToString();
  }
  WaitForActiveStreams(server, 0);
  EXPECT_GT(CounterValue("serve.idle_timeouts"), timeouts_before);
}

TEST_F(ServeTest, MalformedAndInvalidOpensAreRejectedWithInvalidArgument) {
  StreamServer server(model_, BaseServerOptions());
  ASSERT_TRUE(server.Start().ok());

  // traces=0 via the client.
  FetchOptions fetch = BaseFetchOptions(server.Port());
  fetch.traces = 0;
  std::ostringstream out;
  FetchResult result;
  EXPECT_EQ(FetchStream(fetch, out, &result).code(),
            StatusCode::kInvalidArgument);

  // OPEN missing required keys via a raw socket.
  StatusOr<Socket> conn = ConnectTcp("127.0.0.1", server.Port(), 2000);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WriteFrame(conn.value(), FrameType::kOpen, "tenant=acme\n", 2000,
                         nullptr)
                  .ok());
  Frame frame;
  ASSERT_TRUE(ReadFrame(conn.value(), &frame, 5000, nullptr).ok());
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(DecodeErrorPayload(frame.payload).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, HealthAndMetricsVerbsReportServeState) {
  ServerOptions server_options = BaseServerOptions();
  server_options.limits.max_streams = 7;
  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());

  std::map<std::string, std::string> health;
  ASSERT_TRUE(FetchHealth("127.0.0.1", server.Port(), 2000, &health).ok());
  EXPECT_EQ(health["status"], "ok");
  EXPECT_EQ(health["streams_active"], "0");
  EXPECT_EQ(health["max_streams"], "7");

  std::string json;
  ASSERT_TRUE(FetchMetricsJson("127.0.0.1", server.Port(), 2000, &json).ok());
  EXPECT_NE(json.find("serve.conns.accepted"), std::string::npos);
}

TEST_F(ServeTest, MetricsPromVerbRendersFidelityAndLatencyGauges) {
  ServerOptions server_options = BaseServerOptions();
  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());
  model_->EnableFidelityMonitor(server_options.gen);

  std::string text;
  const Status fetched =
      FetchMetricsProm("127.0.0.1", server.Port(), 2000, &text);
  obs::FidelityMonitor::Global().Disable();
  ASSERT_TRUE(fetched.ok()) << fetched.ToString();

  EXPECT_NE(text.find("# TYPE "), std::string::npos);
  // The verb's own dispatch latency is observed before the snapshot, so the
  // response always carries a non-empty verb histogram + derived p95 gauge.
  EXPECT_NE(text.find("cloudgen_serve_verb_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cloudgen_serve_verb_ms_p95 "), std::string::npos);
  // The verb publishes fidelity drift gauges when the monitor is enabled.
  EXPECT_NE(text.find("cloudgen_fidelity_lifetime_ks "), std::string::npos);
  // The idle daemon registers its stream gauge at startup, so a scrape of a
  // fresh server still reports it.
  EXPECT_NE(text.find("cloudgen_serve_streams_active "), std::string::npos);
}

TEST_F(ServeTest, ConcurrentTenantsEachGetTheirOwnExactStream) {
  ServerOptions server_options = BaseServerOptions();
  server_options.limits.max_streams = 8;
  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());

  const std::string expected = ExpectedBytes();
  constexpr int kClients = 4;
  std::vector<std::string> got(kClients);
  std::vector<Status> statuses(kClients, OkStatus());
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      FetchOptions fetch = BaseFetchOptions(server.Port());
      fetch.tenant = "tenant-" + std::to_string(c);
      fetch.credit_bytes = 4096;  // Interleave the streams.
      std::ostringstream out;
      FetchResult result;
      statuses[static_cast<size_t>(c)] = FetchStream(fetch, out, &result);
      got[static_cast<size_t>(c)] = out.str();
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(statuses[static_cast<size_t>(c)].ok())
        << statuses[static_cast<size_t>(c)].ToString();
    EXPECT_EQ(got[static_cast<size_t>(c)], expected) << "client " << c;
  }
}

TEST_F(ServeTest, NewOpensAreTurnedAwayWhileDraining) {
  StreamServer server(model_, BaseServerOptions());
  ASSERT_TRUE(server.Start().ok());
  // Connect BEFORE the drain so the accept loop still takes the connection;
  // the OPEN itself must then be refused with a retryable error.
  StatusOr<Socket> conn = ConnectTcp("127.0.0.1", server.Port(), 2000);
  ASSERT_TRUE(conn.ok());
  server.RequestDrain();
  std::map<std::string, std::string> kv;
  kv["tenant"] = "late";
  kv["stream"] = "s";
  kv["seed"] = std::to_string(kSeed);
  kv["traces"] = std::to_string(kCount);
  kv["offset"] = "0";
  ASSERT_TRUE(WriteFrame(conn.value(), FrameType::kOpen, EncodeKv(kv), 2000,
                         nullptr)
                  .ok());
  Frame frame;
  const Status read_status = ReadFrame(conn.value(), &frame, 5000, nullptr);
  if (read_status.ok()) {
    ASSERT_EQ(frame.type, FrameType::kError);
    const Status error = DecodeErrorPayload(frame.payload);
    EXPECT_EQ(error.code(), StatusCode::kUnavailable);
    EXPECT_NE(error.message().find("draining"), std::string::npos);
  }  // The handler may also have been cancelled outright — equally a refusal.
  conn.value().Close();
  EXPECT_TRUE(server.Wait().ok());
}

TEST_F(ServeTest, WatchdogCutsWedgedStreamAndClientResumesByteIdentically) {
  const std::string expected = ExpectedBytes();
  ServerOptions server_options = BaseServerOptions();
  server_options.state_dir = Dir("watchdog_cut");
  server_options.stall_timeout_ms = 200;
  server_options.supervisor_interval_ms = 20;
  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());
  const double cuts_before = CounterValue("serve.watchdog.cuts");

  // The session's first serve-scoped stall check wedges it: no progress, no
  // error, `working` stays true. The supervisor must cut it after
  // stall_timeout_ms with a retryable UNAVAILABLE; the client reconnects
  // against the checkpointed boundary and the stream still verifies.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("stream_stall at=1 site=serve", 7).ok());
  FetchOptions fetch = BaseFetchOptions(server.Port());
  fetch.credit_bytes = 1024;
  fetch.retry.max_attempts = 10;
  std::ostringstream out;
  FetchResult result;
  const Status status = FetchStream(fetch, out, &result);
  FaultInjector::Global().Disarm();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out.str(), expected);
  EXPECT_EQ(result.crc, Crc32(expected));
  EXPECT_GE(result.reconnects, 1);
  EXPECT_GT(CounterValue("serve.watchdog.cuts"), cuts_before);
}

TEST_F(ServeTest, FdExhaustionDegradesShedsNewOpensThenSelfHeals) {
  const std::string expected = ExpectedBytes();
  ServerOptions server_options = BaseServerOptions();
  server_options.degraded_cooldown_ms = 800;
  server_options.supervisor_interval_ms = 20;
  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());
  const double sheds_before = CounterValue("serve.degraded.sheds");
  const double backoffs_before = CounterValue("serve.accept.backoffs");

  // The first pending connection trips the injected EMFILE: the accept loop
  // must back off instead of spinning, flip the daemon degraded, and then
  // pick the still-queued connection up on the retry.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("fd_exhaust at=1 site=serve", 5).ok());
  {
    StatusOr<Socket> conn = ConnectTcp("127.0.0.1", server.Port(), 2000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    std::map<std::string, std::string> kv;
    kv["tenant"] = "acme";
    kv["stream"] = "degraded";
    kv["seed"] = std::to_string(kSeed);
    kv["traces"] = std::to_string(kCount);
    kv["offset"] = "0";
    ASSERT_TRUE(
        WriteFrame(conn.value(), FrameType::kOpen, EncodeKv(kv), 2000, nullptr)
            .ok());
    Frame frame;
    ASSERT_TRUE(ReadFrame(conn.value(), &frame, 5000, nullptr).ok());
    // While degraded, new OPENs are shed with a retryable UNAVAILABLE that
    // names the condition — load moves away, nothing errors terminally.
    ASSERT_EQ(frame.type, FrameType::kError);
    const Status shed = DecodeErrorPayload(frame.payload);
    EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
    EXPECT_NE(shed.message().find("degraded"), std::string::npos)
        << shed.ToString();
  }
  EXPECT_GT(CounterValue("serve.degraded.sheds"), sheds_before);
  EXPECT_GT(CounterValue("serve.accept.backoffs"), backoffs_before);
  FaultInjector::Global().Disarm();

  // The stock client retry loop rides out the rest of the cooldown: once it
  // expires the daemon self-heals and serves the exact stream.
  FetchOptions fetch = BaseFetchOptions(server.Port());
  fetch.retry.max_attempts = 40;
  std::ostringstream out;
  FetchResult result;
  const Status status = FetchStream(fetch, out, &result);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out.str(), expected);

  std::map<std::string, std::string> health;
  ASSERT_TRUE(FetchHealth("127.0.0.1", server.Port(), 2000, &health).ok());
  EXPECT_EQ(health["health"], "healthy");
}

// Composed fault kinds in one soak: connection drops force mid-stream
// reconnects, a one-shot stall draws a watchdog cut, and the cut boundary's
// checkpoint commit fails with an injected io_write — three different fault
// kinds interleaving in the same run. Checkpoint loss may cost regeneration
// time, never bytes.
TEST_F(ServeTest, ComposedConnDropStallAndIoWriteFaultsInOneSoak) {
  const std::string expected = ExpectedBytes();
  ServerOptions server_options = BaseServerOptions();
  server_options.state_dir = Dir("composed_soak");
  server_options.stall_timeout_ms = 200;
  server_options.supervisor_interval_ms = 20;
  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("net_conn_drop:0.03, stream_stall at=1 site=serve, "
                             "io_write prob=1.0 site=serve",
                             424242)
                  .ok());
  FetchOptions fetch = BaseFetchOptions(server.Port());
  fetch.credit_bytes = 1024;  // More frames -> more drop opportunities.
  fetch.retry.max_attempts = 20;
  std::ostringstream out;
  FetchResult result;
  const Status status = FetchStream(fetch, out, &result);
  const size_t drops =
      FaultInjector::Global().InjectedCount(FaultKind::kNetConnDrop);
  const size_t io_writes =
      FaultInjector::Global().InjectedCount(FaultKind::kIoWrite);
  FaultInjector::Global().Disarm();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out.str(), expected);
  EXPECT_EQ(result.crc, Crc32(expected));
  // The kinds really composed: the stall drew a watchdog cut whose
  // serve-scoped checkpoint commit was injected, and the drops forced
  // additional reconnects on top.
  EXPECT_GT(drops, 0u);
  EXPECT_GT(io_writes, 0u);
  EXPECT_GE(result.reconnects, 1);
}

// A stream longer than half the client's credit window but shorter than the
// window ends with one CREDIT grant the server never needs to read. A plain
// close over that unread frame makes the kernel send RST, which can destroy
// END in flight: the client then reconnects at its final offset and the
// server regenerates the whole stream from trace 0 to reach it.
TEST_F(ServeTest, FaultFreeStreamsInsideTheCreditWindowNeverReconnect) {
  // Two regeneration chunks of 8 traces, about 192 KiB in all: the middle of
  // the default 256 KiB window.
  constexpr uint64_t kTraces = 16;
  ServerOptions server_options = BaseServerOptions();
  server_options.gen.to_period = 104;
  const std::string expected =
      ExpectedBytes(kSeed, kTraces, server_options.gen);
  const size_t window = FetchOptions().credit_bytes;
  ASSERT_GT(expected.size(), window / 2 + window / 8);
  ASSERT_LT(expected.size(), window - window / 8);
  const double rows =
      static_cast<double>(std::count(expected.begin(), expected.end(), '\n'));

  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());
  const double jobs_before = CounterValue("gen.jobs");
  constexpr int kFetches = 12;
  int reconnects = 0;
  for (int i = 0; i < kFetches; ++i) {
    FetchOptions fetch = BaseFetchOptions(server.Port());
    fetch.traces = kTraces;
    std::ostringstream out;
    FetchResult result;
    const Status status = FetchStream(fetch, out, &result);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(out.str(), expected) << "fetch " << i;
    reconnects += result.reconnects;
  }
  EXPECT_EQ(reconnects, 0);
  // Every generated job was delivered once: nothing was regenerated.
  EXPECT_EQ(CounterValue("gen.jobs") - jobs_before, kFetches * rows);
}

TEST_F(ServeTest, LingeringCloseFreesTheSlotAtEndAndHalfClosesCleanly) {
  ServerOptions server_options = BaseServerOptions();
  server_options.io_timeout_ms = 1000;
  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());

  Socket conn = RawOpenOrDie(server.Port(), "acme", "lingerer");
  GrantCredit(conn, 1u << 30);
  ASSERT_NO_FATAL_FAILURE(ReadToEnd(conn));
  const auto end_at = std::chrono::steady_clock::now();

  // The lease went with the session: a lingering connection holds no slot.
  WaitForActiveStreams(server, 0);
  EXPECT_LT(MsSince(end_at), server_options.io_timeout_ms);
  // The half-close sent FIN right behind END: a clean EOF, not a reset.
  Frame frame;
  bool clean = false;
  const Status eof = ReadFrame(conn, &frame, 5000, nullptr, &clean);
  EXPECT_EQ(eof.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(clean) << eof.ToString();
  EXPECT_LT(MsSince(end_at), server_options.io_timeout_ms + 100);
  // While the server lingers, what the peer still sends is discarded. A
  // closed server would answer the first write with RST and fail the second.
  ASSERT_TRUE(WriteCredits(conn, 1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(WriteCredits(conn, 1).ok());

  // A peer that then stays silent is closed at the deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(
      server_options.io_timeout_ms + 500 - MsSince(end_at)));
  (void)WriteCredits(conn, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(WriteCredits(conn, 1).ok());
}

TEST_F(ServeTest, LingeringCloseEndsAtTheDeadlineWhileThePeerKeepsWriting) {
  ServerOptions server_options = BaseServerOptions();
  server_options.io_timeout_ms = 1000;
  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());

  Socket conn = RawOpenOrDie(server.Port(), "acme", "chatterer");
  GrantCredit(conn, 1u << 30);
  ASSERT_NO_FATAL_FAILURE(ReadToEnd(conn));
  const auto end_at = std::chrono::steady_clock::now();

  // Keep the server's receive buffer full, so its discard reads never come
  // up empty: only a wall-clock deadline ends this linger.
  Status status = OkStatus();
  while (status.ok() && MsSince(end_at) < 4 * server_options.io_timeout_ms) {
    status = WriteCredits(conn, 4096);
  }
  const int64_t closed_after_ms = MsSince(end_at);
  EXPECT_FALSE(status.ok()) << "server still reading " << closed_after_ms
                            << "ms after END";
  EXPECT_GE(closed_after_ms, server_options.io_timeout_ms / 2);
  // The deadline, one 100 ms poll slice, and slack for a loaded machine.
  EXPECT_LE(closed_after_ms, server_options.io_timeout_ms + 100 + 400);
}

TEST_F(ServeTest, DrainCutsALingeringCloseShort) {
  ServerOptions server_options = BaseServerOptions();
  server_options.io_timeout_ms = 20000;
  StreamServer server(model_, server_options);
  ASSERT_TRUE(server.Start().ok());

  Socket conn = RawOpenOrDie(server.Port(), "acme", "lingerer");
  GrantCredit(conn, 1u << 30);
  ASSERT_NO_FATAL_FAILURE(ReadToEnd(conn));
  WaitForActiveStreams(server, 0);

  // The peer holds its end open; the drain must not wait out the linger.
  const auto drain_at = std::chrono::steady_clock::now();
  server.RequestDrain();
  EXPECT_TRUE(server.Wait().ok());
  EXPECT_LT(MsSince(drain_at), 2000);
}

TEST_F(ServeTest, GuardTripMidStreamIsInternalAndTheServerKeepsServing) {
  const std::string expected = ExpectedBytes();
  StreamServer server(model_, BaseServerOptions());
  ASSERT_TRUE(server.Start().ok());
  const double errors_before = CounterValue("serve.stream.errors");

  // Every generated logit is poisoned; the default guard policy aborts the
  // stream. INTERNAL is not retryable, so the client must not reconnect.
  ASSERT_TRUE(FaultInjector::Global().Configure("gen_nan_logit:1.0").ok());
  std::ostringstream out;
  FetchResult result;
  const Status status =
      FetchStream(BaseFetchOptions(server.Port()), out, &result);
  FaultInjector::Global().Disarm();
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  EXPECT_NE(status.message().find("guard"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(result.reconnects, 0);
  EXPECT_GT(CounterValue("serve.stream.errors"), errors_before);

  // The trip poisoned one stream, not the daemon.
  std::ostringstream next;
  const Status served =
      FetchStream(BaseFetchOptions(server.Port()), next, &result);
  ASSERT_TRUE(served.ok()) << served.ToString();
  EXPECT_EQ(next.str(), expected);
}

}  // namespace
}  // namespace serve
}  // namespace cloudgen
