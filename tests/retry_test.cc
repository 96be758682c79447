// Retry-policy semantics: which codes are retryable, the deterministic
// jittered backoff schedule, RetryVoid attempt accounting, the
// ABORTED give-up contract, cancellation during a backoff, and the
// segment-manifest rewrite regression that motivated the helper (a transient
// io_write fault mid-run must cost a retry, not the run).
#include "src/util/retry.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/trace_sink.h"
#include "src/util/cancel.h"
#include "src/util/fault.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace cloudgen {
namespace {

RetryPolicy FastPolicy(int attempts) {
  RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.base_backoff_sec = 0.001;
  policy.max_backoff_sec = 0.004;
  return policy;
}

TEST(RetryPolicyTest, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(IsRetryable(UnavailableError("flaky")));
  EXPECT_FALSE(IsRetryable(OkStatus()));
  EXPECT_FALSE(IsRetryable(InvalidArgumentError("bad input")));
  EXPECT_FALSE(IsRetryable(DataLossError("corrupt")));
  EXPECT_FALSE(IsRetryable(ResourceExhaustedError("quota")));
  EXPECT_FALSE(IsRetryable(AbortedError("cancelled")));
}

TEST(RetryPolicyTest, BackoffScheduleIsDeterministicForSeed) {
  RetryPolicy policy;  // Defaults: 0.05s base, x2, 2s cap, 0.5 jitter.
  std::vector<double> first;
  {
    Rng rng(policy.jitter_seed);
    for (int attempt = 1; attempt <= 8; ++attempt) {
      first.push_back(BackoffSeconds(policy, attempt, rng));
    }
  }
  Rng rng(policy.jitter_seed);
  for (int attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_DOUBLE_EQ(BackoffSeconds(policy, attempt, rng),
                     first[static_cast<size_t>(attempt - 1)]);
  }
}

TEST(RetryPolicyTest, BackoffGrowsGeometricallyAndRespectsCapAndJitter) {
  RetryPolicy policy;
  policy.base_backoff_sec = 0.1;
  policy.multiplier = 2.0;
  policy.max_backoff_sec = 0.5;
  policy.jitter = 0.25;
  Rng rng(7);
  for (int attempt = 1; attempt <= 10; ++attempt) {
    const double unjittered =
        std::min(policy.base_backoff_sec *
                     std::pow(policy.multiplier, static_cast<double>(attempt - 1)),
                 policy.max_backoff_sec);
    const double sleep = BackoffSeconds(policy, attempt, rng);
    EXPECT_GE(sleep, unjittered * (1.0 - policy.jitter));
    EXPECT_LE(sleep, unjittered * (1.0 + policy.jitter));
  }
  // Jitter disabled: the schedule is exactly geometric-then-capped.
  policy.jitter = 0.0;
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 1, rng), 0.1);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 2, rng), 0.2);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 3, rng), 0.4);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 4, rng), 0.5);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 9, rng), 0.5);
}

// Regression: the geometric walk used to multiply once per attempt with no
// step bound, so a huge attempt number (a long-lived fetch loop that kept
// making progress, then stalled) could walk the sleep to inf — and with
// multiplier <= 1 the `sleep < max` guard never trips, making the loop
// O(attempt). The clamp caps both the value and the work.
TEST(RetryPolicyTest, HugeAttemptNumbersStayBoundedAndFast) {
  RetryPolicy policy;
  policy.base_backoff_sec = 0.05;
  policy.multiplier = 2.0;
  policy.max_backoff_sec = 2.0;
  policy.jitter = 0.0;
  Rng rng(3);
  const auto started = std::chrono::steady_clock::now();
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 100000, rng), 2.0);
  EXPECT_DOUBLE_EQ(
      BackoffSeconds(policy, std::numeric_limits<int>::max(), rng), 2.0);

  // multiplier == 1 never crosses the cap; the step clamp must still keep
  // the call O(1)-ish, not O(INT_MAX).
  policy.multiplier = 1.0;
  EXPECT_DOUBLE_EQ(
      BackoffSeconds(policy, std::numeric_limits<int>::max(), rng), 0.05);

  // A shrinking multiplier must stay finite and non-negative too.
  policy.multiplier = 0.5;
  const double sleep =
      BackoffSeconds(policy, std::numeric_limits<int>::max(), rng);
  EXPECT_TRUE(std::isfinite(sleep));
  EXPECT_GE(sleep, 0.0);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 1.0);
}

TEST(RetryVoidTest, SucceedsAfterTransientFailures) {
  int calls = 0;
  const Status status = RetryVoid(FastPolicy(5), "probe", [&calls] {
    ++calls;
    return calls < 3 ? UnavailableError("not yet") : OkStatus();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(calls, 3);
}

TEST(RetryVoidTest, NonRetryableErrorPassesThroughUntouched) {
  int calls = 0;
  const Status status = RetryVoid(FastPolicy(5), "probe", [&calls] {
    ++calls;
    return InvalidArgumentError("caller bug");
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "caller bug");  // Not wrapped, not re-coded.
  EXPECT_EQ(calls, 1);
}

TEST(RetryVoidTest, ExhaustedAttemptsBecomeAborted) {
  int calls = 0;
  const Status status = RetryVoid(FastPolicy(4), "manifest rewrite", [&calls] {
    ++calls;
    return UnavailableError("disk flake");
  });
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_NE(status.message().find("gave up after 4 attempt(s)"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("disk flake"), std::string::npos);
}

TEST(RetryVoidTest, CancelDuringBackoffAbortsImmediately) {
  CancelToken cancel;
  RetryPolicy slow = FastPolicy(5);
  slow.base_backoff_sec = 30.0;  // Would stall the test without cancellation.
  slow.max_backoff_sec = 30.0;
  int calls = 0;
  const Status status = RetryVoid(
      slow, "probe",
      [&] {
        ++calls;
        cancel.RequestCancel();  // Fires before the first backoff sleep.
        return UnavailableError("flaky");
      },
      &cancel);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_NE(status.message().find("cancelled while backing off"), std::string::npos);
}

// Regression for the satellite that motivated util/retry.h: segment-manifest
// rewrites ride RetryVoid, so a generation run survives transient io_write
// faults that previously killed it at the first flaky commit.
class ManifestRetryTest : public testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }

  static std::string TestDir(const std::string& name) {
    return testing::TempDir() + "/" + std::to_string(::getpid()) + "." + name;
  }

  static Job OneJob(int64_t i) {
    Job job;
    job.start_period = i;
    job.end_period = i + 10;
    job.flavor = static_cast<int32_t>(i % 2);
    job.user = i;
    job.censored = false;
    return job;
  }
};

TEST_F(ManifestRetryTest, ManifestRewriteSurvivesTransientIoWriteFaults) {
  // p=0.4 with a fixed seed: plenty of injected commit failures across the
  // run, but never base_attempts-in-a-row on the deterministic stream.
  ASSERT_TRUE(FaultInjector::Global().Configure("io_write:0.4", 20240807).ok());

  const std::string dir = TestDir("manifest_retry");
  SegmentedFileSink::Options options;
  options.dir = dir;
  options.segment_bytes = 1;  // Seal (and rewrite the manifest) every trace.
  options.write_retry.max_attempts = 8;
  options.write_retry.base_backoff_sec = 0.001;
  options.write_retry.max_backoff_sec = 0.002;
  SegmentedFileSink sink(options);
  ASSERT_TRUE(sink.Init().ok());

  std::string expected;
  for (size_t i = 0; i < 8; ++i) {
    AppendJobRow(i, OneJob(static_cast<int64_t>(i)), &expected);
    ASSERT_TRUE(sink.BeginTrace(i).ok());
    ASSERT_TRUE(sink.Append(OneJob(static_cast<int64_t>(i))).ok());
    ASSERT_TRUE(sink.EndTrace().ok());
    ASSERT_TRUE(sink.CommitPoint(false, nullptr).ok());
  }
  ASSERT_TRUE(sink.Finish().ok());

  // The faults really fired — the run succeeded *because* of the retries.
  EXPECT_GT(FaultInjector::Global().InjectedCount(FaultKind::kIoWrite), 0u);
  FaultInjector::Global().Disarm();

  std::string concatenated;
  ASSERT_TRUE(ConcatSegments(dir, /*require_complete=*/true, &concatenated).ok());
  EXPECT_EQ(concatenated, expected);
}

TEST_F(ManifestRetryTest, PersistentIoWriteFaultStillFailsTheRun) {
  ASSERT_TRUE(FaultInjector::Global().Configure("io_write:1.0").ok());
  const std::string dir = TestDir("manifest_retry_hard");
  SegmentedFileSink::Options options;
  options.dir = dir;
  options.write_retry.max_attempts = 3;
  options.write_retry.base_backoff_sec = 0.001;
  options.write_retry.max_backoff_sec = 0.002;
  SegmentedFileSink sink(options);
  // Init writes the fresh manifest; with every commit failing, the retry
  // budget exhausts and surfaces ABORTED (the "stop hiding the bug" side of
  // the contract).
  const Status status = sink.Init();
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_NE(status.message().find("gave up after 3 attempt(s)"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace cloudgen
