// CancelToken semantics: request/reason/reset and deadline polling.
#include "src/util/cancel.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

namespace cloudgen {
namespace {

TEST(CancelTokenTest, StartsClear) {
  CancelToken token;
  EXPECT_FALSE(token.Cancelled());
  EXPECT_FALSE(token.Poll());
  EXPECT_EQ(token.Reason(), CancelReason::kNone);
}

TEST(CancelTokenTest, RequestCancelIsStickyAndKeepsFirstReason) {
  CancelToken token;
  token.RequestCancel(CancelReason::kSignal);
  EXPECT_TRUE(token.Cancelled());
  EXPECT_TRUE(token.Poll());
  EXPECT_EQ(token.Reason(), CancelReason::kSignal);
  // A later request does not overwrite the original reason.
  token.RequestCancel(CancelReason::kRequested);
  EXPECT_EQ(token.Reason(), CancelReason::kSignal);
}

TEST(CancelTokenTest, ResetClearsFlagAndReason) {
  CancelToken token;
  token.RequestCancel(CancelReason::kRequested);
  token.Reset();
  EXPECT_FALSE(token.Cancelled());
  EXPECT_EQ(token.Reason(), CancelReason::kNone);
}

TEST(CancelTokenTest, DeadlineFiresViaPoll) {
  CancelToken token;
  token.SetDeadline(0.02);
  // Cancelled() alone never arms the deadline — only Poll() checks the clock.
  EXPECT_FALSE(token.Cancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(token.Cancelled());
  EXPECT_TRUE(token.Poll());
  EXPECT_TRUE(token.Cancelled());
  EXPECT_EQ(token.Reason(), CancelReason::kDeadline);
}

TEST(CancelTokenTest, FutureDeadlineDoesNotFire) {
  CancelToken token;
  token.SetDeadline(3600.0);
  EXPECT_FALSE(token.Poll());
  EXPECT_FALSE(token.Cancelled());
}

TEST(CancelTokenTest, AlreadyExpiredDeadlineTripsOnFirstPoll) {
  // A zero/negative deadline (e.g. --deadline-sec consumed entirely by
  // startup) must trip on the very next Poll, not hang or disarm.
  for (const double expired : {0.0, -5.0}) {
    CancelToken token;
    token.SetDeadline(expired);
    EXPECT_FALSE(token.Cancelled());  // Only Poll() reads the clock.
    EXPECT_TRUE(token.Poll());
    EXPECT_TRUE(token.Cancelled());
    EXPECT_EQ(token.Reason(), CancelReason::kDeadline);
  }
}

TEST(CancelTokenTest, SignalRacingAnExpiredDeadlineKeepsTheSignalReason) {
  // Both a SIGTERM and an expired deadline are pending; whichever lands
  // first owns the reason, and later Poll()s must not rewrite it.
  CancelToken token;
  token.SetDeadline(-1.0);  // Would fire as kDeadline on the next Poll.
  token.RequestCancel(CancelReason::kSignal);
  EXPECT_TRUE(token.Poll());
  EXPECT_EQ(token.Reason(), CancelReason::kSignal);
  EXPECT_TRUE(token.Poll());  // Re-polling the expired deadline: no rewrite.
  EXPECT_EQ(token.Reason(), CancelReason::kSignal);
}

TEST(CancelTokenTest, ReasonNamesAreStable) {
  EXPECT_STREQ(CancelReasonName(CancelReason::kNone), "none");
  EXPECT_STREQ(CancelReasonName(CancelReason::kRequested), "requested");
  EXPECT_STREQ(CancelReasonName(CancelReason::kSignal), "signal");
  EXPECT_STREQ(CancelReasonName(CancelReason::kDeadline), "deadline");
}

}  // namespace
}  // namespace cloudgen
