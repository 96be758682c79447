// Cross-module property sweeps: invariants that must hold for arbitrary
// inputs, checked over randomized instances (seed-parameterized TEST_P).
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/sequence_network.h"
#include "src/survival/binning.h"
#include "src/survival/hazard.h"
#include "src/survival/interpolation.h"
#include "src/survival/kaplan_meier.h"
#include "src/trace/events.h"
#include "src/trace/trace.h"
#include "src/util/rng.h"

namespace cloudgen {
namespace {

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

// --- Binning: BinOf is the inverse of the edge geometry. ---
using BinningPropertyTest = SeededTest;

TEST_P(BinningPropertyTest, BinOfRespectsEdges) {
  const LifetimeBinning binning = MakePaperBinning();
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const double t = rng.Uniform(0.0, 30.0 * 86400.0);
    const size_t bin = binning.BinOf(t);
    EXPECT_GT(t, binning.LowerEdge(bin) - 1e-9);
    if (!binning.IsOpenBin(bin)) {
      EXPECT_LE(t, binning.UpperEdge(bin) + 1e-9);
    }
  }
}

TEST_P(BinningPropertyTest, SampledDurationsLandInTheirBin) {
  const LifetimeBinning binning = MakePaperBinning();
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    const auto bin = static_cast<size_t>(rng.UniformInt(binning.NumBins()));
    const double d = SampleDurationInBin(binning, bin, Interpolation::kCdi, rng);
    // CDI samples stay inside [lower, upper] (virtual end for the open bin).
    EXPECT_GE(d, binning.LowerEdge(bin) - 1e-9);
    EXPECT_LE(d, binning.UpperEdge(bin) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinningPropertyTest, ::testing::Values(1, 2, 3, 4));

// --- Survival: the curve is monotone non-increasing for any hazard. ---
using SurvivalPropertyTest = SeededTest;

TEST_P(SurvivalPropertyTest, CurvesAreMonotone) {
  const LifetimeBinning binning = MakePaperBinning();
  Rng rng(GetParam());
  std::vector<double> hazard(binning.NumBins());
  for (auto& h : hazard) {
    h = rng.NextDouble();
  }
  hazard.back() = 1.0;
  for (const Interpolation interp : {Interpolation::kStepped, Interpolation::kCdi}) {
    const SurvivalCurve curve(hazard, binning, interp);
    double prev = 1.0;
    for (double t = 0.0; t < 41.0 * 86400.0; t += 6000.0) {
      const double s = curve.Survival(t);
      EXPECT_GE(s, -1e-12);
      EXPECT_LE(s, prev + 1e-9) << "survival must never increase (t=" << t << ")";
      prev = s;
    }
    EXPECT_DOUBLE_EQ(curve.Survival(50.0 * 86400.0), 0.0);
  }
}

TEST_P(SurvivalPropertyTest, KmHazardAlwaysValid) {
  Rng rng(GetParam());
  const LifetimeBinning binning = MakePaperBinning();
  std::vector<LifetimeObservation> observations;
  for (int i = 0; i < 400; ++i) {
    observations.push_back(
        {rng.Exponential(1.0 / (2.0 * 3600.0)), rng.Bernoulli(0.2)});
  }
  for (const CensoringPolicy policy :
       {CensoringPolicy::kCensoringAware, CensoringPolicy::kIgnoreCensored,
        CensoringPolicy::kCensoredTerminates}) {
    const KaplanMeier km(observations, binning, policy);
    for (double h : km.Hazard()) {
      EXPECT_GE(h, 0.0);
      EXPECT_LE(h, 1.0);
    }
    EXPECT_DOUBLE_EQ(km.Hazard().back(), 1.0);
  }
}

TEST_P(SurvivalPropertyTest, KmRecoversGeometricHazard) {
  // Memoryless lifetimes with per-bin survival q have constant discrete
  // hazard 1-q on uniform bins; KM must recover it within sampling noise.
  Rng rng(GetParam());
  std::vector<double> edges;
  for (int j = 1; j <= 30; ++j) {
    edges.push_back(60.0 * j);
  }
  const LifetimeBinning binning(std::move(edges));
  const double rate = 1.0 / 300.0;  // Mean 5 minutes → hazard/bin ≈ 1-e^(-0.2).
  std::vector<LifetimeObservation> observations;
  for (int i = 0; i < 30000; ++i) {
    observations.push_back({rng.Exponential(rate), false});
  }
  const KaplanMeier km(observations, binning);
  const double expected = 1.0 - std::exp(-rate * 60.0);
  for (size_t j = 1; j < 12; ++j) {  // Early bins have large risk sets.
    EXPECT_NEAR(km.Hazard()[j], expected, 0.02) << "bin " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SurvivalPropertyTest, ::testing::Values(11, 12, 13));

// --- Trace: windowing is idempotent; event streams conserve jobs. ---
using TracePropertyTest = SeededTest;

Trace RandomTrace(Rng& rng, int64_t periods) {
  FlavorCatalog flavors;
  for (int32_t f = 0; f < 5; ++f) {
    flavors.push_back({f, static_cast<double>(1 << f), 4.0 * (1 << f), "f"});
  }
  Trace trace(flavors, 0, periods);
  for (int64_t p = 0; p < periods; ++p) {
    const int64_t jobs = rng.Poisson(2.0);
    for (int64_t j = 0; j < jobs; ++j) {
      Job job;
      job.start_period = p;
      job.end_period = p + rng.Geometric(0.05);
      job.flavor = static_cast<int32_t>(rng.UniformInt(5));
      job.user = static_cast<int64_t>(rng.UniformInt(20));
      trace.Add(job);
    }
  }
  return trace;
}

TEST_P(TracePropertyTest, WindowingIsIdempotent) {
  Rng rng(GetParam());
  const Trace trace = RandomTrace(rng, 200);
  const Trace once = ApplyObservationWindow(trace, 20, 150, 150);
  const Trace twice = ApplyObservationWindow(once, 20, 150, 150);
  ASSERT_EQ(once.NumJobs(), twice.NumJobs());
  for (size_t i = 0; i < once.NumJobs(); ++i) {
    EXPECT_EQ(once.Jobs()[i].end_period, twice.Jobs()[i].end_period);
    EXPECT_EQ(once.Jobs()[i].censored, twice.Jobs()[i].censored);
  }
}

TEST_P(TracePropertyTest, EventStreamConservesJobs) {
  Rng rng(GetParam());
  const Trace trace = RandomTrace(rng, 100);
  const Trace windowed = ApplyObservationWindow(trace, 0, 100, 100);
  Rng event_rng(GetParam() + 1);
  const std::vector<Event> events = BuildEventStream(windowed, event_rng);
  size_t arrivals = 0;
  size_t departures = 0;
  size_t censored = 0;
  for (const Job& job : windowed.Jobs()) {
    censored += job.censored ? 1 : 0;
  }
  for (const Event& event : events) {
    (event.kind == EventKind::kArrival ? arrivals : departures) += 1;
  }
  EXPECT_EQ(arrivals, windowed.NumJobs());
  EXPECT_EQ(departures, windowed.NumJobs() - censored);
}

TEST_P(TracePropertyTest, BatchesPartitionJobs) {
  Rng rng(GetParam());
  const Trace trace = RandomTrace(rng, 150);
  const std::vector<PeriodBatches> periods = BuildBatches(trace);
  std::vector<bool> seen(trace.NumJobs(), false);
  for (const auto& period : periods) {
    for (const auto& batch : period.batches) {
      for (size_t idx : batch.job_indices) {
        ASSERT_LT(idx, trace.NumJobs());
        EXPECT_FALSE(seen[idx]) << "job assigned to two batches";
        seen[idx] = true;
        EXPECT_EQ(trace.Jobs()[idx].start_period, period.period);
        EXPECT_EQ(trace.Jobs()[idx].user, batch.user);
      }
    }
  }
  for (bool s : seen) {
    EXPECT_TRUE(s) << "job missing from all batches";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TracePropertyTest, ::testing::Values(21, 22, 23, 24));

// --- NN: step inference equals sequence inference for any architecture. ---
class NetworkShapeTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(NetworkShapeTest, StepMatchesSequence) {
  const auto [hidden, layers, output] = GetParam();
  Rng rng(31);
  SequenceNetworkConfig config;
  config.input_dim = 7;
  config.hidden_dim = hidden;
  config.num_layers = layers;
  config.output_dim = output;
  SequenceNetwork network(config, rng);
  const size_t steps = 5;
  std::vector<Matrix> inputs(steps);
  for (auto& m : inputs) {
    m.Resize(1, 7);
    m.RandomUniform(rng, 1.0f);
  }
  std::vector<Matrix> seq_logits;
  network.ForwardSequence(inputs, &seq_logits);
  // One step and one head call serve both, so the logits agree bit for bit.
  LstmState state = network.MakeState(1);
  StepWorkspace ws;
  Matrix step_logits;
  for (size_t t = 0; t < steps; ++t) {
    network.StepLogits(inputs[t], &state, &step_logits, &ws);
    ASSERT_EQ(step_logits.Cols(), output);
    EXPECT_EQ(std::memcmp(step_logits.Data(), seq_logits[t].Data(), output * sizeof(float)),
              0)
        << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Architectures, NetworkShapeTest,
                         ::testing::Combine(::testing::Values(8, 24),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 5)));

}  // namespace
}  // namespace cloudgen
