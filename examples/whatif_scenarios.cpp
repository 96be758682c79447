// What-if scenario exploration: because stage 1 exposes the arrival rate as
// an explicit parameter (the design rationale of §7), operators can dial
// conditions without retraining — scale arrivals up or down and compare the
// resulting demand distributions, exactly the "simulate various conditions of
// interest" use case from §1.
//
// Run:  ./build/examples/whatif_scenarios
#include <algorithm>
#include <cstdio>

#include "src/core/workload_model.h"
#include "src/eval/capacity.h"
#include "src/synth/synthetic_cloud.h"
#include "src/trace/stats.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

using namespace cloudgen;

int main() {
  SynthProfile profile = AzureLikeProfile(0.5);
  profile.train_days = 5;
  profile.dev_days = 1;
  profile.test_days = 1;
  const SyntheticCloud cloud(profile, 55);
  const Trace history = cloud.Generate();
  const int64_t train_end = profile.train_days * kPeriodsPerDay;
  const Trace train = ApplyObservationWindow(history, 0, train_end, train_end);

  WorkloadModelConfig config;
  config.flavor.epochs = 3;
  config.lifetime.epochs = 3;
  WorkloadModel model;
  Rng rng(9);
  const Status trained = model.Train(train, config, rng);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n", trained.ToString().c_str());
    return 1;
  }

  const int64_t from = profile.TotalPeriods();
  const int64_t to = from + kPeriodsPerDay;
  constexpr size_t kSamples = 25;

  std::printf("%-28s | %10s | %12s | %12s\n", "scenario", "mean VMs", "mean peak CPU",
              "p95 peak CPU");
  struct Scenario {
    const char* name;
    double arrival_scale;
    DohMode doh_mode;
  };
  const Scenario scenarios[] = {
      {"baseline (sampled DOH)", 1.0, DohMode::kGeometricSample},
      {"baseline (last-day DOH)", 1.0, DohMode::kLastDay},
      {"organic growth +50%", 1.5, DohMode::kGeometricSample},
      {"consolidation 3x", 3.0, DohMode::kGeometricSample},
      {"stress test 10x", 10.0, DohMode::kGeometricSample},
  };
  for (const Scenario& scenario : scenarios) {
    WorkloadModel::GenerateOptions options;
    options.from_period = from;
    options.to_period = to;
    options.arrival_scale = scenario.arrival_scale;
    options.doh_mode = scenario.doh_mode;
    double total_jobs = 0.0;
    std::vector<double> peaks;
    for (size_t s = 0; s < kSamples; ++s) {
      const Trace trace = model.Generate(options, rng);
      total_jobs += static_cast<double>(trace.NumJobs());
      const std::vector<double> cpus = TotalCpusPerPeriod(trace, from, to);
      peaks.push_back(*std::max_element(cpus.begin(), cpus.end()));
    }
    std::printf("%-28s | %10.0f | %12.0f | %12.0f\n", scenario.name,
                total_jobs / kSamples, Mean(peaks), Quantile(peaks, 0.95));
  }
  std::printf("\nNote: scaling arrivals preserves batch structure and the flavor/lifetime\n"
              "mix — only the rate changes (one parameter, no retraining).\n");
  return 0;
}
