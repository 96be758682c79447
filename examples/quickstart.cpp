// Quickstart: the end-to-end cloudgen workflow in ~60 lines.
//
//  1. Build a synthetic "provider" and split its history into windows.
//  2. Train the three-stage workload model (Poisson regression for batch
//     arrivals, flavor LSTM, lifetime LSTM) on the training window.
//  3. Generate a day of synthetic workload and print summary statistics.
//
// Run:  ./build/examples/quickstart
#include <cstdio>

#include "src/core/workload_model.h"
#include "src/synth/synthetic_cloud.h"
#include "src/trace/stats.h"
#include "src/util/rng.h"

using namespace cloudgen;

int main() {
  // 1. A small simulated cloud: 8 flavors, one week of history.
  SynthProfile profile = AzureLikeProfile(/*scale=*/0.5);
  profile.train_days = 5;
  profile.dev_days = 1;
  profile.test_days = 1;
  profile.num_flavors = 8;
  const SyntheticCloud cloud(profile, /*seed=*/42);
  const Trace history = cloud.Generate();

  const int64_t train_end = profile.train_days * kPeriodsPerDay;
  const Trace train = ApplyObservationWindow(history, 0, train_end, train_end);
  std::printf("training data: %zu VMs over %d days (%.1f%% censored)\n", train.NumJobs(),
              profile.train_days, CensoredFraction(train) * 100.0);

  // 2. Train the model. Configs are CPU-sized; see DESIGN.md for paper-scale.
  WorkloadModelConfig config;
  config.flavor.epochs = 3;
  config.lifetime.epochs = 3;
  WorkloadModel model;
  Rng rng(7);
  const Status trained = model.Train(train, config, rng);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n", trained.ToString().c_str());
    return 1;
  }
  std::printf("trained: flavor LSTM %zu params, lifetime LSTM %zu params\n",
              model.FlavorModel().NumParameters(), model.LifetimeModel().NumParameters());

  // 3. Generate one synthetic day beyond the history.
  WorkloadModel::GenerateOptions options;
  options.from_period = profile.TotalPeriods();
  options.to_period = options.from_period + kPeriodsPerDay;
  const Trace generated = model.Generate(options, rng);

  const TraceSummary summary = Summarize(generated);
  std::printf("\ngenerated %zu VMs in %zu batches/period on average\n", summary.num_jobs,
              static_cast<size_t>(summary.mean_batches_per_period));
  std::printf("mean lifetime: %.1f hours\n", summary.mean_lifetime_hours);
  const std::vector<double> flavor_counts = FlavorCounts(generated);
  std::printf("flavor mix:");
  for (size_t f = 0; f < flavor_counts.size(); ++f) {
    std::printf(" %s=%.0f", generated.Flavors()[f].name.c_str(), flavor_counts[f]);
  }
  std::printf("\n");
  return 0;
}
