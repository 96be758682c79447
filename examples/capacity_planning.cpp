// Capacity planning (§6.1): "do we have enough servers to cover 95% of
// possible workload scenarios next week?"
//
// Samples many futures from the trained model, builds the distribution of
// total CPU demand over the planning horizon, and reports the capacity needed
// at several confidence levels.
//
// Run:  ./build/examples/capacity_planning
#include <algorithm>
#include <cstdio>

#include "src/core/workload_model.h"
#include "src/eval/capacity.h"
#include "src/synth/synthetic_cloud.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

using namespace cloudgen;

int main() {
  SynthProfile profile = AzureLikeProfile(0.5);
  profile.train_days = 5;
  profile.dev_days = 1;
  profile.test_days = 2;
  const SyntheticCloud cloud(profile, 99);
  const Trace history = cloud.Generate();
  const int64_t train_end = profile.train_days * kPeriodsPerDay;
  const Trace train = ApplyObservationWindow(history, 0, train_end, train_end);

  WorkloadModelConfig config;
  config.flavor.epochs = 3;
  config.lifetime.epochs = 3;
  WorkloadModel model;
  Rng rng(3);
  const Status trained = model.Train(train, config, rng);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n", trained.ToString().c_str());
    return 1;
  }

  // Plan for the 2 days following the history. VMs already running at the
  // planning point keep consuming capacity.
  const int64_t plan_start = profile.TotalPeriods();
  const int64_t plan_end = plan_start + 2 * kPeriodsPerDay;
  const std::vector<Job> carry = CarryOverJobs(history, plan_start);

  WorkloadModel::GenerateOptions options;
  options.from_period = plan_start;
  options.to_period = plan_end;

  constexpr size_t kScenarios = 60;
  std::vector<double> peak_demand;
  peak_demand.reserve(kScenarios);
  for (size_t s = 0; s < kScenarios; ++s) {
    const Trace scenario = model.Generate(options, rng);
    const std::vector<double> cpus =
        TotalCpusWithCarryOver(scenario, carry, plan_start, plan_end);
    peak_demand.push_back(*std::max_element(cpus.begin(), cpus.end()));
  }

  std::printf("sampled %zu workload scenarios over a 2-day horizon\n", kScenarios);
  std::printf("peak total-CPU demand distribution:\n");
  for (double q : {0.50, 0.90, 0.95, 0.99}) {
    std::printf("  %4.0f%% of scenarios need <= %8.0f CPUs\n", q * 100.0,
                Quantile(peak_demand, q));
  }
  const double provisioned = Quantile(peak_demand, 0.95) * 1.1;
  std::printf("\nrecommendation: provision %.0f CPUs (95th percentile + 10%% headroom)\n",
              provisioned);
  return 0;
}
