// Scheduler stress testing (§6.2 + the 10x what-if): generate synthetic
// workload at 1x and 10x the nominal arrival rate and pack it onto a cluster
// with all four packing algorithms, reporting each algorithm's first-failure
// allocation ratio (FFAR) — "can the scheduler handle a 10x higher request
// rate, and which packing policy fragments least?"
//
// Run:  ./build/examples/scheduler_stress
#include <cstdio>

#include "src/baselines/generators.h"
#include "src/core/workload_model.h"
#include "src/sched/ffar.h"
#include "src/sched/packing.h"
#include "src/synth/synthetic_cloud.h"
#include "src/trace/events.h"
#include "src/util/rng.h"

using namespace cloudgen;

int main() {
  SynthProfile profile = AzureLikeProfile(0.5);
  profile.train_days = 5;
  profile.dev_days = 1;
  profile.test_days = 1;
  const SyntheticCloud cloud(profile, 17);
  const Trace history = cloud.Generate();
  const int64_t train_end = profile.train_days * kPeriodsPerDay;
  const Trace train = ApplyObservationWindow(history, 0, train_end, train_end);

  WorkloadModelConfig config;
  config.flavor.epochs = 3;
  config.lifetime.epochs = 3;
  WorkloadModel model;
  Rng rng(5);
  const Status trained = model.Train(train, config, rng);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n", trained.ToString().c_str());
    return 1;
  }
  const LstmGenerator generator(model);

  const auto algorithms = MakeAllPackingAlgorithms();
  for (double scale : {1.0, 10.0}) {
    const Trace workload =
        generator.Generate(train_end, train_end + kPeriodsPerDay, scale, rng);
    Rng event_rng(23);
    const std::vector<Event> events = BuildEventStream(workload, event_rng);
    std::printf("\n=== arrival scale %.0fx: %zu VMs ===\n", scale, workload.NumJobs());
    std::printf("%-12s | %10s | %10s | %8s\n", "algorithm", "CPU FFAR", "Mem FFAR",
                "placed");
    for (const auto& algorithm : algorithms) {
      SchedulingTuple tuple;
      tuple.start_fraction = 0.0;
      // Size the cluster to the scale so both runs stress the same regime.
      tuple.num_servers = static_cast<size_t>(8 * scale);
      tuple.server_capacity = {64.0, 256.0};
      Rng pack_rng(31);
      const FfarResult result = RunPacking(workload, events, tuple, *algorithm, pack_rng);
      std::printf("%-12s | %9.1f%% | %9.1f%% | %8zu%s\n", algorithm->Name().c_str(),
                  result.cpu_ffar * 100.0, result.mem_ffar * 100.0, result.placed_jobs,
                  result.failed ? "" : " (no failure)");
    }
  }
  return 0;
}
