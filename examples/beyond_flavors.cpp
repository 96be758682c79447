// "Beyond flavors" (§2.2.3): modeling workloads whose jobs request arbitrary
// resource combinations instead of catalog flavors. The MultiResourceLstmModel
// generates a CPU class per job and a memory class *conditioned on the CPU*
// (chained softmaxes), so generated pairs respect the CPU↔memory correlation
// in the data.
//
// Run:  ./build/examples/beyond_flavors
#include <algorithm>
#include <cstdio>
#include <set>

#include "src/core/resource_model.h"
#include "src/synth/synthetic_cloud.h"
#include "src/util/rng.h"
#include "src/util/status.h"

using namespace cloudgen;

namespace {

ResourceQuantizer QuantizerFor(const Trace& trace, bool cpu) {
  std::vector<double> levels;
  for (const Flavor& flavor : trace.Flavors()) {
    levels.push_back(cpu ? flavor.cpus : flavor.memory_gb);
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  return ResourceQuantizer(levels);
}

}  // namespace

int main() {
  SynthProfile profile = AzureLikeProfile(0.5);
  profile.train_days = 4;
  profile.dev_days = 1;
  profile.test_days = 1;
  const SyntheticCloud cloud(profile, 31);
  const Trace history = cloud.Generate();
  const int64_t train_end = profile.train_days * kPeriodsPerDay;
  const Trace train = ApplyObservationWindow(history, 0, train_end, train_end);
  const Trace test = ApplyObservationWindow(history, train_end + kPeriodsPerDay,
                                            history.WindowEnd(), history.WindowEnd());

  const ResourceQuantizer cpu = QuantizerFor(train, true);
  const ResourceQuantizer mem = QuantizerFor(train, false);
  std::printf("resource grid: %zu CPU classes x %zu memory classes\n", cpu.NumClasses(),
              mem.NumClasses());

  MultiResourceLstmModel model;
  // Smaller and faster-learning than the flavor model's defaults, so the
  // example trains in a few seconds.
  ResourceModelConfig config;
  config.hidden_dim = 48;
  config.num_layers = 1;
  config.epochs = 8;
  config.learning_rate = 5e-3f;
  Rng rng(3);
  const Status trained = model.Train(train, cpu, mem, profile.train_days, config, rng);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n", trained.ToString().c_str());
    return 1;
  }

  const auto eval = model.Evaluate(test);
  std::printf("held-out NLL: cpu %.3f + mem|cpu %.3f = joint %.3f over %zu jobs\n",
              eval.cpu_nll, eval.mem_nll, eval.joint_nll, eval.steps);

  // Generate a period and show the pairs.
  MultiResourceLstmModel::Generator generator(model, profile.train_days);
  Rng gen_rng(9);
  const auto batches = generator.GeneratePeriod(train_end, 4, gen_rng);
  std::printf("\ngenerated %zu batches:\n", batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    std::printf("  batch %zu:", b);
    for (const ResourceRequest& request : batches[b]) {
      std::printf(" (%gc,%gg)", cpu.ValueOf(request.cpu_class),
                  mem.ValueOf(request.mem_class));
    }
    std::printf("\n");
  }
  return 0;
}
