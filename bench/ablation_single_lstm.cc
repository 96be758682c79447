// Ablation (§7, "Alternative Modeling Approaches"): the single-LSTM variant
// with end-of-period (EOP) tokens vs. the paper's three-stage process.
//
// The paper rejected the single-LSTM design because (a) the generated volume
// was "exquisitely sensitive to the timely sampling of [EOP] tokens", and
// (b) it has no explicit arrival-rate parameter for what-if scaling. This
// bench quantifies (a): the dispersion of generated per-trace volume across
// samples, compared with the three-stage model and with the ground truth's
// own day-to-day variability.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/single_lstm_model.h"
#include "src/eval/workbench.h"
#include "src/trace/stats.h"
#include "src/util/stats.h"
#include "src/util/rng.h"

namespace cloudgen {
namespace {

void Run() {
  PrintBanner("Ablation: single LSTM with EOP tokens vs three-stage process");
  CloudWorkbench workbench(CloudKind::kAzureLike, DefaultWorkbenchOptions());
  const Trace& train = workbench.Splits().train;

  // Train the single-LSTM (the three-stage model comes from the cache).
  SingleLstmConfig config;
  config.hidden_dim = 64;
  config.num_layers = 2;
  config.epochs = 10;
  config.learning_rate = 5e-3f;
  config.lr_decay = 0.93f;
  SingleLstmModel single;
  Rng train_rng(31337);
  const Status trained =
      single.Train(train, workbench.Model().HistoryDays(), config, train_rng);
  if (!trained.ok()) {
    std::fprintf(stderr, "single-LSTM training failed: %s\n", trained.ToString().c_str());
    return;
  }

  const int64_t from = workbench.TestStart();
  const int64_t to = from + kPeriodsPerDay;  // One generated day per sample.
  const size_t samples = 12;

  // Ground truth day-to-day volume (per day of the train window).
  std::vector<double> truth_daily;
  const std::vector<double> counts = JobCountsPerPeriod(train);
  for (int64_t d = 0; d * kPeriodsPerDay < static_cast<int64_t>(counts.size()); ++d) {
    double sum = 0.0;
    for (int64_t p = d * kPeriodsPerDay;
         p < (d + 1) * kPeriodsPerDay && p < static_cast<int64_t>(counts.size()); ++p) {
      sum += counts[static_cast<size_t>(p)];
    }
    truth_daily.push_back(sum);
  }

  // Sampled daily volumes from each generator.
  std::vector<double> single_daily;
  {
    Rng rng(41);
    for (size_t s = 0; s < samples; ++s) {
      SingleLstmModel::Generator generator(single, workbench.Model().HistoryDays());
      double jobs = 0.0;
      for (int64_t p = from; p < to; ++p) {
        for (const auto& batch : generator.GeneratePeriod(p, rng)) {
          jobs += static_cast<double>(batch.size());
        }
      }
      single_daily.push_back(jobs);
    }
  }
  std::vector<double> staged_daily;
  {
    Rng rng(42);
    const auto lstm = workbench.MakeLstm();
    for (size_t s = 0; s < samples; ++s) {
      staged_daily.push_back(
          static_cast<double>(lstm->Generate(from, to, 1.0, rng).NumJobs()));
    }
  }

  auto report = [](const char* name, const std::vector<double>& daily) {
    const double mean = Mean(daily);
    const double cv = mean > 0.0 ? StdDev(daily) / mean : 0.0;
    std::printf("%-22s | %10.0f | %8.2f\n", name, mean, cv);
  };
  std::printf("%-22s | %10s | %8s\n", "source", "mean jobs/day", "CV");
  report("ground truth (train)", truth_daily);
  report("three-stage LSTM", staged_daily);
  report("single LSTM (EOP)", single_daily);
  std::printf(
      "\nThe single-LSTM's volume dispersion is driven entirely by EOP sampling;\n"
      "the three-stage model controls it with an explicit, inspectable rate — and\n"
      "supports what-if scaling (see whatif_10x_scaling), which EOP cannot.\n");
}

}  // namespace
}  // namespace cloudgen

int main() {
  cloudgen::Run();
  return 0;
}
