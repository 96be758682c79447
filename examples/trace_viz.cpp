// Figure-1-style visualization: real workload vs. naively-generated workload
// vs. LSTM-generated workload, rendered to the terminal (ANSI colors) and to
// PPM images. Each row is a 5-minute period; blocks are VMs (color = flavor,
// width = lifetime bin); gaps separate user batches.
//
// Run:  ./build/examples/trace_viz
#include <cstdio>

#include "src/baselines/generators.h"
#include "src/core/workload_model.h"
#include "src/synth/synthetic_cloud.h"
#include "src/viz/trace_viz.h"
#include "src/util/rng.h"

using namespace cloudgen;

int main() {
  SynthProfile profile = AzureLikeProfile(0.5);
  profile.train_days = 4;
  profile.dev_days = 1;
  profile.test_days = 1;
  const SyntheticCloud cloud(profile, 77);
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

  const LifetimeBinning binning = MakePaperBinning();
  const NaiveGenerator naive(train, binning);
  const LstmGenerator lstm(model);

  // Render 25 afternoon periods of each trace.
  VizOptions options;
  options.from_period = train_end + 14 * kPeriodsPerHour;
  options.to_period = options.from_period + 25;
  options.max_row_cells = 100;

  const Trace real_window = ApplyObservationWindow(
      history, options.from_period, options.to_period, history.WindowEnd());
  const Trace naive_trace =
      naive.Generate(options.from_period, options.to_period, 1.0, rng);
  const Trace lstm_trace = lstm.Generate(options.from_period, options.to_period, 1.0, rng);

  std::printf("(a) real trace — batches of same-flavor, similar-lifetime VMs:\n%s\n",
              RenderAnsi(real_window, binning, options).c_str());
  std::printf("(b) naive generator — independent VMs, no batch structure:\n%s\n",
              RenderAnsi(naive_trace, binning, options).c_str());
  std::printf("(c) LSTM generator — batch structure recovered:\n%s\n",
              RenderAnsi(lstm_trace, binning, options).c_str());

  for (const Status& written : {WritePpm(real_window, binning, options, "trace_real.ppm"),
                                WritePpm(naive_trace, binning, options, "trace_naive.ppm"),
                                WritePpm(lstm_trace, binning, options, "trace_lstm.ppm")}) {
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::printf("wrote trace_real.ppm, trace_naive.ppm, trace_lstm.ppm\n");
  return 0;
}
