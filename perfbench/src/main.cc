// perfbench: cloudgen's end-to-end benchmark (perfbench/README.md).
//
//   perfbench --workload train|generate|stream|serve --seed N --seconds S
//             --trace 0|1 [--tiny] [--corrupt-segment] [--work-dir DIR]
//
// Synthesizes the fixture from --seed, (for generate/stream/serve) trains the
// model the workload loads, runs the workload, and prints its metrics. The
// last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exits 0 only when the run completed.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>

#include "perfbench/src/bench.h"
#include "src/obs/metrics.h"
#include "src/synth/synthetic_cloud.h"
#include "src/trace/trace_io.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace perfbench {

Sizes Sizes::Tiny() {
  Sizes s;
  s.train_days = 3;
  s.train_target_jobs = 4000;
  s.fixture_jobs = 25000;
  s.hidden = 8;
  s.model_epochs = 1;
  s.gen_traces = 8;
  s.gen_periods = 12;
  s.gen_target_jobs = 2000;
  s.gen_segment_bytes = 16u << 10;
  s.stream_periods = 48;
  s.stream_target_jobs = 500;
  s.stream_segment_bytes = 4u << 10;
  s.stream_lanes = 2;
  s.serve_traces = 2;
  s.serve_periods = 12;
  s.serve_target_bytes = 4 << 10;
  s.min_streams = 8;
  s.timed_slices = 1;
  s.setups_per_slice = 1;
  s.probe_reps = 5;
  return s;
}

cloudgen::WorkloadModelConfig ModelConfig(const Sizes& sizes, size_t epochs) {
  // The CLI defaults (`cloudgen train`): 2 layers, lr 5e-3, decay 0.93.
  cloudgen::WorkloadModelConfig config;
  config.flavor.epochs = epochs;
  config.flavor.hidden_dim = sizes.hidden;
  config.flavor.num_layers = 2;
  config.flavor.learning_rate = 5e-3f;
  config.flavor.lr_decay = 0.93f;
  config.lifetime.epochs = epochs;
  config.lifetime.hidden_dim = sizes.hidden;
  config.lifetime.num_layers = 2;
  config.lifetime.learning_rate = 5e-3f;
  config.lifetime.lr_decay = 0.93f;
  return config;
}

int64_t GenFromPeriod(const Sizes& sizes) { return sizes.train_days * cloudgen::kPeriodsPerDay; }

void LoadTrainWindow(const Fixture& fx, cloudgen::Trace* train) {
  cloudgen::Trace trace;
  const cloudgen::Status status =
      cloudgen::ReadTraceCsv(fx.jobs_csv, fx.flavors_csv, cloudgen::TraceCsvReadOptions(), &trace);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  const int64_t end = GenFromPeriod(fx.sizes);
  *train = cloudgen::ApplyObservationWindow(trace, 0, end, end);
}

double NowSec() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSec() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t value = 0;
    in >> value;
    if (field != 3 && field != 4) {
      ticks.busy += value;
    }
    if (field == 7) {
      ticks.steal = value;
    }
  }
  return ticks;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  const uint64_t busy = after.busy - before.busy;
  return busy == 0 ? 0.0
                   : static_cast<double>(after.steal - before.steal) / static_cast<double>(busy);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

uint64_t CounterValue(const char* name) {
  return cloudgen::obs::Registry::Global().GetCounter(name).Value();
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports all end-to-end metrics (README.md, "Metrics").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"jobs_per_s", "1/s"},   {"ttfb_ms_p50", "ms"},
    {"ttfb_ms_p90", "ms"},    {"ttlb_ms_p50", "ms"},   {"ttlb_ms_p90", "ms"},
};

// Traced runs report all per-layer metrics; a layer that is not on the
// workload's path reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"glm.fit_s", "s"},
    {"core.flavor_epoch_s", "s"},
    {"core.lifetime_epoch_s", "s"},
    {"nn.bptt_ms", "ms"},
    {"nn.adam_ms", "ms"},
    {"core.minibatches", "count"},
    {"core.train_unattributed_s", "s"},
    {"core.engine_s", "s"},
    {"core.rows_per_tick", "rows/tick"},
    {"core.tokens_per_job", "tokens/job"},
    {"nn.step_us_per_row", "us/row"},
    {"tensor.gemm_us_per_row", "us/row"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tensor.peak_gflops", "GFLOP/s"},
    {"nn.activation_us_per_row", "us/row"},
    {"nn.step_unattributed_us_per_row", "us/row"},
    {"survival.duration_us", "us"},
    {"glm.arrival_draw_us", "us"},
    {"util.categorical_us", "us"},
    {"core.unattributed_s", "s"},
    {"trace.append_s", "s"},
    {"trace.commit_s", "s"},
    {"trace.seals", "count"},
    {"trace.payload_mb", "MB"},
    {"util.fsyncs", "count"},
    {"util.retries", "count"},
    {"core.checkpoint_writes", "count"},
    {"core.regen_ms", "ms"},
    {"serve.ttfb_overhead_ms", "ms"},
    {"serve.reconnects_per_stream", "1/stream"},
    {"serve.end_wait_ms_mean", "ms"},
    {"core.regen_jobs_per_row", "jobs/row"},
    {"serve.stalls_per_stream", "1/stream"},
    {"obs.trace_overhead", "ratio"},
};

}  // namespace

void Put(Metrics* metrics, const std::string& name, double value) {
  for (const MetricSpec& spec : kEndToEnd) {
    if (name == spec.name) {
      (*metrics)[name] = {value, spec.unit};
      return;
    }
  }
  for (const MetricSpec& spec : kPerLayer) {
    if (name == spec.name) {
      (*metrics)[name] = {value, spec.unit};
      return;
    }
  }
  std::fprintf(stderr, "perfbench: metric %s is in no table\n", name.c_str());
  std::abort();
}

std::string Hex32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload train|generate|stream|serve "
               "--seed N --seconds S --trace 0|1 [--tiny] [--corrupt-segment] "
               "[--work-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + flag).c_str());
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--corrupt-segment") {
      args.corrupt_segment = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "train" && args.workload != "generate" && args.workload != "stream" &&
      args.workload != "serve") {
    Usage("--workload must be train, generate, stream or serve");
  }
  if (!(args.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  return args;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The model generate/stream/serve load is trained once from a fixed trace
// (the CLI defaults: `cloudgen synth --seed 42`, `cloudgen train --seed 7`)
// and cached under the work directory, so every seed's ops run the same
// networks and do comparable work; the workload seed picks the trace each
// run reads and refits the arrival GLM on. Training is part of no metric.
void EnsureModel(Fixture* fx) {
  namespace fs = std::filesystem;
  const std::string cache = fx->work_dir + "/models";
  fs::create_directories(cache);
  fx->model_prefix = cache + "/azure-s42-h" + std::to_string(fx->sizes.hidden);
  if (fs::exists(fx->model_prefix + ".flavor.bin") &&
      fs::exists(fx->model_prefix + ".lifetime.bin")) {
    return;
  }
  const cloudgen::Trace full =
      cloudgen::SyntheticCloud(cloudgen::AzureLikeProfile(1.0), 42).Generate();
  const int64_t end = GenFromPeriod(fx->sizes);
  const cloudgen::Trace train = cloudgen::ApplyObservationWindow(full, 0, end, end);
  cloudgen::WorkloadModel model;
  cloudgen::Rng rng(7);
  cloudgen::Status status =
      model.Train(train, ModelConfig(fx->sizes, fx->sizes.model_epochs), rng);
  if (status.ok()) {
    status = model.SaveToFiles(fx->model_prefix);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: fixture model: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

// How busy a synthesized trace is depends on its seed. The fixture CSV keeps
// the trace's first `fixture_jobs` jobs, censored where it is cut, so every
// seed's setup parses about as many rows; the cut never falls inside the
// training window, whose contents it leaves unchanged.
int64_t FixtureEnd(const cloudgen::Trace& full, const Sizes& sizes) {
  std::vector<int64_t> starts;
  for (const cloudgen::Job& job : full.Jobs()) {
    starts.push_back(job.start_period);
  }
  int64_t end = GenFromPeriod(sizes);
  if (starts.size() > sizes.fixture_jobs) {
    const auto nth = starts.begin() + static_cast<ptrdiff_t>(sizes.fixture_jobs);
    std::nth_element(starts.begin(), nth, starts.end());
    end = std::max(end, *nth);
  } else if (!starts.empty()) {
    end = std::max(end, *std::max_element(starts.begin(), starts.end()) + 1);
  }
  return end;
}

void PrintMetrics(const char* title, const Metrics& metrics) {
  std::printf("%s:\n", title);
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
}

void PrintJson(const Result& result, const Metrics& metrics, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  namespace fs = std::filesystem;
  // The benchmark measures durable output: fsync stays on whatever the
  // environment says (read once, at the first sealed write).
  unsetenv("CLOUDGEN_FSYNC");
  const Args args = ParseArgs(argc, argv);

  Fixture fx;
  fx.sizes = args.tiny ? Sizes::Tiny() : Sizes();
  fx.seed = args.seed;
  fx.work_dir = args.work_dir;
  const std::string run_dir = args.work_dir + "/run-" + args.workload + "-" +
                              std::to_string(args.seed) + "-" + std::to_string(getpid());
  fs::create_directories(run_dir);
  fx.jobs_csv = run_dir + "/jobs.csv";
  fx.flavors_csv = run_dir + "/flavors.csv";
  {
    const cloudgen::Trace full =
        cloudgen::SyntheticCloud(cloudgen::AzureLikeProfile(1.0), args.seed).Generate();
    const int64_t end = FixtureEnd(full, fx.sizes);
    const cloudgen::Status written = cloudgen::WriteTraceCsv(
        cloudgen::ApplyObservationWindow(full, 0, end, end), fx.jobs_csv, fx.flavors_csv);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: fixture: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  cloudgen::SetGlobalThreads(4);
  if (args.workload != "train") {
    EnsureModel(&fx);
  }
  fx.work_dir = run_dir;

  Result result;
  if (args.workload == "train") {
    result = RunTrain(args, fx);
  } else if (args.workload == "generate") {
    result = RunGenerate(args, fx);
  } else if (args.workload == "stream") {
    result = RunStream(args, fx);
  } else {
    result = RunServe(args, fx);
  }
  std::error_code ignored;
  fs::remove_all(run_dir, ignored);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              args.tiny ? " tiny" : "");
  std::printf("fingerprint: nproc=%ld cpu=\"%s\" compiler=\"g++ %s\" march=%s "
              "CLOUDGEN_NATIVE_ARCH=%s fsync=on\n",
              sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(), __VERSION__, PERFBENCH_MARCH,
              PERFBENCH_NATIVE_ARCH);
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("ops: attempted=%llu failed=%llu digest=%s\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), result.digest.c_str());
  for (const MetricSpec& spec : kEndToEnd) {
    if (result.end_to_end.count(spec.name) == 0) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n", args.workload.c_str(),
                   spec.name);
      return 1;
    }
  }
  PrintMetrics("end-to-end", result.end_to_end);
  Metrics layers = result.layers;
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      layers.emplace(spec.name, Metric{0.0, spec.unit});
    }
    PrintMetrics("per-layer (0 = not on this workload's path)", layers);
  }
  PrintJson(result, args.trace ? layers : result.end_to_end,
            result.failed == 0 && result.attempted > 0);
  std::fflush(stdout);
  return 0;
}
