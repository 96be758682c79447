// cloudgen — command-line front end to the workload-generation library.
//
// Subcommands:
//   synth     Generate a synthetic ground-truth trace (CSV).
//   train     Train the three-stage model on a trace CSV; save the networks.
//   generate  Sample synthetic workload from a trained model (CSV out).
//   eval      Stage-wise evaluation of a trained model on a held-out window.
//   viz       Fig.-1-style rendering of a trace window (ANSI or PPM).
//
// Examples:
//   cloudgen synth --profile azure --out jobs.csv --flavors flavors.csv
//   cloudgen train --jobs jobs.csv --flavors flavors.csv --train-days 16
//                  --model model --epochs 12
//   cloudgen generate --jobs jobs.csv --flavors flavors.csv --train-days 16
//                  --model model --from-day 18 --days 2 --out gen.csv
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include "cli/flags.h"
#include "src/core/gen_guard.h"
#include "src/core/workload_model.h"
#include "src/obs/fidelity_monitor.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_span.h"
#include "src/sched/reuse_distance.h"
#include "src/serve/chaos.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/util/crc32.h"
#include "src/util/strings.h"
#include "src/synth/synthetic_cloud.h"
#include "src/trace/stats.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_sink.h"
#include "src/util/atomic_file.h"
#include "src/util/cancel.h"
#include "src/util/fault.h"
#include "src/util/fault_plan.h"
#include "src/util/log.h"
#include "src/util/metrics_exporter.h"
#include "src/util/metrics_json.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"
#include "src/viz/trace_viz.h"

namespace cloudgen {
namespace {

// Exit codes: 0 success, 1 other failure, 2 usage, 3 input/parse error,
// 4 training failure, 5 generation interrupted at a safe boundary (rerun
// with --resume-gen to continue), 6 numeric-guard abort, 7 corrupt data
// (truncated/empty manifest, CRC mismatch), 8 server rejected the request
// (admission control / tenant quota).
constexpr int kExitUsage = 2;
constexpr int kExitInput = 3;
constexpr int kExitTrain = 4;
constexpr int kExitInterrupted = 5;
constexpr int kExitGuard = 6;
constexpr int kExitCorrupt = 7;
constexpr int kExitRejected = 8;

int Usage() {
  std::fprintf(
      stderr,
      "usage: cloudgen <command> [--flag value ...]\n"
      "\n"
      "commands:\n"
      "  synth     --profile azure|huawei [--scale S] [--seed N]\n"
      "            --out JOBS.csv --flavors FLAVORS.csv\n"
      "  train     --jobs JOBS.csv --flavors FLAVORS.csv --train-days N\n"
      "            --model PREFIX [--epochs E] [--hidden H] [--layers L]\n"
      "            [--checkpoint CKPT_PREFIX] [--resume] [--lenient]\n"
      "  generate  --jobs JOBS.csv --flavors FLAVORS.csv --train-days N\n"
      "            --model PREFIX --from-day D --days K [--arrival-scale S]\n"
      "            [--eob-scale S] [--seed N] [--traces N] [--lenient]\n"
      "            --out GEN.csv | --out-dir DIR [--segment-bytes N]\n"
      "            [--resume-gen] [--deadline-sec S]\n"
      "            [--guard off|abort|resample|fallback] [--batch-window N]\n"
      "  segcat    --dir DIR [--out FILE] [--allow-partial]\n"
      "  metrics-dump  --in METRICS.json [--prom]\n"
      "  serve     --jobs JOBS.csv --flavors FLAVORS.csv --train-days N\n"
      "            --model PREFIX --from-day D --days K [--port P] [--bind A]\n"
      "            [--state-dir DIR] [--max-streams N] [--max-streams-per-tenant N]\n"
      "            [--max-buffer-mb N] [--idle-timeout-sec S] [--io-timeout-sec S]\n"
      "            [--stall-timeout-sec S]\n"
      "  fetch     --port P [--host H] --tenant T --stream S --seed N --traces N\n"
      "            --out FILE [--resume] [--retry-attempts N] [--retry-base-ms MS]\n"
      "            [--credit-bytes N] [--io-timeout-sec S]\n"
      "  fetch     --port P [--host H] --health | --metrics-json | --metrics-prom\n"
      "  chaos     --jobs JOBS.csv --flavors FLAVORS.csv --train-days N\n"
      "            --model PREFIX --from-day D --days K [--clients N] [--traces N]\n"
      "            [--seed N] [--fault-plan FILE] [--fault-seed N]\n"
      "            [--state-dir DIR] [--stall-timeout-sec S] [--deadline-sec S]\n"
      "  eval      --jobs JOBS.csv --flavors FLAVORS.csv --train-days N\n"
      "            --model PREFIX --eval-from-day D [--eval-days K]\n"
      "  analyze   --jobs JOBS.csv --flavors FLAVORS.csv [--lenient]\n"
      "  viz       --jobs JOBS.csv --flavors FLAVORS.csv --from-period P\n"
      "            [--periods K] [--ppm OUT.ppm]\n"
      "\n"
      "flags:\n"
      "  --lenient     skip (and count) malformed trace rows instead of failing\n"
      "  --checkpoint  write per-epoch training checkpoints under this prefix\n"
      "  --resume      resume training from --checkpoint files if present\n"
      "  --threads     worker threads for training/generation (0 = all cores;\n"
      "                default 1; generate/serve keep one batch window in\n"
      "                flight per thread; results are identical for every N)\n"
      "  --traces      generate: number of independent traces to sample; trace\n"
      "                i goes to OUT with suffix .i before the extension\n"
      "  --metrics-out write a JSON metrics snapshot (counters, gauges,\n"
      "                histograms, per-epoch series) to this path on exit\n"
      "  --metrics-interval-sec  with --metrics-out: additionally write rolling\n"
      "                snapshots to PATH.roll-NNNNNN.json every S seconds from a\n"
      "                background thread (atomic temp+rename; never torn)\n"
      "  --fidelity    generate/serve: turn on the observe-only fidelity monitor\n"
      "                (fidelity.* drift gauges vs model-derived references);\n"
      "                generated bytes are identical with it on or off\n"
      "  --trace-out   record trace spans and write Chrome trace_event JSON to\n"
      "                this path on exit (open in Perfetto / chrome://tracing)\n"
      "  --out-dir     generate: stream into crash-consistent sealed segments in\n"
      "                DIR (with a manifest + checkpoint) instead of one CSV;\n"
      "                SIGINT/SIGTERM/--deadline-sec stop at a safe boundary\n"
      "  --resume-gen  continue a --out-dir run from its checkpoint; the resumed\n"
      "                output is byte-identical to an uninterrupted run\n"
      "  --guard       numeric-health policy for generation steps (default\n"
      "                abort; see docs/ROBUSTNESS.md)\n"
      "  --batch-window  max traces stepped in lockstep by the batched\n"
      "                inference engine (default 256; must be >= 1; 1 = one\n"
      "                stream per step; output bytes are identical for every\n"
      "                setting)\n"
      "  --fault-plan  arm the deterministic fault injector from a plan file\n"
      "                (same grammar as CLOUDGEN_FAULT_PLAN; see\n"
      "                docs/ROBUSTNESS.md); --fault-seed picks the schedule.\n"
      "                chaos: the scenario plan (default: the composed one)\n"
      "\n"
      "exit codes: 0 ok, 2 usage, 3 input/parse error, 4 training failure,\n"
      "            5 generation interrupted (resumable), 6 numeric-guard abort,\n"
      "            7 corrupt data (empty/truncated manifest, CRC mismatch),\n"
      "            8 server rejected the request (quota/overload)\n");
  return kExitUsage;
}

// Prints the full Status context chain to stderr and returns `exit_code`.
int Fail(int exit_code, const Status& status) {
  std::fprintf(stderr, "cloudgen: %s\n", status.ToString().c_str());
  return exit_code;
}

// Returns 0 on success, or the exit code to propagate.
int LoadTrace(const Flags& flags, Trace* trace) {
  const std::string jobs = flags.GetString("jobs", "");
  const std::string flavors = flags.GetString("flavors", "");
  if (jobs.empty() || flavors.empty()) {
    std::fprintf(stderr, "--jobs and --flavors are required\n");
    return kExitUsage;
  }
  TraceCsvReadOptions options;
  options.lenient = flags.Has("lenient");
  TraceCsvReadReport report;
  const Status status = ReadTraceCsv(jobs, flavors, options, trace, &report);
  if (!status.ok()) {
    return Fail(kExitInput, status);
  }
  if (report.rows_skipped > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed row(s); first: %s\n",
                 report.rows_skipped, report.first_skipped.c_str());
  }
  return 0;
}

WorkloadModelConfig ConfigFrom(const Flags& flags) {
  WorkloadModelConfig config;
  const auto epochs = static_cast<size_t>(flags.GetLong("epochs", 12));
  const auto hidden = static_cast<size_t>(flags.GetLong("hidden", 64));
  const auto layers = static_cast<size_t>(flags.GetLong("layers", 2));
  config.flavor.epochs = epochs;
  config.flavor.hidden_dim = hidden;
  config.flavor.num_layers = layers;
  config.flavor.learning_rate = 5e-3f;
  config.flavor.lr_decay = 0.93f;
  config.lifetime.epochs = epochs;
  config.lifetime.hidden_dim = hidden;
  config.lifetime.num_layers = layers;
  config.lifetime.learning_rate = 5e-3f;
  config.lifetime.lr_decay = 0.93f;
  const std::string ckpt = flags.GetString("checkpoint", "");
  if (!ckpt.empty()) {
    config.flavor.recovery.checkpoint_path = ckpt + ".flavor.ckpt";
    config.lifetime.recovery.checkpoint_path = ckpt + ".lifetime.ckpt";
  }
  const bool resume = flags.Has("resume");
  config.flavor.recovery.resume = resume;
  config.lifetime.recovery.resume = resume;
  return config;
}

// Training window view shared by train/generate/eval. Returns 0 on success.
int TrainWindow(const Flags& flags, const Trace& trace, Trace* train) {
  const long train_days = flags.GetLong("train-days", 0);
  if (train_days <= 0) {
    std::fprintf(stderr, "--train-days is required and must be positive\n");
    return kExitUsage;
  }
  const int64_t end = train_days * kPeriodsPerDay;
  *train = ApplyObservationWindow(trace, 0, end, end);
  return 0;
}

int RunSynth(const Flags& flags) {
  const std::string profile_name = flags.GetString("profile", "azure");
  const double scale = flags.GetDouble("scale", 1.0);
  SynthProfile profile =
      profile_name == "huawei" ? HuaweiLikeProfile(scale) : AzureLikeProfile(scale);
  const auto seed = static_cast<uint64_t>(flags.GetLong("seed", 42));
  const SyntheticCloud cloud(profile, seed);
  const Trace trace = cloud.Generate();
  const std::string out = flags.GetString("out", "jobs.csv");
  const std::string flavors = flags.GetString("flavors", "flavors.csv");
  const Status written = WriteTraceCsv(trace, out, flavors);
  if (!written.ok()) {
    return Fail(1, written);
  }
  const TraceSummary summary = Summarize(trace);
  std::printf("wrote %zu jobs over %.0f days to %s (catalog: %s)\n", summary.num_jobs,
              summary.window_days, out.c_str(), flavors.c_str());
  return 0;
}

int RunTrain(const Flags& flags) {
  if (flags.Has("resume") && flags.GetString("checkpoint", "").empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint\n");
    return kExitUsage;
  }
  Trace trace;
  Trace train;
  int rc = LoadTrace(flags, &trace);
  if (rc == 0) {
    rc = TrainWindow(flags, trace, &train);
  }
  if (rc != 0) {
    return rc;
  }
  const std::string prefix = flags.GetString("model", "model");
  WorkloadModel model;
  Rng rng(static_cast<uint64_t>(flags.GetLong("seed", 7)));
  const Status trained = model.Train(train, ConfigFrom(flags), rng);
  if (!trained.ok()) {
    return Fail(kExitTrain, trained);
  }
  const Status saved = model.SaveToFiles(prefix);
  if (!saved.ok()) {
    return Fail(kExitTrain, saved);
  }
  std::printf("trained on %zu jobs; saved %s.flavor.bin and %s.lifetime.bin\n",
              train.NumJobs(), prefix.c_str(), prefix.c_str());
  return 0;
}

// The crash-consistent --out-dir path: jobs stream into sealed segments, a
// checkpoint follows every seal, and SIGINT/SIGTERM/--deadline-sec wind the
// run down at a safe boundary so --resume-gen completes it byte-identically.
int RunGenerateSegmented(const Flags& flags, const WorkloadModel& model,
                         WorkloadModel::GenerateOptions options, Rng& rng, uint64_t seed,
                         long num_traces, const std::string& out_dir) {
  CancelToken& cancel = GlobalCancelToken();
  InstallCancelSignalHandlers();
  const double deadline_sec = flags.GetDouble("deadline-sec", 0.0);
  if (deadline_sec > 0.0) {
    cancel.SetDeadline(deadline_sec);
  }
  options.cancel = &cancel;

  const bool resume = flags.Has("resume-gen");
  SegmentedFileSink::Options sink_options;
  sink_options.dir = out_dir;
  sink_options.segment_bytes =
      static_cast<uint64_t>(flags.GetLong("segment-bytes", 4 * 1024 * 1024));
  sink_options.resume = resume;
  SegmentedFileSink sink(sink_options);
  Status status = sink.Init();
  if (!status.ok()) {
    return Fail(kExitInput, status);
  }

  WorkloadModel::GenerateRun run;
  run.sink = &sink;
  run.checkpoint_path = out_dir + "/gen.ckpt";
  run.resume = resume;
  run.config_fingerprint = seed;

  WorkloadModel::GenerateReport report;
  try {
    status = num_traces == 1
                 ? model.GenerateStreaming(options, rng, run, &report)
                 : model.GenerateMany(options, static_cast<size_t>(num_traces), rng, run,
                                      &report);
  } catch (const GuardViolation& violation) {
    std::fprintf(stderr, "cloudgen: generation aborted by numeric guard: %s\n",
                 violation.what());
    return kExitGuard;
  }
  if (!status.ok()) {
    return Fail(kExitInput, status);
  }
  if (report.interrupted) {
    if (report.parked) {
      // Disk full: everything flushed is sealed + checkpointed, so the same
      // resumable exit code applies — the run completes byte-identically
      // once space returns.
      std::fprintf(stderr,
                   "cloudgen: generation parked (disk full) after %llu trace(s), %llu job(s); "
                   "%zu sealed segment(s) in %s — free space and rerun with --resume-gen "
                   "to complete\n",
                   static_cast<unsigned long long>(report.traces),
                   static_cast<unsigned long long>(report.jobs), sink.NumSegments(),
                   out_dir.c_str());
    } else {
      std::fprintf(stderr,
                   "cloudgen: generation interrupted (%s) after %llu trace(s), %llu job(s); "
                   "%zu sealed segment(s) in %s — rerun with --resume-gen to continue\n",
                   CancelReasonName(cancel.Reason()),
                   static_cast<unsigned long long>(report.traces),
                   static_cast<unsigned long long>(report.jobs), sink.NumSegments(),
                   out_dir.c_str());
    }
    return kExitInterrupted;
  }
  std::printf("generated %llu trace(s), %llu job(s) into %zu sealed segment(s) in %s%s\n",
              static_cast<unsigned long long>(report.traces),
              static_cast<unsigned long long>(report.jobs), sink.NumSegments(),
              out_dir.c_str(), report.resumed ? " (resumed)" : "");
  return 0;
}

int RunGenerate(const Flags& flags) {
  Trace trace;
  Trace train;
  int rc = LoadTrace(flags, &trace);
  if (rc == 0) {
    rc = TrainWindow(flags, trace, &train);
  }
  if (rc != 0) {
    return rc;
  }
  const std::string prefix = flags.GetString("model", "model");
  WorkloadModel model;
  const Status loaded = model.LoadNetworksFromFiles(prefix, train, ConfigFrom(flags));
  if (!loaded.ok()) {
    std::fprintf(stderr, "failed to load %s.*.bin (run `cloudgen train` first)\n",
                 prefix.c_str());
    return Fail(kExitInput, loaded);
  }
  WorkloadModel::GenerateOptions options;
  options.from_period = flags.GetLong("from-day", 0) * kPeriodsPerDay;
  options.to_period = options.from_period + flags.GetLong("days", 1) * kPeriodsPerDay;
  options.arrival_scale = flags.GetDouble("arrival-scale", 1.0);
  options.eob_scale = flags.GetDouble("eob-scale", 1.0);
  if (!ParseGuardPolicy(flags.GetString("guard", "abort"), &options.guard)) {
    std::fprintf(stderr, "--guard must be off|abort|resample|fallback\n");
    return kExitUsage;
  }
  const long batch_window = flags.GetLong("batch-window", 256);
  if (batch_window < 1) {
    std::fprintf(stderr, "--batch-window must be >= 1\n");
    return kExitUsage;
  }
  options.batch_window = static_cast<size_t>(batch_window);
  if (flags.Has("fidelity")) {
    // Observe-only: computes RNG-free references from the loaded networks and
    // enables the global monitor. Generated bytes are unaffected.
    model.EnableFidelityMonitor(options);
  }
  const auto seed = static_cast<uint64_t>(flags.GetLong("seed", 11));
  Rng rng(seed);
  const std::string out = flags.GetString("out", "generated.csv");
  const long num_traces = flags.GetLong("traces", 1);
  if (num_traces < 1) {
    std::fprintf(stderr, "--traces must be >= 1\n");
    return kExitUsage;
  }
  const std::string out_dir = flags.GetString("out-dir", "");
  if (!out_dir.empty()) {
    return RunGenerateSegmented(flags, model, options, rng, seed, num_traces, out_dir);
  }
  try {
    if (num_traces == 1) {
      const Trace generated = model.Generate(options, rng);
      const std::string out_flavors =
          flags.GetString("out-flavors", out + ".flavors.csv");
      const Status written = WriteTraceCsv(generated, out, out_flavors);
      if (!written.ok()) {
        return Fail(1, written);
      }
      std::printf("generated %zu jobs into %s\n", generated.NumJobs(), out.c_str());
      return 0;
    }
    // Independent traces, generated in parallel (see --threads); trace i is
    // written to OUT with ".i" spliced in before the extension.
    const std::vector<Trace> traces =
        model.GenerateMany(options, static_cast<size_t>(num_traces), rng);
    const size_t dot = out.rfind('.');
    const std::string stem = dot == std::string::npos ? out : out.substr(0, dot);
    const std::string ext = dot == std::string::npos ? "" : out.substr(dot);
    size_t total_jobs = 0;
    for (size_t i = 0; i < traces.size(); ++i) {
      const std::string path = stem + "." + std::to_string(i) + ext;
      const Status written = WriteTraceCsv(traces[i], path, path + ".flavors.csv");
      if (!written.ok()) {
        return Fail(1, written);
      }
      total_jobs += traces[i].NumJobs();
    }
    std::printf("generated %zu jobs across %zu traces into %s.N%s\n", total_jobs,
                traces.size(), stem.c_str(), ext.c_str());
    return 0;
  } catch (const GuardViolation& violation) {
    std::fprintf(stderr, "cloudgen: generation aborted by numeric guard: %s\n",
                 violation.what());
    return kExitGuard;
  }
}

// Reassembles a --out-dir run's segments into one byte stream, CRC-verifying
// each segment against the manifest. Refuses incomplete runs unless
// --allow-partial.
int RunSegcat(const Flags& flags) {
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "--dir is required\n");
    return kExitUsage;
  }
  std::string payload;
  const Status status = ConcatSegments(dir, !flags.Has("allow-partial"), &payload);
  if (!status.ok()) {
    // DATA_LOSS (empty/truncated manifest, CRC mismatch) gets its own exit
    // code so harnesses can tell "corrupt output" from "bad invocation".
    return Fail(status.code() == StatusCode::kDataLoss ? kExitCorrupt : kExitInput,
                status);
  }
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fwrite(payload.data(), 1, payload.size(), stdout);
    return 0;
  }
  const Status written = WriteFileAtomic(
      out, [&payload](std::ostream& stream) {
        stream.write(payload.data(), static_cast<std::streamsize>(payload.size()));
      });
  if (!written.ok()) {
    return Fail(1, written);
  }
  std::printf("wrote %zu byte(s) to %s\n", payload.size(), out.c_str());
  return 0;
}

// The serve daemon: loads a trained model and streams deterministically
// regenerated trace rows to TCP clients (see src/serve/server.h) until
// SIGINT/SIGTERM, then drains gracefully — stops admitting, checkpoints
// every active stream into --state-dir, and exits 0. A restarted daemon
// with the same flags resumes every stream byte-identically.
int RunServe(const Flags& flags) {
  Trace trace;
  Trace train;
  int rc = LoadTrace(flags, &trace);
  if (rc == 0) {
    rc = TrainWindow(flags, trace, &train);
  }
  if (rc != 0) {
    return rc;
  }
  const std::string prefix = flags.GetString("model", "model");
  WorkloadModel model;
  const Status loaded = model.LoadNetworksFromFiles(prefix, train, ConfigFrom(flags));
  if (!loaded.ok()) {
    std::fprintf(stderr, "failed to load %s.*.bin (run `cloudgen train` first)\n",
                 prefix.c_str());
    return Fail(kExitInput, loaded);
  }

  serve::ServerOptions options;
  options.bind_addr = flags.GetString("bind", "127.0.0.1");
  options.port = static_cast<uint16_t>(flags.GetLong("port", 0));
  options.state_dir = flags.GetString("state-dir", "");
  options.io_timeout_ms =
      static_cast<int>(flags.GetDouble("io-timeout-sec", 10.0) * 1000.0);
  options.idle_timeout_ms =
      static_cast<int>(flags.GetDouble("idle-timeout-sec", 30.0) * 1000.0);
  options.stall_timeout_ms =
      static_cast<int>(flags.GetDouble("stall-timeout-sec", 10.0) * 1000.0);
  options.limits.max_streams =
      static_cast<size_t>(flags.GetLong("max-streams", 64));
  options.limits.max_streams_per_tenant =
      static_cast<size_t>(flags.GetLong("max-streams-per-tenant", 8));
  options.limits.max_total_buffer_bytes =
      static_cast<size_t>(flags.GetLong("max-buffer-mb", 256)) << 20;
  options.gen.from_period = flags.GetLong("from-day", 0) * kPeriodsPerDay;
  options.gen.to_period =
      options.gen.from_period + flags.GetLong("days", 1) * kPeriodsPerDay;
  options.gen.arrival_scale = flags.GetDouble("arrival-scale", 1.0);
  options.gen.eob_scale = flags.GetDouble("eob-scale", 1.0);
  if (!ParseGuardPolicy(flags.GetString("guard", "abort"), &options.gen.guard)) {
    std::fprintf(stderr, "--guard must be off|abort|resample|fallback\n");
    return kExitUsage;
  }
  if (flags.Has("fidelity")) {
    model.EnableFidelityMonitor(options.gen);
  }
  if (!options.state_dir.empty() &&
      ::mkdir(options.state_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return Fail(kExitInput,
                UnavailableError("cannot create --state-dir " + options.state_dir));
  }

  serve::StreamServer server(&model, options);
  Status status = server.Start();
  if (!status.ok()) {
    return Fail(1, status);
  }
  // Machine-readable: harnesses bind port 0 and scrape the real port here.
  std::printf("serving on %s:%u (pid %d)\n", options.bind_addr.c_str(),
              static_cast<unsigned>(server.Port()), static_cast<int>(getpid()));
  std::fflush(stdout);

  CancelToken& cancel = GlobalCancelToken();
  InstallCancelSignalHandlers();
  const double deadline_sec = flags.GetDouble("deadline-sec", 0.0);
  if (deadline_sec > 0.0) {
    cancel.SetDeadline(deadline_sec);
  }
  while (!cancel.Poll()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr,
               "cloudgen: %s received; draining %zu active stream(s)\n",
               CancelReasonName(cancel.Reason()), server.ActiveStreams());
  server.RequestDrain();
  status = server.Wait();
  if (!status.ok()) {
    return Fail(1, status);
  }
  std::printf("drained cleanly\n");
  return 0;
}

// Client for `cloudgen serve`: fetches one stream to a file with retry/
// backoff and reconnect-resume, or issues a one-shot HEALTH/METRICS verb.
int RunFetch(const Flags& flags) {
  const std::string host = flags.GetString("host", "127.0.0.1");
  const long port = flags.GetLong("port", 0);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "--port is required (1..65535)\n");
    return kExitUsage;
  }
  const int timeout_ms =
      static_cast<int>(flags.GetDouble("io-timeout-sec", 10.0) * 1000.0);

  if (flags.Has("health")) {
    std::map<std::string, std::string> health;
    const Status status = serve::FetchHealth(
        host, static_cast<uint16_t>(port), timeout_ms, &health);
    if (!status.ok()) {
      return Fail(1, status);
    }
    for (const auto& [key, value] : health) {
      std::printf("%s=%s\n", key.c_str(), value.c_str());
    }
    return 0;
  }
  if (flags.Has("metrics-json")) {
    std::string json;
    const Status status = serve::FetchMetricsJson(
        host, static_cast<uint16_t>(port), timeout_ms, &json);
    if (!status.ok()) {
      return Fail(1, status);
    }
    std::printf("%s\n", json.c_str());
    return 0;
  }
  if (flags.Has("metrics-prom")) {
    std::string text;
    const Status status = serve::FetchMetricsProm(
        host, static_cast<uint16_t>(port), timeout_ms, &text);
    if (!status.ok()) {
      return Fail(1, status);
    }
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }

  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out is required (fetch writes a resumable file)\n");
    return kExitUsage;
  }
  serve::FetchOptions options;
  options.host = host;
  options.port = static_cast<uint16_t>(port);
  options.tenant = flags.GetString("tenant", "default");
  options.stream = flags.GetString("stream", "stream");
  options.seed = static_cast<uint64_t>(flags.GetLong("seed", 11));
  options.traces = static_cast<uint64_t>(flags.GetLong("traces", 1));
  options.credit_bytes =
      static_cast<size_t>(flags.GetLong("credit-bytes", 256 * 1024));
  options.io_timeout_ms = timeout_ms;
  options.retry.max_attempts =
      static_cast<int>(flags.GetLong("retry-attempts", 5));
  options.retry.base_backoff_sec = flags.GetDouble("retry-base-ms", 50.0) / 1000.0;

  // --resume: pick up where an interrupted fetch left off — the existing
  // bytes are folded into the CRC state so END still verifies the whole
  // stream.
  const bool resume = flags.Has("resume") && FileExists(out);
  if (resume) {
    std::ifstream existing(out, std::ios::binary);
    std::string prefix_bytes((std::istreambuf_iterator<char>(existing)),
                             std::istreambuf_iterator<char>());
    options.start_offset = prefix_bytes.size();
    options.start_crc_state =
        Crc32Update(kCrc32Init, prefix_bytes.data(), prefix_bytes.size());
  }
  std::ofstream stream(out, resume ? std::ios::binary | std::ios::app
                                   : std::ios::binary | std::ios::trunc);
  if (!stream) {
    return Fail(kExitInput, UnavailableError("cannot open --out " + out));
  }

  CancelToken& cancel = GlobalCancelToken();
  InstallCancelSignalHandlers();
  options.cancel = &cancel;

  serve::FetchResult result;
  const Status status = serve::FetchStream(options, stream, &result);
  if (!status.ok()) {
    if (status.code() == StatusCode::kResourceExhausted) {
      return Fail(kExitRejected, status);  // Quota/overload: server said no.
    }
    if (status.code() == StatusCode::kDataLoss) {
      return Fail(kExitCorrupt, status);  // CRC/framing: data is not trustworthy.
    }
    if (cancel.Cancelled()) {
      return Fail(kExitInterrupted, status);  // Rerun with --resume to finish.
    }
    return Fail(1, status);
  }
  std::printf(
      "fetched %llu byte(s) (%llu total, %llu row(s), crc %08x) into %s%s\n",
      static_cast<unsigned long long>(result.bytes),
      static_cast<unsigned long long>(result.total_bytes),
      static_cast<unsigned long long>(result.rows),
      static_cast<unsigned>(result.crc), out.c_str(),
      result.reconnects > 0
          ? StrFormat(" (%d reconnect(s))", result.reconnects).c_str()
          : "");
  return 0;
}

// Chaos harness: an in-process serve daemon plus N concurrent fetch clients
// under a declarative fault plan, with the serve failure model's invariants
// (byte-identity vs a fault-free oracle, bounded buffering, no stuck
// streams, daemon survival) checked end to end. Exit 0 iff every invariant
// held. See src/serve/chaos.h.
int RunChaos(const Flags& flags) {
  Trace trace;
  Trace train;
  int rc = LoadTrace(flags, &trace);
  if (rc == 0) {
    rc = TrainWindow(flags, trace, &train);
  }
  if (rc != 0) {
    return rc;
  }
  const std::string prefix = flags.GetString("model", "model");
  WorkloadModel model;
  const Status loaded = model.LoadNetworksFromFiles(prefix, train, ConfigFrom(flags));
  if (!loaded.ok()) {
    std::fprintf(stderr, "failed to load %s.*.bin (run `cloudgen train` first)\n",
                 prefix.c_str());
    return Fail(kExitInput, loaded);
  }

  serve::ChaosOptions options;
  options.model = &model;
  options.gen.from_period = flags.GetLong("from-day", 0) * kPeriodsPerDay;
  options.gen.to_period =
      options.gen.from_period + flags.GetLong("days", 1) * kPeriodsPerDay;
  options.gen.arrival_scale = flags.GetDouble("arrival-scale", 1.0);
  options.gen.eob_scale = flags.GetDouble("eob-scale", 1.0);
  if (!ParseGuardPolicy(flags.GetString("guard", "abort"), &options.gen.guard)) {
    std::fprintf(stderr, "--guard must be off|abort|resample|fallback\n");
    return kExitUsage;
  }
  options.clients = static_cast<int>(flags.GetLong("clients", 8));
  if (options.clients < 1) {
    std::fprintf(stderr, "--clients must be >= 1\n");
    return kExitUsage;
  }
  options.seed = static_cast<uint64_t>(flags.GetLong("seed", 77));
  options.traces = static_cast<uint64_t>(flags.GetLong("traces", 4));
  options.plan_seed = static_cast<uint64_t>(flags.GetLong(
      "fault-seed", static_cast<long>(FaultInjector::kDefaultSeed)));
  options.stall_timeout_ms =
      static_cast<int>(flags.GetDouble("stall-timeout-sec", 0.4) * 1000.0);
  options.deadline_sec = flags.GetDouble("deadline-sec", 120.0);

  const std::string plan_file = flags.GetString("fault-plan", "");
  if (!plan_file.empty()) {
    std::ifstream file(plan_file, std::ios::binary);
    if (!file) {
      return Fail(kExitInput,
                  UnavailableError("cannot open --fault-plan " + plan_file));
    }
    options.plan_spec.assign(std::istreambuf_iterator<char>(file),
                             std::istreambuf_iterator<char>());
  }

  // The ENOSPC leg of the composed scenario needs serve checkpoints, which
  // need a state dir — default one under TMPDIR when not given.
  options.state_dir = flags.GetString("state-dir", "");
  if (options.state_dir.empty()) {
    const char* tmp = ::getenv("TMPDIR");
    options.state_dir = std::string(tmp != nullptr ? tmp : "/tmp") +
                        "/cloudgen-chaos-" + std::to_string(::getpid());
  }
  if (::mkdir(options.state_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return Fail(kExitInput,
                UnavailableError("cannot create --state-dir " + options.state_dir));
  }

  serve::ChaosReport report;
  const Status status = serve::RunChaosScenario(options, &report);
  if (!status.ok()) {
    return Fail(1, status);
  }
  std::fputs(report.Summary().c_str(), stdout);
  return report.ok() ? 0 : 1;
}

// Offline snapshot tooling: parses a `cloudgen.metrics.v1` file (written by
// --metrics-out, the rolling exporter, or the bench harness) and renders it
// as a human-readable table, or as Prometheus text exposition with --prom —
// no live registry or running daemon required.
int RunMetricsDump(const Flags& flags) {
  const std::string in = flags.GetString("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "--in is required\n");
    return kExitUsage;
  }
  std::ifstream file(in, std::ios::binary);
  if (!file) {
    return Fail(kExitInput, UnavailableError("cannot open --in " + in));
  }
  std::string json((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  obs::RegistrySnapshot snapshot;
  const Status parsed = ParseMetricsSnapshot(json, &snapshot);
  if (!parsed.ok()) {
    return Fail(kExitInput, parsed);
  }
  if (flags.Has("prom")) {
    obs::WritePrometheusText(snapshot, std::cout);
    return 0;
  }
  if (!snapshot.counters.empty()) {
    std::printf("counters:\n");
    for (const auto& [name, value] : snapshot.counters) {
      std::printf("  %-44s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  if (!snapshot.gauges.empty()) {
    std::printf("gauges:\n");
    for (const auto& [name, value] : snapshot.gauges) {
      std::printf("  %-44s %g\n", name.c_str(), value);
    }
  }
  if (!snapshot.histograms.empty()) {
    std::printf("histograms:\n");
    for (const auto& [name, histogram] : snapshot.histograms) {
      std::printf("  %-44s n=%llu mean=%g p50=%g p95=%g p99=%g\n", name.c_str(),
                  static_cast<unsigned long long>(histogram.count),
                  histogram.count > 0
                      ? histogram.sum / static_cast<double>(histogram.count)
                      : 0.0,
                  obs::HistogramQuantile(histogram, 0.5),
                  obs::HistogramQuantile(histogram, 0.95),
                  obs::HistogramQuantile(histogram, 0.99));
    }
  }
  if (!snapshot.series.empty()) {
    std::printf("series:\n");
    for (const auto& [name, points] : snapshot.series) {
      std::printf("  %-44s %zu point(s), last=%g\n", name.c_str(), points.size(),
                  points.empty() ? 0.0 : points.back().second);
    }
  }
  return 0;
}

int RunEval(const Flags& flags) {
  Trace trace;
  Trace train;
  int rc = LoadTrace(flags, &trace);
  if (rc == 0) {
    rc = TrainWindow(flags, trace, &train);
  }
  if (rc != 0) {
    return rc;
  }
  const std::string prefix = flags.GetString("model", "model");
  WorkloadModel model;
  const Status loaded = model.LoadNetworksFromFiles(prefix, train, ConfigFrom(flags));
  if (!loaded.ok()) {
    return Fail(kExitInput, loaded);
  }
  const int64_t eval_from = flags.GetLong("eval-from-day", 0) * kPeriodsPerDay;
  const int64_t eval_to =
      eval_from + flags.GetLong("eval-days", 1) * kPeriodsPerDay;
  const Trace test = ApplyObservationWindow(trace, eval_from, eval_to, eval_to);
  const auto flavor = model.FlavorModel().Evaluate(test);
  const auto lifetime = model.LifetimeModel().Evaluate(test);
  std::printf("flavor LSTM:   NLL %.3f, 1-best err %.1f%% over %zu steps\n",
              flavor.nll_flavor_only, flavor.one_best_err_flavor_only * 100.0,
              flavor.flavor_steps);
  std::printf("lifetime LSTM: BCE %.3f, 1-best err %.1f%% over %zu uncensored steps\n",
              lifetime.bce, lifetime.one_best_err * 100.0, lifetime.uncensored_steps);
  return 0;
}

int RunAnalyze(const Flags& flags) {
  Trace trace;
  const int rc = LoadTrace(flags, &trace);
  if (rc != 0) {
    return rc;
  }
  const TraceSummary summary = Summarize(trace);
  std::printf("=== trace characterization ===\n");
  std::printf("window: %.1f days (%lld periods), %zu jobs, %zu users\n",
              summary.window_days, static_cast<long long>(trace.WindowPeriods()),
              summary.num_jobs, summary.num_users);
  std::printf("arrivals: %.2f jobs/period, %.2f batches/period; %.1f%% censored\n",
              summary.mean_jobs_per_period, summary.mean_batches_per_period,
              summary.censored_fraction * 100.0);

  // Diurnal profile.
  std::vector<double> per_hour(24, 0.0);
  for (const Job& job : trace.Jobs()) {
    ++per_hour[static_cast<size_t>(DecomposePeriod(job.start_period).hour_of_day)];
  }
  const double max_hour = *std::max_element(per_hour.begin(), per_hour.end());
  std::printf("\narrivals by hour of day:\n");
  for (int h = 0; h < 24; ++h) {
    const auto bar = static_cast<size_t>(40.0 * per_hour[static_cast<size_t>(h)] /
                                         std::max(1.0, max_hour));
    std::printf("  %02d:00 %8.0f %s\n", h, per_hour[static_cast<size_t>(h)],
                std::string(bar, '#').c_str());
  }

  // Flavor mix (top 10 by count).
  const std::vector<double> flavor_counts = FlavorCounts(trace);
  std::vector<size_t> order(flavor_counts.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return flavor_counts[a] > flavor_counts[b];
  });
  std::printf("\ntop flavors:\n");
  for (size_t i = 0; i < std::min<size_t>(10, order.size()); ++i) {
    const Flavor& flavor = trace.Flavors()[order[i]];
    std::printf("  %-16s %8.0f (%4.1f%%)  %gc / %gg\n", flavor.name.c_str(),
                flavor_counts[order[i]],
                100.0 * flavor_counts[order[i]] / static_cast<double>(trace.NumJobs()),
                flavor.cpus, flavor.memory_gb);
  }

  // Batch sizes.
  const std::vector<double> batch_sizes = BatchSizeCounts(trace);
  double batches = 0.0;
  double jobs_in_batches = 0.0;
  for (size_t s = 1; s < batch_sizes.size(); ++s) {
    batches += batch_sizes[s];
    jobs_in_batches += batch_sizes[s] * static_cast<double>(s);
  }
  std::printf("\nbatches: %.0f total, mean size %.2f, max size %zu\n", batches,
              jobs_in_batches / std::max(1.0, batches), batch_sizes.size() - 1);

  // Lifetime percentiles (uncensored jobs).
  std::vector<double> lifetimes;
  for (const Job& job : trace.Jobs()) {
    if (!job.censored) {
      lifetimes.push_back(job.LifetimeSeconds() / 3600.0);
    }
  }
  if (!lifetimes.empty()) {
    std::printf("\nlifetime percentiles (hours, uncensored):\n ");
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
      std::printf(" p%.0f=%.2f", q * 100.0, Quantile(lifetimes, q));
    }
    std::printf("\n");
  }

  // Reuse behaviour.
  const std::vector<double> reuse = ReuseDistanceProportions(trace);
  std::printf("\nreuse distance: 0:%.1f%% 1:%.1f%% 2:%.1f%% 6+:%.1f%%\n",
              reuse[0] * 100.0, reuse[1] * 100.0, reuse[2] * 100.0, reuse[6] * 100.0);
  const std::vector<size_t> cache_sizes{1, 2, 4, 8};
  const std::vector<double> curve = PlacementCacheCurve(trace, cache_sizes);
  std::printf("placement-cache hit rate:");
  for (size_t s = 0; s < cache_sizes.size(); ++s) {
    std::printf(" size %zu: %.1f%%", cache_sizes[s], curve[s] * 100.0);
  }
  std::printf("\n");
  return 0;
}

int RunViz(const Flags& flags) {
  Trace trace;
  const int rc = LoadTrace(flags, &trace);
  if (rc != 0) {
    return rc;
  }
  VizOptions options;
  options.from_period = flags.GetLong("from-period", 0);
  options.to_period = options.from_period + flags.GetLong("periods", 24);
  const LifetimeBinning binning = MakePaperBinning();
  const std::string ppm = flags.GetString("ppm", "");
  if (!ppm.empty()) {
    const Status written = WritePpm(trace, binning, options, ppm);
    if (!written.ok()) {
      return Fail(1, written);
    }
    std::printf("wrote %s\n", ppm.c_str());
  } else {
    std::printf("%s", RenderAnsi(trace, binning, options).c_str());
  }
  return 0;
}

int Dispatch(const std::string& command, const Flags& flags) {
  if (command == "synth") {
    return RunSynth(flags);
  }
  if (command == "train") {
    return RunTrain(flags);
  }
  if (command == "generate") {
    return RunGenerate(flags);
  }
  if (command == "segcat") {
    return RunSegcat(flags);
  }
  if (command == "metrics-dump") {
    return RunMetricsDump(flags);
  }
  if (command == "serve") {
    return RunServe(flags);
  }
  if (command == "fetch") {
    return RunFetch(flags);
  }
  if (command == "chaos") {
    return RunChaos(flags);
  }
  if (command == "eval") {
    return RunEval(flags);
  }
  if (command == "analyze") {
    return RunAnalyze(flags);
  }
  if (command == "viz") {
    return RunViz(flags);
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return Usage();
}

// Exports telemetry requested via --metrics-out / --trace-out. Written even
// when the command failed — a snapshot of a failed run is exactly when the
// telemetry is most useful. Export failures never change the exit code.
void ExportTelemetry(const Flags& flags) {
  const std::string metrics_out = flags.GetString("metrics-out", "");
  if (!metrics_out.empty()) {
    // Fold in the live-sampled views before the final write: pool pressure
    // gauges, fidelity drift gauges (no-op when the monitor is off), and
    // histogram-derived percentile gauges.
    GlobalThreadPool().PublishGauges();
    obs::FidelityMonitor::Global().PublishDrift();
    obs::Registry::Global().UpdatePercentileGauges();
    const Status written = WriteFileAtomic(metrics_out, [](std::ostream& out) {
      obs::Registry::Global().WriteJson(out);
    });
    if (written.ok()) {
      std::fprintf(stderr, "wrote metrics snapshot to %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "warning: failed to write %s: %s\n", metrics_out.c_str(),
                   written.ToString().c_str());
    }
  }
  const std::string trace_out = flags.GetString("trace-out", "");
  if (!trace_out.empty()) {
    const Status written = WriteFileAtomic(trace_out, [](std::ostream& out) {
      obs::TraceCollector::Global().WriteChromeTrace(out);
    });
    if (written.ok()) {
      std::fprintf(stderr, "wrote %zu trace span(s) to %s\n",
                   obs::TraceCollector::Global().NumEvents(), trace_out.c_str());
    } else {
      std::fprintf(stderr, "warning: failed to write %s: %s\n", trace_out.c_str(),
                   written.ToString().c_str());
    }
  }
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  Flags flags;
  if (!flags.Parse(argc, argv, 2)) {
    return Usage();
  }
  const long threads = flags.GetLong("threads", 1);
  if (threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    return kExitUsage;
  }
  // 0 = all hardware threads. Every parallel code path is deterministic in
  // the thread count, so this only changes speed, never output.
  SetGlobalThreads(static_cast<size_t>(threads));
  // Declarative fault plan from the command line — the flag twin of
  // CLOUDGEN_FAULT_PLAN (grammar in src/util/fault_plan.h). The chaos
  // subcommand owns the injector itself, so the flag is its scenario input
  // there rather than a global arm.
  const std::string fault_plan_file = flags.GetString("fault-plan", "");
  if (!fault_plan_file.empty() && command != "chaos") {
    FaultPlan plan;
    Status armed = LoadFaultPlanFile(fault_plan_file, &plan);
    if (armed.ok()) {
      armed = FaultInjector::Global().ConfigurePlan(
          plan, static_cast<uint64_t>(flags.GetLong(
                    "fault-seed", static_cast<long>(FaultInjector::kDefaultSeed))));
    }
    if (!armed.ok()) {
      return Fail(kExitInput, armed.WithContext("--fault-plan"));
    }
  }
  // Span recording stays off (one relaxed load per CG_SPAN) unless asked for.
  if (!flags.GetString("trace-out", "").empty()) {
    obs::TraceCollector::Global().SetEnabled(true);
  }
  // Rolling telemetry trail: snapshot the registry every interval alongside
  // the exit-time --metrics-out write.
  const double metrics_interval = flags.GetDouble("metrics-interval-sec", 0.0);
  std::unique_ptr<RollingMetricsExporter> exporter;
  if (metrics_interval > 0.0) {
    const std::string metrics_out = flags.GetString("metrics-out", "");
    if (metrics_out.empty()) {
      std::fprintf(stderr, "--metrics-interval-sec requires --metrics-out\n");
      return kExitUsage;
    }
    RollingMetricsExporter::Options options;
    options.base_path = metrics_out;
    options.interval_sec = metrics_interval;
    exporter = std::make_unique<RollingMetricsExporter>(options);
    exporter->Start();
  }
  const int rc = Dispatch(command, flags);
  if (exporter != nullptr) {
    exporter->Stop();
  }
  ExportTelemetry(flags);
  return rc;
}

}  // namespace
}  // namespace cloudgen

int main(int argc, char** argv) { return cloudgen::Main(argc, argv); }
