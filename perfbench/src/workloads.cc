// The four workloads (README.md). Each sets up once, runs untimed warm-up
// ops, then timed ops for --seconds in equal slices with more setups after
// each (serve: setups before and after its whole timed phase); setup_s is
// the median over all setups. Every op uses the same seed,
// so every op does identical work and must produce identical output. With
// --trace 1 it then runs one traced op and the layer probes at the shapes and
// counts the ops used.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/core/flavor_model.h"
#include "src/core/lifetime_model.h"
#include "src/obs/trace_span.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/survival/binning.h"
#include "src/trace/trace_sink.h"
#include "src/util/crc32.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using cloudgen::Status;
using cloudgen::WorkloadModel;

// Every op of every run uses the same seed, so ops do identical work on a
// given fixture (the workload seed picks the fixture). These are the CLI's
// defaults for `cloudgen train` and `cloudgen generate`.
constexpr uint64_t kTrainSeed = 7;
constexpr uint64_t kGenerateSeed = 11;

// Program counters the workloads read deltas of.
constexpr const char* kCounters[] = {
    "gen.batch.rows",     "gen.batch.ticks",          "gen.tokens",
    "gen.jobs",           "io.fsync.file",            "io.fsync.dir",
    "retry.attempts",     "gen.checkpoint.writes",    "serve.backpressure.stalls",
    "train.flavor.minibatches", "train.lifetime.minibatches",
};

class CounterDelta {
 public:
  CounterDelta() {
    for (const char* name : kCounters) {
      start_[name] = CounterValue(name);
    }
  }
  double operator()(const char* name) const {
    return static_cast<double>(CounterValue(name) - start_.at(name));
  }

 private:
  std::map<std::string, uint64_t> start_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Searches for the period count whose work (jobs or bytes) is about
// `target`. The first step scales proportionally; later steps interpolate
// through the last two measurements, since work is not linear in periods
// (hour-of-day and weekday rates).
class PeriodSizer {
 public:
  PeriodSizer(int64_t nominal, double target)
      : periods_(nominal), max_periods_(8 * nominal), target_(target) {}
  int64_t periods() const { return periods_; }
  void Measured(double work) {
    const double p = static_cast<double>(periods_);
    double next = p * target_ / std::max(1.0, work);
    if (prev_periods_ > 0 && work != prev_work_) {
      next = p + (target_ - work) * (p - static_cast<double>(prev_periods_)) /
                     (work - prev_work_);
    }
    prev_periods_ = periods_;
    prev_work_ = work;
    periods_ = std::clamp<int64_t>(std::llround(next), 1, max_periods_);
  }

 private:
  int64_t periods_;
  int64_t max_periods_;
  double target_;
  int64_t prev_periods_ = 0;
  double prev_work_ = 0.0;
};

// One timed op of train/generate/stream: raw wall times, the share of CPU
// time stolen during the op, and the lane that ran it.
struct OpSample {
  double wall = 0.0;
  double ttfb = 0.0;
  double jobs = 0.0;
  double steal = 0.0;
  size_t lane = 0;
};

// p90 of each lane's values, median over lanes: with several lanes, a core
// the host slows for the whole run would otherwise set the pooled tail.
double LaneP90(const std::vector<OpSample>& ops, const std::vector<double>& values) {
  std::map<size_t, std::vector<double>> by_lane;
  for (size_t i = 0; i < ops.size(); ++i) {
    by_lane[ops[i].lane].push_back(values[i]);
  }
  std::vector<double> p90;
  for (const auto& [lane, lane_values] : by_lane) {
    p90.push_back(Quantile(lane_values, 0.9));
  }
  return Median(p90);
}

void PutSetup(const std::vector<double>& setup_s, Result* r) {
  Put(&r->end_to_end, "setup_s", Median(setup_s));
  std::string line = "setups, s (in run order):";
  for (const double s : setup_s) {
    line += " " + std::to_string(s);
  }
  r->notes.push_back(line);
}

void PutOpMetrics(const std::vector<double>& setup_s, const std::vector<OpSample>& ops,
                  Result* r) {
  std::vector<double> rate, ttfb, ttlb;
  for (const OpSample& op : ops) {
    rate.push_back(op.jobs / Net(op.wall, op.steal));
    ttfb.push_back(1e3 * Net(op.ttfb, op.steal));
    ttlb.push_back(1e3 * Net(op.wall, op.steal));
  }
  PutSetup(setup_s, r);
  Put(&r->end_to_end, "jobs_per_s", Median(rate));
  Put(&r->end_to_end, "ttfb_ms_p50", Quantile(ttfb, 0.5));
  Put(&r->end_to_end, "ttfb_ms_p90", LaneP90(ops, ttfb));
  Put(&r->end_to_end, "ttlb_ms_p50", Quantile(ttlb, 0.5));
  Put(&r->end_to_end, "ttlb_ms_p90", LaneP90(ops, ttlb));
  std::string walls = "timed ops: " + std::to_string(ops.size()) + ", wall ms (steal %):";
  for (const OpSample& op : ops) {
    walls += " " + std::to_string(static_cast<int>(1e3 * op.wall)) + " (" +
             std::to_string(static_cast<int>(100 * op.steal)) + ")";
  }
  r->notes.push_back(walls);
}

// Runs fn(lane) for lanes 0..lanes-1 at once, lane 0 on the calling thread.
template <typename Fn>
void OnLanes(size_t lanes, Fn&& fn) {
  std::vector<std::thread> threads;
  for (size_t k = 1; k < lanes; ++k) {
    threads.emplace_back(fn, k);
  }
  fn(0);
  for (std::thread& t : threads) {
    t.join();
  }
}

// Runs ops on `lanes` threads at once. Each lane first runs `warmups`
// untimed ops (id 0). The timed phase then lasts `seconds`, cut into
// sz.timed_slices equal slices: in each, every lane starts ops until the
// slice ends (in the first, at least one), and after it, with every lane
// idle, `setup()` runs alone sz.setups_per_slice times. `op(id, lane,
// sample)` returns false on a failed op; failures are counted and never
// timed. Timed ops get ids from 1 up, in start order.
template <typename Op, typename Setup>
std::vector<OpSample> TimedLoop(double seconds, size_t lanes, int warmups, const Sizes& sz,
                                Result* r, Op&& op, Setup&& setup) {
  std::mutex mu;
  std::vector<OpSample> samples;
  const auto count = [&](bool ok, const OpSample* sample) {
    std::lock_guard<std::mutex> lock(mu);
    r->attempted += 1;
    if (!ok) {
      r->failed += 1;
    } else if (sample != nullptr) {
      samples.push_back(*sample);
    }
  };
  OnLanes(lanes, [&](size_t k) {
    OpSample sample;
    for (int w = 0; w < warmups; ++w) {
      if (!op(0, k, &sample)) {
        count(false, nullptr);
      }
    }
  });
  std::atomic<uint64_t> next_id{1};
  const double start = NowSec();
  const int slices = std::max(1, sz.timed_slices);
  for (int slice = 1; slice <= slices; ++slice) {
    const double end = start + seconds * slice / slices;
    OnLanes(lanes, [&](size_t k) {
      for (bool first = slice == 1; first || NowSec() < end; first = false) {
        OpSample sample;
        const CpuTicks before = ReadCpuTicks();
        const bool ok = op(next_id.fetch_add(1), k, &sample);
        sample.steal = StealShare(before, ReadCpuTicks());
        sample.lane = k;
        count(ok, &sample);
      }
    });
    for (int k = 0; k < sz.setups_per_slice; ++k) {
      setup();
    }
  }
  return samples;
}

void StartTracing() {
  SpanLog::Get().Enable();
  cloudgen::obs::TraceCollector::Global().SetEnabled(true);
}

// Writes the traced run's spans as Chrome trace JSON and adds the self-time
// table to the notes.
void FinishTracing(const Args& args, Result* r) {
  cloudgen::obs::TraceCollector::Global().SetEnabled(false);
  const std::string dir = args.work_dir + "/traces";
  fs::create_directories(dir);
  const std::string path =
      dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".json";
  r->notes.push_back(SpanLog::Get().WriteChromeTrace(path) ? "chrome trace: " + path
                                                           : "chrome trace: write failed");
  for (const std::string& line : SpanLog::Get().SelfTimeTable()) {
    r->notes.push_back(line);
  }
}

// Loads the fixture model `count` times (read CSV, window, load networks,
// refit the arrival GLM); returns the last one.
std::unique_ptr<WorkloadModel> SetupModel(const Fixture& fx, int count,
                                          std::vector<double>* setup_s) {
  std::unique_ptr<WorkloadModel> model;
  for (int k = 0; k < count; ++k) {
    Status loaded;
    setup_s->push_back(NetSeconds([&] {
      cloudgen::Trace train;
      LoadTrainWindow(fx, &train);
      model = std::make_unique<WorkloadModel>();
      loaded = model->LoadNetworksFromFiles(fx.model_prefix, train,
                                            ModelConfig(fx.sizes, fx.sizes.model_epochs));
    }));
    if (!loaded.ok()) {
      std::fprintf(stderr, "perfbench: setup: %s\n", loaded.ToString().c_str());
      std::exit(1);
    }
  }
  return model;
}

void PutStepProbe(const StepProbe& step, Result* r) {
  Put(&r->layers, "nn.step_us_per_row", step.step_us_per_row);
  Put(&r->layers, "tensor.gemm_us_per_row", step.gemm_us_per_row);
  Put(&r->layers, "tensor.gemm_gflops", step.gemm_gflops);
  Put(&r->layers, "nn.activation_us_per_row", step.activation_us_per_row);
  Put(&r->layers, "nn.step_unattributed_us_per_row",
      step.step_us_per_row - step.gemm_us_per_row - step.activation_us_per_row);
}

// ---------------------------------------------------------------------------
// generate / stream: one op = one sink-based generation into fresh sealed
// segments, then an untimed output check.

struct SinkOp {
  Status status;
  double wall = 0.0;
  double ttfb = 0.0;
  double cpu = 0.0;
  double append = 0.0;
  double commit = 0.0;
  uint64_t jobs = 0;
  uint64_t bytes = 0;
  size_t segments = 0;
  std::string digest;
};

void CorruptFirstSegment(const std::string& dir) {
  const std::string path = dir + "/" + cloudgen::SegmentedFileSink::SegmentFileName(0);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(-1, std::ios::end);
  const char last = static_cast<char>(f.get());
  f.seekp(-1, std::ios::end);
  f.put(static_cast<char>(last ^ 0x5a));
}

SinkOp RunSinkOp(const WorkloadModel& model, const WorkloadModel::GenerateOptions& options,
                 bool streaming, size_t traces, uint64_t seed, const std::string& dir,
                 uint64_t segment_bytes, bool detailed, uint64_t id, bool corrupt) {
  fs::remove_all(dir);
  cloudgen::SegmentedFileSink::Options sink_options;
  sink_options.dir = dir;
  sink_options.segment_bytes = segment_bytes;
  cloudgen::SegmentedFileSink sink(sink_options);
  TimedSink timed(&sink, detailed, id);
  WorkloadModel::GenerateRun run;
  run.sink = &timed;
  run.checkpoint_path = dir + "/gen.ckpt";  // As `cloudgen generate --out-dir`.
  run.config_fingerprint = seed;
  WorkloadModel::GenerateReport report;
  SinkOp op;
  const double cpu0 = ProcessCpuSec();
  const double t0 = NowSec();
  {
    ScopedBenchSpan span(streaming ? "core.generate_streaming" : "core.generate_many", id);
    timed.parent_span = span.index();
    op.status = sink.Init();
    if (op.status.ok()) {
      cloudgen::Rng rng(seed);
      op.status = streaming ? model.GenerateStreaming(options, rng, run, &report)
                            : model.GenerateMany(options, traces, rng, run, &report);
    }
  }
  op.wall = NowSec() - t0;
  op.cpu = ProcessCpuSec() - cpu0;
  op.ttfb = timed.first_seal_sec - t0;
  op.append = timed.append_sec;
  op.commit = timed.commit_sec;
  op.jobs = report.jobs;
  if (op.status.ok() && report.interrupted) {
    op.status = cloudgen::InternalError("generation stopped early");
  }
  // Output check: every manifest-listed segment CRC-verified, run complete,
  // one row per reported job.
  std::string payload;
  if (op.status.ok()) {
    if (corrupt) {
      CorruptFirstSegment(dir);
    }
    op.status = cloudgen::ConcatSegments(dir, /*require_complete=*/true, &payload);
  }
  if (op.status.ok() &&
      static_cast<uint64_t>(std::count(payload.begin(), payload.end(), '\n')) != op.jobs) {
    op.status = cloudgen::DataLossError("sealed rows differ from the reported job count");
  }
  cloudgen::SegmentManifest manifest;
  if (op.status.ok() && cloudgen::LoadSegmentManifest(dir, &manifest).ok()) {
    op.segments = manifest.segments.size();
  }
  op.bytes = payload.size();
  op.digest = "crc32:" + Hex32(cloudgen::Crc32(payload)) + " jobs=" + std::to_string(op.jobs);
  fs::remove_all(dir);
  return op;
}

Result RunSinkWorkload(const Args& args, const Fixture& fx, bool streaming) {
  const Sizes& sz = fx.sizes;
  cloudgen::SetGlobalThreads(streaming ? 1 : 4);
  Result r;
  std::vector<double> setup_s;
  const std::unique_ptr<WorkloadModel> model = SetupModel(fx, 1, &setup_s);

  WorkloadModel::GenerateOptions options;
  PeriodSizer sizer(streaming ? sz.stream_periods : sz.gen_periods,
                    streaming ? sz.stream_target_jobs : sz.gen_target_jobs);
  options.from_period = GenFromPeriod(sz);
  options.to_period = options.from_period + sizer.periods();
  const size_t traces = streaming ? 1 : sz.gen_traces;
  const size_t lanes = streaming ? sz.stream_lanes : 1;
  const uint64_t segment_bytes = streaming ? sz.stream_segment_bytes : sz.gen_segment_bytes;
  const uint64_t seed = kGenerateSeed;
  const std::string dir = fx.work_dir + "/segments";

  // Two untimed ops, from the nominal range, each resize the range toward
  // the job target; the timed ops use the result. They are also generate's
  // warm-up; each stream lane warms up with one more op of its own.
  for (int pass = 0; pass < 2; ++pass) {
    const SinkOp sized = RunSinkOp(*model, options, streaming, traces, seed, dir, segment_bytes,
                                   false, 0, false);
    if (!sized.status.ok()) {
      r.attempted += 1;
      r.failed += 1;
      r.notes.push_back("sizing op failed: " + sized.status.ToString());
      break;
    }
    sizer.Measured(static_cast<double>(sized.jobs));
    options.to_period = options.from_period + sizer.periods();
  }

  std::mutex mu;  // Guards `reference` and `r.notes` across lanes.
  std::string reference;
  const auto op = [&](uint64_t id, size_t lane, OpSample* sample) {
    const SinkOp result =
        RunSinkOp(*model, options, streaming, traces, seed, dir + "-" + std::to_string(lane),
                  segment_bytes, false, id, args.corrupt_segment && id == 1);
    std::lock_guard<std::mutex> lock(mu);
    if (!result.status.ok()) {
      r.notes.push_back("op " + std::to_string(id) + " failed: " + result.status.ToString());
      return false;
    }
    if (reference.empty()) {
      reference = result.digest;
    } else if (result.digest != reference) {
      r.notes.push_back("op " + std::to_string(id) + " digest " + result.digest +
                        " != " + reference);
      return false;
    }
    *sample = {result.wall, result.ttfb, static_cast<double>(result.jobs)};
    return true;
  };
  const std::vector<OpSample> samples =
      TimedLoop(args.seconds, lanes, streaming ? 1 : 0, sz, &r, op,
                [&] { (void)SetupModel(fx, 1, &setup_s); });
  r.digest = reference;
  r.notes.push_back("op: " + std::to_string(traces) + " trace(s) x " +
                    std::to_string(options.to_period - options.from_period) + " periods, " +
                    std::to_string(lanes) + " lane(s)");
  PutOpMetrics(setup_s, samples, &r);
  if (!args.trace || samples.empty()) {
    return r;
  }

  // The traced op runs alone. When the timed ops ran several lanes at once,
  // it is compared with an untraced op run alone just before it.
  double untraced_s = 1e-3 * r.end_to_end.at("ttlb_ms_p50").value;
  if (lanes > 1) {
    const CpuTicks solo_ticks = ReadCpuTicks();
    const SinkOp solo =
        RunSinkOp(*model, options, streaming, traces, seed, dir, segment_bytes, false, 0, false);
    untraced_s = Net(solo.wall, StealShare(solo_ticks, ReadCpuTicks()));
    r.attempted += 1;
    if (!solo.status.ok() || solo.digest != reference) {
      r.failed += 1;
      r.notes.push_back("solo op failed: " + solo.status.ToString());
    }
  }

  StartTracing();
  const CounterDelta delta;
  const CpuTicks traced_ticks = ReadCpuTicks();
  SinkOp traced;
  {
    ScopedBenchSpan span("op", 1u << 20);
    traced = RunSinkOp(*model, options, streaming, traces, seed, dir, segment_bytes, true,
                       1u << 20, false);
  }
  const double traced_steal = StealShare(traced_ticks, ReadCpuTicks());
  if (!traced.status.ok() || traced.digest != reference) {
    r.failed += 1;
    r.notes.push_back("traced op failed: " + traced.status.ToString());
  }
  r.attempted += 1;
  const double tokens = delta("gen.tokens");
  const double jobs = static_cast<double>(traced.jobs);
  const double ticks = delta("gen.batch.ticks");
  const double rows_per_tick = streaming ? 1.0 : Ratio(delta("gen.batch.rows"), ticks);
  const double periods =
      static_cast<double>(traces) * static_cast<double>(options.to_period - options.from_period);
  FinishTracing(args, &r);

  // gen.tokens counts LSTM steps: flavor tokens (EOB included) plus one
  // lifetime step per job.
  const StepProbe step = ProbeStep(*model, static_cast<size_t>(rows_per_tick + 0.5),
                                   Ratio(tokens - jobs, tokens), sz.probe_reps);
  const SamplingProbe sampling =
      ProbeSampling(*model, options.from_period, options.to_period - options.from_period, seed);
  // CPU the engine spent outside the sink, less what the probes account for:
  // every LSTM step, a duration per job, an arrival draw per period and a
  // categorical draw per flavor token.
  const double engine_cpu = traced.cpu - traced.append - traced.commit;
  const double attributed = 1e-6 * (tokens * step.step_us_per_row +
                                    jobs * sampling.duration_us +
                                    periods * sampling.arrival_draw_us +
                                    (tokens - jobs) * sampling.categorical_us);
  Put(&r.layers, "core.engine_s", traced.wall - traced.append - traced.commit);
  Put(&r.layers, "core.rows_per_tick", rows_per_tick);
  Put(&r.layers, "core.tokens_per_job", Ratio(tokens, jobs));
  PutStepProbe(step, &r);
  Put(&r.layers, "tensor.peak_gflops", PeakGflops());
  Put(&r.layers, "survival.duration_us", sampling.duration_us);
  Put(&r.layers, "glm.arrival_draw_us", sampling.arrival_draw_us);
  Put(&r.layers, "util.categorical_us", sampling.categorical_us);
  Put(&r.layers, "core.unattributed_s", engine_cpu - attributed);
  Put(&r.layers, "trace.append_s", traced.append);
  Put(&r.layers, "trace.commit_s", traced.commit);
  Put(&r.layers, "trace.seals", static_cast<double>(traced.segments));
  Put(&r.layers, "trace.payload_mb", static_cast<double>(traced.bytes) / 1e6);
  Put(&r.layers, "util.fsyncs", delta("io.fsync.file") + delta("io.fsync.dir"));
  Put(&r.layers, "util.retries", delta("retry.attempts"));
  Put(&r.layers, "core.checkpoint_writes", delta("gen.checkpoint.writes"));
  Put(&r.layers, "obs.trace_overhead", Net(traced.wall, traced_steal) / untraced_s);
  r.notes.push_back("engine cpu " + std::to_string(engine_cpu) + " s over " +
                    std::to_string(traced.wall) + " s wall");
  return r;
}

// ---------------------------------------------------------------------------
// serve: in-process StreamServer plus closed-loop FetchStream clients.

// One stream: times net of steal, from the FetchStream call.
struct StreamSample {
  bool ok = false;
  double ttfb = 0.0;
  double ttlb = 0.0;
  double end = 0.0;
  uint64_t rows = 0;
  int reconnects = 0;
};

struct Captured {
  uint64_t id = 0;
  uint64_t seed = 0;
  std::string bytes;
};

// Stream ids of the warm-up and traced phases (the timed phase starts at 0).
constexpr uint64_t kWarmupIds = 1000000;
constexpr uint64_t kTracedIds = 2000000;

// Distinct seed per stream, derived from the workload seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 1000003ull + 7919 * (stream + 1);
}

struct Phase {
  std::vector<StreamSample> streams;
  // Streams 0 to serve_clients - 1 of the timed phase (each client's first
  // claim), in id order, when they succeeded.
  std::vector<Captured> captured;
  double wall = 0.0;
  double steal = 0.0;
};

// Each client fetches stream after stream until NowSec() reaches `end` and
// at least `min_streams` streams have started. Stream ids start at
// `first_id`.
Phase RunPhase(uint16_t port, const Fixture& fx, uint64_t first_id, double end,
               size_t min_streams) {
  const Sizes& sz = fx.sizes;
  Phase phase;
  std::mutex mu;
  std::atomic<uint64_t> next{0};
  const CpuTicks ticks = ReadCpuTicks();
  const double start = NowSec();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < sz.serve_clients; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        const uint64_t k = next.fetch_add(1);
        if (k >= min_streams && NowSec() >= end) {
          return;
        }
        const uint64_t id = first_id + k;
        cloudgen::serve::FetchOptions options;
        options.port = port;
        options.tenant = "client";
        options.tenant += std::to_string(c);
        options.stream = "s";
        options.stream += std::to_string(id);
        options.seed = StreamSeed(fx.seed, id);
        options.traces = sz.serve_traces;
        StampBuf buf(/*capture=*/id < sz.serve_clients);
        std::ostream out(&buf);
        cloudgen::serve::FetchResult result;
        const CpuTicks stream_ticks = ReadCpuTicks();
        const double t0 = NowSec();
        const Status status = cloudgen::serve::FetchStream(options, out, &result);
        const double t1 = NowSec();
        const double steal = StealShare(stream_ticks, ReadCpuTicks());
        StreamSample s;
        s.ok = status.ok() && buf.bytes == result.total_bytes && result.rows > 0;
        s.ttfb = Net(buf.first_sec - t0, steal);
        s.ttlb = Net(buf.last_sec - t0, steal);
        s.end = Net(t1 - t0, steal);
        s.rows = result.rows;
        s.reconnects = result.reconnects;
        SpanLog& log = SpanLog::Get();
        if (log.Enabled() && buf.bytes > 0) {
          const int64_t fetch = log.Add("serve.fetch", id, -1, t0, t1);
          log.Add("serve.to_first_byte", id, fetch, t0, buf.first_sec);
          log.Add("serve.body", id, fetch, buf.first_sec, buf.last_sec);
          log.Add("serve.end_wait", id, fetch, buf.last_sec, t1);
        }
        std::lock_guard<std::mutex> lock(mu);
        if (!status.ok()) {
          std::fprintf(stderr, "perfbench: stream %llu: %s\n",
                       static_cast<unsigned long long>(id), status.ToString().c_str());
        }
        phase.streams.push_back(s);
        if (id < sz.serve_clients && s.ok) {
          phase.captured.push_back({id, options.seed, std::move(buf.captured)});
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  phase.wall = NowSec() - start;
  phase.steal = StealShare(ticks, ReadCpuTicks());
  std::sort(phase.captured.begin(), phase.captured.end(),
            [](const Captured& a, const Captured& b) { return a.id < b.id; });
  return phase;
}

}  // namespace

Result RunTrain(const Args& args, const Fixture& fx) {
  const Sizes& sz = fx.sizes;
  cloudgen::SetGlobalThreads(4);
  Result r;
  std::vector<double> setup_s;
  std::vector<double> fit_s;
  cloudgen::Trace train;
  cloudgen::BatchArrivalModel arrivals;
  const auto setup = [&](cloudgen::Trace* window, cloudgen::BatchArrivalModel* fitted) {
    const double read_s = NetSeconds([&] { LoadTrainWindow(fx, window); });
    fit_s.push_back(NetSeconds([&] {
      *fitted = cloudgen::BatchArrivalModel();
      fitted->Fit(*window, cloudgen::ArrivalGranularity::kBatches,
                  cloudgen::ArrivalModelConfig());
    }));
    setup_s.push_back(read_s + fit_s.back());
  };
  setup(&train, &arrivals);
  const int history_days = arrivals.HistoryDays();
  const cloudgen::WorkloadModelConfig config = ModelConfig(sz, 1);
  const cloudgen::LifetimeBinning binning = cloudgen::MakePaperBinning();

  // Ops train on a fixed amount of data: the prefix of the window that holds
  // `train_target_jobs` jobs, so the op's work does not depend on how busy
  // the seed's trace is.
  std::vector<int64_t> starts;
  for (const cloudgen::Job& job : train.Jobs()) {
    starts.push_back(job.start_period);
  }
  const size_t nth = std::clamp<size_t>(static_cast<size_t>(sz.train_target_jobs), 1,
                                        starts.size()) - 1;
  std::nth_element(starts.begin(), starts.begin() + static_cast<ptrdiff_t>(nth), starts.end());
  const int64_t end = starts[nth] + 1;
  const cloudgen::Trace data = cloudgen::ApplyObservationWindow(train, 0, end, end);
  r.notes.push_back("op: " + std::to_string(data.NumJobs()) + " jobs, periods [0, " +
                    std::to_string(end) + ")");

  // One op: one epoch of each LSTM from the same seed. The digest is a CRC
  // over both networks' trained parameters, identical for every op.
  std::string reference;
  cloudgen::SequenceNetworkConfig flavor_net;
  cloudgen::SequenceNetworkConfig lifetime_net;
  const auto op = [&](uint64_t id, size_t /*lane*/, OpSample* sample) {
    ScopedBenchSpan span("op", id);
    cloudgen::Rng rng(kTrainSeed);
    cloudgen::FlavorLstmModel flavor;
    cloudgen::LifetimeLstmModel lifetime;
    const double t0 = NowSec();
    Status status;
    {
      ScopedBenchSpan s("core.flavor_train", id);
      status = flavor.Train(data, history_days, config.flavor, rng);
    }
    const double t1 = NowSec();
    if (status.ok()) {
      ScopedBenchSpan s("core.lifetime_train", id);
      status = lifetime.Train(data, binning, history_days, config.lifetime, rng);
    }
    const double t2 = NowSec();
    if (!status.ok()) {
      r.notes.push_back("op " + std::to_string(id) + " failed: " + status.ToString());
      return false;
    }
    uint32_t crc = cloudgen::kCrc32Init;
    for (const cloudgen::SequenceNetwork* net :
         {&flavor.Network(), &lifetime.Network()}) {
      for (const cloudgen::Matrix* m : net->Params()) {
        crc = cloudgen::Crc32Update(crc, m->Data(), m->Size() * sizeof(float));
      }
    }
    const std::string digest = "crc32:" + Hex32(cloudgen::Crc32Finalize(crc));
    if (reference.empty()) {
      reference = digest;
    } else if (digest != reference) {
      r.notes.push_back("op " + std::to_string(id) + " digest " + digest + " != " + reference);
      return false;
    }
    flavor_net = flavor.Network().Config();
    lifetime_net = lifetime.Network().Config();
    *sample = {t2 - t0, t1 - t0, static_cast<double>(data.NumJobs())};
    return true;
  };
  const std::vector<OpSample> samples = TimedLoop(args.seconds, 1, 1, sz, &r, op, [&] {
    cloudgen::Trace window;
    cloudgen::BatchArrivalModel fitted;
    setup(&window, &fitted);
  });
  r.digest = reference;
  PutOpMetrics(setup_s, samples, &r);
  if (!args.trace || samples.empty()) {
    return r;
  }

  // The flavor epoch is the op's time to first output; the lifetime epoch
  // is the rest.
  std::vector<double> flavor_s;
  std::vector<double> lifetime_s;
  for (const OpSample& s : samples) {
    flavor_s.push_back(Net(s.ttfb, s.steal));
    lifetime_s.push_back(Net(s.wall - s.ttfb, s.steal));
  }
  StartTracing();
  const CounterDelta delta;
  OpSample traced;
  r.attempted += 1;
  const CpuTicks traced_ticks = ReadCpuTicks();
  if (!op(1u << 20, 0, &traced)) {
    r.failed += 1;
  }
  traced.steal = StealShare(traced_ticks, ReadCpuTicks());
  FinishTracing(args, &r);
  const double flavor_mb = delta("train.flavor.minibatches");
  const double lifetime_mb = delta("train.lifetime.minibatches");
  const TrainStepProbe fp = ProbeTrainStep(flavor_net, config.flavor.seq_len,
                                           config.flavor.batch_size, fx.seed, 10);
  const TrainStepProbe lp = ProbeTrainStep(lifetime_net, config.lifetime.seq_len,
                                           config.lifetime.batch_size, fx.seed, 10);
  const double minibatches = flavor_mb + lifetime_mb;
  const double epoch_s = 1e-3 * r.end_to_end.at("ttlb_ms_p50").value;
  Put(&r.layers, "glm.fit_s", Median(fit_s));
  Put(&r.layers, "core.flavor_epoch_s", Median(flavor_s));
  Put(&r.layers, "core.lifetime_epoch_s", Median(lifetime_s));
  Put(&r.layers, "nn.bptt_ms",
      Ratio(flavor_mb * fp.bptt_ms + lifetime_mb * lp.bptt_ms, minibatches));
  Put(&r.layers, "nn.adam_ms",
      Ratio(flavor_mb * fp.adam_ms + lifetime_mb * lp.adam_ms, minibatches));
  Put(&r.layers, "core.minibatches", minibatches);
  Put(&r.layers, "core.train_unattributed_s",
      epoch_s - 1e-3 * (flavor_mb * (fp.bptt_ms + fp.adam_ms) +
                        lifetime_mb * (lp.bptt_ms + lp.adam_ms)));
  Put(&r.layers, "tensor.peak_gflops", PeakGflops());
  Put(&r.layers, "obs.trace_overhead", Net(traced.wall, traced.steal) / epoch_s);
  return r;
}

Result RunGenerate(const Args& args, const Fixture& fx) {
  return RunSinkWorkload(args, fx, /*streaming=*/false);
}

Result RunStream(const Args& args, const Fixture& fx) {
  return RunSinkWorkload(args, fx, /*streaming=*/true);
}

Result RunServe(const Args& args, const Fixture& fx) {
  const Sizes& sz = fx.sizes;
  cloudgen::SetGlobalThreads(4);
  Result r;
  cloudgen::serve::ServerOptions options;  // Defaults, as `cloudgen serve`.
  PeriodSizer sizer(sz.serve_periods, sz.serve_target_bytes);
  options.gen.from_period = GenFromPeriod(sz);
  options.gen.to_period = options.gen.from_period + sizer.periods();

  // Size streams by work (untimed): measure the warm-up streams, from the
  // nominal range, and resize the range toward the byte target, twice.
  {
    std::vector<double> ignored;
    const std::unique_ptr<WorkloadModel> model = SetupModel(fx, 1, &ignored);
    for (int pass = 0; pass < 2; ++pass) {
      double bytes = 0.0;
      for (uint64_t k = 0; k < sz.serve_clients; ++k) {
        const uint64_t base = WorkloadModel::TraceFamilyBase(StreamSeed(fx.seed, kWarmupIds + k));
        std::string out;
        model->GenerateTraceRowsRange(options.gen, base, 0, sz.serve_traces, &out);
        bytes += static_cast<double>(out.size());
      }
      sizer.Measured(bytes / static_cast<double>(sz.serve_clients));
      options.gen.to_period = options.gen.from_period + sizer.periods();
    }
  }

  // Setup: load the model and start a server. The first setup's server
  // serves every stream of the run; every other setup starts a spare server
  // and drains it, untimed, with no client active. Serve's timed phase runs
  // whole: pausing the clients for setups would add a synchronized start and
  // a drain tail per slice to the latency percentiles.
  std::vector<double> setup_s;
  std::unique_ptr<WorkloadModel> model;
  std::unique_ptr<cloudgen::serve::StreamServer> server;
  const auto setup = [&](bool keep) {
    std::vector<double> load_s;
    std::unique_ptr<WorkloadModel> loaded = SetupModel(fx, 1, &load_s);
    std::unique_ptr<cloudgen::serve::StreamServer> started_server;
    Status started;
    const double start_s = NetSeconds([&] {
      started_server = std::make_unique<cloudgen::serve::StreamServer>(loaded.get(), options);
      started = started_server->Start();
    });
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: server start: %s\n", started.ToString().c_str());
      std::exit(1);
    }
    setup_s.push_back(load_s[0] + start_s);
    if (keep) {
      model = std::move(loaded);
      server = std::move(started_server);
    } else {
      started_server->RequestDrain();
      (void)started_server->Wait();
    }
  };
  const int setups = 1 + std::max(1, sz.timed_slices) * sz.setups_per_slice;
  setup(/*keep=*/true);
  for (int k = 1; k < (setups + 1) / 2; ++k) {
    setup(/*keep=*/false);
  }
  const uint16_t port = server->Port();

  // Warm-up round (one stream per client), then the timed phase.
  (void)RunPhase(port, fx, kWarmupIds, 0.0, sz.serve_clients);
  const CounterDelta delta;
  const Phase phase = RunPhase(port, fx, 0, NowSec() + args.seconds, sz.min_streams);
  for (int k = (setups + 1) / 2; k < setups; ++k) {
    setup(/*keep=*/false);
  }
  const double jobs_generated = delta("gen.jobs");
  const double stalls = delta("serve.backpressure.stalls");
  const double tokens = delta("gen.tokens");
  const double rows_per_tick = Ratio(delta("gen.batch.rows"), delta("gen.batch.ticks"));

  std::vector<double> ttfb, ttlb, end_wait;
  double rows = 0.0;
  double reconnects = 0.0;
  for (const StreamSample& s : phase.streams) {
    r.attempted += 1;
    if (!s.ok) {
      r.failed += 1;
      continue;
    }
    ttfb.push_back(1e3 * s.ttfb);
    ttlb.push_back(1e3 * s.ttlb);
    end_wait.push_back(1e3 * (s.end - s.ttlb));
    rows += static_cast<double>(s.rows);
    reconnects += s.reconnects;
  }
  // Byte-for-byte check of the first stream each client claimed against a
  // local regeneration of the same trace family.
  uint32_t crc = cloudgen::kCrc32Init;
  for (const Captured& c : phase.captured) {
    std::string expected;
    model->GenerateTraceRowsRange(options.gen, WorkloadModel::TraceFamilyBase(c.seed), 0,
                                  sz.serve_traces, &expected);
    crc = cloudgen::Crc32Update(crc, expected.data(), expected.size());
    if (expected != c.bytes) {
      r.failed += 1;
      r.notes.push_back("stream with seed " + std::to_string(c.seed) +
                        " differs from local regeneration");
    }
  }
  r.digest = "crc32:" + Hex32(cloudgen::Crc32Finalize(crc)) + " (streams 0-" +
             std::to_string(sz.serve_clients - 1) + ")";
  const double streams = static_cast<double>(phase.streams.size());
  Put(&r.end_to_end, "jobs_per_s", rows / Net(phase.wall, phase.steal));
  Put(&r.end_to_end, "ttfb_ms_p50", Quantile(ttfb, 0.5));
  Put(&r.end_to_end, "ttfb_ms_p90", Quantile(ttfb, 0.9));
  Put(&r.end_to_end, "ttlb_ms_p50", Quantile(ttlb, 0.5));
  Put(&r.end_to_end, "ttlb_ms_p90", Quantile(ttlb, 0.9));
  r.notes.push_back("stream: " + std::to_string(sz.serve_traces) + " traces x " +
                    std::to_string(options.gen.to_period - options.gen.from_period) +
                    " periods");
  r.notes.push_back("streams: " + std::to_string(phase.streams.size()) + " in " +
                    std::to_string(phase.wall) + " s (steal " +
                    std::to_string(static_cast<int>(100 * phase.steal)) + "%), reconnects " +
                    std::to_string(static_cast<int>(reconnects)));

  if (args.trace) {
    StartTracing();
    const Phase traced = RunPhase(port, fx, kTracedIds, 0.0, 2 * sz.serve_clients);
    FinishTracing(args, &r);
    std::vector<double> traced_ttlb;
    for (const StreamSample& s : traced.streams) {
      r.attempted += 1;
      if (!s.ok) {
        r.failed += 1;
        continue;
      }
      traced_ttlb.push_back(1e3 * s.ttlb);
    }
    // Regeneration of one chunk of the stream shape, alone on the pool.
    std::vector<double> regen_ms;
    for (int rep = 0; rep < 3; ++rep) {
      std::string out;
      regen_ms.push_back(1e3 * NetSeconds([&] {
        model->GenerateTraceRowsRange(
            options.gen, WorkloadModel::TraceFamilyBase(fx.seed), 0,
            std::min<uint64_t>(options.gen_chunk_traces, sz.serve_traces), &out);
      }));
    }
    const double jobs = jobs_generated;
    PutStepProbe(ProbeStep(*model, static_cast<size_t>(rows_per_tick + 0.5),
                           Ratio(tokens - jobs, tokens), sz.probe_reps),
                 &r);
    Put(&r.layers, "core.rows_per_tick", rows_per_tick);
    Put(&r.layers, "core.tokens_per_job", Ratio(tokens, jobs));
    Put(&r.layers, "tensor.peak_gflops", PeakGflops());
    Put(&r.layers, "core.regen_ms", Median(regen_ms));
    Put(&r.layers, "serve.ttfb_overhead_ms", Quantile(ttfb, 0.5) - Median(regen_ms));
    Put(&r.layers, "serve.reconnects_per_stream", Ratio(reconnects, streams));
    Put(&r.layers, "serve.end_wait_ms_mean", Mean(end_wait));
    Put(&r.layers, "core.regen_jobs_per_row", Ratio(jobs_generated, rows));
    Put(&r.layers, "serve.stalls_per_stream", Ratio(stalls, streams));
    Put(&r.layers, "obs.trace_overhead", Ratio(Median(traced_ttlb), Quantile(ttlb, 0.5)));
  }
  server->RequestDrain();
  (void)server->Wait();
  PutSetup(setup_s, &r);
  return r;
}

}  // namespace perfbench
