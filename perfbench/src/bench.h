// Shared pieces of the end-to-end benchmark (perfbench/README.md): run
// arguments, workload sizes, the fixture, result/metric types, and the
// outside-in instruments (spans, a timing TraceSink wrapper, a timestamping
// client stream buffer) the workloads use to attribute time to layers.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <streambuf>
#include <string>
#include <vector>

#include "src/core/workload_model.h"
#include "src/trace/trace_sink.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test only: tiny sizes, and damaging one sealed segment after the
  // first timed `generate` op so its output check must count a failure.
  bool tiny = false;
  bool corrupt_segment = false;
  std::string work_dir = ".bench_build/work";
};

// Workload shapes (README.md, "Workloads"); Tiny() is the self-test scale.
// Generation ops are sized by work, not by period count: how many jobs a
// period yields depends on the fixture's fitted arrival rates, so each
// workload measures it at the nominal range and scales the range to a fixed
// job (or byte) target.
struct Sizes {
  size_t fixture_jobs = 120000;  // Rows of the fixture CSV (main.cc, FixtureEnd).
  int64_t train_days = 14;
  // About half the 14-day window's jobs: a run fits about ten such ops.
  double train_target_jobs = 39000;
  size_t hidden = 64;
  size_t model_epochs = 3;
  size_t gen_traces = 256;
  int64_t gen_periods = 72;  // Nominal range per trace (6 h).
  double gen_target_jobs = 150000;
  uint64_t gen_segment_bytes = 4u << 20;  // The `--segment-bytes` default.
  int64_t stream_periods = 7 * 288;
  double stream_target_jobs = 20000;
  // A tailing consumer's segment size: the stream seals (and checkpoints its
  // state blob) several times per op instead of once at Finish.
  uint64_t stream_segment_bytes = 256u << 10;
  // Single-trace generations running at once, one thread each (one per
  // core): a run pools every lane's ops, so its median does not hang on how
  // busy the host keeps the one core a lone op would run on.
  size_t stream_lanes = 4;
  uint64_t serve_traces = 16;
  int64_t serve_periods = 36;
  // Bytes per stream: between half and all of the client's 256 KiB credit
  // window, so a CREDIT frame is in flight when the server ends the stream.
  // Near the half, most streams reset at END; at 208 KiB about half did, and
  // that share swung from run to run (README.md, "the fault-free END reset").
  double serve_target_bytes = 160 << 10;
  size_t serve_clients = 4;
  size_t min_streams = 100;
  // setup_s is the median of 1 + timed_slices * setups_per_slice setups:
  // one before the warm-up, and `setups_per_slice` after each of
  // `timed_slices` equal slices of the timed phase, so the setups sample the
  // machine across the whole run, as the ops do. (Serve runs its timed
  // phase whole and as many setups, about half before it and half after.)
  int timed_slices = 4;
  int setups_per_slice = 2;
  int probe_reps = 200;
  static Sizes Tiny();
};

// Synthesized trace CSV plus (for generate/stream/serve) the trained model
// every setup loads.
struct Fixture {
  std::string jobs_csv;
  std::string flavors_csv;
  std::string model_prefix;
  Sizes sizes;
  uint64_t seed = 0;
  std::string work_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

using Metrics = std::map<std::string, Metric>;

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string digest;
  Metrics end_to_end;
  Metrics layers;                  // Filled by traced runs only.
  std::vector<std::string> notes;  // Human-readable lines printed before the JSON.
};

// Records a metric under its name from the end-to-end or per-layer table
// (main.cc), which supplies the unit. Unknown names abort: the tables are
// the contract the output is checked against.
void Put(Metrics* metrics, const std::string& name, double value);

// --- fixture and setup (main.cc) ---
cloudgen::WorkloadModelConfig ModelConfig(const Sizes& sizes, size_t epochs);
// ReadTraceCsv + the days-[0, train_days) window: the common setup step.
void LoadTrainWindow(const Fixture& fx, cloudgen::Trace* train);
int64_t GenFromPeriod(const Sizes& sizes);

// --- statistics and clocks (main.cc) ---
double NowSec();
double ProcessCpuSec();
// Machine-wide CPU time from /proc/stat, in clock ticks: `steal` is time the
// hypervisor ran other guests while this machine's vCPUs wanted to run.
struct CpuTicks {
  uint64_t busy = 0;  // Everything but idle and iowait, steal included.
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();
// Share of the CPU time this machine wanted that was stolen between two
// readings (0 when unavailable).
double StealShare(const CpuTicks& before, const CpuTicks& after);
// Benchmark times are net of hypervisor steal: wall seconds times the share
// of CPU time not stolen over the interval (README.md, "Steadiness"). Where
// nothing is stolen, this is the wall time.
inline double Net(double wall_sec, double steal) { return wall_sec * (1.0 - steal); }
template <typename Fn>
double NetSeconds(Fn&& fn) {
  const CpuTicks before = ReadCpuTicks();
  const double t0 = NowSec();
  fn();
  const double wall = NowSec() - t0;
  return Net(wall, StealShare(before, ReadCpuTicks()));
}
double Quantile(std::vector<double> values, double q);  // Linear, q in [0, 1].
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
uint64_t CounterValue(const char* name);
std::string Hex32(uint32_t v);

// --- spans (tracing.cc) ---
// In-memory span log for the traced run. Each span has a name, start, end,
// parent (the enclosing span on the same thread, or an explicit one) and an
// op/stream id. Recording is off unless Enable() was called.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    uint64_t id = 0;
    int64_t parent = -1;
    uint64_t start_us = 0;
    uint64_t end_us = 0;
    uint32_t tid = 0;
  };
  static SpanLog& Get();
  void Enable() { enabled_ = true; }
  bool Enabled() const { return enabled_; }
  int64_t Begin(const char* name, uint64_t id);
  void End(int64_t index);
  // A finished span timed with NowSec(), under span `parent` (-1: none).
  // Returns its index (-1 when recording is off).
  int64_t Add(const char* name, uint64_t id, int64_t parent, double start_sec, double end_sec);
  std::vector<Span> Spans() const;
  // Chrome trace JSON holding these spans and the program's own
  // obs::TraceCollector spans.
  bool WriteChromeTrace(const std::string& path) const;
  // Per-name count, total and self time (duration minus child coverage).
  std::vector<std::string> SelfTimeTable() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedBenchSpan {
 public:
  ScopedBenchSpan(const char* name, uint64_t id)
      : index_(SpanLog::Get().Enabled() ? SpanLog::Get().Begin(name, id) : -1) {}
  int64_t index() const { return index_; }
  ~ScopedBenchSpan() {
    if (index_ >= 0) {
      SpanLog::Get().End(index_);
    }
  }
  ScopedBenchSpan(const ScopedBenchSpan&) = delete;
  ScopedBenchSpan& operator=(const ScopedBenchSpan&) = delete;

 private:
  int64_t index_;
};

// Forwards to a real sink and times it from outside. Always records when the
// first segment is sealed (the op's first durable output); with `detailed`,
// also accumulates the wall time of every call and records a span per seal
// under `parent_span` (sink calls arrive on whichever pool thread flushes).
class TimedSink final : public cloudgen::TraceSink {
 public:
  TimedSink(cloudgen::TraceSink* inner, bool detailed, uint64_t op_id)
      : inner_(inner), detailed_(detailed), op_id_(op_id) {}

  cloudgen::Status BeginTrace(size_t trace_index) override;
  cloudgen::Status Append(const cloudgen::Job& job) override;
  cloudgen::Status EndTrace() override;
  cloudgen::Status CommitPoint(bool force, bool* sealed) override;
  cloudgen::Status ResumeAt(uint64_t segments_sealed) override;
  cloudgen::Status Finish() override;

  double first_seal_sec = 0.0;  // NowSec() after the first seal; 0 = none yet.
  double append_sec = 0.0;      // Begin/Append/EndTrace wall time.
  double commit_sec = 0.0;      // CommitPoint + Finish wall time.
  int64_t parent_span = -1;

 private:
  cloudgen::TraceSink* inner_;
  bool detailed_;
  uint64_t op_id_;
};

// Client-side output stream buffer that timestamps the first and last byte
// written and optionally keeps the bytes for a byte-for-byte check.
class StampBuf final : public std::streambuf {
 public:
  explicit StampBuf(bool capture) : capture_(capture) {}
  double first_sec = 0.0;
  double last_sec = 0.0;
  uint64_t bytes = 0;
  std::string captured;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  int_type overflow(int_type ch) override;

 private:
  bool capture_;
};

// --- probes (probes.cc) ---
// Register-only FMA loop on one core: the machine's single-thread peak.
double PeakGflops();

// One LSTM step per row at a fixed batch size, for the flavor and lifetime
// networks, split into GEMM, gate activations, and the rest.
struct StepProbe {
  double step_us_per_row = 0.0;
  double gemm_us_per_row = 0.0;
  double gemm_gflops = 0.0;
  double activation_us_per_row = 0.0;
};
// `flavor_share` weights the flavor network's rows against the lifetime
// network's (tokens / (tokens + jobs) in the measured op).
StepProbe ProbeStep(const cloudgen::WorkloadModel& model, size_t rows,
                    double flavor_share, int reps);

// Per-call costs of the non-NN sampling layers.
struct SamplingProbe {
  double duration_us = 0.0;       // survival: SampleDurationInBin per job.
  double arrival_draw_us = 0.0;   // glm: BatchArrivalModel::SampleCount per period.
  double categorical_us = 0.0;    // util: Rng::Categorical over K+1 weights per token.
};
SamplingProbe ProbeSampling(const cloudgen::WorkloadModel& model, int64_t from_period,
                            int64_t periods, uint64_t seed);

// One minibatch of DataParallelBptt::Run and Adam::Step at a network's
// training shape.
struct TrainStepProbe {
  double bptt_ms = 0.0;
  double adam_ms = 0.0;
};
TrainStepProbe ProbeTrainStep(const cloudgen::SequenceNetworkConfig& config,
                              size_t seq_len, size_t batch, uint64_t seed, int reps);

// --- workloads (workloads.cc) ---
Result RunTrain(const Args& args, const Fixture& fx);
Result RunGenerate(const Args& args, const Fixture& fx);
Result RunStream(const Args& args, const Fixture& fx);
Result RunServe(const Args& args, const Fixture& fx);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
