#include "src/serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "src/core/gen_checkpoint.h"
#include "src/core/gen_guard.h"
#include "src/obs/fidelity_monitor.h"
#include "src/obs/metrics.h"
#include "src/util/thread_pool.h"
#include "src/util/atomic_file.h"
#include "src/util/crc32.h"
#include "src/util/fault.h"
#include "src/util/log.h"
#include "src/util/retry.h"
#include "src/util/strings.h"

namespace cloudgen {
namespace serve {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Digest of everything that determines a stream's bytes: the server's shared
// generation options plus the request's (seed, traces) and identity. A drain
// checkpoint whose fingerprint does not match the incoming request is
// ignored (stale server config, renamed stream) — regeneration from trace 0
// is always correct, just slower.
uint64_t StreamFingerprint(const WorkloadModel::GenerateOptions& gen,
                           uint64_t seed, uint64_t traces,
                           const std::string& tenant,
                           const std::string& stream) {
  uint64_t h = HashMix(0x5E12E5EEDull, static_cast<uint64_t>(gen.from_period));
  h = HashMix(h, static_cast<uint64_t>(gen.to_period));
  h = HashMix(h, static_cast<uint64_t>(gen.doh_mode));
  h = HashMix(h, DoubleBits(gen.arrival_scale));
  h = HashMix(h, DoubleBits(gen.eob_scale));
  h = HashMix(h, static_cast<uint64_t>(gen.interpolation));
  h = HashMix(h, seed);
  h = HashMix(h, traces);
  h = HashMix(h, Fnv1a(tenant));
  h = HashMix(h, Fnv1a(stream));
  return h;
}

Status ValidateName(const std::string& value, const char* what) {
  if (value.empty() || value.size() > 128) {
    return InvalidArgumentError(StrFormat(
        "%s must be 1..128 characters (got %zu)", what, value.size()));
  }
  for (const char c : value) {
    if (c == '\n' || c == '=' || c == '\0') {
      return InvalidArgumentError(
          StrFormat("%s contains a forbidden character", what));
    }
  }
  return OkStatus();
}

struct ServeCounters {
  obs::Counter& conns_accepted =
      obs::Registry::Global().GetCounter("serve.conns.accepted");
  obs::Counter& accept_errors =
      obs::Registry::Global().GetCounter("serve.accept.errors");
  obs::Counter& rows_sent =
      obs::Registry::Global().GetCounter("serve.rows.sent");
  obs::Counter& bytes_sent =
      obs::Registry::Global().GetCounter("serve.bytes.sent");
  obs::Counter& stalls =
      obs::Registry::Global().GetCounter("serve.backpressure.stalls");
  obs::Counter& idle_timeouts =
      obs::Registry::Global().GetCounter("serve.idle_timeouts");
  obs::Counter& streams_completed =
      obs::Registry::Global().GetCounter("serve.streams.completed");
  obs::Counter& streams_resumed =
      obs::Registry::Global().GetCounter("serve.streams.resumed");
  obs::Counter& checkpoint_resumes =
      obs::Registry::Global().GetCounter("serve.resume.checkpoint");
  obs::Counter& drains =
      obs::Registry::Global().GetCounter("serve.drain.checkpoints");
  obs::Counter& stream_errors =
      obs::Registry::Global().GetCounter("serve.stream.errors");
  obs::Counter& watchdog_cuts =
      obs::Registry::Global().GetCounter("serve.watchdog.cuts");
  obs::Counter& degraded_sheds =
      obs::Registry::Global().GetCounter("serve.degraded.sheds");
  obs::Counter& accept_backoffs =
      obs::Registry::Global().GetCounter("serve.accept.backoffs");
  obs::Counter& exhaustion_events =
      obs::Registry::Global().GetCounter("serve.exhaustion.events");

  static ServeCounters& Get() {
    static ServeCounters* counters = new ServeCounters();
    return *counters;
  }
};

}  // namespace

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kDraining:
      return "draining";
  }
  return "unknown";
}

StreamServer::StreamServer(const WorkloadModel* model, ServerOptions options)
    : model_(model), options_(std::move(options)), registry_(options_.limits) {
  CG_CHECK(model_ != nullptr && model_->IsTrained());
  options_.gen.cancel = nullptr;  // Streams use the drain token instead.
}

StreamServer::~StreamServer() {
  if (started_) {
    RequestDrain();
    (void)Wait();
  }
}

Status StreamServer::Start() {
  CG_CHECK_MSG(!started_, "StreamServer::Start called twice");
  CG_ASSIGN_OR_RETURN(listener_,
                      ListenTcp(options_.bind_addr, options_.port));
  CG_ASSIGN_OR_RETURN(const uint16_t port, LocalPort(listener_));
  port_ = port;
  started_ = true;
  // Register the stream gauges up front so an idle daemon's very first
  // METRICS/METRICS_PROM scrape already carries them at 0, instead of the
  // series appearing only after the first admission.
  obs::Registry::Global().GetGauge("serve.streams.active").Set(0.0);
  obs::Registry::Global().GetGauge("serve.queue.bytes").Set(0.0);
  obs::Registry::Global().GetGauge("serve.queue.bytes.peak").Set(0.0);
  obs::Registry::Global()
      .GetGauge("serve.health")
      .Set(static_cast<double>(HealthState::kHealthy));
  accept_thread_ = std::thread(&StreamServer::AcceptLoop, this);
  supervisor_thread_ = std::thread(&StreamServer::SupervisorLoop, this);
  CG_LOGF_INFO("serve: listening on %s:%u (max_streams=%zu, per_tenant=%zu)",
               options_.bind_addr.c_str(), static_cast<unsigned>(port_),
               options_.limits.max_streams,
               options_.limits.max_streams_per_tenant);
  return OkStatus();
}

void StreamServer::RequestDrain() { drain_.RequestCancel(); }

Status StreamServer::Wait() {
  CG_CHECK(started_);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    // The supervisor keeps cutting stalled sessions while we wait, so a
    // wedged stream cannot hold the drain open past stall_timeout_ms.
    conn_cv_.wait(lock, [this] { return active_conns_ == 0; });
  }
  supervisor_stop_.store(true, std::memory_order_release);
  if (supervisor_thread_.joinable()) {
    supervisor_thread_.join();
  }
  started_ = false;
  return accept_status_;
}

HealthState StreamServer::Health() const {
  if (drain_.Cancelled()) {
    return HealthState::kDraining;
  }
  if (NowMs() < degraded_until_ms_.load(std::memory_order_acquire)) {
    return HealthState::kDegraded;
  }
  return HealthState::kHealthy;
}

void StreamServer::ReportExhaustion(const char* reason) {
  degraded_reason_.store(reason, std::memory_order_release);
  degraded_until_ms_.store(NowMs() + options_.degraded_cooldown_ms,
                           std::memory_order_release);
  ServeCounters::Get().exhaustion_events.Add(1);
  CG_LOGF_WARN("serve: resource exhaustion (%s); degraded for %dms", reason,
               options_.degraded_cooldown_ms);
}

std::shared_ptr<StreamServer::SessionWatch> StreamServer::RegisterWatch(
    const std::string& tenant, const std::string& stream) {
  auto watch = std::make_shared<SessionWatch>();
  watch->tenant = tenant;
  watch->stream = stream;
  watch->last_progress_ms.store(NowMs(), std::memory_order_release);
  std::lock_guard<std::mutex> lock(watch_mu_);
  watch->id = next_watch_id_++;
  watches_.emplace(watch->id, watch);
  return watch;
}

void StreamServer::UnregisterWatch(
    const std::shared_ptr<SessionWatch>& watch) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watches_.erase(watch->id);
}

void StreamServer::SupervisorLoop() {
  static obs::Gauge& health_gauge =
      obs::Registry::Global().GetGauge("serve.health");
  ServeCounters& counters = ServeCounters::Get();
  while (!supervisor_stop_.load(std::memory_order_acquire)) {
    const HealthState health = Health();
    health_gauge.Set(static_cast<double>(health));
    if (options_.stall_timeout_ms > 0) {
      const int64_t now = NowMs();
      std::lock_guard<std::mutex> lock(watch_mu_);
      for (auto& entry : watches_) {
        SessionWatch& watch = *entry.second;
        if (watch.working.load(std::memory_order_acquire) &&
            !watch.cut.load(std::memory_order_acquire) &&
            now - watch.last_progress_ms.load(std::memory_order_acquire) >
                options_.stall_timeout_ms) {
          watch.cut.store(true, std::memory_order_release);
          counters.watchdog_cuts.Add(1);
          CG_LOGF_WARN(
              "serve: watchdog cutting stalled stream %s/%s (no progress for "
              ">%dms); checkpoint + retryable disconnect",
              watch.tenant.c_str(), watch.stream.c_str(),
              options_.stall_timeout_ms);
        }
      }
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max(1, options_.supervisor_interval_ms)));
  }
  health_gauge.Set(static_cast<double>(Health()));
}

void StreamServer::AcceptLoop() {
  ServeCounters& counters = ServeCounters::Get();
  // Plan rules scoped site=serve see the accept-path injection points.
  ScopedFaultSite fault_site("serve");
  int backoff_ms = 0;
  while (!drain_.Cancelled()) {
    Socket conn;
    const Status status = AcceptConnection(listener_, 200, &drain_, &conn);
    if (!status.ok()) {
      // Transient (injected net_accept_fail, peer teardown): count it and
      // keep accepting — an accept failure must never take the daemon down.
      counters.accept_errors.Add(1);
      CG_LOG_WARN("serve: accept failed: " + status.ToString());
      if (status.code() == StatusCode::kResourceExhausted) {
        // Out of fds (EMFILE/ENFILE or injected fd_exhaust): retrying
        // immediately cannot succeed — back off exponentially instead of
        // spinning, and shed new OPENs while the pressure lasts.
        ReportExhaustion("accept: out of file descriptors");
        backoff_ms = backoff_ms == 0 ? 10 : std::min(backoff_ms * 2, 500);
        counters.accept_backoffs.Add(1);
        SleepWithCancel(backoff_ms / 1000.0, &drain_);
      }
      continue;
    }
    if (!conn.valid()) {
      continue;  // Poll slice expired; re-check drain.
    }
    backoff_ms = 0;  // A successful accept ends the exhaustion episode.
    counters.conns_accepted.Add(1);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      ++active_conns_;
    }
    std::thread(&StreamServer::HandleConnection, this, std::move(conn))
        .detach();
  }
  listener_.Close();
}

void StreamServer::HandleConnection(Socket conn) {
  Status status;
  try {
    status = RunSession(conn);
  } catch (const GuardViolation& e) {
    // A numeric guard trip poisons one stream, not the daemon.
    status = InternalError(std::string("generation guard violation: ") +
                           e.what());
  } catch (const std::exception& e) {
    status = InternalError(std::string("unexpected exception: ") + e.what());
  }
  if (!status.ok()) {
    if (status.code() == StatusCode::kAborted && drain_.Cancelled()) {
      // The drain token cancelled a blocking socket op mid-session. To the
      // peer that is the retryable drain, not a client-side abort.
      status = UnavailableError(
          "server draining; reconnect and resume against the restarted server");
    }
    ServeCounters::Get().stream_errors.Add(1);
    CG_LOG_WARN("serve: session ended with " + status.ToString());
    // Best effort: tell the peer why before closing. Send failures here are
    // expected (the error may BE a dead connection).
    (void)WriteFrame(conn, FrameType::kError, EncodeErrorPayload(status),
                     options_.io_timeout_ms, nullptr);
  }
  // The lease and watchdog entry went with the session, so the linger holds
  // only this thread and fd (see the failure model in server.h).
  conn.CloseAfterPeer(options_.io_timeout_ms, &drain_);
  // Notify under the lock: once Wait() sees zero it may destroy conn_cv_.
  std::lock_guard<std::mutex> lock(conn_mu_);
  --active_conns_;
  conn_cv_.notify_all();
}

Status StreamServer::RunSession(Socket& conn) {
  Frame first;
  bool clean_close = false;
  const Status status = ReadFrame(conn, &first, options_.idle_timeout_ms,
                                  &drain_, &clean_close);
  if (!status.ok()) {
    if (clean_close) {
      return OkStatus();  // Probe connections (port checks) are fine.
    }
    return status;
  }
  // Control-verb handling latency (dispatch to response written; the wait
  // for the client's first frame is idle time, not verb work).
  static obs::Histogram& verb_ms =
      obs::Registry::Global().GetHistogram("serve.verb_ms");
  const auto dispatch_start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [dispatch_start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - dispatch_start)
        .count();
  };
  switch (first.type) {
    case FrameType::kOpen:
      return RunStreamSession(conn, first);
    case FrameType::kMetrics: {
      const Status status = HandleMetrics(conn);
      verb_ms.Observe(elapsed_ms());
      return status;
    }
    case FrameType::kMetricsProm:
      return HandleMetricsProm(conn, elapsed_ms());
    case FrameType::kHealth: {
      const Status status = HandleHealth(conn);
      verb_ms.Observe(elapsed_ms());
      return status;
    }
    default:
      return InvalidArgumentError(StrFormat(
          "unexpected first frame %s (want OPEN, METRICS, METRICS_PROM or HEALTH)",
          FrameTypeName(first.type)));
  }
}

Status StreamServer::HandleMetrics(Socket& conn) {
  std::ostringstream json;
  obs::Registry::Global().WriteJson(json);
  return WriteFrame(conn, FrameType::kMetricsOk, json.str(),
                    options_.io_timeout_ms, &drain_);
}

Status StreamServer::HandleMetricsProm(Socket& conn, double dispatch_ms) {
  static obs::Histogram& verb_ms =
      obs::Registry::Global().GetHistogram("serve.verb_ms");
  verb_ms.Observe(dispatch_ms);
  // Refresh derived state so a scrape is self-contained: live pool pressure,
  // current fidelity drift, percentile gauges.
  GlobalThreadPool().PublishGauges();
  obs::FidelityMonitor::Global().PublishDrift();
  std::ostringstream text;
  obs::Registry::Global().WritePrometheus(text);
  return WriteFrame(conn, FrameType::kMetricsPromOk, text.str(),
                    options_.io_timeout_ms, &drain_);
}

Status StreamServer::HandleHealth(Socket& conn) {
  const HealthState health = Health();
  std::map<std::string, std::string> kv;
  // `status` keeps its original two-value contract (ok|draining) for old
  // probes; the richer state machine lives under `health`.
  kv["status"] = drain_.Cancelled() ? "draining" : "ok";
  kv["health"] = HealthStateName(health);
  if (health == HealthState::kDegraded) {
    kv["degraded_reason"] = degraded_reason_.load(std::memory_order_acquire);
  }
  kv["streams_active"] = std::to_string(registry_.ActiveStreams());
  kv["max_streams"] = std::to_string(registry_.limits().max_streams);
  kv["buffered_bytes"] = std::to_string(registry_.BufferedBytes());
  return WriteFrame(conn, FrameType::kHealthOk, EncodeKv(kv),
                    options_.io_timeout_ms, &drain_);
}

std::string StreamServer::CheckpointPath(const std::string& tenant,
                                         const std::string& stream) const {
  // Hash-named so any tenant/stream string maps to a safe filename, stably
  // across restarts.
  const uint64_t h = HashMix(Fnv1a(tenant), Fnv1a(stream));
  return StrFormat("%s/stream-%016llx.ckpt", options_.state_dir.c_str(),
                   static_cast<unsigned long long>(h));
}

Status StreamServer::RunStreamSession(Socket& conn, const Frame& open) {
  ServeCounters& counters = ServeCounters::Get();

  std::map<std::string, std::string> req;
  CG_RETURN_IF_ERROR(DecodeKv(open.payload, &req));
  std::string tenant;
  std::string stream;
  uint64_t seed = 0;
  uint64_t traces = 0;
  uint64_t client_offset = 0;
  CG_RETURN_IF_ERROR(KvGet(req, "tenant", &tenant));
  CG_RETURN_IF_ERROR(KvGet(req, "stream", &stream));
  CG_RETURN_IF_ERROR(KvGetU64(req, "seed", &seed));
  CG_RETURN_IF_ERROR(KvGetU64(req, "traces", &traces));
  CG_RETURN_IF_ERROR(KvGetU64(req, "offset", &client_offset));
  CG_RETURN_IF_ERROR(ValidateName(tenant, "tenant"));
  CG_RETURN_IF_ERROR(ValidateName(stream, "stream"));
  if (traces == 0 || traces > (1u << 20)) {
    return InvalidArgumentError(
        StrFormat("traces must be in [1, %u], got %llu", 1u << 20,
                  static_cast<unsigned long long>(traces)));
  }

  if (drain_.Cancelled()) {
    return UnavailableError("server is draining; retry against the restarted server");
  }
  // Session threads carry the serve scope (plus tenant) for plan rules; the
  // stream checkpoint writes below inherit it.
  ScopedFaultSite fault_site("serve", tenant);
  if (Health() == HealthState::kDegraded) {
    // Graceful degradation: existing streams keep flowing, new work is shed
    // with a retryable signal until the exhaustion cooldown passes.
    ServeCounters::Get().degraded_sheds.Add(1);
    return UnavailableError(StrFormat(
        "server degraded (%s); retry shortly",
        degraded_reason_.load(std::memory_order_acquire)));
  }
  StreamRegistry::Lease lease;
  CG_RETURN_IF_ERROR(registry_.Admit(tenant, stream, &lease));

  const std::shared_ptr<SessionWatch> watch = RegisterWatch(tenant, stream);
  struct WatchGuard {
    StreamServer* server;
    const std::shared_ptr<SessionWatch>& watch;
    ~WatchGuard() { server->UnregisterWatch(watch); }
  } watch_guard{this, watch};
  const auto touch_progress = [&watch] {
    watch->last_progress_ms.store(NowMs(), std::memory_order_release);
  };

  const uint64_t fingerprint =
      StreamFingerprint(options_.gen, seed, traces, tenant, stream);
  const uint64_t base = WorkloadModel::TraceFamilyBase(seed);

  // Cursor into the regeneration: trace `next_trace` starts at byte
  // `offset`, with `crc` the incremental CRC-32 state and `rows` the row
  // count over [0, offset). Either fresh or restored from a drain
  // checkpoint that the client's resume offset has already passed.
  uint64_t next_trace = 0;
  uint64_t offset = 0;
  uint32_t crc = kCrc32Init;
  uint64_t rows = 0;
  const std::string ckpt_path =
      options_.state_dir.empty() ? "" : CheckpointPath(tenant, stream);
  if (!ckpt_path.empty() && FileExists(ckpt_path)) {
    GenCursor cursor;
    std::map<std::string, std::string> blob;
    uint64_t ck_offset = 0;
    uint64_t ck_crc = 0;
    uint64_t ck_rows = 0;
    Status ck = LoadGenCheckpoint(ckpt_path, &cursor);
    if (ck.ok()) {
      ck = DecodeKv(cursor.state_blob, &blob);
    }
    if (ck.ok()) {
      ck = KvGetU64(blob, "offset", &ck_offset);
    }
    if (ck.ok()) {
      ck = KvGetU64(blob, "crc", &ck_crc);
    }
    if (ck.ok()) {
      ck = KvGetU64(blob, "rows", &ck_rows);
    }
    if (ck.ok() && cursor.fingerprint == fingerprint &&
        cursor.base == base && cursor.count == traces &&
        ck_offset <= client_offset) {
      next_trace = cursor.next_trace;
      offset = ck_offset;
      crc = static_cast<uint32_t>(ck_crc);
      rows = ck_rows;
      counters.checkpoint_resumes.Add(1);
    }
    // Any mismatch or decode failure: regenerate from trace 0. A corrupt or
    // stale checkpoint can cost time, never correctness.
  }
  if (client_offset > 0) {
    counters.streams_resumed.Add(1);
  }

  std::map<std::string, std::string> ok_kv;
  ok_kv["offset"] = std::to_string(client_offset);
  CG_RETURN_IF_ERROR(WriteFrame(conn, FrameType::kOpenOk, EncodeKv(ok_kv),
                                options_.io_timeout_ms, &drain_));

  // `sent` is the next byte the client expects; everything the session emits
  // is DATA frames at exactly that offset, in order.
  uint64_t sent = client_offset;
  int64_t credit = 0;

  // Writes the drain checkpoint for the current trace-boundary cursor.
  auto checkpoint_boundary = [&]() {
    if (ckpt_path.empty()) {
      return;
    }
    GenCursor cursor;
    cursor.mode = kGenModeManyTraces;
    cursor.fingerprint = fingerprint;
    cursor.base = base;
    cursor.count = traces;
    cursor.next_trace = next_trace;
    std::map<std::string, std::string> blob;
    blob["offset"] = std::to_string(offset);
    blob["crc"] = std::to_string(crc);
    blob["rows"] = std::to_string(rows);
    blob["tenant"] = tenant;
    blob["stream"] = stream;
    cursor.state_blob = EncodeKv(blob);
    const Status saved = SaveGenCheckpoint(ckpt_path, cursor);
    if (saved.ok()) {
      counters.drains.Add(1);
    } else {
      // A failed checkpoint only costs regeneration time after restart.
      CG_LOG_WARN("serve: drain checkpoint failed: " + saved.ToString());
      if (IsDiskFull(saved)) {
        // Full state disk: flip to degraded so new OPENs shed while
        // existing streams (whose correctness never needed the disk)
        // keep flowing.
        ReportExhaustion("disk full writing stream checkpoint");
      }
    }
  };

  std::string buffer;
  while (next_trace < traces) {
    if (drain_.Cancelled()) {
      checkpoint_boundary();
      return UnavailableError(
          "server draining; stream checkpointed, reconnect to resume");
    }
    watch->working.store(true, std::memory_order_release);
    touch_progress();
    if (FaultInjector::Global().ShouldInject(FaultKind::kStreamStall)) {
      // Simulated wedged generation step: sit here making no observable
      // progress until the supervisor watchdog cuts the session (or the
      // server drains). `working` stays true — this is exactly the state
      // the watchdog exists for.
      CG_LOGF_WARN("serve: injected stream_stall on %s/%s", tenant.c_str(),
                   stream.c_str());
      while (!watch->cut.load(std::memory_order_acquire) &&
             !drain_.Cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    if (watch->cut.load(std::memory_order_acquire)) {
      checkpoint_boundary();
      return UnavailableError(StrFormat(
          "stream made no progress for %dms; cut and checkpointed by the "
          "watchdog — reconnect to resume",
          options_.stall_timeout_ms));
    }
    if (drain_.Cancelled()) {
      checkpoint_boundary();
      return UnavailableError(
          "server draining; stream checkpointed, reconnect to resume");
    }

    // Regenerate the next chunk of traces in one engine run, so the batched
    // (and sharded) engine fills its windows across traces instead of paying
    // a cold engine per trace. Chunking only changes how many bytes are
    // buffered at once, never the bytes themselves.
    //
    // Model compute is bounded work, not an observable wait: under CPU
    // oversubscription (many sessions regenerating at once) a chunk can
    // legitimately take longer than the stall timeout, and cutting it only
    // adds more regeneration load — a cut/reconnect livelock. Mark the
    // session not-working for the duration; the watchdog's domain is wedged
    // I/O and injected stalls, a sick model step is the numeric guards'
    // business (GuardViolation, contained per connection).
    watch->working.store(false, std::memory_order_release);
    uint64_t chunk_traces =
        std::min<uint64_t>(std::max<size_t>(1, options_.gen_chunk_traces),
                           traces - next_trace);
    buffer.clear();
    model_->GenerateTraceRowsRange(options_.gen, base,
                                   static_cast<size_t>(next_trace),
                                   static_cast<size_t>(chunk_traces), &buffer);
    if (!lease.ReserveBytes(buffer.size())) {
      // A multi-trace chunk may exceed what admission control can buffer
      // even though a single trace fits; drop to one trace before giving up
      // so buffer pressure degrades throughput, not availability.
      bool reserved = false;
      if (chunk_traces > 1) {
        chunk_traces = 1;
        buffer.clear();
        model_->GenerateTraceRowsRange(options_.gen, base,
                                       static_cast<size_t>(next_trace), 1, &buffer);
        reserved = lease.ReserveBytes(buffer.size());
      }
      if (!reserved) {
        checkpoint_boundary();
        return UnavailableError(StrFormat(
            "server buffer pressure (%zu bytes buffered, limit %zu); retry",
            registry_.BufferedBytes(),
            registry_.limits().max_total_buffer_bytes));
      }
    }
    watch->working.store(true, std::memory_order_release);
    touch_progress();
    const uint64_t trace_rows =
        static_cast<uint64_t>(std::count(buffer.begin(), buffer.end(), '\n'));
    const uint64_t trace_end = offset + buffer.size();

    // Fast-forward: the client has already acked past (part of) this trace —
    // send only the unseen suffix. The CRC/row cursor advances at the trace
    // boundary below, so a mid-trace drain checkpoint never carries a CRC
    // that runs ahead of its offset.
    size_t pos = sent > offset ? static_cast<size_t>(
                                     std::min<uint64_t>(sent - offset,
                                                        buffer.size()))
                               : 0;
    bool stalled = false;
    Status send_status = OkStatus();
    while (pos < buffer.size()) {
      if (drain_.Cancelled() || watch->cut.load(std::memory_order_acquire)) {
        break;  // Checkpointed below at the last durable boundary.
      }
      if (credit <= 0) {
        if (!stalled) {
          stalled = true;
          counters.stalls.Add(1);
        }
        // Wait for the consumer; its pace throttles only this stream. A
        // client-paced wait is the idle-timeout's business, not the
        // watchdog's: mark the session not-working so it cannot be cut.
        watch->working.store(false, std::memory_order_release);
        Frame frame;
        bool clean = false;
        send_status = ReadFrame(conn, &frame, options_.idle_timeout_ms,
                                &drain_, &clean);
        watch->working.store(true, std::memory_order_release);
        touch_progress();
        if (!send_status.ok()) {
          if (send_status.code() == StatusCode::kUnavailable && !clean &&
              send_status.message().find("timed out") != std::string::npos) {
            counters.idle_timeouts.Add(1);
            send_status = UnavailableError(StrFormat(
                "stream idle for %dms waiting for credit; disconnecting",
                options_.idle_timeout_ms));
          }
          break;
        }
        if (frame.type == FrameType::kClose) {
          lease.ReleaseBytes(buffer.size());
          return OkStatus();  // Client is done with us.
        }
        if (frame.type != FrameType::kCredit) {
          send_status = InvalidArgumentError(
              StrFormat("unexpected %s frame mid-stream (want CREDIT)",
                        FrameTypeName(frame.type)));
          break;
        }
        uint64_t granted = 0;
        if (!GetU64Le(frame.payload, 0, &granted)) {
          send_status = InvalidArgumentError("malformed CREDIT payload");
          break;
        }
        credit += static_cast<int64_t>(granted);
        stalled = false;
        continue;
      }
      const size_t chunk =
          std::min({buffer.size() - pos, static_cast<size_t>(credit),
                    options_.max_chunk_bytes});
      std::string payload;
      payload.reserve(8 + chunk);
      PutU64Le(&payload, offset + pos);
      payload.append(buffer, pos, chunk);
      send_status = WriteFrame(conn, FrameType::kData, payload,
                               options_.io_timeout_ms, &drain_);
      if (!send_status.ok()) {
        break;
      }
      // Rows whose last byte this session sent; a resumed session never
      // re-counts the prefix the client already had.
      counters.rows_sent.Add(static_cast<uint64_t>(
          std::count(buffer.begin() + static_cast<std::ptrdiff_t>(pos),
                     buffer.begin() + static_cast<std::ptrdiff_t>(pos + chunk),
                     '\n')));
      pos += chunk;
      credit -= static_cast<int64_t>(chunk);
      sent = offset + pos;
      counters.bytes_sent.Add(chunk);
      touch_progress();
    }
    lease.ReleaseBytes(buffer.size());
    if (drain_.Cancelled()) {
      checkpoint_boundary();
      return UnavailableError(
          "server draining; stream checkpointed, reconnect to resume");
    }
    if (watch->cut.load(std::memory_order_acquire)) {
      checkpoint_boundary();
      return UnavailableError(StrFormat(
          "stream made no progress for %dms; cut and checkpointed by the "
          "watchdog — reconnect to resume",
          options_.stall_timeout_ms));
    }
    CG_RETURN_IF_ERROR(send_status);

    // Chunk boundary (a trace boundary by construction): advance the
    // durable cursor past every trace in the chunk.
    crc = Crc32Update(crc, buffer.data(), buffer.size());
    offset = trace_end;
    rows += trace_rows;
    next_trace += chunk_traces;
  }

  std::map<std::string, std::string> end_kv;
  end_kv["bytes"] = std::to_string(offset);
  end_kv["rows"] = std::to_string(rows);
  end_kv["crc"] = std::to_string(Crc32Finalize(crc));
  CG_RETURN_IF_ERROR(WriteFrame(conn, FrameType::kEnd, EncodeKv(end_kv),
                                options_.io_timeout_ms, &drain_));
  if (!ckpt_path.empty() && FileExists(ckpt_path)) {
    std::remove(ckpt_path.c_str());  // The stream is complete; nothing to resume.
  }
  counters.streams_completed.Add(1);
  return OkStatus();
}

}  // namespace serve
}  // namespace cloudgen
