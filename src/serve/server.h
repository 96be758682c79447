// The cloudgen serve daemon: streams deterministically generated trace rows
// to TCP clients with admission control, per-stream backpressure, graceful
// drain, and a self-healing supervisor.
//
// A stream request names (tenant, stream, seed, traces). The server derives
// the family anchor WorkloadModel::TraceFamilyBase(seed) and regenerates
// trace i on demand from Rng::Stream(base, i) — the exact bytes a local
// `cloudgen generate --seed <seed> --traces <traces>` run writes. Nothing is
// stored per stream beyond one trace buffer and a cursor, so server memory
// is bounded by admission control (StreamRegistry), not by stream length or
// client speed.
//
// Health state machine (supervisor thread, `serve.health` gauge, HEALTH
// `health=` key):
//   healthy  → normal admission.
//   degraded → a resource-exhaustion event (full disk on a checkpoint,
//              accept(2) out of fds) fired within the last
//              degraded_cooldown_ms: new OPENs are shed with retryable
//              UNAVAILABLE while existing streams keep flowing; recovers to
//              healthy by itself once the cooldown passes without new events.
//   draining → RequestDrain() was called; terminal for this process.
//
// Failure model (docs/ROBUSTNESS.md):
//  * Overload: OPEN past a quota is rejected immediately with a structured
//    RESOURCE_EXHAUSTED ERROR frame — never queued, never hung.
//  * Slow consumer: credit-based flow control stalls only that stream
//    (serve.backpressure.stalls); other streams keep flowing.
//  * Idle/hung peer: every socket operation carries a deadline; a peer that
//    stops talking is disconnected after idle_timeout_ms.
//  * Stuck stream: a per-stream progress watchdog cuts any session that is
//    working but has made no observable progress for stall_timeout_ms — the
//    stream is checkpointed and the client told to reconnect (retryable
//    UNAVAILABLE); it resumes byte-identically. Stuck streams never leak
//    registry slots or wedge a drain.
//  * Resource exhaustion: a full disk (io_enospc / real ENOSPC) on a
//    checkpoint or an fd-exhausted accept loop degrades the server instead
//    of crashing it — accept backs off exponentially, new OPENs shed, and
//    the daemon self-heals when the pressure clears.
//  * Drain (SIGTERM / RequestDrain): stop admitting, checkpoint every active
//    stream's cursor (GenCursor in state_dir), send a retryable UNAVAILABLE
//    to each client, exit. A restarted server resumes every stream
//    byte-identically — the checkpoint is an *accelerator* (skip regenerating
//    already-acked traces); correctness comes from the client's resume
//    offset plus deterministic regeneration.
//  * Generation guard trips and injected faults are contained per
//    connection; the daemon itself never dies from a stream error.
//  * Session end: every connection ends with a lingering close
//    (Socket::CloseAfterPeer): half-close, discard what the peer still sends
//    until its EOF, for at most io_timeout_ms or until a drain, then close.
//    A plain close with a CREDIT still unread would send RST and could drop
//    the END or ERROR frame in flight.
#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/core/workload_model.h"
#include "src/serve/protocol.h"
#include "src/serve/stream_registry.h"
#include "src/util/cancel.h"
#include "src/util/net.h"
#include "src/util/status.h"

namespace cloudgen {
namespace serve {

enum class HealthState : int {
  kHealthy = 0,
  kDegraded = 1,
  kDraining = 2,
};
const char* HealthStateName(HealthState state);

struct ServerOptions {
  std::string bind_addr = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read back with Port().
  // Directory for drain checkpoints; empty disables checkpointing (drain
  // still works — restarted streams just regenerate from trace 0).
  std::string state_dir;
  int io_timeout_ms = 10000;    // Per socket read/write.
  int idle_timeout_ms = 30000;  // Max quiet time waiting for a client frame.
  size_t max_chunk_bytes = 64u << 10;  // Largest single DATA payload.
  // Traces regenerated per engine run on the stream path. A chunk > 1 lets
  // the batched engine, sharded one window per pool thread, fill its windows
  // across traces instead of paying a cold engine per trace; bytes are
  // identical either way. When a chunk's buffer reservation trips admission
  // control, the session falls back to one trace at a time, so forward
  // progress needs only the single-trace buffer the limits always allowed.
  size_t gen_chunk_traces = 8;
  // Supervisor cadence: health gauge refresh + stalled-stream scan.
  int supervisor_interval_ms = 50;
  // A session that is working (not waiting on client credit) but makes no
  // observable progress for this long is cut and checkpointed by the
  // watchdog. <= 0 disables the watchdog.
  int stall_timeout_ms = 10000;
  // How long the server stays degraded (shedding new OPENs) after a
  // resource-exhaustion event; refreshed by every new event.
  int degraded_cooldown_ms = 2000;
  ServeLimits limits;
  // Generation options shared by every stream (per-request knobs are seed
  // and trace count). `cancel` is ignored; the server installs its own.
  WorkloadModel::GenerateOptions gen;
};

class StreamServer {
 public:
  // `model` must be trained and must outlive the server.
  StreamServer(const WorkloadModel* model, ServerOptions options);
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  // Binds, listens, and starts the accept + supervisor loops. Non-blocking.
  Status Start();

  // The bound port (valid after Start()).
  uint16_t Port() const { return port_; }

  // Begins graceful drain: stop accepting, interrupt active streams at their
  // next safe boundary, checkpoint them. Idempotent, async-signal-unsafe
  // (call from a normal thread that observed SIGTERM via CancelToken).
  void RequestDrain();

  // Blocks until the accept loop, every connection handler and the
  // supervisor have finished. Returns OK after a clean drain; the first
  // accept-loop hard error otherwise.
  Status Wait();

  size_t ActiveStreams() const { return registry_.ActiveStreams(); }
  bool Draining() const { return drain_.Cancelled(); }

  // Current health, computed from the drain token and the degradation
  // window (no supervisor-tick lag).
  HealthState Health() const;

  // Records a resource-exhaustion event (full disk, out of fds): the server
  // turns degraded for degraded_cooldown_ms and sheds new OPENs. `reason`
  // must be a string literal (stored without copying).
  void ReportExhaustion(const char* reason);

  // High-water mark of registry buffered bytes (chaos invariant: must stay
  // within limits().max_total_buffer_bytes).
  size_t PeakBufferedBytes() const { return registry_.PeakBufferedBytes(); }
  const ServeLimits& limits() const { return registry_.limits(); }

 private:
  // Watchdog view of one running stream session. `working` is true while
  // the session owes the client bytes (generating or sending); it is false
  // while blocked on client credit — a slow consumer is the idle-timeout's
  // business, not the watchdog's. The watchdog cuts a working session whose
  // last_progress_ms is older than stall_timeout_ms; the session observes
  // `cut` at its next boundary, checkpoints, and returns retryable
  // UNAVAILABLE so the client resumes elsewhere in time.
  struct SessionWatch {
    uint64_t id = 0;
    std::string tenant;
    std::string stream;
    std::atomic<int64_t> last_progress_ms{0};
    std::atomic<bool> working{false};
    std::atomic<bool> cut{false};
  };

  void AcceptLoop();
  void SupervisorLoop();
  void HandleConnection(Socket conn);
  // Dispatches one framed session on `conn`; any returned error was NOT yet
  // reported to the peer (HandleConnection sends the ERROR frame).
  Status RunSession(Socket& conn);
  Status RunStreamSession(Socket& conn, const Frame& open);
  Status HandleMetrics(Socket& conn);
  // Prometheus text exposition; `dispatch_ms` (read-to-dispatch latency) is
  // observed into serve.verb_ms BEFORE the snapshot is taken, so the
  // response always carries a non-empty verb-latency histogram.
  Status HandleMetricsProm(Socket& conn, double dispatch_ms);
  Status HandleHealth(Socket& conn);

  std::shared_ptr<SessionWatch> RegisterWatch(const std::string& tenant,
                                              const std::string& stream);
  void UnregisterWatch(const std::shared_ptr<SessionWatch>& watch);

  // Drain-checkpoint path for (tenant, stream); stable across restarts.
  std::string CheckpointPath(const std::string& tenant,
                             const std::string& stream) const;

  const WorkloadModel* model_;
  ServerOptions options_;
  StreamRegistry registry_;
  Socket listener_;
  uint16_t port_ = 0;
  CancelToken drain_;
  std::thread accept_thread_;
  Status accept_status_;

  std::thread supervisor_thread_;
  std::atomic<bool> supervisor_stop_{false};
  // End of the current degradation window (steady-clock ms); 0 = none yet.
  std::atomic<int64_t> degraded_until_ms_{0};
  std::atomic<const char*> degraded_reason_{""};

  std::mutex watch_mu_;
  uint64_t next_watch_id_ = 0;
  std::map<uint64_t, std::shared_ptr<SessionWatch>> watches_;

  // Connection handlers run detached but counted, so Wait() can join them
  // without tracking thread objects.
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  size_t active_conns_ = 0;
  bool started_ = false;
};

}  // namespace serve
}  // namespace cloudgen

#endif  // SRC_SERVE_SERVER_H_
