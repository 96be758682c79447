// Minimal POSIX TCP wrappers for the serve daemon and its client.
//
// Everything here is Status-first and deadline-aware: blocking calls are
// implemented as poll(2) slices of <=100ms so every wait observes both the
// caller's timeout and an optional CancelToken. There are no hidden infinite
// blocks — a hung peer surfaces as UNAVAILABLE after the timeout, and a
// SIGTERM-driven drain interrupts accept/read/write loops within one slice.
//
// Error taxonomy (matching docs/ROBUSTNESS.md):
//   UNAVAILABLE  transient network conditions: timeouts, connection reset,
//                peer closed, refused connections, injected net_* faults.
//                Retryable under util/retry.h.
//   ABORTED      the CancelToken fired mid-operation (drain/SIGTERM).
//   INVALID_ARGUMENT / INTERNAL  caller bugs or unexpected syscall failures.
//
// Fault injection (CLOUDGEN_FAULT, src/util/fault.h):
//   net_accept_fail   an accepted connection is closed before being returned.
//   net_conn_drop     a read/write fails as if the peer vanished; the socket
//                     is shut down so the peer observes EOF.
//   net_partial_write a write delivers only a prefix, then the socket is shut
//                     down — the peer sees a truncated frame followed by EOF.
#ifndef SRC_UTIL_NET_H_
#define SRC_UTIL_NET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/util/status.h"

namespace cloudgen {

class CancelToken;

// Move-only RAII owner of a socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Closes the descriptor (idempotent).
  void Close();
  // Lingering close: shutdown(SHUT_WR) so the peer gets a FIN after every
  // byte already written, then read and discard whatever the peer still
  // sends until its EOF, `timeout_ms` of wall-clock time, or `cancel` fires
  // (noticed within one <=100ms poll slice), then Close(). A plain Close()
  // with unread bytes in the receive buffer makes the kernel send RST, which
  // drops anything still queued for the peer — such as a final END or ERROR
  // frame. The discard reads bypass the fault injector.
  void CloseAfterPeer(int timeout_ms, const CancelToken* cancel);
  // shutdown(2) both directions without closing; peers observe EOF. Used by
  // fault injection so a "dropped" connection looks like a real drop.
  void ShutdownBoth();

 private:
  int fd_ = -1;
};

// Creates a listening TCP socket bound to `bind_addr:port` (port 0 picks an
// ephemeral port; read it back with LocalPort). SO_REUSEADDR is set so a
// restarted daemon rebinds immediately.
StatusOr<Socket> ListenTcp(const std::string& bind_addr, uint16_t port,
                           int backlog = 64);

// The port a listening (or connected) socket is bound to locally.
StatusOr<uint16_t> LocalPort(const Socket& sock);

// Waits up to `timeout_ms` for one connection on `listener`. Three outcomes:
//   OK and conn->valid()    a connection was accepted;
//   OK and !conn->valid()   timeout or cancel poll expired with nothing
//                           pending — poll the cancel token and call again;
//   !OK                     a transient accept failure (including an injected
//                           net_accept_fail); log, count, keep accepting.
Status AcceptConnection(Socket& listener, int timeout_ms,
                        const CancelToken* cancel, Socket* conn);

// Connects to `host:port` (numeric or resolvable name) within `timeout_ms`.
// Refused/timed-out connections return UNAVAILABLE (retryable).
StatusOr<Socket> ConnectTcp(const std::string& host, uint16_t port,
                            int timeout_ms);

// Reads exactly `n` bytes. On EOF returns UNAVAILABLE; `*bytes_read` (when
// non-null) tells the caller how far it got, so a framed-protocol reader can
// distinguish a clean between-frames close (0 bytes) from a mid-frame drop.
// Timeout -> UNAVAILABLE, cancel -> ABORTED.
Status ReadFully(Socket& sock, void* buf, size_t n, int timeout_ms,
                 const CancelToken* cancel, size_t* bytes_read = nullptr);

// Writes exactly `n` bytes (MSG_NOSIGNAL; a dead peer is a Status, never a
// SIGPIPE). Timeout -> UNAVAILABLE, cancel -> ABORTED. Injected faults
// (net_conn_drop, net_partial_write) shut the socket down and return
// UNAVAILABLE so both ends converge on "connection lost".
Status WriteFully(Socket& sock, const void* buf, size_t n, int timeout_ms,
                  const CancelToken* cancel);

// A connected AF_UNIX socket pair for protocol tests (no listener needed).
Status SocketPair(Socket* a, Socket* b);

}  // namespace cloudgen

#endif  // SRC_UTIL_NET_H_
