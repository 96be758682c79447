#include "src/util/net.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/util/cancel.h"
#include "src/util/fault.h"
#include "src/util/strings.h"

namespace cloudgen {
namespace {

// Largest single poll(2) wait; keeps cancel/deadline latency bounded even
// when the caller asked for a long (or infinite) timeout.
constexpr int kPollSliceMs = 100;

std::string Errno(const char* what) {
  return StrFormat("%s: %s (errno %d)", what, std::strerror(errno), errno);
}

Status SetNonBlocking(int fd, bool enable) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return InternalError(Errno("fcntl(F_GETFL)"));
  }
  const int wanted = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd, F_SETFL, wanted) < 0) {
    return InternalError(Errno("fcntl(F_SETFL)"));
  }
  return OkStatus();
}

// Waits for `events` on `fd` for one slice of the caller's budget.
// Returns +1 ready, 0 not ready yet (budget remains), -1 budget exhausted.
// `remaining_ms` is decremented by the slice; negative budget = infinite.
int PollSlice(int fd, short events, int* remaining_ms) {
  int wait = kPollSliceMs;
  if (*remaining_ms >= 0) {
    if (*remaining_ms == 0) {
      return -1;
    }
    wait = std::min(wait, *remaining_ms);
  }
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  const int rc = poll(&pfd, 1, wait);
  if (*remaining_ms >= 0) {
    *remaining_ms -= wait;
  }
  if (rc > 0 && (pfd.revents & (events | POLLERR | POLLHUP)) != 0) {
    return 1;
  }
  return (*remaining_ms == 0) ? -1 : 0;
}

Status CancelledStatus(const CancelToken* cancel, const char* what) {
  return AbortedError(StrFormat("%s cancelled (%s)", what,
                                CancelReasonName(cancel->Reason())));
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::CloseAfterPeer(int timeout_ms, const CancelToken* cancel) {
  if (fd_ >= 0 && ::shutdown(fd_, SHUT_WR) == 0) {
    // A wall-clock deadline, not a PollSlice budget. A budget charged per
    // poll never runs out for a peer that writes without pause (recv() never
    // reports EAGAIN), and runs out early for one that writes in bursts
    // (each wake-up costs a whole slice).
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(std::max(0, timeout_ms));
    char discard[16 << 10];
    for (;;) {
      const ssize_t r = ::recv(fd_, discard, sizeof(discard), MSG_DONTWAIT);
      if (r == 0) {
        break;  // Peer EOF: nothing unread remains, so close sends no RST.
      }
      if (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        break;  // Reset or otherwise dead; nothing left to protect.
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0 || (cancel != nullptr && cancel->Poll())) {
        break;
      }
      if (r < 0) {
        struct pollfd pfd;
        pfd.fd = fd_;
        pfd.events = POLLIN;
        pfd.revents = 0;
        (void)::poll(&pfd, 1,
                     static_cast<int>(std::min<int64_t>(left, kPollSliceMs)));
      }
    }
  }
  Close();
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

StatusOr<Socket> ListenTcp(const std::string& bind_addr, uint16_t port,
                           int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    return InternalError(Errno("socket"));
  }
  const int one = 1;
  if (setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
    return InternalError(Errno("setsockopt(SO_REUSEADDR)"));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (bind_addr.empty() || bind_addr == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (bind_addr == "localhost") {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError(
        StrFormat("bind address '%s' is not a valid IPv4 address",
                  bind_addr.c_str()));
  }
  if (bind(sock.fd(), reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) < 0) {
    return UnavailableError(
        Errno(StrFormat("bind %s:%u", bind_addr.c_str(),
                        static_cast<unsigned>(port))
                  .c_str()));
  }
  if (listen(sock.fd(), backlog) < 0) {
    return InternalError(Errno("listen"));
  }
  CG_RETURN_IF_ERROR(SetNonBlocking(sock.fd(), true));
  return sock;
}

StatusOr<uint16_t> LocalPort(const Socket& sock) {
  struct sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (getsockname(sock.fd(), reinterpret_cast<struct sockaddr*>(&addr),
                  &len) < 0) {
    return InternalError(Errno("getsockname"));
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Status AcceptConnection(Socket& listener, int timeout_ms,
                        const CancelToken* cancel, Socket* conn) {
  *conn = Socket();
  int remaining = timeout_ms;
  for (;;) {
    if (cancel != nullptr && cancel->Poll()) {
      return OkStatus();  // Drain in progress; caller checks the token.
    }
    const int ready = PollSlice(listener.fd(), POLLIN, &remaining);
    if (ready < 0) {
      return OkStatus();  // Timeout: nothing pending, caller loops.
    }
    if (ready == 0) {
      continue;
    }
    if (FaultInjector::Global().ShouldInject(FaultKind::kFdExhaust)) {
      return ResourceExhaustedError(
          "injected fd_exhaust: accept: too many open files (EMFILE)");
    }
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNABORTED) {
        continue;  // Raced another waiter or the peer gave up; keep going.
      }
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds or kernel memory: retrying immediately cannot succeed
        // and would spin the accept loop. Callers must back off.
        return ResourceExhaustedError(Errno("accept"));
      }
      return UnavailableError(Errno("accept"));
    }
    if (FaultInjector::Global().ShouldInject(FaultKind::kNetAcceptFail)) {
      ::close(fd);
      return UnavailableError("injected net_accept_fail: connection dropped at accept");
    }
    Socket accepted(fd);
    // Accepted fds do not inherit O_NONBLOCK; all framed I/O assumes it.
    CG_RETURN_IF_ERROR(SetNonBlocking(accepted.fd(), true));
    *conn = std::move(accepted);
    return OkStatus();
  }
}

StatusOr<Socket> ConnectTcp(const std::string& host, uint16_t port,
                            int timeout_ms) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* result = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = getaddrinfo(host.c_str(), port_str.c_str(), &hints, &result);
  if (rc != 0 || result == nullptr) {
    return UnavailableError(StrFormat("resolve '%s': %s", host.c_str(),
                                      gai_strerror(rc)));
  }
  Socket sock(::socket(result->ai_family, result->ai_socktype,
                       result->ai_protocol));
  if (!sock.valid()) {
    freeaddrinfo(result);
    return InternalError(Errno("socket"));
  }
  Status status = SetNonBlocking(sock.fd(), true);
  if (!status.ok()) {
    freeaddrinfo(result);
    return status;
  }
  const int crc = ::connect(sock.fd(), result->ai_addr, result->ai_addrlen);
  freeaddrinfo(result);
  if (crc < 0 && errno != EINPROGRESS) {
    return UnavailableError(
        Errno(StrFormat("connect %s:%u", host.c_str(),
                        static_cast<unsigned>(port))
                  .c_str()));
  }
  if (crc < 0) {
    int remaining = timeout_ms;
    for (;;) {
      const int ready = PollSlice(sock.fd(), POLLOUT, &remaining);
      if (ready < 0) {
        return UnavailableError(StrFormat(
            "connect %s:%u timed out after %dms", host.c_str(),
            static_cast<unsigned>(port), timeout_ms));
      }
      if (ready > 0) {
        break;
      }
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      return InternalError(Errno("getsockopt(SO_ERROR)"));
    }
    if (err != 0) {
      return UnavailableError(StrFormat(
          "connect %s:%u: %s (errno %d)", host.c_str(),
          static_cast<unsigned>(port), std::strerror(err), err));
    }
  }
  return sock;
}

Status ReadFully(Socket& sock, void* buf, size_t n, int timeout_ms,
                 const CancelToken* cancel, size_t* bytes_read) {
  if (bytes_read != nullptr) {
    *bytes_read = 0;
  }
  if (FaultInjector::Global().ShouldInject(FaultKind::kNetConnDrop)) {
    sock.ShutdownBoth();
    return UnavailableError("injected net_conn_drop: connection lost during read");
  }
  size_t got = 0;
  int remaining = timeout_ms;
  while (got < n) {
    if (cancel != nullptr && cancel->Poll()) {
      return CancelledStatus(cancel, "read");
    }
    const ssize_t r = ::recv(sock.fd(), static_cast<char*>(buf) + got,
                             n - got, 0);
    if (r > 0) {
      got += static_cast<size_t>(r);
      if (bytes_read != nullptr) {
        *bytes_read = got;
      }
      continue;
    }
    if (r == 0) {
      return UnavailableError(StrFormat(
          "connection closed by peer after %zu of %zu byte(s)", got, n));
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const int ready = PollSlice(sock.fd(), POLLIN, &remaining);
      if (ready < 0) {
        return UnavailableError(StrFormat(
            "read timed out after %dms (%zu of %zu byte(s))", timeout_ms, got,
            n));
      }
      continue;
    }
    if (errno == EINTR) {
      continue;
    }
    return UnavailableError(Errno("recv"));
  }
  return OkStatus();
}

Status WriteFully(Socket& sock, const void* buf, size_t n, int timeout_ms,
                  const CancelToken* cancel) {
  if (FaultInjector::Global().ShouldInject(FaultKind::kNetConnDrop)) {
    sock.ShutdownBoth();
    return UnavailableError("injected net_conn_drop: connection lost during write");
  }
  size_t limit = n;
  bool partial = false;
  if (n > 1 &&
      FaultInjector::Global().ShouldInject(FaultKind::kNetPartialWrite)) {
    limit = n / 2;  // Deliver a prefix, then kill the connection.
    partial = true;
  }
  size_t sent = 0;
  int remaining = timeout_ms;
  while (sent < limit) {
    if (cancel != nullptr && cancel->Poll()) {
      return CancelledStatus(cancel, "write");
    }
    const ssize_t w = ::send(sock.fd(), static_cast<const char*>(buf) + sent,
                             limit - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int ready = PollSlice(sock.fd(), POLLOUT, &remaining);
      if (ready < 0) {
        return UnavailableError(StrFormat(
            "write timed out after %dms (%zu of %zu byte(s))", timeout_ms,
            sent, n));
      }
      continue;
    }
    if (w < 0 && errno == EINTR) {
      continue;
    }
    if (w < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return UnavailableError(StrFormat(
          "connection closed by peer after %zu of %zu byte(s)", sent, n));
    }
    return UnavailableError(Errno("send"));
  }
  if (partial) {
    sock.ShutdownBoth();
    return UnavailableError(StrFormat(
        "injected net_partial_write: wrote %zu of %zu byte(s) then dropped",
        limit, n));
  }
  return OkStatus();
}

Status SocketPair(Socket* a, Socket* b) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0) {
    return InternalError(Errno("socketpair"));
  }
  *a = Socket(fds[0]);
  *b = Socket(fds[1]);
  CG_RETURN_IF_ERROR(SetNonBlocking(a->fd(), true));
  CG_RETURN_IF_ERROR(SetNonBlocking(b->fd(), true));
  return OkStatus();
}

}  // namespace cloudgen
