// Minimal POSIX socket RAII for the vdbench daemon: unix-domain stream
// sockets with deadline-aware non-blocking I/O.
//
// Everything here is deliberately thin — ownership, deadlines and error
// typing — because the interesting behaviour (framing, checksums, fault
// injection) lives in net/frame.h on top of plain byte callbacks. Every
// connected fd is O_NONBLOCK, so recv/send always return immediately and
// poll() is the only place a thread waits. Every operation takes an
// absolute steady-clock deadline: a peer that stalls past it — including
// one that stops draining its receive buffer mid-response — raises
// TransportError instead of wedging a daemon thread, which is the
// mechanism behind per-connection deadlines. SIGPIPE is never raised
// (sends use MSG_NOSIGNAL), so a client that vanishes mid-response
// surfaces as an error return, not a process signal.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>

#include "net/frame.h"

namespace vdbench::net {

/// Absolute I/O deadline on the monotonic clock.
using Deadline = std::chrono::steady_clock::time_point;

/// A deadline far enough out to mean "no deadline" for practical purposes.
[[nodiscard]] Deadline no_deadline() noexcept;

/// What ended a Socket::wait_hangup().
enum class HangupWait { kWoken, kPeerGone, kDeadline };

/// Owns one connected stream-socket file descriptor. Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close() noexcept;

  /// Fill exactly [dst, dst+n) before `deadline`. Throws TransportError on
  /// EOF, I/O error, or deadline expiry.
  void read_exact(char* dst, std::size_t n, Deadline deadline);

  /// Write exactly [src, src+n) before `deadline`. Throws TransportError
  /// on I/O error (including a closed peer) or deadline expiry.
  void write_all(const char* src, std::size_t n, Deadline deadline);

  /// Block until `wake_fd` is readable (kWoken), the peer is gone
  /// (kPeerGone), or `deadline` passes (kDeadline), whichever comes
  /// first; a negative `wake_fd` is ignored, and a past deadline makes
  /// this a non-blocking probe. The peer is gone once it closed or shut
  /// down its end, or the connection failed (ECONNRESET and friends) —
  /// even while bytes it sent are still unread. One poll() with no
  /// periodic wakeup: the server's session watchdog.
  [[nodiscard]] HangupWait wait_hangup(int wake_fd,
                                       Deadline deadline) const noexcept;

 private:
  int fd_ = -1;
};

/// Bound + listening unix-domain socket. Construction unlinks any stale
/// socket file at `path`, binds, and listens; destruction closes and
/// unlinks. Throws TransportError when the path cannot be bound.
class Listener {
 public:
  explicit Listener(const std::string& path);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Accept one pending connection. Returns nullopt on a transient
  /// failure (EINTR, the peer aborting mid-handshake); throws
  /// TransportError only when the listening socket itself is broken.
  [[nodiscard]] std::optional<Socket> accept_one();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Connect to a daemon's unix-domain socket. Throws TransportError when
/// the socket is absent or refuses.
[[nodiscard]] Socket connect_unix(const std::string& path);

}  // namespace vdbench::net
