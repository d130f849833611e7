#include "net/socket.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace vdbench::net {

namespace {

std::string errno_text(std::string_view what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// Milliseconds until `deadline`, clamped for poll(): 0 once it has passed,
// rounded up before it so a wait never wakes just short and spins.
int poll_timeout_ms(Deadline deadline) {
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) return 0;
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count();
  constexpr long long kMaxPollMs = 60'000;
  return static_cast<int>(left > kMaxPollMs ? kMaxPollMs : (left + 1));
}

// poll_timeout_ms for I/O: throws on an already-expired deadline so
// callers never spin.
int remaining_ms(Deadline deadline, std::string_view what) {
  if (std::chrono::steady_clock::now() >= deadline)
    throw TransportError(std::string(what) + " deadline expired");
  return poll_timeout_ms(deadline);
}

// Park until `fd` is ready for `events` or the deadline passes.
void wait_ready(int fd, short events, Deadline deadline,
                std::string_view what) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, remaining_ms(deadline, what));
    if (rc > 0) return;  // ready (or error/hup — the next syscall reports)
    if (rc == 0) continue;  // re-check the deadline, clamp again
    if (errno == EINTR) continue;
    throw TransportError(errno_text(std::string(what) + " poll"));
  }
}

// Every connected socket must be O_NONBLOCK: read_exact/write_all rely on
// recv/send returning EAGAIN so that wait_ready's poll() deadline governs
// all progress. A blocking send could otherwise wedge a thread once the
// kernel buffer fills against a peer that stopped reading.
void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    const std::string detail = errno_text("fcntl O_NONBLOCK");
    ::close(fd);
    throw TransportError(detail);
  }
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path))
    throw TransportError("socket path too long: " + path);
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

}  // namespace

Deadline no_deadline() noexcept {
  return std::chrono::steady_clock::now() + std::chrono::hours(24);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::read_exact(char* dst, std::size_t n, Deadline deadline) {
  if (!valid()) throw TransportError("read on a closed socket");
  std::size_t done = 0;
  while (done < n) {
    wait_ready(fd_, POLLIN, deadline, "read");
    const ssize_t got = ::recv(fd_, dst + done, n - done, 0);
    if (got > 0) {
      done += static_cast<std::size_t>(got);
      continue;
    }
    if (got == 0)
      throw TransportError("peer closed after " + std::to_string(done) +
                           " of " + std::to_string(n) + " bytes");
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    throw TransportError(errno_text("recv"));
  }
}

void Socket::write_all(const char* src, std::size_t n, Deadline deadline) {
  if (!valid()) throw TransportError("write on a closed socket");
  std::size_t done = 0;
  while (done < n) {
    wait_ready(fd_, POLLOUT, deadline, "write");
    const ssize_t sent =
        ::send(fd_, src + done, n - done, MSG_NOSIGNAL);
    if (sent > 0) {
      done += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 &&
        (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
      continue;
    throw TransportError(errno_text("send"));
  }
}

HangupWait Socket::wait_hangup(int wake_fd, Deadline deadline) const noexcept {
  if (!valid()) return HangupWait::kPeerGone;
  for (;;) {
    // POLLRDHUP fires on the peer's close or shutdown, not on pending
    // data, so unread bytes neither hide a hang-up nor wake this loop.
    // poll() skips a negative wake_fd.
    pollfd fds[2] = {{fd_, POLLRDHUP, 0}, {wake_fd, POLLIN, 0}};
    const int rc = ::poll(fds, 2, poll_timeout_ms(deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      // poll() on our own valid fds fails only on resource exhaustion;
      // report the peer as gone so the caller cancels rather than spins.
      return HangupWait::kPeerGone;
    }
    // Any event on the wake fd ends the wait, so a broken one cannot spin.
    if (fds[1].revents != 0) return HangupWait::kWoken;
    if ((fds[0].revents & (POLLRDHUP | POLLHUP | POLLERR | POLLNVAL)) != 0)
      return HangupWait::kPeerGone;
    if (std::chrono::steady_clock::now() >= deadline)
      return HangupWait::kDeadline;
  }
}

Listener::Listener(const std::string& path) : path_(path) {
  const sockaddr_un address = make_address(path);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd_ < 0) throw TransportError(errno_text("socket"));
  ::unlink(path.c_str());  // a stale socket file from a dead daemon
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    const std::string detail = errno_text("bind " + path);
    ::close(fd_);
    fd_ = -1;
    throw TransportError(detail);
  }
  if (::listen(fd_, 16) != 0) {
    const std::string detail = errno_text("listen " + path);
    ::close(fd_);
    fd_ = -1;
    ::unlink(path.c_str());
    throw TransportError(detail);
  }
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  if (!path_.empty()) ::unlink(path_.c_str());
}

std::optional<Socket> Listener::accept_one() {
  const int fd =
      ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
  if (fd >= 0) return Socket(fd);
  if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
      errno == ECONNABORTED)
    return std::nullopt;
  throw TransportError(errno_text("accept"));
}

Socket connect_unix(const std::string& path) {
  const sockaddr_un address = make_address(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw TransportError(errno_text("socket"));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    const std::string detail = errno_text("connect " + path);
    ::close(fd);
    throw TransportError(detail);
  }
  // Connect while still blocking (a unix-domain connect either completes
  // or fails immediately, no EINPROGRESS dance), then flip to O_NONBLOCK
  // for all subsequent I/O.
  set_nonblocking(fd);
  return Socket(fd);
}

}  // namespace vdbench::net
