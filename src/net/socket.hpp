// Thin RAII + error-checked wrappers over POSIX TCP sockets.
//
// Everything net/ touches a file descriptor through goes through here, so
// fd lifetimes are single-owner by construction and every syscall failure
// carries errno context. Linux-only (epoll lives in server.cpp; this file
// is plain BSD sockets and would port, but the event loop would not).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace hxrc::net {

class SocketError : public std::runtime_error {
 public:
  explicit SocketError(const std::string& message) : std::runtime_error(message) {}
};

/// Move-only owner of a file descriptor; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { reset(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  /// Releases ownership without closing.
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// Binds + listens on 127.0.0.1:`port` (0 = kernel-chosen ephemeral port),
/// SO_REUSEADDR set. Throws SocketError.
Socket listen_tcp(std::uint16_t port, int backlog = 512);

/// The locally-bound port of a listening/connected socket.
std::uint16_t local_port(int fd);

/// Blocking connect to host:port (numeric IPv4 or a resolvable name).
/// A nonzero `timeout_ms` bounds the handshake, so a host that is down
/// costs that long rather than the kernel's SYN retry budget.
Socket connect_tcp(const std::string& host, std::uint16_t port, std::uint32_t timeout_ms = 0);

void set_nonblocking(int fd);
/// Disables Nagle: the server writes whole frames and the closed-loop
/// client sends one request per round trip — batching only adds latency.
void set_nodelay(int fd);
/// SO_RCVTIMEO + SO_SNDTIMEO on a blocking socket: reads and writes that
/// stall longer than `millis` fail with EAGAIN instead of hanging forever.
/// The federation router's per-shard calls run on top of this — a dead or
/// wedged shard must cost one bounded timeout, not a stuck worker.
/// 0 = never time out (the default state of a fresh socket).
void set_io_timeout(int fd, std::uint32_t millis);

}  // namespace hxrc::net
