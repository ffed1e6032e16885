#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace hxrc::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

}  // namespace

void Socket::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket listen_tcp(std::uint16_t port, int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) throw_errno("socket");
  const int one = 1;
  if (::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind(port " + std::to_string(port) + ")");
  }
  if (::listen(sock.fd(), backlog) != 0) throw_errno("listen");
  return sock;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

namespace {

/// connect() that gives up after `timeout_ms` (0 = the kernel's own SYN
/// timeout). Returns 0 or -1 with errno set; the socket ends blocking.
int connect_within(int fd, const sockaddr* addr, socklen_t len, std::uint32_t timeout_ms) {
  if (timeout_ms == 0) return ::connect(fd, addr, len);
  set_nonblocking(fd);
  if (::connect(fd, addr, len) != 0) {
    if (errno != EINPROGRESS) return -1;
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (ready <= 0) {
      if (ready == 0) errno = ETIMEDOUT;
      return -1;
    }
    int error = 0;
    socklen_t error_len = sizeof(error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &error_len) != 0) return -1;
    if (error != 0) {
      errno = error;
      return -1;
    }
  }
  return ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) & ~O_NONBLOCK);
}

}  // namespace

Socket connect_tcp(const std::string& host, std::uint16_t port, std::uint32_t timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &found);
  if (rc != 0) {
    throw SocketError("getaddrinfo(" + host + "): " + ::gai_strerror(rc));
  }
  Socket sock;
  int last_errno = 0;
  for (const addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    Socket candidate(::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC, 0));
    if (!candidate.valid()) {
      last_errno = errno;
      continue;
    }
    if (connect_within(candidate.fd(), ai->ai_addr, ai->ai_addrlen, timeout_ms) == 0) {
      sock = std::move(candidate);
      break;
    }
    last_errno = errno;
  }
  ::freeaddrinfo(found);
  if (!sock.valid()) {
    errno = last_errno;
    throw_errno("connect(" + host + ":" + std::to_string(port) + ")");
  }
  return sock;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    throw_errno("setsockopt(TCP_NODELAY)");
  }
}

void set_io_timeout(int fd, std::uint32_t millis) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(millis / 1000);
  tv.tv_usec = static_cast<suseconds_t>(millis % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    throw_errno("setsockopt(SO_RCVTIMEO)");
  }
  if (::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    throw_errno("setsockopt(SO_SNDTIMEO)");
  }
}

}  // namespace hxrc::net
