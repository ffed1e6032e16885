#include "net/client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace hxrc::net {

namespace {

void write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      // Shouldn't happen for a nonzero count on a socket; errno is stale
      // here, so don't report it.
      throw SocketError("send: wrote zero bytes");
    }
    if (errno == EINTR) continue;
    throw SocketError(std::string("send: ") + std::strerror(errno));
  }
}

}  // namespace

Frame read_frame(int fd, std::string& inbuf, std::size_t max_payload) {
  for (;;) {
    DecodeResult result = decode_frame(inbuf, max_payload);
    if (result.status == DecodeStatus::kFrame) {
      inbuf.erase(0, result.consumed);
      return std::move(result.frame);
    }
    if (result.status == DecodeStatus::kTooLarge) {
      throw SocketError("oversized frame from peer (payload exceeds " +
                        std::to_string(max_payload) + " bytes)");
    }
    if (result.status != DecodeStatus::kNeedMore) {
      throw SocketError("malformed frame from peer");
    }
    char buffer[64 * 1024];
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n > 0) {
      inbuf.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      throw SocketError(inbuf.empty()
                            ? "connection closed by peer"
                            : "connection closed by peer mid-frame (" +
                                  std::to_string(inbuf.size()) + " bytes buffered)");
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      throw SocketError("read timed out waiting for a frame");
    }
    throw SocketError(std::string("read: ") + std::strerror(errno));
  }
}

void write_frame(int fd, FrameType type, std::uint32_t request_id, std::string_view payload) {
  std::string wire;
  append_frame(wire, type, request_id, payload);
  write_all(fd, wire);
}

BlockingClient::BlockingClient(const std::string& host, std::uint16_t port,
                               std::uint32_t connect_timeout_ms)
    : sock_(connect_tcp(host, port, connect_timeout_ms)) {
  set_nodelay(sock_.fd());
}

std::uint32_t BlockingClient::send_request(std::string_view body) {
  const std::uint32_t id = next_id_++;
  send_frame(FrameType::kRequest, id, body);
  return id;
}

void BlockingClient::send_frame(FrameType type, std::uint32_t request_id,
                                std::string_view body) {
  write_frame(sock_.fd(), type, request_id, body);
}

void BlockingClient::send_raw(std::string_view bytes) {
  write_all(sock_.fd(), bytes);
}

Frame BlockingClient::recv_frame() { return read_frame(sock_.fd(), inbuf_, max_payload_); }

std::string BlockingClient::call(std::string_view body) {
  const std::uint32_t id = send_request(body);
  Frame frame = recv_frame();
  if (frame.request_id != id) {
    throw SocketError("response id " + std::to_string(frame.request_id) +
                      " does not match request id " + std::to_string(id));
  }
  return std::move(frame.payload);
}

}  // namespace hxrc::net
