// BlockingClient: a simple synchronous peer for CatalogServer.
//
// This is the test/tooling side of the wire protocol — one blocking socket,
// frames written whole and read whole. The closed-loop load generator uses
// its own non-blocking machinery (bench/bench_net.cpp); tests and shells
// want the straightforward thing: call() = one request, one response.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace hxrc::net {

/// Blocking frame I/O shared by BlockingClient and the replication
/// listener. read_frame returns one complete frame from `fd`, keeping
/// surplus bytes in `inbuf` for the next call; write_frame frames `payload`
/// and writes it whole with MSG_NOSIGNAL, so a vanished peer raises EPIPE
/// instead of SIGPIPE. Both throw SocketError on every failure: EOF, read
/// timeout, I/O error, a malformed header, or a payload above
/// `max_payload` (detected from the header, before the payload is read).
Frame read_frame(int fd, std::string& inbuf, std::size_t max_payload);
void write_frame(int fd, FrameType type, std::uint32_t request_id, std::string_view payload);

class BlockingClient {
 public:
  /// Largest response payload accepted by default. A peer announcing a
  /// bigger length in its header gets a clean SocketError instead of an
  /// unbounded allocation (or, worse, an eternal read loop waiting for
  /// petabytes that never come).
  static constexpr std::size_t kDefaultMaxPayload = std::size_t{256} << 20;

  /// Connects immediately, within `connect_timeout_ms` when nonzero;
  /// throws SocketError on failure.
  BlockingClient(const std::string& host, std::uint16_t port,
                 std::uint32_t connect_timeout_ms = 0);

  BlockingClient(BlockingClient&&) = default;
  BlockingClient& operator=(BlockingClient&&) = default;

  /// Frames `body` as a kRequest and writes it fully. Returns the request
  /// id assigned (monotone per client).
  std::uint32_t send_request(std::string_view body);

  /// Like send_request but with an explicit frame type/version — for tests
  /// poking at protocol errors.
  void send_frame(FrameType type, std::uint32_t request_id, std::string_view body);

  /// Writes raw bytes verbatim (malformed-input tests).
  void send_raw(std::string_view bytes);

  /// Blocks until one complete frame arrives. Throws SocketError on EOF or
  /// error mid-frame.
  Frame recv_frame();

  /// send_request + recv_frame; throws SocketError when the echoed request
  /// id does not match (callers that pipeline must not use call()).
  std::string call(std::string_view body);

  /// Caps the response payload this client will accept (see
  /// kDefaultMaxPayload). A frame header announcing more throws SocketError
  /// from recv_frame without consuming the stream.
  void set_max_payload(std::size_t bytes) noexcept { max_payload_ = bytes; }

  /// Bounds every blocking read/write on this connection (net::set_io_timeout);
  /// an expired wait surfaces as SocketError. 0 = wait forever.
  void set_io_timeout(std::uint32_t millis) { net::set_io_timeout(sock_.fd(), millis); }

  int fd() const noexcept { return sock_.fd(); }

 private:
  Socket sock_;
  std::string inbuf_;
  std::uint32_t next_id_ = 1;
  std::size_t max_payload_ = kDefaultMaxPayload;
};

}  // namespace hxrc::net
