// Load generation over the framed wire protocol.
//
// Two loop shapes, both recording one Sample per request:
//
//  * open_loop: one thread sends on a fixed schedule (request i is due at
//    start + i / rate) over up to `connections` sockets, pipelining freely,
//    and reads responses with epoll. Latency is measured from the due
//    time, so a stall is charged to every request it delays; the lag of
//    each actual send behind its due time is recorded separately.
//  * closed_loop: one thread per connection, each sending its next request
//    only after the previous response arrived (callers that wait for a
//    reply, as a federation router's callers do).
//
// Every response frame is checked: echoed request id, response frame type,
// a <catalogResponse> payload with protocol="1", and status="ok".
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace hxbench {

enum class Kind : std::uint8_t { kQuery, kFetch, kIngest };

inline const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kQuery: return "query";
    case Kind::kFetch: return "fetch";
    case Kind::kIngest: return "ingest";
  }
  return "?";
}

struct Request {
  Kind kind = Kind::kQuery;
  std::string body;
  /// Caller-defined tag handed back with the response (-1 = none).
  std::int64_t tag = -1;
};

struct Sample {
  Kind kind = Kind::kQuery;
  bool ok = false;
  std::uint64_t hash = 0;
  /// Microseconds since the run epoch: due time (== sent for closed loop),
  /// actual send, and response decoded.
  double due_us = 0;
  double sent_us = 0;
  double done_us = 0;
  /// Latency charged to the request (from due time).
  double latency_us() const { return done_us - due_us; }
};

/// Called for every response (ok or not) with the request that caused it.
/// Open loop: always on the generator thread. Closed loop: on the
/// connection's thread, so it must be thread-safe.
using ResponseHook = std::function<void(const Request&, std::string_view body, bool ok)>;

/// Returns the next request for connection `conn`.
using Picker = std::function<Request(std::size_t conn)>;

struct LoopResult {
  std::vector<Sample> samples;
  /// Requests lost without a sample (closed loop: a connection failed
  /// mid-request). Open loop: always 0; its unanswered requests are samples
  /// with ok=false.
  std::uint64_t unanswered = 0;
  /// Frames failing the envelope checks (counted as failed samples too).
  std::uint64_t bad_frames = 0;
  double elapsed_s = 0;
  /// Open loop only: send lag behind schedule per request, and requests in
  /// flight at each send.
  std::vector<double> lag_us;
  std::vector<std::uint32_t> in_flight;
};

struct OpenLoopConfig {
  std::uint16_t port = 0;
  std::size_t connections = 1;
  double rate = 100;
  /// Stop after this many seconds, or earlier once `*stop` reads true.
  double seconds = 1;
  const std::atomic<bool>* stop = nullptr;
};

LoopResult open_loop(const OpenLoopConfig& config, const Picker& pick,
                     const ResponseHook& hook, Clock::time_point epoch);

struct ClosedLoopConfig {
  std::uint16_t port = 0;
  std::size_t connections = 1;
  /// Stop after this many seconds, or per connection once the picker
  /// returns a request with an empty body.
  double seconds = 1;
};

LoopResult closed_loop(const ClosedLoopConfig& config, const Picker& pick,
                       const ResponseHook& hook, Clock::time_point epoch);

/// Envelope check shared by both loops and the one-shot calls.
bool response_ok(std::string_view body);

/// One synchronous request on a fresh connection (stats reads, checks).
std::string call_once(std::uint16_t port, std::string_view body);

}  // namespace hxbench
