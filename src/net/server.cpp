#include "net/server.hpp"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/service.hpp"
#include "net/frame.hpp"

namespace hxrc::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kReadChunk = 64 * 1024;
/// Reads per EPOLLIN event before yielding back to the loop (fairness: one
/// fast peer must not starve the rest of the shard).
constexpr int kReadsPerEvent = 4;
/// Compact the input buffer once this many consumed bytes accumulate.
constexpr std::size_t kCompactThreshold = 256 * 1024;

}  // namespace

// ---------------------------------------------------------------------------
// EventLoop: one epoll shard. Connections live and die on this thread; the
// acceptor and dispatcher workers only ever touch the inbox + eventfd.
// ---------------------------------------------------------------------------

class CatalogServer::EventLoop {
 public:
  EventLoop(CatalogServer& server, std::size_t index)
      : server_(server), index_(index) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) throw SocketError("epoll_create1 failed");
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) {
      ::close(epoll_fd_);
      throw SocketError("eventfd failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeToken;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }

  ~EventLoop() {
    // By destruction time the acceptor and dispatcher callbacks are joined
    // out, but their final posts may have landed after run() returned.
    discard_inbox();
    ::close(wake_fd_);
    ::close(epoll_fd_);
  }

  void start() {
    thread_ = std::thread([this] { run(); });
  }
  void join() {
    if (thread_.joinable()) thread_.join();
  }

  void post_connection(int fd) {
    Op op;
    op.kind = Op::kNewConnection;
    op.fd = fd;
    post(std::move(op));
  }

  void post_response(std::uint64_t conn_id, std::uint32_t request_id,
                     std::string payload) {
    Op op;
    op.kind = Op::kResponse;
    op.conn_id = conn_id;
    op.request_id = request_id;
    op.payload = std::move(payload);
    post(std::move(op));
  }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }

 private:
  static constexpr std::uint64_t kWakeToken = ~std::uint64_t{0};

  struct Op {
    enum Kind { kNewConnection, kResponse } kind = kNewConnection;
    int fd = -1;
    std::uint64_t conn_id = 0;
    std::uint32_t request_id = 0;
    std::string payload;
  };

  struct Connection {
    Socket sock;
    std::uint64_t id = 0;
    std::string inbuf;
    std::size_t inpos = 0;
    std::string outbuf;
    std::size_t outpos = 0;
    /// Requests submitted to the dispatcher whose response has not been
    /// queued to outbuf yet.
    std::size_t in_flight = 0;
    std::uint32_t armed = 0;  ///< epoll interest currently registered
    bool write_paused = false;
    bool peer_closed = false;
    /// Flush what is queued, then close (protocol error / drain cutoff).
    bool close_after_flush = false;
    Clock::time_point last_activity;
  };

  void post(Op op) {
    {
      std::lock_guard lock(mutex_);
      inbox_.push_back(std::move(op));
    }
    wake();
  }

  bool inbox_empty() {
    std::lock_guard lock(mutex_);
    return inbox_.empty();
  }

  void run() {
    std::vector<epoll_event> events(128);
    while (!server_.stopping_.load(std::memory_order_acquire)) {
      const bool draining = server_.draining_.load(std::memory_order_acquire);
      update_pause_state();

      int timeout_ms = 500;
      if (paused_) {
        timeout_ms = 1;  // poll the dispatcher queue for the low watermark
      } else if (draining) {
        timeout_ms = 10;
      } else if (server_.config_.idle_timeout.count() > 0) {
        timeout_ms = 100;
      }
      const int ready =
          ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                       timeout_ms);

      // Reset the eventfd before draining the inbox, not after: a post
      // that lands in between writes it again and wakes the next wait.
      // Reset after the drain, that post's op would sit in the inbox until
      // the epoll timeout.
      for (int i = 0; i < ready; ++i) {
        if (events[static_cast<std::size_t>(i)].data.u64 == kWakeToken) {
          std::uint64_t counter = 0;
          [[maybe_unused]] const ssize_t n =
              ::read(wake_fd_, &counter, sizeof(counter));
          break;
        }
      }
      drain_inbox();
      for (int i = 0; i < ready; ++i) {
        if (events[static_cast<std::size_t>(i)].data.u64 == kWakeToken) continue;
        const std::uint64_t id = events[static_cast<std::size_t>(i)].data.u64;
        const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;  // closed earlier this iteration
        Connection& conn = *it->second;
        if ((mask & (EPOLLERR | EPOLLHUP)) != 0) {
          // Let a final read report whatever the kernel buffered, then EOF.
          conn.peer_closed = true;
        }
        if ((mask & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) handle_readable(conn);
        it = conns_.find(id);
        if (it == conns_.end()) continue;
        if ((mask & EPOLLOUT) != 0) flush_writes(*it->second);
      }

      sweep_idle();
      if (draining && sweep_drain()) break;
    }
    close_all();
    discard_inbox();  // kNewConnection ops hold raw fds; don't leak them
  }

  /// Dispatcher-queue backpressure with hysteresis: pause reads at the
  /// high watermark, resume at the low one. Applied loop-wide — while
  /// paused no socket of this shard is read and no parsed frame is
  /// submitted, so saturation surfaces as TCP backpressure at the peers.
  void update_pause_state() {
    const std::size_t depth = server_.broker_.queue_depth();
    const bool want =
        paused_ ? depth > server_.pause_low_ : depth >= server_.pause_high_;
    if (want == paused_) return;
    paused_ = want;
    if (paused_) {
      server_.stats_.pauses.read_pauses.fetch_add(1, std::memory_order_relaxed);
    }
    for (auto& [id, conn] : conns_) update_interest(*conn);
    if (!paused_) {
      // Frames buffered while paused are waiting in inbufs; submit them
      // now, they would otherwise sit until the peer sends more bytes.
      for (auto it = conns_.begin(); it != conns_.end();) {
        Connection& conn = *it->second;
        ++it;  // parse_frames may erase the connection
        parse_frames(conn);
      }
    }
  }

  void drain_inbox() {
    std::vector<Op> batch;
    {
      std::lock_guard lock(mutex_);
      batch.swap(inbox_);
    }
    for (Op& op : batch) {
      if (op.kind == Op::kNewConnection) {
        add_connection(op.fd);
      } else {
        complete_response(op);
      }
    }
  }

  void add_connection(int fd) {
    if (server_.stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    auto conn = std::make_unique<Connection>();
    conn->sock = Socket(fd);
    conn->id = server_.next_conn_.fetch_add(1, std::memory_order_relaxed);
    conn->last_activity = Clock::now();
    epoll_event ev{};
    ev.events = 0;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return;  // conn destructor closes the fd
    }
    Connection& ref = *conn;
    conns_.emplace(conn->id, std::move(conn));
    server_.open_connections_.fetch_add(1, std::memory_order_acq_rel);
    update_interest(ref);
  }

  void complete_response(Op& op) {
    auto it = conns_.find(op.conn_id);
    if (it == conns_.end()) {
      server_.stats_.dropped_responses.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Connection& conn = *it->second;
    append_frame(conn.outbuf, FrameType::kResponse, op.request_id, op.payload);
    conn.in_flight--;
    server_.stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
    flush_writes(conn);
  }

  void handle_readable(Connection& conn) {
    char buffer[kReadChunk];
    for (int round = 0; round < kReadsPerEvent; ++round) {
      if (paused_ || conn.write_paused || conn.close_after_flush) break;
      const ssize_t n = ::read(conn.sock.fd(), buffer, sizeof(buffer));
      if (n > 0) {
        conn.inbuf.append(buffer, static_cast<std::size_t>(n));
        server_.stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                                          std::memory_order_relaxed);
        conn.last_activity = Clock::now();
        if (!parse_frames(conn)) return;  // connection died
        continue;
      }
      if (n == 0) {
        conn.peer_closed = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(conn);
      return;
    }
    if (conn.peer_closed) {
      update_interest(conn);
      maybe_close_quiet(conn);
    }
  }

  /// Decodes and submits every complete frame in the input buffer, pausing
  /// at the dispatcher's high watermark. Returns false when the connection
  /// was closed. (Level-triggered epoll makes deferring safe: unread socket
  /// bytes re-raise EPOLLIN, and unparsed inbuf bytes are retried on the
  /// unpause path.)
  bool parse_frames(Connection& conn) {
    for (;;) {
      if (!paused_ &&
          server_.broker_.queue_depth() >= server_.pause_high_) {
        paused_ = true;
        server_.stats_.pauses.read_pauses.fetch_add(1, std::memory_order_relaxed);
        for (auto& [id, c] : conns_) update_interest(*c);
      }
      if (paused_) return true;

      const std::string_view pending =
          std::string_view(conn.inbuf).substr(conn.inpos);
      DecodeResult result = decode_frame(pending, server_.config_.max_frame_payload);
      if (result.status == DecodeStatus::kNeedMore) break;
      if (result.status == DecodeStatus::kBadMagic) {
        server_.stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        close_connection(conn);
        return false;
      }
      if (result.status == DecodeStatus::kTooLarge) {
        // The header is sound, so the id is real — answer it, then cut the
        // stream off rather than swallowing a payload past the cap.
        server_.stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        append_frame(conn.outbuf, FrameType::kError, result.request_id,
                     core::error_response(
                         core::ErrorCode::kValidation,
                         "frame payload exceeds limit (" +
                             std::to_string(server_.config_.max_frame_payload) +
                             " bytes)"));
        server_.stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
        conn.close_after_flush = true;
        update_interest(conn);
        const std::uint64_t id = conn.id;
        flush_writes(conn);  // may destroy conn (write error, quiet close)
        return conns_.count(id) != 0;
      }

      conn.inpos += result.consumed;
      server_.stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
      Frame& frame = result.frame;
      if (frame.version != kFrameVersion) {
        append_frame(conn.outbuf, FrameType::kError, frame.request_id,
                     core::error_response(
                         core::ErrorCode::kUnsupportedVersion,
                         "frame protocol version " +
                             std::to_string(frame.version) + " not supported (server "
                             "speaks " + std::to_string(kFrameVersion) + ")"));
        server_.stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (frame.type != FrameType::kRequest) {
        server_.stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        close_connection(conn);
        return false;
      }
      submit(conn, frame.request_id, std::move(frame.payload));
    }

    if (conn.inpos == conn.inbuf.size()) {
      conn.inbuf.clear();
      conn.inpos = 0;
    } else if (conn.inpos >= kCompactThreshold) {
      conn.inbuf.erase(0, conn.inpos);
      conn.inpos = 0;
    }
    const std::uint64_t id = conn.id;
    flush_writes(conn);  // may destroy conn (write error, quiet close)
    return conns_.count(id) != 0;
  }

  void submit(Connection& conn, std::uint32_t request_id, std::string body) {
    // L2 fast path: a cached response is framed straight from the shared
    // epoch-protected buffer on this event-loop thread — no response-string
    // copy, no inbox round trip, no dispatcher admission, no worker hop.
    // in_flight is never raised, so drain/quiet-close logic is untouched;
    // the frame flushes with everything else at the end of parse_frames.
    if (auto hit = server_.broker_.try_cached(body)) {
      append_frame(conn.outbuf, FrameType::kResponse, request_id, hit->body);
      server_.stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
      if (util::CacheMetrics* cm = server_.broker_.cache_metrics_hook()) {
        cm->inline_served.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    conn.in_flight++;
    const std::uint64_t conn_id = conn.id;
    server_.callbacks_outstanding_.fetch_add(1, std::memory_order_acq_rel);
    server_.broker_.submit_async(
        std::move(body),
        [this, conn_id, request_id](std::string response) {
          post_response(conn_id, request_id, std::move(response));
          server_.callbacks_outstanding_.fetch_sub(1, std::memory_order_acq_rel);
        },
        /*probe_cache=*/false);
  }

  void flush_writes(Connection& conn) {
    while (conn.outpos < conn.outbuf.size()) {
      // MSG_NOSIGNAL: a peer that resets mid-flush must surface as EPIPE
      // here, not as a process-killing SIGPIPE.
      const ssize_t n = ::send(conn.sock.fd(), conn.outbuf.data() + conn.outpos,
                               conn.outbuf.size() - conn.outpos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.outpos += static_cast<std::size_t>(n);
        server_.stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                           std::memory_order_relaxed);
        conn.last_activity = Clock::now();
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(conn);
      return;
    }
    if (conn.outpos == conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.outpos = 0;
    } else if (conn.outpos >= kCompactThreshold) {
      conn.outbuf.erase(0, conn.outpos);
      conn.outpos = 0;
    }

    // Write-buffer backpressure (per connection, with hysteresis): a peer
    // that stops reading stops being read.
    const std::size_t pending = conn.outbuf.size() - conn.outpos;
    const bool want = conn.write_paused
                          ? pending > server_.config_.max_write_buffer / 2
                          : pending >= server_.config_.max_write_buffer;
    if (want != conn.write_paused) {
      conn.write_paused = want;
      if (want) server_.stats_.pauses.write_pauses.fetch_add(1, std::memory_order_relaxed);
    }
    update_interest(conn);
    maybe_close_quiet(conn);
  }

  /// Closes a connection that has nothing left to do: output flushed, no
  /// request in flight, and a reason to go (peer EOF, protocol cutoff, or
  /// server drain).
  void maybe_close_quiet(Connection& conn) {
    if (conn.outbuf.size() != conn.outpos || conn.in_flight != 0) return;
    const bool draining = server_.draining_.load(std::memory_order_acquire);
    if (conn.close_after_flush || conn.peer_closed || draining) {
      close_connection(conn);
    }
  }

  void update_interest(Connection& conn) {
    std::uint32_t want = 0;
    if (conn.outpos < conn.outbuf.size()) want |= EPOLLOUT;
    if (!paused_ && !conn.write_paused && !conn.peer_closed &&
        !conn.close_after_flush) {
      want |= EPOLLIN;
    }
    if (want == conn.armed) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = conn.id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.sock.fd(), &ev) == 0) {
      conn.armed = want;
    }
  }

  void close_connection(Connection& conn) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.sock.fd(), nullptr);
    server_.stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
    server_.open_connections_.fetch_sub(1, std::memory_order_acq_rel);
    conns_.erase(conn.id);  // destroys conn; closes the fd
  }

  void sweep_idle() {
    if (server_.config_.idle_timeout.count() == 0) return;
    const Clock::time_point now = Clock::now();
    if (now < next_idle_sweep_) return;
    next_idle_sweep_ = now + std::min(server_.config_.idle_timeout / 2,
                                      std::chrono::milliseconds(100));
    for (auto it = conns_.begin(); it != conns_.end();) {
      Connection& conn = *it->second;
      ++it;
      if (conn.in_flight == 0 && conn.outbuf.size() == conn.outpos &&
          now - conn.last_activity > server_.config_.idle_timeout) {
        server_.stats_.idle_closes.fetch_add(1, std::memory_order_relaxed);
        close_connection(conn);
      }
    }
  }

  /// Drain bookkeeping; true once this shard is finished. Quiet
  /// connections close as their last response flushes (maybe_close_quiet);
  /// peers that keep talking are answered code="draining" by the
  /// dispatcher until the linger deadline cuts them off.
  bool sweep_drain() {
    for (auto it = conns_.begin(); it != conns_.end();) {
      Connection& conn = *it->second;
      ++it;
      maybe_close_quiet(conn);
    }
    const Clock::time_point deadline{Clock::duration{
        server_.drain_deadline_.load(std::memory_order_acquire)}};
    if (Clock::now() >= deadline) {
      for (auto it = conns_.begin(); it != conns_.end();) {
        Connection& conn = *it->second;
        ++it;
        close_connection(conn);
      }
    }
    return conns_.empty() && inbox_empty();
  }

  void close_all() {
    for (auto it = conns_.begin(); it != conns_.end();) {
      Connection& conn = *it->second;
      ++it;
      close_connection(conn);
    }
  }

  /// Drops every queued op without processing it: pending connections are
  /// closed, pending responses counted as dropped. Used once the loop has
  /// stopped serving.
  void discard_inbox() {
    std::vector<Op> batch;
    {
      std::lock_guard lock(mutex_);
      batch.swap(inbox_);
    }
    for (const Op& op : batch) {
      if (op.kind == Op::kNewConnection) {
        if (op.fd >= 0) ::close(op.fd);
      } else {
        server_.stats_.dropped_responses.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  CatalogServer& server_;
  [[maybe_unused]] std::size_t index_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::mutex mutex_;
  std::vector<Op> inbox_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  bool paused_ = false;            // loop-thread only
  Clock::time_point next_idle_sweep_{};  // loop-thread only
};

// ---------------------------------------------------------------------------
// CatalogServer
// ---------------------------------------------------------------------------

CatalogServer::CatalogServer(core::RequestBroker& broker, ServerConfig config)
    : broker_(broker), config_(config) {
  if (config_.event_threads == 0) config_.event_threads = 1;
  if (config_.pause_high_watermark != 0) {
    pause_high_ = config_.pause_high_watermark;
  } else {
    // Derived watermark sits below the admission bound: each event loop can
    // slip one submission past its depth check before pausing, so without
    // headroom concurrent loops could hit the bound and bounce requests as
    // `overloaded` — exactly what read-pausing exists to prevent.
    const std::size_t headroom =
        std::min(broker_.max_queue() / 2, 2 * config_.event_threads);
    pause_high_ = broker_.max_queue() - headroom;
  }
  if (pause_high_ == 0) pause_high_ = 1;
  pause_low_ = config_.pause_low_watermark != 0 ? config_.pause_low_watermark
                                                : pause_high_ / 2;
  if (pause_low_ >= pause_high_) pause_low_ = pause_high_ / 2;
}

CatalogServer::~CatalogServer() { shutdown(); }

void CatalogServer::start() {
  if (started_.exchange(true)) return;
  listen_ = listen_tcp(config_.port);
  port_ = local_port(listen_.fd());
  set_nonblocking(listen_.fd());
  for (std::size_t i = 0; i < config_.event_threads; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(*this, i));
  }
  accepting_.store(true, std::memory_order_release);
  for (auto& loop : loops_) loop->start();
  acceptor_ = std::thread([this] { accept_loop(); });
}

void CatalogServer::accept_loop() {
  std::size_t next_loop = 0;
  while (accepting_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_.fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    for (;;) {
      const int fd = ::accept4(listen_.fd(), nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN, or transient (EMFILE/ECONNABORTED): retry on next poll
      try {
        set_nodelay(fd);
      } catch (const SocketError&) {
        // Peer vanished between accept and setsockopt; keep the fd anyway,
        // the first read will report it.
      }
      stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      loops_[next_loop]->post_connection(fd);
      next_loop = (next_loop + 1) % loops_.size();
    }
  }
  listen_.reset();
}

void CatalogServer::join_threads() {
  if (joined_.exchange(true)) return;
  accepting_.store(false, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& loop : loops_) loop->wake();
  for (auto& loop : loops_) loop->join();
  // No loop thread runs anymore, but dispatcher workers may still hold
  // callbacks that post into loop inboxes; those posts are harmless on the
  // live objects — just wait them out before the loops can be destroyed.
  while (callbacks_outstanding_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void CatalogServer::drain() {
  if (!started_.load(std::memory_order_acquire)) return;
  // Deadline first, flag second: the loops read the deadline only after an
  // acquire load of draining_, so this release store is what makes it
  // visible to them. (Concurrent drain() calls may both store; drain is
  // idempotent and the later deadline differs by scheduling noise only.)
  drain_deadline_.store(
      (Clock::now() + config_.drain_linger).time_since_epoch().count(),
      std::memory_order_release);
  if (!draining_.exchange(true)) {
    // Queued and future frames bounce off the broker's admission gate
    // as code="draining" while the loops flush in-flight responses.
    broker_.begin_drain();
  }
  for (auto& loop : loops_) loop->wake();
  join_threads();
  broker_.drain();
}

void CatalogServer::shutdown() {
  if (!started_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& loop : loops_) loop->wake();
  join_threads();
}

}  // namespace hxrc::net
