#include "load.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace hxbench {

namespace net = hxrc::net;

bool response_ok(std::string_view body) {
  if (body.rfind("<catalogResponse ", 0) != 0) return false;
  const std::string_view head = body.substr(0, body.find('>'));
  return head.find("protocol=\"1\"") != std::string_view::npos &&
         head.find("status=\"ok\"") != std::string_view::npos;
}

std::string call_once(std::uint16_t port, std::string_view body) {
  net::BlockingClient client("127.0.0.1", port);
  client.set_io_timeout(60000);
  return client.call(body);
}

namespace {

constexpr std::size_t kMaxPayload = std::size_t{256} << 20;

struct InFlight {
  Request request;
  std::size_t sample = 0;
};

struct Conn {
  net::Socket sock;
  std::string inbuf;
  std::string outbuf;
  std::size_t outpos = 0;
  std::uint32_t next_id = 1;
  std::unordered_map<std::uint32_t, InFlight> pending;
  bool broken = false;
};

/// A response frame carrying an ok <catalogResponse> envelope.
bool frame_ok(const net::Frame& frame) {
  return frame.type == net::FrameType::kResponse && response_ok(frame.payload);
}

}  // namespace

LoopResult open_loop(const OpenLoopConfig& config, const Picker& pick,
                     const ResponseHook& hook, Clock::time_point epoch) {
  LoopResult result;
  const std::size_t expected = static_cast<std::size_t>(config.rate * config.seconds) + 16;
  result.samples.reserve(expected);
  result.lag_us.reserve(expected);
  result.in_flight.reserve(expected);

  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) throw std::runtime_error("epoll_create1 failed");
  std::vector<Conn> conns(config.connections);
  for (std::size_t c = 0; c < conns.size(); ++c) {
    conns[c].sock = net::connect_tcp("127.0.0.1", config.port);
    net::set_nodelay(conns[c].sock.fd());
    net::set_nonblocking(conns[c].sock.fd());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, conns[c].sock.fd(), &ev);
  }
  std::size_t outstanding = 0;

  const auto set_interest = [&](std::size_t c) {
    epoll_event ev{};
    ev.events = EPOLLIN | (conns[c].outpos < conns[c].outbuf.size() ? EPOLLOUT : 0u);
    ev.data.u64 = c;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, conns[c].sock.fd(), &ev);
  };
  // Every request sent has a sample, which stays ok=false until its answer
  // arrives: a broken connection's pending requests are failed samples
  // already, so they are not counted again as unanswered.
  const auto fail_conn = [&](Conn& conn) {
    if (conn.broken) return;
    conn.broken = true;
    outstanding -= conn.pending.size();
    conn.pending.clear();
    ::epoll_ctl(ep, EPOLL_CTL_DEL, conn.sock.fd(), nullptr);
  };
  const auto flush = [&](std::size_t c) {
    Conn& conn = conns[c];
    while (!conn.broken && conn.outpos < conn.outbuf.size()) {
      const ssize_t n = ::send(conn.sock.fd(), conn.outbuf.data() + conn.outpos,
                               conn.outbuf.size() - conn.outpos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.outpos += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        fail_conn(conn);
        return;
      }
    }
    if (conn.outpos == conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.outpos = 0;
    }
    if (!conn.broken) set_interest(c);
  };
  const auto read_conn = [&](std::size_t c) {
    Conn& conn = conns[c];
    char buffer[64 * 1024];
    for (;;) {
      const ssize_t n = ::read(conn.sock.fd(), buffer, sizeof buffer);
      if (n > 0) {
        conn.inbuf.append(buffer, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buffer) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      fail_conn(conn);
      return;
    }
    std::size_t consumed = 0;
    for (;;) {
      net::DecodeResult decoded =
          net::decode_frame(std::string_view(conn.inbuf).substr(consumed), kMaxPayload);
      if (decoded.status == net::DecodeStatus::kNeedMore) break;
      if (decoded.status != net::DecodeStatus::kFrame) {
        ++result.bad_frames;
        fail_conn(conn);
        return;
      }
      consumed += decoded.consumed;
      const auto it = conn.pending.find(decoded.frame.request_id);
      if (it == conn.pending.end()) {
        ++result.bad_frames;  // an id we never sent, or answered twice
        continue;
      }
      Sample& sample = result.samples[it->second.sample];
      sample.done_us = micros_since(epoch, Clock::now());
      sample.ok = frame_ok(decoded.frame);
      if (!sample.ok) ++result.bad_frames;
      hook(it->second.request, decoded.frame.payload, sample.ok);
      conn.pending.erase(it);
      --outstanding;
    }
    conn.inbuf.erase(0, consumed);
  };
  const auto handle_events = [&](const epoll_event* events, int ready) {
    for (int i = 0; i < ready; ++i) {
      const std::size_t c = events[i].data.u64;
      if (conns[c].broken) continue;
      if ((events[i].events & EPOLLOUT) != 0) flush(c);
      if (!conns[c].broken && (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        read_conn(c);
      }
    }
  };

  const Clock::time_point start = Clock::now();
  const double start_us = micros_since(epoch, start);
  const double interval_us = 1e6 / config.rate;
  const double end_us = start_us + config.seconds * 1e6;
  std::uint64_t seq = 0;
  epoll_event events[64];
  for (;;) {
    double now = micros_since(epoch, Clock::now());
    if (now >= end_us || (config.stop != nullptr && config.stop->load())) break;
    for (double due = start_us + static_cast<double>(seq) * interval_us;
         due <= now && due < end_us; due = start_us + static_cast<double>(seq) * interval_us) {
      const std::size_t c = seq % conns.size();
      ++seq;
      Conn& conn = conns[c];
      Request request = pick(c);
      Sample sample;
      sample.kind = request.kind;
      sample.hash = request_hash(request.body);
      sample.due_us = due;
      if (conn.broken) {
        sample.sent_us = sample.done_us = due;
        result.samples.push_back(sample);
        continue;
      }
      const std::uint32_t id = conn.next_id++;
      net::append_frame(conn.outbuf, net::FrameType::kRequest, id, request.body);
      sample.sent_us = micros_since(epoch, Clock::now());
      result.lag_us.push_back(sample.sent_us - due);
      result.in_flight.push_back(static_cast<std::uint32_t>(outstanding));
      conn.pending.emplace(id, InFlight{std::move(request), result.samples.size()});
      result.samples.push_back(sample);
      ++outstanding;
      flush(c);
      now = micros_since(epoch, Clock::now());
    }
    const double next_due = start_us + static_cast<double>(seq) * interval_us;
    const double wait_us = std::max(0.0, std::min(next_due, end_us) - now);
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_us / 1e6);
    timeout.tv_nsec = static_cast<long>((wait_us - static_cast<double>(timeout.tv_sec) * 1e6) * 1e3);
    const int ready = ::epoll_pwait2(ep, events, 64, &timeout, nullptr);
    if (ready > 0) handle_events(events, ready);
  }
  // Drain: no new sends; wait for the answers still owed.
  const Clock::time_point drain_deadline = Clock::now() + std::chrono::seconds(20);
  while (outstanding > 0 && Clock::now() < drain_deadline) {
    const int ready = ::epoll_wait(ep, events, 64, 50);
    if (ready > 0) handle_events(events, ready);
  }
  for (Conn& conn : conns) {
    if (!conn.broken) fail_conn(conn);
  }
  ::close(ep);
  result.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

LoopResult closed_loop(const ClosedLoopConfig& config, const Picker& pick,
                       const ResponseHook& hook, Clock::time_point epoch) {
  std::vector<LoopResult> parts(config.connections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<long long>(config.seconds * 1e6));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < config.connections; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& part = parts[c];
      try {
        net::BlockingClient client("127.0.0.1", config.port);
        client.set_io_timeout(30000);
        while (Clock::now() < deadline) {
          Request request = pick(c);
          if (request.body.empty()) break;
          Sample sample;
          sample.kind = request.kind;
          sample.hash = request_hash(request.body);
          sample.sent_us = sample.due_us = micros_since(epoch, Clock::now());
          const std::uint32_t id = client.send_request(request.body);
          const net::Frame frame = client.recv_frame();
          sample.done_us = micros_since(epoch, Clock::now());
          sample.ok = frame.request_id == id && frame_ok(frame);
          if (!sample.ok) ++part.bad_frames;
          hook(request, frame.payload, sample.ok);
          part.samples.push_back(sample);
        }
      } catch (const std::exception&) {
        ++part.unanswered;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult result;
  result.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (LoopResult& part : parts) {
    result.unanswered += part.unanswered;
    result.bad_frames += part.bad_frames;
    result.samples.insert(result.samples.end(), part.samples.begin(), part.samples.end());
  }
  return result;
}

}  // namespace hxbench
