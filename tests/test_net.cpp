// The TCP front end: framing, the connection state machine, pipelining,
// dispatcher backpressure as *socket* backpressure, graceful drain, and
// idle reaping — all over real sockets against an in-process CatalogServer.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"

#include "core/dispatcher.hpp"
#include "core/service.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "workload/lead_schema.hpp"
#include "xml/parser.hpp"

namespace hxrc::net {
namespace {

using namespace std::chrono_literals;

// ---- framing unit tests ----

TEST(Framing, RoundTrip) {
  std::string wire;
  append_frame(wire, FrameType::kRequest, 7, "<catalogRequest type=\"stats\"/>");
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 30);

  const DecodeResult result = decode_frame(wire, 1 << 20);
  ASSERT_EQ(result.status, DecodeStatus::kFrame);
  EXPECT_EQ(result.frame.type, FrameType::kRequest);
  EXPECT_EQ(result.frame.version, kFrameVersion);
  EXPECT_EQ(result.frame.request_id, 7u);
  EXPECT_EQ(result.frame.payload, "<catalogRequest type=\"stats\"/>");
  EXPECT_EQ(result.consumed, wire.size());
}

TEST(Framing, PartialInputNeedsMoreAtEveryPrefix) {
  std::string wire;
  append_frame(wire, FrameType::kResponse, 42, "payload bytes");
  // Every strict prefix decodes to kNeedMore — partial reads are the normal
  // case on a socket, never an error.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const DecodeResult result = decode_frame(std::string_view(wire).substr(0, len), 1 << 20);
    EXPECT_EQ(result.status, DecodeStatus::kNeedMore) << "prefix length " << len;
  }
  // Trailing bytes of the next frame don't disturb the first.
  const DecodeResult result = decode_frame(wire + "HX", 1 << 20);
  ASSERT_EQ(result.status, DecodeStatus::kFrame);
  EXPECT_EQ(result.consumed, wire.size());
}

TEST(Framing, BadMagicIsRejectedOnTheFirstByte) {
  EXPECT_EQ(decode_frame("G", 1 << 20).status, DecodeStatus::kBadMagic);
  EXPECT_EQ(decode_frame("GET / HTTP/1.1", 1 << 20).status, DecodeStatus::kBadMagic);
  std::string wire;
  append_frame(wire, FrameType::kRequest, 1, "x");
  wire[1] = 'Q';
  EXPECT_EQ(decode_frame(wire, 1 << 20).status, DecodeStatus::kBadMagic);
}

TEST(Framing, OversizedPayloadReportsTheRequestId) {
  std::string wire;
  append_frame(wire, FrameType::kRequest, 99, std::string(2048, 'a'));
  const DecodeResult result = decode_frame(wire, 1024);
  EXPECT_EQ(result.status, DecodeStatus::kTooLarge);
  EXPECT_EQ(result.request_id, 99u);
}

// ---- server fixture ----

core::CatalogConfig auto_define_config() {
  core::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

/// Catalog + dispatcher + server wired together on an ephemeral port.
struct TestServer {
  TestServer(core::DispatcherConfig dispatch, ServerConfig net)
      : schema(workload::lead_schema()),
        catalog(schema, workload::lead_annotations(), auto_define_config()),
        dispatcher(catalog, std::move(dispatch)) {
    net.port = 0;
    server = std::make_unique<CatalogServer>(dispatcher, net);
    server->start();
  }

  BlockingClient connect() { return BlockingClient("127.0.0.1", server->port()); }

  xml::Schema schema;
  core::MetadataCatalog catalog;
  core::ServiceDispatcher dispatcher;
  std::unique_ptr<CatalogServer> server;
};

std::string code_of(const std::string& response_xml) {
  const xml::Document doc = xml::parse(response_xml);
  const std::string_view* code = doc.root->attribute("code");
  return code == nullptr ? std::string{} : std::string(*code);
}

std::string status_of(const std::string& response_xml) {
  return std::string(*xml::parse(response_xml).root->attribute("status"));
}

// ---- request/response over real sockets ----

TEST(NetServer, CallRoundTripsWithProtocolHandshake) {
  TestServer ts({.workers = 2, .max_queue = 32}, {});
  BlockingClient client = ts.connect();

  const std::string response =
      client.call("<catalogRequest type=\"stats\" version=\"1\"/>");
  EXPECT_EQ(status_of(response), "ok");
  const xml::Document doc = xml::parse(response);
  ASSERT_NE(doc.root->attribute("protocol"), nullptr);
  EXPECT_EQ(*doc.root->attribute("protocol"), "1");

  // Mutations work over the wire too, and land in the shared catalog.
  const std::string ingest =
      client.call("<catalogRequest type=\"ingest\">" + workload::fig3_document() +
                  "</catalogRequest>");
  EXPECT_EQ(status_of(ingest), "ok");
  EXPECT_EQ(ts.catalog.object_count(), 1u);

  EXPECT_EQ(code_of(client.call("<catalogRequest type=\"stats\" version=\"7\"/>")),
            "unsupported_version");
}

TEST(NetServer, PipelinedRequestsMatchResponsesById) {
  TestServer ts({.workers = 4, .max_queue = 64}, {});
  BlockingClient client = ts.connect();

  // 32 requests on the wire before the first response is read; even ids are
  // valid stats calls, odd ids unknown types — the echoed id must carry
  // each response to its request even when completion reorders them.
  constexpr std::uint32_t kCount = 32;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    client.send_frame(FrameType::kRequest, i,
                      i % 2 == 0 ? "<catalogRequest type=\"stats\"/>"
                                 : "<catalogRequest type=\"bogus\"/>");
  }
  std::vector<bool> seen(kCount, false);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const Frame frame = client.recv_frame();
    ASSERT_LT(frame.request_id, kCount);
    EXPECT_FALSE(seen[frame.request_id]) << "duplicate response id";
    seen[frame.request_id] = true;
    if (frame.request_id % 2 == 0) {
      EXPECT_EQ(status_of(frame.payload), "ok") << frame.request_id;
    } else {
      EXPECT_EQ(code_of(frame.payload), "unknown_type") << frame.request_id;
    }
  }
}

TEST(NetServer, ManyConnectionsShareTheCatalog) {
  TestServer ts({.workers = 4, .max_queue = 128}, {.event_threads = 2});
  std::vector<BlockingClient> clients;
  for (int i = 0; i < 16; ++i) clients.push_back(ts.connect());
  for (auto& client : clients) {
    EXPECT_EQ(status_of(client.call("<catalogRequest type=\"ingest\">" +
                                    workload::fig3_document() + "</catalogRequest>")),
              "ok");
  }
  EXPECT_EQ(ts.catalog.object_count(), 16u);
  EXPECT_EQ(ts.server->stats().connections_accepted.load(), 16u);
}

// ---- protocol errors on the wire ----

TEST(NetServer, ForeignFrameVersionGetsErrorFrameAndConnectionSurvives) {
  TestServer ts({.workers = 1, .max_queue = 8}, {});
  BlockingClient client = ts.connect();

  // Hand-craft a frame with protocol version 9: header layout is fixed for
  // all majors, so the server can answer instead of desyncing.
  std::string wire;
  append_frame(wire, FrameType::kRequest, 5, "<catalogRequest type=\"stats\"/>");
  wire[2] = 9;
  client.send_raw(wire);

  const Frame reply = client.recv_frame();
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.request_id, 5u);
  EXPECT_EQ(code_of(reply.payload), "unsupported_version");

  // The stream is still framed — the next well-formed request is served.
  EXPECT_EQ(status_of(client.call("<catalogRequest type=\"stats\"/>")), "ok");
}

TEST(NetServer, BadMagicClosesTheConnection) {
  TestServer ts({.workers = 1, .max_queue = 8}, {});
  BlockingClient client = ts.connect();
  client.send_raw("GET / HTTP/1.1\r\n\r\n");
  EXPECT_THROW(client.recv_frame(), SocketError);
  // Wait for the server side to account the close.
  for (int i = 0; i < 200 && ts.server->open_connections() != 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(ts.server->open_connections(), 0u);
  EXPECT_GE(ts.server->stats().protocol_errors.load(), 1u);
}

TEST(NetServer, OversizedFrameIsAnsweredThenCut) {
  TestServer ts({.workers = 1, .max_queue = 8}, {.max_frame_payload = 1024});
  BlockingClient client = ts.connect();
  client.send_frame(FrameType::kRequest, 3, std::string(4096, 'x'));

  const Frame reply = client.recv_frame();
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.request_id, 3u);
  EXPECT_EQ(code_of(reply.payload), "validation");
  // The declared payload was never read; the stream cannot be resynced.
  EXPECT_THROW(client.recv_frame(), SocketError);
}

// ---- backpressure: dispatcher saturation pauses reads, never floods ----

TEST(NetServer, QueueSaturationPausesReadsInsteadOfOverloadedFlood) {
  std::atomic<bool> release{false};
  core::DispatcherConfig dispatch;
  dispatch.workers = 1;
  dispatch.max_queue = 4;
  dispatch.before_execute = [&release] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(1ms);
    }
  };
  ServerConfig net;
  net.event_threads = 1;
  net.pause_high_watermark = 2;
  net.pause_low_watermark = 1;
  TestServer ts(std::move(dispatch), net);

  BlockingClient client = ts.connect();
  constexpr std::uint32_t kBurst = 50;
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    client.send_frame(FrameType::kRequest, i, "<catalogRequest type=\"stats\"/>");
  }

  // With the worker held, the loop must hit the high watermark and stop
  // reading — the burst stays in socket buffers, the queue stays bounded.
  for (int i = 0; i < 1000 && ts.server->stats().pauses.read_pauses.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(ts.server->stats().pauses.read_pauses.load(), 1u);
  EXPECT_LE(ts.dispatcher.queue_depth(), 4u);

  // Release: every one of the 50 requests completes ok. Saturation never
  // produced a single overloaded rejection.
  release.store(true, std::memory_order_release);
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    const Frame frame = client.recv_frame();
    EXPECT_EQ(status_of(frame.payload), "ok") << "response " << i;
  }
  const util::MetricsRegistry& metrics = ts.dispatcher.metrics();
  const int slot = metrics.find("stats");
  ASSERT_GE(slot, 0);
  EXPECT_EQ(metrics.at(static_cast<std::size_t>(slot)).rejected.load(), 0u);
}

// ---- graceful drain over real sockets ----

TEST(NetServer, NoResponseWaitsOutTheLoopTimeout) {
  // Dispatcher workers hand responses to the event loop through its inbox
  // and an eventfd. A response posted while the loop is between draining
  // the inbox and resetting the eventfd must still wake the next wait;
  // stranded, it sits out the 500 ms epoll timeout once the peers go
  // quiet. Each round sends one request on each of four connections and
  // then waits for all four answers, so responses land together and
  // nothing else arrives to wake the loop.
  ServerConfig net;
  net.event_threads = 1;
  TestServer ts({.workers = 4, .max_queue = 64}, net);
  std::vector<BlockingClient> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(ts.connect());
    clients.back().set_io_timeout(5000);
  }
  for (int round = 0; round < 300; ++round) {
    const auto start = std::chrono::steady_clock::now();
    for (BlockingClient& client : clients) {
      client.send_request("<catalogRequest type=\"stats\"/>");
    }
    for (BlockingClient& client : clients) client.recv_frame();
    const auto took = std::chrono::steady_clock::now() - start;
    ASSERT_LT(took, 400ms) << "round " << round;
  }
}

TEST(NetServer, DrainCompletesInFlightAndRejectsNewFrames) {
  std::atomic<bool> release{false};
  std::atomic<int> entered{0};
  core::DispatcherConfig dispatch;
  dispatch.workers = 1;
  dispatch.max_queue = 8;
  dispatch.before_execute = [&release, &entered] {
    entered.fetch_add(1, std::memory_order_acq_rel);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(1ms);
    }
  };
  ServerConfig net;
  net.drain_linger = std::chrono::milliseconds(10000);
  TestServer ts(std::move(dispatch), net);

  const std::string stats = "<catalogRequest type=\"stats\"/>";

  // In-flight: picked up by the (held) worker before the drain begins.
  BlockingClient in_flight = ts.connect();
  in_flight.set_io_timeout(20000);  // a hang fails the test, not the suite
  in_flight.send_request(stats);
  while (entered.load(std::memory_order_acquire) == 0) std::this_thread::sleep_for(1ms);

  // Late: registered with an event loop and holding an admitted request
  // queued behind the held worker before the drain begins. Otherwise the
  // drain could close the listener before the acceptor hands the
  // connection over, or close it as quiet before its next frame is read.
  BlockingClient late = ts.connect();
  late.set_io_timeout(20000);
  const std::uint32_t queued_id = late.send_request(stats);
  while (ts.server->open_connections() < 2 || ts.dispatcher.queue_depth() == 0) {
    std::this_thread::sleep_for(1ms);
  }

  std::thread drainer([&ts] { ts.server->drain(); });
  // Release the worker and join the drainer on every exit path, so a failed
  // expectation or a SocketError below is reported instead of aborting the
  // binary with a joinable thread.
  struct JoinOnExit {
    std::atomic<bool>& release;
    std::thread& thread;
    ~JoinOnExit() {
      release.store(true, std::memory_order_release);
      if (thread.joinable()) thread.join();
    }
  } join_drainer{release, drainer};
  // The dispatcher closes its admission gate after the server flags the
  // drain, so wait for the gate.
  while (!ts.dispatcher.draining()) std::this_thread::sleep_for(1ms);

  // A frame arriving during the drain is answered code="draining".
  const std::uint32_t rejected_id = late.send_request(stats);
  const Frame rejected = late.recv_frame();
  EXPECT_EQ(rejected.request_id, rejected_id);
  EXPECT_EQ(code_of(rejected.payload), "draining");

  // The in-flight and the queued request still complete with their real
  // responses; each connection closes once its last response is flushed.
  release.store(true, std::memory_order_release);
  const Frame completed = in_flight.recv_frame();
  EXPECT_EQ(status_of(completed.payload), "ok");
  EXPECT_THROW(in_flight.recv_frame(), SocketError);
  const Frame queued = late.recv_frame();
  EXPECT_EQ(queued.request_id, queued_id);
  EXPECT_EQ(status_of(queued.payload), "ok");
  EXPECT_THROW(late.recv_frame(), SocketError);  // EOF after the flush

  drainer.join();
  EXPECT_EQ(ts.server->open_connections(), 0u);
  EXPECT_TRUE(ts.dispatcher.draining());
}

TEST(NetServer, DrainLingerCutsOffConnectionsThatNeverGoQuiet) {
  ServerConfig net;
  net.drain_linger = std::chrono::milliseconds(100);
  TestServer ts({.workers = 1, .max_queue = 8}, net);

  BlockingClient idle = ts.connect();  // never sends, never quiet by itself
  // Ensure the server has registered the connection before draining.
  while (ts.server->open_connections() == 0) std::this_thread::sleep_for(1ms);

  const auto start = std::chrono::steady_clock::now();
  ts.server->drain();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
  EXPECT_EQ(ts.server->open_connections(), 0u);
  EXPECT_THROW(idle.recv_frame(), SocketError);
}

// ---- idle reaping ----

TEST(NetServer, IdleConnectionsAreClosed) {
  ServerConfig net;
  net.idle_timeout = std::chrono::milliseconds(50);
  TestServer ts({.workers = 1, .max_queue = 8}, net);

  BlockingClient client = ts.connect();
  EXPECT_EQ(status_of(client.call("<catalogRequest type=\"stats\"/>")), "ok");
  // Quiet past the timeout: the server reaps the connection.
  EXPECT_THROW(client.recv_frame(), SocketError);
  EXPECT_GE(ts.server->stats().idle_closes.load(), 1u);
}

// ---- client resilience against a misbehaving server ----

/// A server that speaks garbage: accepts one connection, writes the given
/// bytes, and closes. Every client failure mode must be a clean
/// SocketError — never a hang, never a bad allocation.
struct MaliciousServer {
  explicit MaliciousServer(std::string bytes, int hold_open_ms = 0)
      : listener(listen_tcp(0)), port(local_port(listener.fd())) {
    worker = std::thread([this, bytes = std::move(bytes), hold_open_ms] {
      const Socket conn(::accept(listener.fd(), nullptr, nullptr));
      if (!conn.valid()) return;
      if (!bytes.empty()) {
        (void)::send(conn.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
      }
      // Hold the connection open (for timeout tests), then the destructor
      // closes: the client sees EOF after `bytes`.
      if (hold_open_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(hold_open_ms));
      }
    });
  }
  ~MaliciousServer() { worker.join(); }

  BlockingClient connect() {
    BlockingClient client("127.0.0.1", port);
    client.set_io_timeout(2000);  // a hang fails the test, not the suite
    return client;
  }

  Socket listener;
  std::uint16_t port;
  std::thread worker;
};

TEST(NetClient, TruncatedHeaderIsACleanError) {
  std::string wire;
  append_frame(wire, FrameType::kResponse, 1, "payload");
  MaliciousServer server(wire.substr(0, kFrameHeaderBytes - 4));
  BlockingClient client = server.connect();
  // The server may have closed before the send lands, so the send itself is
  // allowed to be the clean error.
  EXPECT_THROW(
      {
        client.send_request("<catalogRequest type=\"stats\"/>");
        client.recv_frame();
      },
      SocketError);
}

TEST(NetClient, OversizeLengthAnnouncementIsRefusedUpFront) {
  // A full header announcing a payload far past the client's cap, followed
  // by nothing: the client must refuse on the header alone instead of
  // trying to allocate or waiting for bytes that never come.
  std::string wire;
  append_frame(wire, FrameType::kResponse, 1, std::string(64 << 10, 'x'));
  MaliciousServer server(wire.substr(0, kFrameHeaderBytes));
  BlockingClient client = server.connect();
  client.set_max_payload(1024);
  // The server may have closed before the send lands, so the send itself is
  // allowed to be the clean error.
  EXPECT_THROW(
      {
        client.send_request("<catalogRequest type=\"stats\"/>");
        client.recv_frame();
      },
      SocketError);
}

TEST(NetClient, ConnectionClosedMidBodyIsACleanError) {
  std::string wire;
  append_frame(wire, FrameType::kResponse, 1, std::string(4096, 'y'));
  MaliciousServer server(wire.substr(0, kFrameHeaderBytes + 100));
  BlockingClient client = server.connect();
  // The server may have closed before the send lands, so the send itself is
  // allowed to be the clean error.
  EXPECT_THROW(
      {
        client.send_request("<catalogRequest type=\"stats\"/>");
        client.recv_frame();
      },
      SocketError);
}

TEST(NetClient, NonProtocolBytesAreACleanError) {
  MaliciousServer server("HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nhi");
  BlockingClient client = server.connect();
  // The server may have closed before the send lands, so the send itself is
  // allowed to be the clean error.
  EXPECT_THROW(
      {
        client.send_request("<catalogRequest type=\"stats\"/>");
        client.recv_frame();
      },
      SocketError);
}

TEST(NetClient, SilentServerTimesOutInsteadOfHangingForever) {
  // Accepts, sends nothing, and holds the connection open well past the
  // client's timeout — the recv must give up, not wait for EOF.
  MaliciousServer server({}, /*hold_open_ms=*/1000);
  BlockingClient client = server.connect();
  client.set_io_timeout(100);
  client.send_request("<catalogRequest type=\"stats\"/>");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.recv_frame(), SocketError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1500ms);
}

TEST(NetClient, ConnectTimeoutBoundsAHandshakeThatNeverCompletes) {
  // A listener that never accepts: once its backlog is full the kernel
  // drops further SYNs, so an unbounded connect would wait out the SYN
  // retries (minutes), while a bounded one gives up after its timeout.
  const Socket listener = listen_tcp(0, /*backlog=*/0);
  const std::uint16_t port = local_port(listener.fd());
  std::vector<BlockingClient> held;
  for (int i = 0; i < 16; ++i) {
    const auto start = std::chrono::steady_clock::now();
    try {
      held.emplace_back("127.0.0.1", port, /*connect_timeout_ms=*/200);
    } catch (const SocketError& e) {
      EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos) << e.what();
      EXPECT_LT(std::chrono::steady_clock::now() - start, 1500ms);
      return;
    }
  }
  FAIL() << "every connect completed against a listener that never accepts";
}

}  // namespace
}  // namespace hxrc::net
