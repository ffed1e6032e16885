#include "fed/replica.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "fed/ship_wire.hpp"
#include "net/client.hpp"
#include "storage/recovery.hpp"
#include "storage/snapshot.hpp"

namespace hxrc::fed {

using storage::WalError;

ReplicationListener::ReplicationListener(core::MetadataCatalog& catalog,
                                         ReplicaOptions options)
    : catalog_(catalog), options_(options) {}

ReplicationListener::~ReplicationListener() { stop(); }

void ReplicationListener::start() {
  if (started_.exchange(true)) return;
  listen_ = net::listen_tcp(options_.port);
  port_ = net::local_port(listen_.fd());
  acceptor_ = std::thread([this] { accept_loop(); });
}

void ReplicationListener::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) {
    // A concurrent/second stop(): the first one joins everything.
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard lock(conns_mutex_);
    // SHUT_RDWR unblocks reads; serve() still owns and closes the fds.
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) t.join();
}

void ReplicationListener::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_.fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept4(listen_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    std::lock_guard lock(conns_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { serve(fd); });
  }
  listen_.reset();
}

void ReplicationListener::serve(int fd) {
  net::Socket sock(fd);
  state_.connections.fetch_add(1, std::memory_order_relaxed);
  std::string inbuf;
  try {
    net::set_nodelay(fd);
    HelloMsg hello;
    {
      std::lock_guard lock(apply_mutex_);
      hello.wal_seq = state_.wal_seq.load(std::memory_order_relaxed);
      hello.applied_lsn = state_.applied_lsn.load(std::memory_order_relaxed);
      hello.records_applied =
          state_.records_applied.load(std::memory_order_relaxed);
      if (fresh_) hello.wal_seq = hello.applied_lsn = hello.records_applied = 0;
    }
    net::write_frame(fd, net::FrameType::kWalShip, 0, encode_hello(hello));
    for (;;) {
      const net::Frame frame = net::read_frame(fd, inbuf, options_.max_frame_payload);
      if (frame.type != net::FrameType::kWalShip) {
        throw net::SocketError("non-replication frame on the replication port");
      }
      switch (peek_ship_msg(frame.payload)) {
        case ShipMsg::kBootstrap:
          handle_bootstrap(frame.payload);
          break;
        case ShipMsg::kChunk: {
          AckMsg ack;
          ack.applied_lsn = handle_chunk(frame.payload);
          net::write_frame(fd, net::FrameType::kWalShip, 0, encode_ack(ack));
          break;
        }
        default:
          throw WalError("unexpected replication message from shipper");
      }
    }
  } catch (const std::exception& e) {
    // EOF / shutdown / protocol violation all end here: drop the
    // connection; the shipper reconnects and the LSN watermark dedupes.
    if (!stopping_.load(std::memory_order_acquire)) {
      std::fprintf(stderr, "[replica] connection ended: %s\n", e.what());
    }
  }
  {
    // Unregister before the Socket destructor closes the fd, so a racing
    // stop() can never shutdown() a number the kernel has since reused.
    std::lock_guard lock(conns_mutex_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
  }
  state_.connections.fetch_sub(1, std::memory_order_relaxed);
}

void ReplicationListener::handle_bootstrap(std::string_view payload) {
  const BootstrapMsg msg = decode_bootstrap(payload);
  std::lock_guard lock(apply_mutex_);
  if (fresh_) {
    if (!msg.snapshot.empty()) {
      if (!storage::snapshot_valid(msg.snapshot)) {
        throw WalError("bootstrap snapshot failed validation");
      }
      storage::load_snapshot(catalog_, msg.snapshot);
    }
    if (msg.epoch != 0) catalog_.restore_version(msg.epoch);
    fresh_ = false;
  } else {
    // Only a clean +1 rotation is adoptable without a snapshot load: the
    // replica must have applied every record of the finished sequence.
    const std::uint64_t cur_seq = state_.wal_seq.load(std::memory_order_relaxed);
    const std::uint64_t cur_lsn = state_.applied_lsn.load(std::memory_order_relaxed);
    if (msg.wal_seq != cur_seq + 1 || cur_lsn != msg.prev_records) {
      throw WalError("replication divergence: bootstrap for wal seq " +
                     std::to_string(msg.wal_seq) + " (prev_records " +
                     std::to_string(msg.prev_records) + ") but replica is at seq " +
                     std::to_string(cur_seq) + " lsn " + std::to_string(cur_lsn) +
                     " — restart the replica to resync");
    }
    if (msg.epoch != 0) catalog_.restore_version(msg.epoch);
  }
  state_.wal_seq.store(msg.wal_seq, std::memory_order_relaxed);
  state_.applied_lsn.store(0, std::memory_order_relaxed);
  state_.applied_epoch.store(catalog_.version(), std::memory_order_relaxed);
  state_.bootstraps.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t ReplicationListener::handle_chunk(std::string_view payload) {
  const ChunkMsg msg = decode_chunk(payload);
  std::lock_guard lock(apply_mutex_);
  if (fresh_) throw WalError("replication chunk before bootstrap");
  const std::uint64_t cur_seq = state_.wal_seq.load(std::memory_order_relaxed);
  if (msg.wal_seq != cur_seq) {
    throw WalError("replication chunk for wal seq " + std::to_string(msg.wal_seq) +
                   " while replica is at seq " + std::to_string(cur_seq));
  }
  std::uint64_t applied = state_.applied_lsn.load(std::memory_order_relaxed);
  if (msg.first_lsn > applied + 1) {
    throw WalError("replication gap: chunk starts at lsn " +
                   std::to_string(msg.first_lsn) + " but replica applied " +
                   std::to_string(applied) + " — restart the replica to resync");
  }
  const storage::WalScan scan = storage::scan_wal_frames(msg.frames);
  if (scan.torn_tail) {
    throw WalError("torn replication chunk: " + scan.stop_reason);
  }
  std::uint64_t lsn = msg.first_lsn;
  for (const storage::WalRecord& record : scan.records) {
    if (lsn > applied) {
      // Same replay path as crash recovery: identical records yield an
      // identical catalog, ids asserted to line up (RecoveryError = the
      // stream does not belong to this replica's state).
      storage::apply_record(catalog_, record);
      applied = lsn;
      state_.records_applied.fetch_add(1, std::memory_order_relaxed);
    }
    ++lsn;
  }
  state_.applied_lsn.store(applied, std::memory_order_relaxed);
  state_.applied_epoch.store(catalog_.version(), std::memory_order_relaxed);
  state_.chunks_applied.fetch_add(1, std::memory_order_relaxed);
  return applied;
}

}  // namespace hxrc::fed
