// WalShipper: the sending half of WAL shipping (runs inside a shard
// primary).
//
// Installed as a DurableCatalog's WalShipObserver, it turns the durability
// layer's callbacks into an ordered stream of replication messages to one
// replica's ReplicationListener:
//
//   connect → read the replica's Hello (its wal_seq + applied-LSN)
//           → catch it up from the on-disk WAL file (fresh replica:
//             Bootstrap with the snapshot file first)
//           → drain the live queue (fsync-acknowledged frames, rotation
//             markers) for as long as the connection lasts.
//
// The observer callbacks run under durability-layer locks, so they only
// enqueue; one shipper thread owns the socket. Overlap between the file
// catch-up and queued live frames is resolved by the replica's LSN
// watermark. A connection failure backs off and reconnects from scratch —
// the Hello/catch-up handshake makes reconnection stateless.
//
// If the replica falls so far behind that the bounded queue would overflow,
// chunk items are dropped and the connection is cut: the reconnect
// catch-up re-reads the dropped range from the WAL file. Rotation markers
// are never dropped (the files they supersede get deleted).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "storage/fs.hpp"
#include "storage/recovery.hpp"

namespace hxrc::fed {

struct ShipperOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Socket send/receive timeout — a wedged replica costs a bounded stall,
  /// then a reconnect.
  std::uint32_t io_timeout_ms = 5000;
  /// Backoff between reconnect attempts.
  std::uint32_t reconnect_ms = 500;
  /// Bound on queued-but-unsent live bytes; past it chunks are dropped and
  /// the next connection catches up from the WAL file instead.
  std::size_t max_queue_bytes = std::size_t{64} << 20;
};

class WalShipper : public storage::WalShipObserver {
 public:
  WalShipper(storage::DurableCatalog& durable, ShipperOptions options,
             storage::Fs& fs = storage::real_fs());
  ~WalShipper() override;

  WalShipper(const WalShipper&) = delete;
  WalShipper& operator=(const WalShipper&) = delete;

  /// Installs the observer and spawns the shipping thread.
  void start();

  /// Detaches the observer and joins the thread. Idempotent; the
  /// destructor calls it.
  void stop();

  // WalShipObserver:
  void on_durable(std::uint64_t wal_seq, std::uint64_t first_lsn,
                  std::string_view frames) override;
  void on_rotate(std::uint64_t new_seq, std::uint64_t prev_records,
                 std::uint64_t epoch, const std::string& snapshot) override;

 private:
  struct Item {
    bool rotate = false;
    std::uint64_t wal_seq = 0;
    /// Chunk: LSN of the first record. Rotation: prev_records.
    std::uint64_t lsn = 0;
    std::uint64_t epoch = 0;  // rotation only
    /// Chunk: raw frames. Rotation: snapshot bytes.
    std::string bytes;
  };

  void run();
  /// One connection lifetime; returns on any socket/protocol error.
  void ship_session();
  void enqueue(Item item);

  storage::DurableCatalog& durable_;
  ShipperOptions options_;
  storage::Fs& fs_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<Item> queue_;
  std::size_t queue_bytes_ = 0;
  /// Set when chunk items were dropped (overflow); forces the current
  /// connection to die and the next one to catch up from the file.
  bool lost_items_ = false;
  bool stop_ = false;
  bool started_ = false;
  std::thread worker_;
};

}  // namespace hxrc::fed
