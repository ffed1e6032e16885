#include "fed/shipper.hpp"

#include <poll.h>

#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "fed/ship_wire.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace hxrc::fed {

using storage::WalError;

namespace {

/// Whole-frame chunking bound for file catch-up: big enough to amortize
/// framing, small enough that a replica ack cadence exists mid-catch-up.
constexpr std::size_t kCatchupChunkBytes = std::size_t{4} << 20;

}  // namespace

WalShipper::WalShipper(storage::DurableCatalog& durable, ShipperOptions options,
                       storage::Fs& fs)
    : durable_(durable), options_(std::move(options)), fs_(fs) {}

WalShipper::~WalShipper() { stop(); }

void WalShipper::start() {
  {
    std::lock_guard lock(mutex_);
    if (started_) return;
    started_ = true;
  }
  // Observer first: everything durable from here on is queued, so a file
  // read taken later can only overlap (LSN-deduped), never miss.
  durable_.set_ship_observer(this);
  worker_ = std::thread([this] { run(); });
}

void WalShipper::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!started_) return;
    stop_ = true;
  }
  durable_.set_ship_observer(nullptr);
  work_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void WalShipper::on_durable(std::uint64_t wal_seq, std::uint64_t first_lsn,
                            std::string_view frames) {
  Item item;
  item.wal_seq = wal_seq;
  item.lsn = first_lsn;
  item.bytes.assign(frames.data(), frames.size());
  enqueue(std::move(item));
}

void WalShipper::on_rotate(std::uint64_t new_seq, std::uint64_t prev_records,
                           std::uint64_t epoch, const std::string& snapshot) {
  Item item;
  item.rotate = true;
  item.wal_seq = new_seq;
  item.lsn = prev_records;
  item.epoch = epoch;
  item.bytes = snapshot;
  enqueue(std::move(item));
}

void WalShipper::enqueue(Item item) {
  {
    std::lock_guard lock(mutex_);
    queue_bytes_ += item.bytes.size();
    queue_.push_back(std::move(item));
    // Overflow: drop queued CHUNKS (recoverable from the WAL file on the
    // next connection) oldest-first; rotation markers stay (their files
    // get deleted). lost_items_ cuts the current connection so that
    // file-based catch-up actually happens.
    while (queue_bytes_ > options_.max_queue_bytes) {
      auto victim = queue_.begin();
      while (victim != queue_.end() && victim->rotate) ++victim;
      if (victim == queue_.end()) break;  // only rotations left: keep them
      queue_bytes_ -= victim->bytes.size();
      queue_.erase(victim);
      lost_items_ = true;
    }
  }
  work_cv_.notify_one();
}

void WalShipper::run() {
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      if (stop_) return;
    }
    try {
      ship_session();
    } catch (const std::exception& e) {
      std::unique_lock lock(mutex_);
      if (!stop_) {
        std::fprintf(stderr, "[shipper] session to %s:%u ended: %s\n",
                     options_.host.c_str(), options_.port, e.what());
      }
    }
    std::unique_lock lock(mutex_);
    work_cv_.wait_for(lock, std::chrono::milliseconds(options_.reconnect_ms),
                      [this] { return stop_; });
    if (stop_) return;
  }
}

void WalShipper::ship_session() {
  net::BlockingClient client(options_.host, options_.port);
  client.set_io_timeout(options_.io_timeout_ms);
  client.set_max_payload(std::size_t{1} << 30);

  net::Frame frame = client.recv_frame();
  if (frame.type != net::FrameType::kWalShip) {
    throw WalError("replica spoke a non-replication frame");
  }
  const HelloMsg hello = decode_hello(frame.payload);
  const bool fresh = hello.wal_seq == 0 && hello.applied_lsn == 0 &&
                     hello.records_applied == 0;

  // Everything appended so far becomes durable — and therefore either
  // already queued (live) or readable from the file (catch-up below).
  durable_.flush();
  const std::uint64_t seq = durable_.wal_seq();
  std::uint64_t cur_seq = seq;
  std::uint64_t start_lsn = 0;  // catch-up sends records with LSN > this

  if (fresh) {
    BootstrapMsg boot;
    boot.wal_seq = seq;
    const std::string snap_path =
        durable_.data_dir() + "/" + storage::snapshot_name(seq);
    if (fs_.exists(snap_path)) boot.snapshot = fs_.read_file(snap_path);
    client.send_frame(net::FrameType::kWalShip, 0, encode_bootstrap(boot));
  } else if (hello.wal_seq == seq) {
    start_lsn = hello.applied_lsn;
  } else if (hello.wal_seq < seq) {
    // The replica is on a superseded sequence whose file may be gone; the
    // live queue still holds the rotation marker(s) and the finished
    // sequence's tail if the replica was connected recently. Drain from
    // its position and let its gap check decide.
    cur_seq = hello.wal_seq;
    start_lsn = hello.applied_lsn;
  } else {
    throw WalError("replica claims wal seq " + std::to_string(hello.wal_seq) +
                   " ahead of primary seq " + std::to_string(seq));
  }

  if (cur_seq == seq) {
    // File-based catch-up: records (start_lsn, end-of-valid-prefix], in
    // whole-frame chunks. A torn tail (reading racing the writer) is just
    // the end of what is visible — the live stream covers the rest.
    const std::string file =
        fs_.read_file(durable_.data_dir() + "/" + storage::wal_name(seq));
    const storage::WalScan scan = storage::scan_wal(file);
    // Record i's frame ends where its payload view into `file` ends.
    const auto frame_end = [&](std::uint64_t i) {
      const std::string_view payload = scan.records[i].payload;
      return static_cast<std::size_t>(payload.data() + payload.size() - file.data());
    };
    for (std::uint64_t sent = start_lsn; sent < scan.records.size();) {
      const std::size_t pos = sent == 0 ? sizeof storage::kWalMagic : frame_end(sent - 1);
      std::uint64_t next = sent + 1;
      while (next < scan.records.size() && frame_end(next - 1) - pos < kCatchupChunkBytes) {
        ++next;
      }
      client.send_frame(net::FrameType::kWalShip, 0,
                        encode_chunk(seq, sent + 1,
                                     std::string_view(file).substr(
                                         pos, frame_end(next - 1) - pos)));
      sent = next;
    }
  }

  // Live drain. Acks are consumed opportunistically so the replica's
  // bounded socket buffer can never fill up and deadlock the pipeline.
  for (;;) {
    std::vector<Item> batch;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait_for(lock, std::chrono::milliseconds(100),
                        [this] { return stop_ || lost_items_ || !queue_.empty(); });
      if (stop_) return;
      if (lost_items_) {
        lost_items_ = false;
        throw WalError("live queue overflowed; reconnecting for file catch-up");
      }
      while (!queue_.empty()) {
        queue_bytes_ -= queue_.front().bytes.size();
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    for (Item& item : batch) {
      if (item.rotate) {
        if (item.wal_seq <= cur_seq) continue;  // replica already adopted it
        BootstrapMsg boot;
        boot.wal_seq = item.wal_seq;
        boot.prev_records = item.lsn;
        boot.epoch = item.epoch;
        boot.snapshot = std::move(item.bytes);
        client.send_frame(net::FrameType::kWalShip, 0, encode_bootstrap(boot));
        cur_seq = item.wal_seq;
      } else {
        if (item.wal_seq != cur_seq) continue;  // superseded by catch-up/rotation
        client.send_frame(net::FrameType::kWalShip, 0,
                          encode_chunk(item.wal_seq, item.lsn, item.bytes));
      }
    }
    // Non-blocking ack sweep.
    for (;;) {
      pollfd pfd{client.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 0) <= 0 || (pfd.revents & POLLIN) == 0) break;
      net::Frame ack_frame = client.recv_frame();
      if (ack_frame.type != net::FrameType::kWalShip) {
        throw WalError("replica spoke a non-replication frame");
      }
      decode_ack(ack_frame.payload);  // validates; acks only drain the pipe
    }
  }
}

}  // namespace hxrc::fed
