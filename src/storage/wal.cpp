#include "storage/wal.hpp"

#include <array>
#include <chrono>
#include <cstring>

namespace hxrc::storage {

// ---- CRC32C --------------------------------------------------------------

namespace {

std::array<std::uint32_t, 256> make_crc32c_table() {
  constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

std::uint32_t read_u32le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

void put_u32le(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

constexpr std::size_t kFramePrefix = 8;  // u32 len + u32 crc
constexpr std::size_t kBodyHeader = 9;   // u8 type + u64 epoch
/// Upper bound on one frame body, as a corruption heuristic: a decoded
/// length beyond it is treated as a torn tail even if enough file bytes
/// remain (a bit-flipped length could otherwise swallow valid frames).
constexpr std::uint32_t kMaxBody = 1u << 30;

}  // namespace

namespace {

std::uint32_t crc32c_table_impl(std::uint32_t crc, const unsigned char* p,
                                std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc32c_table();
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/// SSE4.2 CRC32 instruction implements exactly this polynomial (Castagnoli);
/// runtime-dispatched so the binary still runs on pre-Nehalem hardware. On
/// the WAL append path the CRC covers the whole multi-KB frame body, so the
/// ~30× over the table walk is what keeps group commit inside the
/// durability overhead budget (see bench_durability).
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw_impl(
    std::uint32_t crc, const unsigned char* p, std::size_t size) {
  while (size > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
    --size;
  }
  std::uint64_t crc64 = crc;
  while (size >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc64 = __builtin_ia32_crc32di(crc64, word);
    p += 8;
    size -= 8;
  }
  crc = static_cast<std::uint32_t>(crc64);
  while (size > 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
    --size;
  }
  return crc;
}

bool crc32c_hw_available() {
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
}
#endif

}  // namespace

std::uint32_t crc32c(std::uint32_t seed, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::uint32_t crc = ~seed;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (crc32c_hw_available()) return ~crc32c_hw_impl(crc, p, size);
#endif
  return ~crc32c_table_impl(crc, p, size);
}

// ---- framing -------------------------------------------------------------

void encode_frame(std::string& out, WalRecordType type, std::uint64_t epoch,
                  std::string_view payload) {
  const std::size_t body_len = kBodyHeader + payload.size();
  const std::size_t at = out.size();
  out.resize(at + kFramePrefix + body_len);
  char* frame = out.data() + at;
  put_u32le(frame, static_cast<std::uint32_t>(body_len));
  char* body = frame + kFramePrefix;
  body[0] = static_cast<char>(type);
  for (int i = 0; i < 8; ++i) body[1 + i] = static_cast<char>((epoch >> (8 * i)) & 0xff);
  std::memcpy(body + kBodyHeader, payload.data(), payload.size());
  put_u32le(frame + 4, crc32c(0, body, body_len));
}

namespace {

/// Shared frame walk for scan_wal / scan_wal_frames: parses frames starting
/// at `pos`, appending to `scan` until the bytes end or a torn/corrupt
/// frame stops it.
void scan_frames_from(std::string_view bytes, std::size_t pos, WalScan& scan) {
  scan.valid_bytes = pos;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFramePrefix) {
      scan.torn_tail = true;
      scan.stop_reason = "torn frame header";
      break;
    }
    const std::uint32_t body_len = read_u32le(bytes.data() + pos);
    const std::uint32_t stored_crc = read_u32le(bytes.data() + pos + 4);
    if (body_len < kBodyHeader || body_len > kMaxBody ||
        bytes.size() - pos - kFramePrefix < body_len) {
      scan.torn_tail = true;
      scan.stop_reason = "torn or implausible frame length";
      break;
    }
    const char* body = bytes.data() + pos + kFramePrefix;
    if (crc32c(0, body, body_len) != stored_crc) {
      scan.torn_tail = true;
      scan.stop_reason = "frame CRC mismatch";
      break;
    }
    WalRecord record;
    record.type = static_cast<WalRecordType>(static_cast<unsigned char>(body[0]));
    std::uint64_t epoch = 0;
    for (int i = 0; i < 8; ++i) {
      epoch |= static_cast<std::uint64_t>(static_cast<unsigned char>(body[1 + i])) << (8 * i);
    }
    record.epoch = epoch;
    record.payload = std::string_view(body + kBodyHeader, body_len - kBodyHeader);
    scan.records.push_back(record);
    pos += kFramePrefix + body_len;
    scan.valid_bytes = pos;
  }
}

}  // namespace

WalScan scan_wal(std::string_view bytes) {
  WalScan scan;
  if (bytes.empty()) return scan;  // fresh file: nothing written yet
  if (bytes.size() < sizeof kWalMagic ||
      std::memcmp(bytes.data(), kWalMagic, sizeof kWalMagic) != 0) {
    if (bytes.size() < sizeof kWalMagic) {
      // A crash can tear even the 8-byte header write.
      scan.torn_tail = true;
      scan.stop_reason = "torn file header";
      return scan;
    }
    throw WalError("not a WAL file (bad magic)");
  }
  scan_frames_from(bytes, sizeof kWalMagic, scan);
  return scan;
}

WalScan scan_wal_frames(std::string_view bytes) {
  WalScan scan;
  scan_frames_from(bytes, 0, scan);
  return scan;
}

// ---- writer --------------------------------------------------------------

namespace {

/// Number of whole frames in a buffer the writer itself built (always an
/// exact run of frames — no torn tails possible).
std::uint64_t count_whole_frames(std::string_view buf) {
  std::uint64_t n = 0;
  std::size_t pos = 0;
  while (pos < buf.size()) {
    pos += kFramePrefix + read_u32le(buf.data() + pos);
    ++n;
  }
  return n;
}

/// Byte length of the first `count` frames of such a buffer.
std::size_t frames_prefix_bytes(std::string_view buf, std::uint64_t count) {
  std::size_t pos = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    pos += kFramePrefix + read_u32le(buf.data() + pos);
  }
  return pos;
}

}  // namespace

WalWriter::WalWriter(std::unique_ptr<File> file, WalOptions options,
                     util::DurabilityMetrics* metrics, std::uint64_t initial_records)
    : file_(std::move(file)), options_(options), metrics_(metrics) {
  appended_records_ = initial_records;
  synced_records_ = initial_records;
  ship_next_lsn_ = initial_records + 1;
  if (file_->size() == 0) {
    file_->write(kWalMagic, sizeof kWalMagic);
    if (metrics_ != nullptr) {
      metrics_->wal_bytes.fetch_add(sizeof kWalMagic, std::memory_order_relaxed);
    }
  }
  if (options_.sync) {
    flusher_ = std::thread([this] { flusher_loop(); });
  }
}

WalWriter::~WalWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; close() explicitly to observe failures.
  }
}

std::uint64_t WalWriter::append(WalRecordType type, std::uint64_t epoch,
                                std::string_view payload) {
  std::unique_lock lock(mutex_);
  if (failed_) throw WalError("WAL writer poisoned by an earlier I/O failure");
  if (stop_) throw WalError("WAL writer is closed");
  const std::size_t before = pending_.size();
  encode_frame(pending_, type, epoch, payload);
  const std::uint64_t lsn = ++appended_records_;
  if (ship_sink_) {
    const std::string_view frame(pending_.data() + before, pending_.size() - before);
    if (options_.sync) {
      // Stage until an fsync makes the record durable; shipped from
      // ship_synced_locked.
      ship_buf_.append(frame);
    } else {
      // No durability acknowledgement exists to wait for — ship now.
      ship_sink_(lsn, frame);
      ship_next_lsn_ = lsn + 1;
    }
  }
  if (metrics_ != nullptr) {
    metrics_->wal_records.fetch_add(1, std::memory_order_relaxed);
    metrics_->wal_bytes.fetch_add(pending_.size() - before, std::memory_order_relaxed);
  }
  if (options_.sync) {
    // Edge-triggered: wake the flusher only when a threshold is first
    // crossed, not on every append past it — a notify is a futex syscall,
    // and past the threshold every mutation would otherwise pay one until
    // the flusher publishes.
    if (appended_records_ - synced_records_ == options_.fsync_every_n ||
        (pending_.size() >= kWriteOutBytes && before < kWriteOutBytes)) {
      work_cv_.notify_one();
    }
  } else if (pending_.size() >= kWriteOutBytes) {
    write_out_locked();
  }
  return lsn;
}

void WalWriter::write_out_locked() {
  // Caller holds the mutex and guarantees no sync_locked batch is in
  // flight (sync=false path, or close() after the flusher stopped) —
  // otherwise two writers could interleave frames on the fd.
  if (pending_.empty()) return;
  try {
    file_->write(pending_.data(), pending_.size());
    pending_.clear();
  } catch (const IoError& e) {
    failed_ = true;
    work_cv_.notify_all();
    synced_cv_.notify_all();
    throw WalError(std::string("WAL write failed: ") + e.what());
  }
}

void WalWriter::sync_locked(std::unique_lock<std::mutex>& lock) {
  // Snapshot the target LSN and steal the pending batch; then one write(2)
  // plus the fsync run outside the lock, so appends keep landing in a fresh
  // pending buffer meanwhile. The fsync covers exactly the stolen batch —
  // every record with LSN <= target. `syncing_` keeps two flushes from
  // racing on the fd.
  const std::uint64_t target = appended_records_;
  if (target <= synced_records_ || failed_) return;
  syncing_ = true;
  write_buf_.clear();
  write_buf_.swap(pending_);
  lock.unlock();
  bool ok = true;
  try {
    if (!write_buf_.empty()) file_->write(write_buf_.data(), write_buf_.size());
    file_->sync();
  } catch (const IoError&) {
    ok = false;
  }
  lock.lock();
  syncing_ = false;
  if (!ok) {
    failed_ = true;
  } else if (target > synced_records_) {
    synced_records_ = target;
    if (metrics_ != nullptr) metrics_->wal_fsyncs.fetch_add(1, std::memory_order_relaxed);
    ship_synced_locked();
  }
  synced_cv_.notify_all();
  // The flusher parks while someone else's fsync is in flight; wake it so
  // it re-evaluates the backlog now that this one landed.
  work_cv_.notify_all();
}

void WalWriter::writeout_locked(std::unique_lock<std::mutex>& lock) {
  // Steal the pending batch and write WITHOUT fsync: spreads the write(2)
  // user→kernel copy across the ingest stream, so the eventual fsync
  // (flusher cadence or a terminal flush()) pays only the journal commit,
  // not a bulk data hand-off. Reuses `syncing_` as the fd in-flight guard;
  // synced_records_ is untouched — nothing becomes acknowledged here.
  if (pending_.empty() || failed_) return;
  syncing_ = true;
  write_buf_.clear();
  write_buf_.swap(pending_);
  lock.unlock();
  bool ok = true;
  try {
    file_->write(write_buf_.data(), write_buf_.size());
  } catch (const IoError&) {
    ok = false;
  }
  lock.lock();
  syncing_ = false;
  if (!ok) failed_ = true;
  synced_cv_.notify_all();
  work_cv_.notify_all();
}

void WalWriter::ship_synced_locked() {
  if (!ship_sink_ || ship_next_lsn_ > synced_records_) return;
  const std::uint64_t count = synced_records_ - ship_next_lsn_ + 1;
  const std::size_t prefix = frames_prefix_bytes(ship_buf_, count);
  ship_sink_(ship_next_lsn_, std::string_view(ship_buf_.data(), prefix));
  ship_buf_.erase(0, prefix);
  ship_next_lsn_ += count;
}

void WalWriter::set_ship_sink(ShipSink sink) {
  std::unique_lock lock(mutex_);
  ship_sink_ = std::move(sink);
  ship_buf_.clear();
  if (!ship_sink_) return;
  if (options_.sync) {
    // Capture frames appended but not yet durable so the live stream is
    // gapless against a file read taken after this call: everything the
    // file may be missing is either in pending_ (never written) or in
    // write_buf_ (an fsync in flight right now — its frames will be covered
    // by synced_records_ when it lands, and must be stageable then).
    ship_buf_.reserve(write_buf_.size() * static_cast<std::size_t>(syncing_) +
                      pending_.size());
    if (syncing_) ship_buf_.append(write_buf_);
    ship_buf_.append(pending_);
    ship_next_lsn_ = appended_records_ - count_whole_frames(ship_buf_) + 1;
    ship_synced_locked();
  } else {
    // Hand any pending frames to the OS now: with sync off the live stream
    // only carries frames appended after this call, so everything earlier
    // must be readable from the file.
    write_out_locked();
    ship_next_lsn_ = appended_records_ + 1;
  }
}

void WalWriter::flusher_loop() {
  using Clock = std::chrono::steady_clock;
  const auto period = std::chrono::milliseconds(options_.fsync_every_ms);
  std::unique_lock lock(mutex_);
  auto tick = Clock::now() + period;
  for (;;) {
    // Wake early when the record threshold or the write-out byte threshold
    // is crossed; otherwise the fixed tick implements the time-based half
    // of group commit. The tick is an absolute deadline, NOT a relative
    // timeout — early write-out wakes must not reset the clock, or
    // sustained byte-threshold traffic could postpone the timer fsync (and
    // the crash-loss time bound) indefinitely. The predicate must be false
    // while another thread's fsync is in flight — a true predicate makes
    // the wait return while HOLDING the mutex, and the in-flight flusher
    // needs it back to publish.
    work_cv_.wait_until(lock, tick, [this] {
      return stop_ || failed_ ||
             (!syncing_ &&
              (appended_records_ - synced_records_ >= options_.fsync_every_n ||
               pending_.size() >= kWriteOutBytes));
    });
    if (stop_ || failed_) break;
    if (syncing_) continue;
    if (appended_records_ - synced_records_ >= options_.fsync_every_n) {
      sync_locked(lock);
      tick = Clock::now() + period;
    } else if (Clock::now() >= tick) {
      if (appended_records_ > synced_records_) sync_locked(lock);
      tick = Clock::now() + period;
    } else if (pending_.size() >= kWriteOutBytes) {
      writeout_locked(lock);
    }
  }
}

void WalWriter::flush() {
  std::unique_lock lock(mutex_);
  if (!options_.sync) {
    // Durability disabled by configuration: hand the batch to the OS so
    // the bytes at least survive a process (not power) crash.
    write_out_locked();
    return;
  }
  const std::uint64_t target = appended_records_;
  while (synced_records_ < target && !failed_) {
    if (syncing_) {
      // A flusher fsync is in flight; wait for it to land, then re-check.
      synced_cv_.wait(lock);
      continue;
    }
    sync_locked(lock);
  }
  if (failed_) throw WalError("WAL flush failed (writer poisoned)");
}

void WalWriter::close() {
  {
    std::unique_lock lock(mutex_);
    if (stop_ && !flusher_.joinable() && file_ == nullptr) return;
    if (!stop_ && !failed_) {
      if (options_.sync) {
        while (syncing_) synced_cv_.wait(lock);
        sync_locked(lock);
      } else {
        try {
          write_out_locked();
        } catch (const WalError&) {
          // Poisoned; close() still tears the writer down.
        }
      }
    }
    stop_ = true;
    work_cv_.notify_all();
    synced_cv_.notify_all();
  }
  if (flusher_.joinable()) flusher_.join();
  if (file_ != nullptr) {
    file_->close();
    file_.reset();
  }
}

std::uint64_t WalWriter::records() const {
  std::lock_guard lock(mutex_);
  return appended_records_;
}

}  // namespace hxrc::storage
