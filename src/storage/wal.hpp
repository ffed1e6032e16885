// Binary write-ahead log with CRC32C framing and group commit.
//
// Every catalog mutation appends one frame, under the catalog's exclusive
// lock (so the log order is exactly the apply order — replay is a pure
// redo). On-disk layout:
//
//   file   := header frame*
//   header := "HXWAL1\n\0"                       (8 bytes)
//   frame  := u32 body_len | u32 crc32c(body) | body
//   body   := u8 type | u64 epoch | payload      (body_len = 9 + |payload|)
//
// All integers little-endian. The CRC covers the body only, so a torn tail
// — a partial header, a length pointing past EOF, or a body whose CRC does
// not match — marks the end of the valid prefix; recovery truncates there
// and continues (never crashes on a torn tail).
//
// Durability model (group commit): append() encodes the frame into an
// in-memory pending buffer and returns — no syscall on the mutation path. A
// dedicated flusher thread hands the whole batch to the OS (one write(2))
// and fsyncs when `fsync_every_n` unsynced records accumulate or
// `fsync_every_ms` elapses, whichever first; batches past kWriteOutBytes
// are written out early WITHOUT fsync, so the eventual fsync pays only the
// journal commit, not a bulk data hand-off. Batching the write(2) as well
// as the fsync matters: ext4 serializes writes against an in-flight fsync
// of the same inode, so per-record writes would stall every mutation behind
// the flusher. A record is *acknowledged durable* only once flush() returns
// (or the flusher has passed its LSN); a crash may lose the un-fsynced
// suffix, which is exactly what the crash-matrix test permits.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "storage/fs.hpp"
#include "util/metrics.hpp"

namespace hxrc::storage {

/// CRC32C (Castagnoli), bytewise table implementation. `seed` is the
/// running CRC (start from 0); the final value is post-conditioned.
std::uint32_t crc32c(std::uint32_t seed, const void* data, std::size_t size);

class WalError : public std::runtime_error {
 public:
  explicit WalError(const std::string& message) : std::runtime_error(message) {}
};

enum class WalRecordType : std::uint8_t {
  kIngest = 1,
  kDefine = 2,
  kAddAttribute = 3,
  kDelete = 4,
  // 5 and 6 are reserved: they logged the retired collection mutations.
  // Replay rejects them as unknown types; do not reassign them.
};

inline constexpr char kWalMagic[8] = {'H', 'X', 'W', 'A', 'L', '1', '\n', '\0'};

/// One decoded frame (payload views into the scanned buffer).
struct WalRecord {
  WalRecordType type;
  std::uint64_t epoch = 0;
  std::string_view payload;
};

/// Result of scanning a WAL byte buffer.
struct WalScan {
  std::vector<WalRecord> records;
  /// Bytes of the valid prefix (header + intact frames). Anything past it
  /// is a torn/corrupt tail the caller should truncate away.
  std::uint64_t valid_bytes = 0;
  /// True when bytes past the valid prefix exist (torn tail detected).
  bool torn_tail = false;
  /// Why the scan stopped, for logs/tests ("" when the file ended cleanly).
  std::string stop_reason;
};

/// Scans a WAL image. Throws WalError only when the header itself is not a
/// WAL (wrong magic on a non-empty file); every later defect is reported as
/// a torn tail, never an exception.
WalScan scan_wal(std::string_view bytes);

/// Scans a headerless run of frames — the payload format of replication
/// chunks (fed/ship_wire.hpp), which ship frames without the file magic.
/// Same torn-tail semantics as scan_wal; on the wire a torn tail means a
/// corrupt chunk, and the receiver should drop the connection.
WalScan scan_wal_frames(std::string_view bytes);

// ---- payload codec -------------------------------------------------------

/// Append-only little-endian encoder for WAL payloads and snapshots.
///
/// Integers are staged in a stack buffer and appended with a single
/// std::string::append — one capacity check per field instead of one per
/// byte; GCC/Clang collapse the shift-stores into a single unaligned store.
/// This encoder runs under the catalog's exclusive lock for every logged
/// mutation, so per-field costs are the WAL's ingest overhead.
class WalEncoder {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    out_.append(b, 4);
  }
  void u64(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    out_.append(b, 8);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Compact count: one byte below 0xff, 0xff escape + u32 above. Catalog
  /// payloads are dominated by short names, paths, and text values, so this
  /// replaces a 4-byte prefix with 1 byte for nearly every string — the WAL
  /// image for the LEAD corpus shrinks ~25% below the equivalent XML text.
  void len(std::uint32_t n) {
    if (n < 0xff) {
      out_.push_back(static_cast<char>(n));
      return;
    }
    out_.push_back(static_cast<char>(0xff));
    u32(n);
  }
  void str(std::string_view s) {
    len(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

  void clear() noexcept { out_.clear(); }
  const std::string& bytes() const noexcept { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked decoder; throws WalError past the end (a scanned frame's
/// CRC already matched, so a decode error means a logic/version bug, not
/// disk corruption).
class WalDecoder {
 public:
  explicit WalDecoder(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(need(1)[0]); }
  std::uint32_t u32() {
    const char* p = need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    const char* p = need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::uint32_t len() {
    const std::uint8_t first = u8();
    return first < 0xff ? first : u32();
  }
  std::string_view str() {
    const std::uint32_t n = len();
    return std::string_view(need(n), n);
  }
  bool done() const noexcept { return pos_ == bytes_.size(); }

 private:
  const char* need(std::size_t n) {
    if (bytes_.size() - pos_ < n) throw WalError("WAL payload decode past end");
    const char* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Serializes one frame (length + CRC + body) into a buffer.
void encode_frame(std::string& out, WalRecordType type, std::uint64_t epoch,
                  std::string_view payload);

// ---- writer --------------------------------------------------------------

struct WalOptions {
  /// Flusher cadence: fsync when this many ms elapse with unsynced records.
  /// The pair bounds the crash-loss window (nothing fsync-acknowledged is
  /// ever lost; at most this window of unacknowledged tail can tear). The
  /// defaults let a paper-scale ingest burst amortize each fsync over a few
  /// hundred records, which is what keeps WAL-on ingest inside the 1.3×
  /// overhead budget (bench_durability E13); a 20 ms loss bound is still an
  /// order of magnitude tighter than e.g. PostgreSQL's 200 ms
  /// wal_writer_delay for asynchronous commits.
  std::uint32_t fsync_every_ms = 20;
  /// ... or as soon as this many unsynced records accumulate. The time
  /// bound is the primary cadence; the count is a volume backstop (~0.35 MB
  /// of catalog records, within the range of PostgreSQL's 1 MB
  /// wal_writer_flush_after) so a burst cannot buffer unbounded data.
  std::uint32_t fsync_every_n = 256;
  /// Disables fsync entirely (metadata still flows through write(2)).
  /// For benches quantifying the fsync share of WAL overhead; a production
  /// catalog keeps this true.
  bool sync = true;
};

/// Appends frames with group commit. append() is called under the
/// catalog's exclusive lock; flush()/close() may be called from any thread.
/// After an IoError from the underlying file the writer is poisoned: every
/// later append throws WalError (the in-memory catalog may then be ahead of
/// the log, and the process must surface the failure instead of silently
/// running unlogged).
class WalWriter {
 public:
  /// Ship hook (replication): invoked under the writer mutex, in LSN order,
  /// with a run of freshly *durable* frames — `frames` is raw frame bytes
  /// (no file magic) whose first record has LSN `first_lsn`. The callback
  /// must be quick (hand off to a queue); it runs on the append path with
  /// sync off and on the flusher/flush path with sync on.
  using ShipSink =
      std::function<void(std::uint64_t first_lsn, std::string_view frames)>;

  /// `initial_records` is the record count already present in the file when
  /// reopening an existing WAL — LSNs continue from it, so an LSN is always
  /// the record's 1-based ordinal in the file regardless of process
  /// restarts. A fresh file passes 0.
  WalWriter(std::unique_ptr<File> file, WalOptions options,
            util::DurabilityMetrics* metrics, std::uint64_t initial_records = 0);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one frame to the pending batch (no syscall). Returns the
  /// record's LSN (1-based record count). The record is durable only after
  /// a flush()/flusher pass covers it.
  std::uint64_t append(WalRecordType type, std::uint64_t epoch, std::string_view payload);

  /// Installs (or clears) the replication ship sink. Frames appended after
  /// installation are shipped once durable; frames already appended but not
  /// yet handed to the OS are captured too, so the sink's stream is gapless
  /// against a reader that starts from the current *file* contents (the
  /// shipper reads the file only after installing the sink; overlap between
  /// the two is resolved by LSN on the receiving side).
  void set_ship_sink(ShipSink sink);

  /// Blocks until every record appended so far is fsynced. With sync
  /// disabled, hands the pending batch to the OS and returns.
  void flush();

  /// flush() + stop the flusher + close the file. Idempotent.
  void close();

  std::uint64_t records() const;

 private:
  /// Drain pending_ to the OS (no fsync) once it grows past this. With sync
  /// on, the flusher does it off-thread so a later fsync only pays the
  /// journal commit, not the data copy; with sync off, append() drains
  /// inline to bound memory.
  static constexpr std::size_t kWriteOutBytes = std::size_t{1} << 16;

  void flusher_loop();
  void sync_locked(std::unique_lock<std::mutex>& lock);
  void writeout_locked(std::unique_lock<std::mutex>& lock);
  void write_out_locked();
  /// Ships the prefix of ship_buf_ covering records with LSN <=
  /// synced_records_. Caller holds the mutex.
  void ship_synced_locked();

  std::unique_ptr<File> file_;
  WalOptions options_;
  util::DurabilityMetrics* metrics_;  // may be null

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // wakes the flusher
  std::condition_variable synced_cv_; // wakes flush() waiters
  std::uint64_t appended_records_ = 0;
  std::uint64_t synced_records_ = 0;
  bool failed_ = false;
  bool stop_ = false;
  bool syncing_ = false;
  /// Frames appended but not yet handed to the OS. With sync on, only the
  /// stealing drains (sync_locked / writeout_locked, serialized by
  /// `syncing_`) touch the fd; with sync off, append/flush/close drain it
  /// under the mutex.
  std::string pending_;
  std::string write_buf_;  // swap target while the batch is written unlocked
  /// Replication staging: frames appended since the sink's ship cursor.
  /// With sync on, frames accumulate here and are shipped (prefix-wise, by
  /// frame-walking the length fields) once an fsync covers their LSNs; with
  /// sync off each frame ships directly from append(). Empty and unused
  /// while no sink is installed.
  ShipSink ship_sink_;
  std::string ship_buf_;
  std::uint64_t ship_next_lsn_ = 1;
  std::thread flusher_;
};

}  // namespace hxrc::storage
