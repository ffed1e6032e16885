// Crash recovery and the durable-catalog lifecycle.
//
// DurableCatalog bolts the WAL + snapshot machinery onto a MetadataCatalog:
//
//   open (constructor)
//     1. load the newest snapshot whose trailer CRC validates (older valid
//        ones are fallbacks against byte rot; none = start empty);
//     2. replay the paired WAL tail in order, re-applying each logged
//        mutation through the normal catalog API and re-pinning the version
//        epoch each record carried; a torn/corrupt final record ends replay
//        — the file is truncated to the valid prefix and recovery
//        continues (never crashes);
//     3. bump the epoch once past everything recovered, so any cursor
//        issued by the dead process is stale by construction;
//     4. attach the WAL appender as the catalog's mutation observer and
//        start the group-commit flusher.
//
//   checkpoint()
//     Writes snapshot seq+1 under the catalog's shared lock (mutations are
//     fenced, so nothing can land in the old WAL after the snapshot point),
//     rotates to a fresh wal.<seq+1>.log, then deletes the superseded pair
//     — the snapshot truncates the log behind it.
//
//   close()
//     Final flush + detach. Quiesce request traffic first
//     (ServiceDispatcher::drain()) so no mutation races the detach.
//
// Secondary indexes are NOT serialized anywhere; they rebuild lazily on
// first probe after recovery (the deferred-index design of the query
// layer), so recovery cost is dominated by rows, not index builds.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/catalog.hpp"
#include "storage/fs.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"
#include "util/metrics.hpp"

namespace hxrc::storage {

class RecoveryError : public std::runtime_error {
 public:
  explicit RecoveryError(const std::string& message) : std::runtime_error(message) {}
};

struct DurabilityConfig {
  /// Directory holding snapshot.<seq>.hxs / wal.<seq>.log; created if absent.
  std::string data_dir;
  /// Group-commit cadence (see storage/wal.hpp).
  WalOptions wal;
};

/// What open() found and did; exposed for logs, stats, and tests.
struct RecoveryInfo {
  bool snapshot_loaded = false;
  std::uint64_t snapshot_seq = 0;  ///< live sequence number after open
  std::uint64_t replayed_records = 0;
  bool torn_tail = false;
  std::string torn_reason;
  std::uint64_t recovery_micros = 0;
  std::uint64_t epoch = 0;  ///< catalog version after recovery (post-bump)
};

/// Serializes one mutation event into a WAL payload (sans framing),
/// appended to `enc`. The append path reuses one encoder across events to
/// keep per-mutation allocations off the catalog's exclusive lock.
void encode_event_into(WalEncoder& enc, const core::MutationEvent& event);

/// Re-applies one scanned WAL record through the catalog API and re-pins
/// the epoch the record carried. Throws RecoveryError when the replayed
/// mutation diverges (id drift) — that is corruption the CRC cannot see.
void apply_record(core::MetadataCatalog& catalog, const WalRecord& record);

/// Replication tap on a DurableCatalog (see fed/shipper.hpp for the network
/// half). Callbacks run with durability-layer locks held — on_durable under
/// the WAL writer mutex, on_rotate under the catalog's shared lock inside
/// checkpoint() — so implementations must only enqueue and return.
class WalShipObserver {
 public:
  virtual ~WalShipObserver() = default;

  /// A run of fsync-acknowledged WAL frames (raw frame bytes, no file
  /// magic); the first record's LSN within wal.<wal_seq>.log is first_lsn.
  virtual void on_durable(std::uint64_t wal_seq, std::uint64_t first_lsn,
                          std::string_view frames) = 0;

  /// A checkpoint rotated to wal.<new_seq>.log (empty); `snapshot` is the
  /// serialized catalog image the new sequence starts from, `prev_records`
  /// the total record count of the finished wal.<new_seq-1>.log (a replica
  /// adopts the rotation only when its applied-LSN matches — proof it
  /// missed nothing), and `epoch` the catalog version at the snapshot
  /// point. Called under the mutation fence, so no on_durable for new_seq
  /// can precede it.
  virtual void on_rotate(std::uint64_t new_seq, std::uint64_t prev_records,
                         std::uint64_t epoch, const std::string& snapshot) = 0;
};

class DurableCatalog {
 public:
  /// Opens (recovering if the directory has state) and attaches. The
  /// catalog must be freshly constructed (same schema/annotations as the
  /// process that wrote the directory) and not yet serving traffic.
  DurableCatalog(core::MetadataCatalog& catalog, DurabilityConfig config,
                 Fs& fs = real_fs());
  ~DurableCatalog();

  DurableCatalog(const DurableCatalog&) = delete;
  DurableCatalog& operator=(const DurableCatalog&) = delete;

  const RecoveryInfo& recovery() const noexcept { return recovery_; }
  const util::DurabilityMetrics& metrics() const noexcept { return metrics_; }
  std::uint64_t wal_seq() const noexcept { return seq_; }
  const std::string& data_dir() const noexcept { return config_.data_dir; }

  /// Installs (or clears, with nullptr) the replication observer. The
  /// observer must outlive the DurableCatalog or be cleared first. Frames
  /// appended but not yet durable at installation time are included in the
  /// stream; overlap with a concurrent read of the WAL file is resolved by
  /// LSN on the receiving side (WalWriter::set_ship_sink).
  void set_ship_observer(WalShipObserver* observer);

  /// Blocks until every mutation so far is fsync-acknowledged.
  void flush();

  /// Snapshot + WAL rotation; see file header. Safe to call concurrently
  /// with reads and mutations (mutations stall for the snapshot's duration).
  void checkpoint();

  /// Final flush + detach observer. Call only after quiescing mutation
  /// traffic (e.g. ServiceDispatcher::drain()) — a mutation concurrent with
  /// close() would race the observer swap. Idempotent.
  void close();

 private:
  void on_mutation(const core::MutationEvent& event);
  void cleanup_superseded(std::uint64_t live_seq);
  /// Hooks `wal_` up to ship_observer_ for the given sequence number.
  /// Caller guarantees no concurrent writer swap (lifecycle_mutex_ or
  /// construction).
  void install_ship_sink(std::uint64_t seq);
  std::string dir_path(const std::string& name) const {
    return config_.data_dir + "/" + name;
  }

  core::MetadataCatalog& catalog_;
  DurabilityConfig config_;
  Fs& fs_;
  util::DurabilityMetrics metrics_;
  RecoveryInfo recovery_;
  std::uint64_t seq_ = 0;
  std::unique_ptr<WalWriter> wal_;
  /// Reused payload buffer for on_mutation; guarded by the catalog's
  /// exclusive lock like `wal_` itself.
  WalEncoder event_buf_;
  /// Serializes checkpoint/flush/close against each other. on_mutation does
  /// not take it — it runs under the catalog's exclusive lock, and
  /// checkpoint swaps the writer while holding the catalog's shared lock,
  /// so the two can never touch `wal_` concurrently.
  std::mutex lifecycle_mutex_;
  bool closed_ = false;
  /// Replication tap; written under lifecycle_mutex_, read by the writer's
  /// ship sink (which captured it when installed).
  WalShipObserver* ship_observer_ = nullptr;
};

}  // namespace hxrc::storage
