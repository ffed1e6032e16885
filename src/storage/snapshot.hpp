// Snapshot writer/loader for the durability subsystem.
//
// A snapshot is the whole catalog state (registry, annotated-schema-derived
// definitions, shredded tables, ordering tables, CLOB store, same-sibling
// counters, version epoch) in the `HXRCCAT 3` catalog stream
// (MetadataCatalog::save), wrapped for crash safety:
//
//   file    := "HXSNAP 1\n" payload trailer
//   trailer := "HXSNAPOK" u32 crc32c(header + payload)
//
// Snapshots are written to `snapshot.tmp`, fsynced, renamed to
// `snapshot.<seq>.hxs`, and the directory fsynced — so a file under its
// final name is complete, and the trailer CRC additionally guards against
// byte rot. The WAL that pairs with snapshot seq is `wal.<seq>.log`; a
// checkpoint truncates the log behind the snapshot by starting a fresh
// `wal.<seq+1>.log` and deleting the superseded pair.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/catalog.hpp"
#include "storage/fs.hpp"
#include "util/metrics.hpp"

namespace hxrc::storage {

class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& message) : std::runtime_error(message) {}
};

/// File names inside a data directory.
std::string snapshot_name(std::uint64_t seq);
std::string wal_name(std::uint64_t seq);

/// Sequence number of a `snapshot.<seq>.hxs` / `wal.<seq>.log` file name;
/// nullopt for anything else (tmp files, strangers).
std::optional<std::uint64_t> parse_snapshot_name(std::string_view name);
std::optional<std::uint64_t> parse_wal_name(std::string_view name);

/// Serializes the catalog into snapshot bytes (header + payload + trailer).
/// With `locked`, the caller already holds the catalog's shared lock (the
/// checkpoint path, which must fence WAL rotation); otherwise the catalog
/// locks internally.
std::string encode_snapshot(const core::MetadataCatalog& catalog, bool locked);

/// True when `bytes` is a complete snapshot with a matching trailer CRC.
bool snapshot_valid(std::string_view bytes);

/// Restores a catalog from snapshot bytes. Call snapshot_valid first —
/// restore mutates the catalog, so feeding it a torn file is not
/// recoverable. Throws SnapshotError on structural mismatch.
void load_snapshot(core::MetadataCatalog& catalog, std::string_view bytes);

/// Durably writes snapshot `seq` into `dir` (tmp + fsync + rename +
/// directory fsync). Updates `metrics` when non-null.
void write_snapshot_file(Fs& fs, const std::string& dir, std::uint64_t seq,
                         std::string_view bytes, util::DurabilityMetrics* metrics);

}  // namespace hxrc::storage
