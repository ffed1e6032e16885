#include "storage/snapshot.hpp"

#include <cstring>
#include <sstream>

#include "storage/wal.hpp"  // crc32c

namespace hxrc::storage {

namespace {

constexpr std::string_view kHeader = "HXSNAP 1\n";
constexpr std::string_view kTrailerMagic = "HXSNAPOK";
constexpr std::size_t kTrailerSize = 8 + 4;  // magic + crc

std::optional<std::uint64_t> parse_seq(std::string_view name, std::string_view prefix,
                                       std::string_view suffix) {
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (name.substr(name.size() - suffix.size()) != suffix) return std::nullopt;
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return std::nullopt;
  std::uint64_t seq = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

}  // namespace

std::string snapshot_name(std::uint64_t seq) {
  return "snapshot." + std::to_string(seq) + ".hxs";
}

std::string wal_name(std::uint64_t seq) { return "wal." + std::to_string(seq) + ".log"; }

std::optional<std::uint64_t> parse_snapshot_name(std::string_view name) {
  return parse_seq(name, "snapshot.", ".hxs");
}

std::optional<std::uint64_t> parse_wal_name(std::string_view name) {
  return parse_seq(name, "wal.", ".log");
}

std::string encode_snapshot(const core::MetadataCatalog& catalog, bool locked) {
  std::ostringstream out;
  out << kHeader;
  if (locked) {
    catalog.save_unlocked(out);
  } else {
    catalog.save(out);
  }
  std::string bytes = std::move(out).str();
  const std::uint32_t crc = crc32c(0, bytes.data(), bytes.size());
  bytes.append(kTrailerMagic);
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  return bytes;
}

bool snapshot_valid(std::string_view bytes) {
  if (bytes.size() < kHeader.size() + kTrailerSize) return false;
  if (bytes.substr(0, kHeader.size()) != kHeader) return false;
  const std::size_t payload_end = bytes.size() - kTrailerSize;
  if (bytes.substr(payload_end, kTrailerMagic.size()) != kTrailerMagic) return false;
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                  bytes[payload_end + kTrailerMagic.size() + static_cast<std::size_t>(i)]))
              << (8 * i);
  }
  return crc32c(0, bytes.data(), payload_end) == stored;
}

void load_snapshot(core::MetadataCatalog& catalog, std::string_view bytes) {
  if (!snapshot_valid(bytes)) {
    throw SnapshotError("snapshot failed validation (torn or corrupt)");
  }
  std::istringstream in(
      std::string(bytes.substr(kHeader.size(), bytes.size() - kHeader.size() - kTrailerSize)));
  try {
    catalog.restore(in);
  } catch (const std::exception& e) {
    throw SnapshotError(std::string("snapshot restore failed: ") + e.what());
  }
}

void write_snapshot_file(Fs& fs, const std::string& dir, std::uint64_t seq,
                         std::string_view bytes, util::DurabilityMetrics* metrics) {
  const std::string tmp = dir + "/snapshot.tmp";
  {
    std::unique_ptr<File> file = fs.create(tmp);
    file->write(bytes.data(), bytes.size());
    file->sync();
    file->close();
  }
  fs.rename(tmp, dir + "/" + snapshot_name(seq));
  fs.sync_dir(dir);
  if (metrics != nullptr) {
    metrics->snapshots.fetch_add(1, std::memory_order_relaxed);
    metrics->snapshot_bytes.store(bytes.size(), std::memory_order_relaxed);
  }
}

}  // namespace hxrc::storage
