#include "storage/recovery.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "xml/dom.hpp"

namespace hxrc::storage {

namespace {

WalRecordType record_type(core::MutationEvent::Kind kind) {
  using Kind = core::MutationEvent::Kind;
  switch (kind) {
    case Kind::kIngest:
      return WalRecordType::kIngest;
    case Kind::kDefine:
      return WalRecordType::kDefine;
    case Kind::kAddAttribute:
      return WalRecordType::kAddAttribute;
    case Kind::kDelete:
      return WalRecordType::kDelete;
  }
  throw WalError("unknown mutation kind");
}

std::uint64_t elapsed_micros(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

void check_id(const char* what, std::int64_t recorded, std::int64_t assigned) {
  if (recorded != assigned) {
    throw RecoveryError(std::string("replay id drift: ") + what + " recorded " +
                        std::to_string(recorded) + " but replay assigned " +
                        std::to_string(assigned) +
                        " — the WAL does not belong to this catalog state");
  }
}

/// Binary DOM codec for document-bearing records. The content is logged as
/// a pre-order walk of the tree (kind tag, then name/attrs/children or text
/// value), NOT as XML text: encoding is pure memcpy (no escaping), and
/// replay rebuilds the DOM without an XML parse. Both sit on hot paths —
/// encode under the catalog's exclusive lock on every ingest, decode on the
/// recovery critical path. kLeafTag collapses the dominant DOM shape —
/// an attribute-less element whose only child is text (every metadata leaf
/// in a LEAD document) — into name + value, skipping the child recursion
/// and three bytes of structure per leaf.
constexpr std::uint8_t kElemTag = 0;
constexpr std::uint8_t kTextTag = 1;
constexpr std::uint8_t kLeafTag = 2;

void encode_node(WalEncoder& enc, const xml::Node& node) {
  if (node.is_text()) {
    enc.u8(kTextTag);
    enc.str(node.value());
    return;
  }
  const auto& attrs = node.attributes();
  const auto& children = node.children();
  if (attrs.empty() && children.size() == 1 && children[0]->is_text()) {
    enc.u8(kLeafTag);
    enc.str(node.name());
    enc.str(children[0]->value());
    return;
  }
  enc.u8(kElemTag);
  enc.str(node.name());
  enc.len(static_cast<std::uint32_t>(attrs.size()));
  for (const xml::Attribute& attr : attrs) {
    enc.str(attr.name);
    enc.str(attr.value);
  }
  enc.len(static_cast<std::uint32_t>(children.size()));
  for (const xml::Node* child : children) encode_node(enc, *child);
}

xml::NodePtr decode_node(WalDecoder& dec) {
  const std::uint8_t kind = dec.u8();
  if (kind == kTextTag) return xml::Node::text(std::string(dec.str()));
  if (kind == kLeafTag) {
    xml::NodePtr node = xml::Node::element(std::string(dec.str()));
    node->add_child(xml::Node::text(std::string(dec.str())));
    return node;
  }
  if (kind != kElemTag) {
    throw RecoveryError("corrupt DOM node tag in WAL payload (format drift)");
  }
  xml::NodePtr node = xml::Node::element(std::string(dec.str()));
  const std::uint32_t attr_count = dec.len();
  for (std::uint32_t i = 0; i < attr_count; ++i) {
    std::string name(dec.str());
    std::string value(dec.str());
    node->add_attribute(std::move(name), std::move(value));
  }
  const std::uint32_t child_count = dec.len();
  for (std::uint32_t i = 0; i < child_count; ++i) node->add_child(decode_node(dec));
  return node;
}

}  // namespace

void encode_event_into(WalEncoder& enc, const core::MutationEvent& event) {
  using Kind = core::MutationEvent::Kind;
  switch (event.kind) {
    case Kind::kIngest:
      enc.i64(event.object);
      enc.str(event.name);
      enc.str(event.owner);
      encode_node(enc, *event.content);
      break;
    case Kind::kAddAttribute:
      enc.i64(event.object);
      enc.str(event.path);
      enc.str(event.owner);
      encode_node(enc, *event.content);
      break;
    case Kind::kDefine: {
      enc.i64(event.attr);
      enc.i64(event.parent);
      enc.u8(static_cast<std::uint8_t>(event.visibility));
      enc.str(event.name);
      enc.str(event.source);
      enc.str(event.owner);
      const auto& elements = *event.elements;
      enc.u32(static_cast<std::uint32_t>(elements.size()));
      for (const core::DynamicElementSpec& elem : elements) {
        enc.str(elem.name);
        enc.str(elem.source);
        enc.u8(static_cast<std::uint8_t>(elem.type));
      }
      break;
    }
    case Kind::kDelete:
      enc.i64(event.object);
      break;
  }
}

void apply_record(core::MetadataCatalog& catalog, const WalRecord& record) {
  WalDecoder dec(record.payload);
  try {
    switch (record.type) {
      case WalRecordType::kIngest: {
        const core::ObjectId object = dec.i64();
        const std::string name(dec.str());
        const std::string owner(dec.str());
        const xml::Document doc(decode_node(dec));
        check_id("object", object, catalog.ingest(doc, name, owner));
        break;
      }
      case WalRecordType::kAddAttribute: {
        const core::ObjectId object = dec.i64();
        const std::string path(dec.str());
        const std::string owner(dec.str());
        const xml::NodePtr content = decode_node(dec);
        catalog.add_attribute(object, path, *content, owner);
        break;
      }
      case WalRecordType::kDefine: {
        const core::AttrDefId attr = dec.i64();
        const core::AttrDefId parent = dec.i64();
        const auto visibility = static_cast<core::Visibility>(dec.u8());
        const std::string name(dec.str());
        const std::string source(dec.str());
        const std::string owner(dec.str());
        std::vector<core::DynamicElementSpec> elements(dec.u32());
        for (core::DynamicElementSpec& elem : elements) {
          elem.name = std::string(dec.str());
          elem.source = std::string(dec.str());
          elem.type = static_cast<xml::LeafType>(dec.u8());
        }
        const core::AttrDefId assigned =
            parent == core::kNoAttr
                ? catalog.define_dynamic_attribute(name, source, elements, visibility,
                                                   owner)
                : catalog.define_dynamic_sub_attribute(parent, name, source, elements,
                                                       visibility, owner);
        check_id("attribute definition", attr, assigned);
        break;
      }
      case WalRecordType::kDelete:
        catalog.delete_object(dec.i64());
        break;
      default:
        throw RecoveryError("unknown WAL record type " +
                            std::to_string(static_cast<int>(record.type)));
    }
  } catch (const RecoveryError&) {
    throw;
  } catch (const std::exception& e) {
    throw RecoveryError(std::string("WAL replay failed: ") + e.what());
  }
  if (!dec.done()) {
    throw RecoveryError("WAL record carries trailing bytes (format drift)");
  }
  // Re-pin the epoch the original process recorded. Replay must not assert
  // contiguity: a previous recovery's final bump leaves gaps.
  catalog.restore_version(record.epoch);
}

DurableCatalog::DurableCatalog(core::MetadataCatalog& catalog, DurabilityConfig config,
                               Fs& fs)
    : catalog_(catalog), config_(std::move(config)), fs_(fs) {
  const auto start = std::chrono::steady_clock::now();
  fs_.create_dirs(config_.data_dir);

  // Newest valid snapshot wins; an invalid newer one (byte rot, or a crash
  // no rename protocol can explain) falls back to the next older.
  std::vector<std::uint64_t> snapshot_seqs;
  for (const std::string& name : fs_.list(config_.data_dir)) {
    if (const auto seq = parse_snapshot_name(name)) snapshot_seqs.push_back(*seq);
  }
  std::sort(snapshot_seqs.rbegin(), snapshot_seqs.rend());
  for (const std::uint64_t seq : snapshot_seqs) {
    const std::string bytes = fs_.read_file(dir_path(snapshot_name(seq)));
    if (!snapshot_valid(bytes)) continue;
    load_snapshot(catalog_, bytes);  // structural mismatch throws — no fallback
    recovery_.snapshot_loaded = true;
    seq_ = seq;
    break;
  }

  // Replay the paired WAL tail, truncating a torn suffix in place.
  const std::string wal_path = dir_path(wal_name(seq_));
  if (fs_.exists(wal_path)) {
    const std::string bytes = fs_.read_file(wal_path);
    WalScan scan;
    try {
      scan = scan_wal(bytes);
    } catch (const WalError& e) {
      throw RecoveryError(std::string("unreadable WAL ") + wal_name(seq_) + ": " +
                          e.what());
    }
    for (const WalRecord& record : scan.records) apply_record(catalog_, record);
    recovery_.replayed_records = scan.records.size();
    if (scan.torn_tail) {
      fs_.truncate(wal_path, scan.valid_bytes);
      recovery_.torn_tail = true;
      recovery_.torn_reason = scan.stop_reason;
      metrics_.torn_tail_truncations.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // One bump past everything recovered: every cursor the dead process
  // issued is now provably stale, even when the crash lost zero records.
  catalog_.restore_version(catalog_.version() + 1);
  recovery_.epoch = catalog_.version();
  recovery_.snapshot_seq = seq_;

  cleanup_superseded(seq_);

  // LSNs continue from the replayed record count, so an LSN names the
  // record's ordinal in this WAL file across restarts (replication relies
  // on it: a replica's applied-LSN watermark is per (wal_seq, ordinal)).
  wal_ = std::make_unique<WalWriter>(fs_.open_append(wal_path), config_.wal, &metrics_,
                                     recovery_.replayed_records);
  recovery_.recovery_micros = elapsed_micros(start);
  metrics_.recovery_micros.store(recovery_.recovery_micros, std::memory_order_relaxed);
  metrics_.replayed_records.store(recovery_.replayed_records, std::memory_order_relaxed);

  catalog_.set_mutation_observer(
      [this](const core::MutationEvent& event) { on_mutation(event); });
  catalog_.set_durability_metrics(&metrics_);
}

DurableCatalog::~DurableCatalog() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; a poisoned WAL already surfaced its
    // failure to the mutating callers.
  }
}

void DurableCatalog::on_mutation(const core::MutationEvent& event) {
  // Runs under the catalog's exclusive lock: append order == apply order,
  // and the reused payload buffer needs no locking of its own.
  event_buf_.clear();
  encode_event_into(event_buf_, event);
  wal_->append(record_type(event.kind), event.epoch, event_buf_.bytes());
}

void DurableCatalog::flush() {
  std::lock_guard<std::mutex> guard(lifecycle_mutex_);
  if (!closed_) wal_->flush();
}

void DurableCatalog::install_ship_sink(std::uint64_t seq) {
  if (ship_observer_ == nullptr) {
    wal_->set_ship_sink(nullptr);
    return;
  }
  WalShipObserver* observer = ship_observer_;
  wal_->set_ship_sink([observer, seq](std::uint64_t first_lsn,
                                      std::string_view frames) {
    observer->on_durable(seq, first_lsn, frames);
  });
}

void DurableCatalog::set_ship_observer(WalShipObserver* observer) {
  std::lock_guard<std::mutex> guard(lifecycle_mutex_);
  ship_observer_ = observer;
  if (!closed_) install_ship_sink(seq_);
}

void DurableCatalog::checkpoint() {
  std::lock_guard<std::mutex> guard(lifecycle_mutex_);
  if (closed_) throw RecoveryError("checkpoint on a closed DurableCatalog");
  const std::uint64_t old_seq = seq_;
  {
    // The shared lock fences mutations: nothing can append to the old WAL
    // after the snapshot point, and nothing can land between the snapshot
    // and the rotation. Readers keep running.
    auto lock = catalog_.read_lock();
    const std::string bytes = encode_snapshot(catalog_, /*locked=*/true);
    write_snapshot_file(fs_, config_.data_dir, old_seq + 1, bytes, &metrics_);
    const std::uint64_t prev_records = wal_->records();
    wal_->close();
    wal_ = std::make_unique<WalWriter>(fs_.create(dir_path(wal_name(old_seq + 1))),
                                       config_.wal, &metrics_);
    seq_ = old_seq + 1;
    // Still under the mutation fence: replicas learn about the rotation
    // (with the exact image the new sequence starts from) before any frame
    // of the new WAL can exist.
    if (ship_observer_ != nullptr) {
      ship_observer_->on_rotate(seq_, prev_records, catalog_.version(), bytes);
      install_ship_sink(seq_);
    }
  }
  cleanup_superseded(seq_);
}

void DurableCatalog::close() {
  std::lock_guard<std::mutex> guard(lifecycle_mutex_);
  if (closed_) return;
  catalog_.set_mutation_observer(nullptr);
  catalog_.set_durability_metrics(nullptr);
  wal_->close();
  closed_ = true;
}

void DurableCatalog::cleanup_superseded(std::uint64_t live_seq) {
  // Best-effort: stale pairs and tmp files from crashed checkpoints. A
  // failure here never blocks recovery — the next open retries.
  for (const std::string& name : fs_.list(config_.data_dir)) {
    const auto snap = parse_snapshot_name(name);
    const auto wal = parse_wal_name(name);
    const bool stale = (snap && *snap != live_seq) || (wal && *wal != live_seq) ||
                       name == "snapshot.tmp";
    if (!stale) continue;
    try {
      fs_.remove(dir_path(name));
    } catch (const IoError&) {
    }
  }
  try {
    fs_.sync_dir(config_.data_dir);
  } catch (const IoError&) {
  }
}

}  // namespace hxrc::storage
