#include "fed/router.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/service.hpp"
#include "fed/merge.hpp"

namespace hxrc::fed {

using core::ErrorCode;
using core::error_response;
using core::peek_request_attr;

namespace {

/// The degraded-answer annotation naming the shards that did not answer.
std::string partial_note(std::vector<std::uint32_t> shards) {
  std::sort(shards.begin(), shards.end());
  std::string out = "<partial code=\"partial\" shards=\"";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(shards[i]);
  }
  return out + "\"/>";
}

std::string unreachable_error(std::uint32_t shard) {
  return error_response(ErrorCode::kUnavailable,
                        "shard " + std::to_string(shard) + " is unreachable");
}

std::string serving_set_changed(std::uint32_t shard) {
  return error_response(ErrorCode::kStaleCursor,
                        "the serving set changed under the cursor (shard " +
                            std::to_string(shard) + "); restart the query");
}

std::int64_t steady_ms() noexcept {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Endpoint pool.

std::unique_ptr<net::BlockingClient> FederationRouter::Endpoint::checkout(
    bool fresh) {
  if (!fresh) {
    std::lock_guard lock(pool_mutex);
    if (!idle.empty()) {
      std::unique_ptr<net::BlockingClient> client = std::move(idle.back());
      idle.pop_back();
      return client;
    }
  }
  auto client = std::make_unique<net::BlockingClient>(host, port, io_timeout_ms);
  client->set_io_timeout(io_timeout_ms);
  return client;
}

void FederationRouter::Endpoint::mark_dead() noexcept {
  dead_since_ms.store(std::max<std::int64_t>(steady_ms(), kAlive + 1));
}

bool FederationRouter::Endpoint::claim_revival() noexcept {
  std::int64_t since = dead_since_ms.load();
  return since != kAlive && since != kReviving && steady_ms() - since >= kRevivalDelayMs &&
         dead_since_ms.compare_exchange_strong(since, kReviving);
}

void FederationRouter::Endpoint::checkin(
    std::unique_ptr<net::BlockingClient> client) {
  std::lock_guard lock(pool_mutex);
  if (idle.size() < 8) idle.push_back(std::move(client));
}

// ---------------------------------------------------------------------------
// Lifecycle.

FederationRouter::FederationRouter(RouterOptions options)
    : options_(std::move(options)),
      pool_(options_.workers == 0 ? 1 : options_.workers) {
  if (options_.shards.empty() || options_.shards.size() > 64) {
    throw FedError("federation needs 1..64 shards");
  }
  for (const ShardEndpoint& spec : options_.shards) {
    auto shard = std::make_unique<Shard>();
    shard->primary.host = spec.primary_host;
    shard->primary.port = spec.primary_port;
    shard->primary.io_timeout_ms = options_.io_timeout_ms;
    shard->replica.host = spec.replica_host;
    shard->replica.port = spec.replica_port;
    shard->replica.io_timeout_ms = options_.io_timeout_ms;
    shards_.push_back(std::move(shard));
  }
  if (options_.probe_interval_ms > 0) {
    prober_ = std::thread([this] { probe_loop(); });
  }
}

FederationRouter::~FederationRouter() {
  stop_.store(true, std::memory_order_release);
  probe_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
  drain();
}

// ---------------------------------------------------------------------------
// RequestBroker surface.

void FederationRouter::submit_async(std::string request_xml,
                                    std::function<void(std::string)> done,
                                    bool /*probe_cache*/) {
  if (draining_.load(std::memory_order_acquire)) {
    done(error_response(ErrorCode::kDraining, "service is shutting down"));
    return;
  }
  {
    std::unique_lock lock(drain_mutex_);
    if (inflight_ >= options_.max_queue) {
      lock.unlock();
      done(error_response(ErrorCode::kOverloaded, "router queue is full"));
      return;
    }
    ++inflight_;
  }
  pool_.submit([this, request = std::move(request_xml),
                done = std::move(done)]() mutable {
    std::string response = handle(request);
    done(std::move(response));
    // Notify under the lock: once drain() (and so ~FederationRouter) can
    // observe inflight_ == 0, this worker no longer touches drain_cv_.
    std::lock_guard lock(drain_mutex_);
    --inflight_;
    drain_cv_.notify_all();
  });
}

std::shared_ptr<const core::CachedResponse> FederationRouter::try_cached(
    std::string_view /*request_xml*/) {
  return nullptr;  // shard-side caches answer; the router holds no state
}

std::size_t FederationRouter::queue_depth() const noexcept {
  std::lock_guard lock(drain_mutex_);
  return inflight_;
}

std::size_t FederationRouter::max_queue() const noexcept {
  return options_.max_queue;
}

void FederationRouter::begin_drain() {
  draining_.store(true, std::memory_order_release);
}

void FederationRouter::drain() {
  begin_drain();
  std::unique_lock lock(drain_mutex_);
  drain_cv_.wait(lock, [this] { return inflight_ == 0; });
}

bool FederationRouter::draining() const noexcept {
  return draining_.load(std::memory_order_acquire);
}

std::string FederationRouter::route(const std::string& request_xml) {
  return handle(request_xml);
}

// ---------------------------------------------------------------------------
// Routing.

std::string FederationRouter::handle(const std::string& request_xml) {
  try {
    const std::string type = peek_request_attr(request_xml, "type");
    if (type == "query") return scatter_query(request_xml, /*ids_only=*/false);
    if (type == "queryIds") return scatter_query(request_xml, /*ids_only=*/true);
    if (type == "stats") return scatter_stats(request_xml);
    if (type == "ingest") return handle_ingest(request_xml);
    if (type == "define") return handle_define(request_xml);
    if (type == "fetch" || type == "delete" || type == "addAttribute") {
      return handle_point_op(request_xml, type);
    }
    // Unknown / missing type (and malformed XML): let a real service layer
    // produce the canonical parse/validation error.
    return call_shard(0, request_xml, /*read=*/false);
  } catch (const FedError& e) {
    return error_response(ErrorCode::kValidation,
                          std::string("federation: ") + e.what());
  } catch (const std::exception& e) {
    return error_response(ErrorCode::kValidation, e.what());
  }
}

std::string FederationRouter::handle_ingest(const std::string& request_xml) {
  const std::uint32_t nshards = shard_count();
  const std::string name = peek_request_attr(request_xml, "name");
  const std::uint32_t shard =
      name.empty() ? static_cast<std::uint32_t>(
                         round_robin_.fetch_add(1, std::memory_order_relaxed) %
                         nshards)
                   : placement_shard(name, nshards);
  const std::string response = call_shard(shard, request_xml, /*read=*/false);
  const ParsedResponse parsed = parse_response(response);
  if (!parsed.ok) return response;
  // Payload is exactly <objectID>lid</objectID>; rewrite to the gid.
  static constexpr std::string_view kOpen = "<objectID>";
  static constexpr std::string_view kClose = "</objectID>";
  if (parsed.payload.rfind(kOpen, 0) != 0 ||
      parsed.payload.size() <= kOpen.size() + kClose.size()) {
    throw FedError("unexpected ingest payload from shard");
  }
  const std::optional<std::uint64_t> lid = parse_count(parsed.payload.substr(
      kOpen.size(), parsed.payload.size() - kOpen.size() - kClose.size()));
  if (!lid) throw FedError("non-numeric ingest objectID from shard");
  return ok_envelope(parsed.version,
                     "<objectID>" + std::to_string(gid_of(*lid, shard, nshards)) +
                         "</objectID>");
}

std::string FederationRouter::handle_point_op(const std::string& request_xml,
                                              std::string_view type) {
  const std::uint32_t nshards = shard_count();
  const std::optional<std::uint64_t> gid =
      parse_count(peek_request_attr(request_xml, "objectID"));
  // Missing or malformed id: forward for the canonical validation error.
  if (!gid) return call_shard(0, request_xml, /*read=*/false);
  const std::uint32_t shard = shard_of(*gid, nshards);
  const bool read = type == "fetch";
  const std::string response = call_shard(
      shard, rewrite_root_attr(request_xml, "objectID", std::to_string(lid_of(*gid, nshards))),
      read);

  const ParsedResponse parsed = parse_response(response);
  if (!parsed.ok) {
    if (parsed.code == "not_found") {
      // The shard names its local id; the client asked about the gid.
      return error_response(ErrorCode::kNotFound,
                            "object " + std::to_string(*gid) + " does not exist");
    }
    return response;
  }
  if (read) {
    const QueryPayload page = parse_query_payload(parsed.payload, false);
    std::string payload = "<results>";
    for (const ResultSpan& span : page.results) {
      payload += "<result objectID=\"" +
                 std::to_string(gid_of(span.lid, shard, nshards)) + "\">";
      payload += span.body;
      payload += "</result>";
    }
    payload += "</results>";
    return ok_envelope(parsed.version, payload);
  }
  return response;  // <deleted/> / <added/> carry no ids
}

std::string FederationRouter::handle_define(const std::string& request_xml) {
  // Serialized so concurrent defines land in the same order on every shard
  // and therefore assign identical attribute ids.
  std::lock_guard define_lock(define_mutex_);
  std::string first_payload;
  std::uint64_t version = 0;
  for (std::uint32_t shard = 0; shard < shard_count(); ++shard) {
    const std::string response = call_shard(shard, request_xml, /*read=*/false);
    const ParsedResponse parsed = parse_response(response);
    if (!parsed.ok) return response;
    version = std::max(version, parsed.version);
    if (shard == 0) {
      first_payload = std::string(parsed.payload);
    } else if (parsed.payload != first_payload) {
      return error_response(ErrorCode::kValidation,
                            "shards disagree on the defined attribute id — "
                            "federated definitions have diverged");
    }
  }
  return ok_envelope(version, first_payload);
}

std::string FederationRouter::scatter_query(const std::string& request_xml,
                                            bool ids_only) {
  const std::uint32_t nshards = shard_count();
  const std::string cursor_text = peek_request_attr(request_xml, "cursor");
  const std::uint64_t limit =
      parse_count(peek_request_attr(request_xml, "limit")).value_or(0);

  FedCursor fed;
  bool resuming = false;
  if (!cursor_text.empty()) {
    if (!decode_fed_cursor(cursor_text, fed)) {
      return error_response(ErrorCode::kValidation, "malformed continuation cursor");
    }
    if (fed.shard_count != nshards) {
      return error_response(ErrorCode::kStaleCursor,
                            "cursor was issued for " +
                                std::to_string(fed.shard_count) +
                                " shards but the federation has " +
                                std::to_string(nshards));
    }
    resuming = true;
  }

  std::vector<Leg> legs;
  std::vector<std::string> leg_requests;  // resuming: one rewritten request per leg
  if (resuming) {
    leg_requests.reserve(fed.legs.size());  // legs view these strings: no reallocation
    for (const FedCursorLeg& fl : fed.legs) {
      Leg& leg = legs.emplace_back();
      leg.shard = fl.shard;
      leg.ep = pick_read_endpoint(fl.shard, leg.replica, /*half_open=*/false);
      if (leg.ep == nullptr || leg.replica != (((fed.serving_mask >> fl.shard) & 1) != 0)) {
        return serving_set_changed(fl.shard);
      }
      // A leg that consumed nothing re-runs from the start (empty cursor);
      // its epoch pin is re-verified below against the response version.
      leg.request = leg_requests.emplace_back(rewrite_root_attr(
          request_xml, "cursor",
          fl.after_lid == kNoLid ? std::string()
                                 : core::encode_cursor(fl.epoch, fl.after_lid)));
    }
  } else {
    legs = read_legs(request_xml);
    if (legs.empty()) {
      return error_response(ErrorCode::kUnavailable, "no shard is reachable");
    }
  }

  run_legs(legs, /*reads=*/true);

  std::vector<MergeInput> inputs;
  std::vector<std::uint32_t> missing;
  std::uint64_t version = 0;
  std::uint64_t serving_mask = 0;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    Leg& leg = legs[i];
    if (leg.failed) {
      if (resuming) return serving_set_changed(leg.shard);
      missing.push_back(leg.shard);
      continue;
    }
    const ParsedResponse parsed = parse_response(leg.response);
    if (!parsed.ok) return std::move(leg.response);  // stale_cursor et al.
    // Resumed legs follow fed.legs' order; a cursor-less one checks its pin.
    if (resuming && fed.legs[i].after_lid == kNoLid && parsed.version != fed.legs[i].epoch) {
      return error_response(ErrorCode::kStaleCursor,
                            "cursor was issued at catalog version " +
                                std::to_string(fed.legs[i].epoch) + " but shard " +
                                std::to_string(leg.shard) + " is at " +
                                std::to_string(parsed.version));
    }
    MergeInput in;
    in.shard = leg.shard;
    in.version = parsed.version;
    in.page = parse_query_payload(parsed.payload, ids_only);
    in.more = !in.page.next_cursor.empty();
    version = std::max(version, parsed.version);
    // run_legs may have failed a leg over to the replica mid-flight.
    if (leg.replica) serving_mask |= std::uint64_t{1} << leg.shard;
    inputs.push_back(std::move(in));
  }

  const MergeOutput merged =
      merge_query_pages(inputs, nshards, static_cast<std::size_t>(limit), ids_only);
  std::string payload = merged.payload;
  if (!missing.empty()) {
    // Degraded: answer with what the live shards returned, annotated. No
    // cursor — a partial page cannot promise a coherent continuation.
    payload += partial_note(std::move(missing));
  } else if (merged.truncated) {
    FedCursor next;
    next.shard_count = nshards;
    next.serving_mask = serving_mask;
    next.legs = merged.legs;
    payload += "<nextCursor>" + encode_fed_cursor(next) + "</nextCursor>";
  }
  return ok_envelope(version, payload);
}

std::string FederationRouter::scatter_stats(const std::string& request_xml) {
  std::vector<Leg> legs = read_legs(request_xml);
  if (legs.empty()) {
    return error_response(ErrorCode::kUnavailable, "no shard is reachable");
  }
  run_legs(legs, /*reads=*/true);

  std::vector<ShardStatsInput> inputs;
  std::vector<std::uint32_t> missing;
  std::uint64_t version = 0;
  for (Leg& leg : legs) {
    if (leg.failed) {
      missing.push_back(leg.shard);
      continue;
    }
    const ParsedResponse parsed = parse_response(leg.response);
    if (!parsed.ok) return std::move(leg.response);
    ShardStatsInput in;
    in.shard = leg.shard;
    in.replica = leg.replica;
    in.payload = parsed.payload;
    version = std::max(version, parsed.version);
    inputs.push_back(in);
  }
  if (inputs.empty()) {
    return error_response(ErrorCode::kUnavailable, "no shard is reachable");
  }
  std::string payload = merge_stats_payload(inputs);
  if (!missing.empty()) payload += partial_note(std::move(missing));
  return ok_envelope(version, payload);
}

// ---------------------------------------------------------------------------
// Endpoint selection + transport.

FederationRouter::Endpoint* FederationRouter::pick_read_endpoint(
    std::uint32_t shard, bool& replica_out, bool half_open) {
  Shard& s = *shards_[shard];
  replica_out = false;
  if (s.primary.alive() || (half_open && s.primary.claim_revival())) return &s.primary;
  if (!s.replica.configured() || !s.replica.alive()) return nullptr;
  // Staleness bound: with the primary dead nothing advances its epoch, so
  // the replica converges on the last epoch the router saw from the
  // primary; until then reads past the bound are refused.
  const std::uint64_t primary_version =
      s.primary.version.load(std::memory_order_relaxed);
  const std::uint64_t replica_version =
      s.replica.version.load(std::memory_order_relaxed);
  if (primary_version > replica_version + options_.max_replica_staleness) {
    return nullptr;
  }
  replica_out = true;
  return &s.replica;
}

std::vector<FederationRouter::Leg> FederationRouter::read_legs(std::string_view request) {
  std::vector<Leg> legs(shards_.size());
  bool any = false;
  for (std::uint32_t shard = 0; shard < legs.size(); ++shard) {
    Leg& leg = legs[shard];
    leg.shard = shard;
    leg.request = request;
    leg.ep = pick_read_endpoint(shard, leg.replica, /*half_open=*/true);
    any = any || leg.ep != nullptr;
  }
  if (!any) legs.clear();
  return legs;
}

std::string FederationRouter::call_shard(std::uint32_t shard, std::string_view request,
                                         bool read) {
  Leg leg;
  leg.shard = shard;
  leg.request = request;
  // Mutations only ever touch the primary — a replica is read-only.
  leg.ep = read ? pick_read_endpoint(shard, leg.replica, /*half_open=*/true)
               : &shards_[shard]->primary;
  run_legs({&leg, 1}, read);
  return leg.failed ? unreachable_error(shard) : std::move(leg.response);
}

void FederationRouter::run_legs(std::span<Leg> legs, bool reads) {
  // Send phase: one request down every shard's pipe before any response is
  // awaited, so the shards evaluate concurrently.
  for (Leg& leg : legs) {
    if (leg.ep == nullptr) continue;
    try {
      leg.client = leg.ep->checkout(false);
      leg.client->send_request(leg.request);
    } catch (const net::SocketError&) {
      leg.client.reset();  // the receive phase dials afresh
    }
  }
  // One exchange on leg.ep: finishes the send phase's pooled call, or, when
  // there is none, dials a fresh connection. Success revives the endpoint
  // and records its epoch.
  const auto exchange = [](Leg& leg) {
    try {
      if (leg.client == nullptr) {
        leg.client = leg.ep->checkout(true);
        leg.client->send_request(leg.request);
      }
      leg.response = std::move(leg.client->recv_frame().payload);
    } catch (const net::SocketError&) {
      leg.client.reset();
      return false;
    }
    leg.ep->checkin(std::move(leg.client));
    leg.ep->mark_alive();
    if (const auto version = parse_count(peek_request_attr(leg.response, "version"))) {
      leg.ep->version.store(*version, std::memory_order_relaxed);
    }
    return true;
  };
  // Receive phase. A failed pooled call gets one fresh dial on the same
  // endpoint (pooled connections go stale when a shard restarts); if that
  // fails too the endpoint is dead, and a read gets one attempt on the
  // shard's other endpoint before the leg fails.
  for (Leg& leg : legs) {
    if (leg.ep == nullptr) {
      leg.failed = true;
      continue;
    }
    if ((leg.client != nullptr && exchange(leg)) || exchange(leg)) continue;
    leg.ep->mark_dead();
    bool replica = false;
    Endpoint* alt = reads ? pick_read_endpoint(leg.shard, replica, /*half_open=*/false)
                          : nullptr;
    if (alt != nullptr && alt != leg.ep) {
      leg.ep = alt;
      leg.replica = replica;
      if (exchange(leg)) continue;
      alt->mark_dead();
    }
    leg.failed = true;
  }
}

void FederationRouter::probe_loop() {
  const std::string probe = "<catalogRequest type=\"stats\"/>";
  for (;;) {
    {
      std::unique_lock lock(probe_mutex_);
      probe_cv_.wait_for(lock,
                         std::chrono::milliseconds(options_.probe_interval_ms),
                         [this] { return stop_.load(std::memory_order_acquire); });
    }
    if (stop_.load(std::memory_order_acquire)) return;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      for (Endpoint* ep : {&shard->primary, &shard->replica}) {
        if (!ep->configured()) continue;
        Leg leg;
        leg.ep = ep;
        leg.request = probe;
        run_legs({&leg, 1}, /*reads=*/false);  // revives or kills ep, records the epoch
        if (stop_.load(std::memory_order_acquire)) return;
      }
    }
  }
}

}  // namespace hxrc::fed
