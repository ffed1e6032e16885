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

std::string shard_list(std::vector<std::uint32_t> shards) {
  std::sort(shards.begin(), shards.end());
  std::string out;
  for (const std::uint32_t s : shards) {
    if (!out.empty()) out += ',';
    out += std::to_string(s);
  }
  return out;
}

std::string unreachable_error(std::uint32_t shard) {
  return error_response(ErrorCode::kUnavailable,
                        "shard " + std::to_string(shard) + " is unreachable");
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
  auto client = std::make_unique<net::BlockingClient>(host, port);
  client->set_io_timeout(io_timeout_ms);
  return client;
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
    try {
      return call_endpoint(shards_[0]->primary, request_xml);
    } catch (const net::SocketError&) {
      return unreachable_error(0);
    }
  } catch (const FedError& e) {
    return error_response(ErrorCode::kValidation,
                          std::string("federation: ") + e.what());
  } catch (const net::SocketError& e) {
    return error_response(ErrorCode::kUnavailable, e.what());
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
  std::string response;
  try {
    response = call_endpoint(shards_[shard]->primary, request_xml);
  } catch (const net::SocketError&) {
    return unreachable_error(shard);
  }
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
  if (!gid) {
    // Missing or malformed id: forward for the canonical validation error.
    try {
      return call_endpoint(shards_[0]->primary, request_xml);
    } catch (const net::SocketError&) {
      return unreachable_error(0);
    }
  }
  const std::uint32_t shard = shard_of(*gid, nshards);
  const std::uint64_t lid = lid_of(*gid, nshards);
  const std::string shard_request =
      rewrite_root_attr(request_xml, "objectID", std::to_string(lid));
  const bool read = type == "fetch";

  std::string response;
  bool served = false;
  if (read) {
    bool replica = false;
    Endpoint* ep = pick_read_endpoint(shard, replica);
    if (ep != nullptr) {
      try {
        response = call_endpoint(*ep, shard_request);
        served = true;
      } catch (const net::SocketError&) {
      }
    }
    if (!served) {
      // The primary just died (or was already dead): one failover attempt.
      Endpoint* alt = pick_read_endpoint(shard, replica);
      if (alt != nullptr && alt != ep) {
        try {
          response = call_endpoint(*alt, shard_request);
          served = true;
        } catch (const net::SocketError&) {
        }
      }
    }
  } else {
    // Mutations only ever touch the primary — a replica is read-only.
    try {
      response = call_endpoint(shards_[shard]->primary, shard_request);
      served = true;
    } catch (const net::SocketError&) {
    }
  }
  if (!served) return unreachable_error(shard);

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
    std::string response;
    try {
      response = call_endpoint(shards_[shard]->primary, request_xml);
    } catch (const net::SocketError&) {
      return error_response(ErrorCode::kUnavailable,
                            "shard " + std::to_string(shard) +
                                " is unreachable; define must reach every shard");
    }
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
    if (cursor_text.rfind("HXF1.", 0) != 0 ||
        !decode_fed_cursor(cursor_text, fed)) {
      return error_response(ErrorCode::kValidation,
                            "malformed continuation cursor");
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
  std::vector<std::uint32_t> missing;
  std::uint64_t serving_mask = 0;
  if (resuming) {
    for (const FedCursorLeg& fl : fed.legs) {
      bool replica = false;
      Endpoint* ep = pick_read_endpoint(fl.shard, replica);
      const bool was_replica = ((fed.serving_mask >> fl.shard) & 1) != 0;
      if (ep == nullptr || replica != was_replica) {
        return error_response(ErrorCode::kStaleCursor,
                              "the serving set changed under the cursor "
                              "(shard " + std::to_string(fl.shard) +
                                  "); restart the query");
      }
      Leg leg;
      leg.shard = fl.shard;
      leg.ep = ep;
      leg.replica = replica;
      // A leg that consumed nothing re-runs from the start (empty cursor);
      // its epoch pin is re-verified below against the response version.
      leg.request = rewrite_root_attr(
          request_xml, "cursor",
          fl.after_lid == kNoLid ? std::string()
                                 : encode_shard_cursor(fl.epoch, fl.after_lid));
      if (replica) serving_mask |= std::uint64_t{1} << fl.shard;
      legs.push_back(std::move(leg));
    }
  } else {
    for (std::uint32_t shard = 0; shard < nshards; ++shard) {
      bool replica = false;
      Endpoint* ep = pick_read_endpoint(shard, replica);
      if (ep == nullptr) {
        missing.push_back(shard);
        continue;
      }
      Leg leg;
      leg.shard = shard;
      leg.ep = ep;
      leg.replica = replica;
      leg.request = request_xml;
      if (replica) serving_mask |= std::uint64_t{1} << shard;
      legs.push_back(std::move(leg));
    }
    if (legs.empty()) {
      return error_response(ErrorCode::kUnavailable, "no shard is reachable");
    }
  }

  run_legs(legs, /*reads=*/true);

  std::vector<MergeInput> inputs;
  std::uint64_t version = 0;
  for (Leg& leg : legs) {
    if (leg.failed) {
      if (resuming) {
        return error_response(ErrorCode::kStaleCursor,
                              "the serving set changed under the cursor "
                              "(shard " + std::to_string(leg.shard) +
                                  "); restart the query");
      }
      missing.push_back(leg.shard);
      continue;
    }
    const ParsedResponse parsed = parse_response(leg.response);
    if (!parsed.ok) return std::move(leg.response);  // stale_cursor et al.
    if (resuming) {
      for (const FedCursorLeg& fl : fed.legs) {
        if (fl.shard != leg.shard || fl.after_lid != kNoLid) continue;
        if (parsed.version != fl.epoch) {
          return error_response(
              ErrorCode::kStaleCursor,
              "cursor was issued at catalog version " + std::to_string(fl.epoch) +
                  " but shard " + std::to_string(leg.shard) + " is at " +
                  std::to_string(parsed.version));
        }
      }
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
    payload += "<partial code=\"partial\" shards=\"" +
               shard_list(std::move(missing)) + "\"/>";
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
  std::vector<Leg> legs;
  std::vector<std::uint32_t> missing;
  for (std::uint32_t shard = 0; shard < shard_count(); ++shard) {
    bool replica = false;
    Endpoint* ep = pick_read_endpoint(shard, replica);
    if (ep == nullptr) {
      missing.push_back(shard);
      continue;
    }
    Leg leg;
    leg.shard = shard;
    leg.ep = ep;
    leg.replica = replica;
    leg.request = request_xml;
    legs.push_back(std::move(leg));
  }
  if (legs.empty()) {
    return error_response(ErrorCode::kUnavailable, "no shard is reachable");
  }
  run_legs(legs, /*reads=*/true);

  std::vector<ShardStatsInput> inputs;
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
  if (!missing.empty()) {
    payload += "<partial code=\"partial\" shards=\"" +
               shard_list(std::move(missing)) + "\"/>";
  }
  return ok_envelope(version, payload);
}

// ---------------------------------------------------------------------------
// Endpoint selection + transport.

FederationRouter::Endpoint* FederationRouter::pick_read_endpoint(
    std::uint32_t shard, bool& replica_out) {
  Shard& s = *shards_[shard];
  replica_out = false;
  if (s.primary.alive.load(std::memory_order_acquire)) return &s.primary;
  if (!s.replica.configured() ||
      !s.replica.alive.load(std::memory_order_acquire)) {
    return nullptr;
  }
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

std::string FederationRouter::call_endpoint(Endpoint& ep,
                                            const std::string& request) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::unique_ptr<net::BlockingClient> client;
    try {
      // Second attempt forces a fresh dial: pooled connections go stale
      // when the shard restarts between requests.
      client = ep.checkout(attempt > 0);
    } catch (const net::SocketError&) {
      ep.alive.store(false, std::memory_order_release);
      throw;
    }
    try {
      std::string response = client->call(request);
      ep.checkin(std::move(client));
      ep.alive.store(true, std::memory_order_release);
      note_version(ep, response);
      return response;
    } catch (const net::SocketError&) {
      if (attempt > 0) {
        ep.alive.store(false, std::memory_order_release);
        throw;
      }
    }
  }
  throw net::SocketError("unreachable");  // not reached
}

void FederationRouter::run_legs(std::vector<Leg>& legs, bool reads) {
  // Send phase: one request down every shard's pipe before any response is
  // awaited, so the shards evaluate concurrently.
  for (Leg& leg : legs) {
    if (leg.ep == nullptr) {
      leg.failed = true;
      continue;
    }
    try {
      leg.client = leg.ep->checkout(false);
      leg.client->send_request(leg.request);
    } catch (const net::SocketError&) {
      leg.client.reset();  // retried synchronously in the receive phase
    }
  }
  // Receive phase.
  for (Leg& leg : legs) {
    if (leg.failed) continue;
    bool served = false;
    if (leg.client != nullptr) {
      try {
        net::Frame frame = leg.client->recv_frame();
        leg.response = std::move(frame.payload);
        note_version(*leg.ep, leg.response);
        leg.ep->checkin(std::move(leg.client));
        served = true;
      } catch (const net::SocketError&) {
        leg.client.reset();
      }
    }
    if (!served) {
      try {
        leg.response = call_endpoint(*leg.ep, leg.request);
        served = true;
      } catch (const net::SocketError&) {
      }
    }
    if (!served && reads) {
      bool replica = false;
      Endpoint* alt = pick_read_endpoint(leg.shard, replica);
      if (alt != nullptr && alt != leg.ep) {
        try {
          leg.response = call_endpoint(*alt, leg.request);
          leg.ep = alt;
          leg.replica = replica;
          served = true;
        } catch (const net::SocketError&) {
        }
      }
    }
    leg.failed = !served;
  }
}

void FederationRouter::note_version(Endpoint& ep, const std::string& response) {
  if (const auto version = parse_count(peek_request_attr(response, "version"))) {
    ep.version.store(*version, std::memory_order_relaxed);
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
        try {
          call_endpoint(*ep, probe);  // marks alive + records the epoch
        } catch (const net::SocketError&) {
          // call_endpoint already marked it dead.
        }
        if (stop_.load(std::memory_order_acquire)) return;
      }
    }
  }
}

}  // namespace hxrc::fed
