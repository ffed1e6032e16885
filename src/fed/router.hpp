// FederationRouter: scatter-gather request broker over N shard catalogs.
//
// The router is a core::RequestBroker, so net::CatalogServer serves it
// exactly like a single-node dispatcher — clients cannot tell a router
// port from a catalog port. Behind the seam, every request is routed over
// the same framed wire protocol to shard processes:
//
//   * ingest           → one shard, picked by FNV-1a(document name) mod N
//                        (round-robin when unnamed); the response's local
//                        objectID is rewritten to gid = lid * N + shard.
//   * fetch/delete/addAttribute
//                      → the owning shard (gid mod N), request objectID
//                        rewritten gid → lid, response ids rewritten back.
//   * define           → broadcast to every shard primary (serialized so
//                        concurrent defines assign identical ids
//                        everywhere).
//   * query/queryIds   → scatter to all shards, k-way merge of the
//                        ascending per-shard pages into one globally
//                        ascending page; pagination continues through a
//                        federated cursor (see merge.hpp).
//   * stats            → scatter + additive merge with per-shard children.
//   * anything else    → forwarded to shard 0 verbatim.
//
// Failure handling: every endpoint (primary and optional replica per
// shard) carries its health state, and every shard call — scatter leg,
// point op, ingest, define, forward, probe — runs through run_legs, which
// applies one rule: a failed pooled call gets one fresh dial on the same
// endpoint; if that fails the endpoint is marked dead and a read gets one
// attempt on the shard's other endpoint (pick_read_endpoint). Any success
// marks the endpoint alive, so the background prober revives dead ones,
// and so do reads: once kRevivalDelayMs has passed since a primary was
// marked dead, one read gets a half-open attempt on it through the same
// rule, and no other read dials it until that attempt ends. Every dial is
// bounded by io_timeout_ms. Reads go to the replica when the primary is dead and the replica's applied epoch is
// within `max_replica_staleness` of the primary's last known epoch.
// Mutations never fail over (the replica is read-only by
// construction). A scatter leg with no reachable endpoint degrades the
// response to a partial one — `<partial code="partial" shards="..."/>` is
// appended to the merged payload — instead of failing the whole query.
// Point ops on an unreachable shard answer code="unavailable".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/broker.hpp"
#include "net/client.hpp"
#include "util/thread_pool.hpp"

namespace hxrc::fed {

struct ShardEndpoint {
  std::string primary_host = "127.0.0.1";
  std::uint16_t primary_port = 0;
  /// Empty host = the shard has no replica.
  std::string replica_host;
  std::uint16_t replica_port = 0;
};

struct RouterOptions {
  std::vector<ShardEndpoint> shards;
  /// Worker threads executing routed requests.
  std::size_t workers = 4;
  /// Admission bound; past it requests answer code="overloaded".
  std::size_t max_queue = 256;
  /// Per-call socket timeout towards a shard.
  std::uint32_t io_timeout_ms = 5000;
  /// Replica reads are refused when the replica's epoch lags the
  /// primary's last known epoch by more than this many versions.
  std::uint64_t max_replica_staleness = 1024;
  /// Health-probe cadence; 0 disables the prober thread.
  std::uint32_t probe_interval_ms = 500;
};

class FederationRouter : public core::RequestBroker {
 public:
  explicit FederationRouter(RouterOptions options);
  ~FederationRouter() override;

  FederationRouter(const FederationRouter&) = delete;
  FederationRouter& operator=(const FederationRouter&) = delete;

  // core::RequestBroker:
  void submit_async(std::string request_xml,
                    std::function<void(std::string)> done,
                    bool probe_cache) override;
  std::shared_ptr<const core::CachedResponse> try_cached(
      std::string_view request_xml) override;
  std::size_t queue_depth() const noexcept override;
  std::size_t max_queue() const noexcept override;
  void begin_drain() override;
  void drain() override;
  bool draining() const noexcept override;

  /// Synchronous routing entry (shells/tests bypassing the server).
  std::string route(const std::string& request_xml);

  /// How long a dead primary waits before a read gets one half-open
  /// attempt on it (see the failure rule above).
  static constexpr std::int64_t kRevivalDelayMs = 500;

  std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }

 private:
  /// One dialable address plus its health state and a small connection
  /// pool (connections are reused across requests; a failed one is
  /// dropped, not returned).
  struct Endpoint {
    std::string host;
    std::uint16_t port = 0;
    std::uint32_t io_timeout_ms = 0;
    /// Health in one word: kAlive, the steady-clock ms at which the
    /// endpoint was marked dead, or kReviving while one read's half-open
    /// attempt on it is in flight.
    std::atomic<std::int64_t> dead_since_ms{kAlive};
    /// Last catalog epoch observed in a response from this endpoint.
    std::atomic<std::uint64_t> version{0};
    std::mutex pool_mutex;
    std::vector<std::unique_ptr<net::BlockingClient>> idle;

    static constexpr std::int64_t kAlive = 0;
    static constexpr std::int64_t kReviving = INT64_MAX;

    bool configured() const noexcept { return !host.empty(); }
    bool alive() const noexcept { return dead_since_ms.load() == kAlive; }
    void mark_alive() noexcept { dead_since_ms.store(kAlive); }
    void mark_dead() noexcept;
    /// True for the one caller that claims a half-open attempt once the
    /// revival delay has passed. The claim holds until the attempt ends in
    /// mark_alive or mark_dead, so at most one read probes at a time.
    bool claim_revival() noexcept;
    std::unique_ptr<net::BlockingClient> checkout(bool fresh);
    void checkin(std::unique_ptr<net::BlockingClient> client);
  };

  struct Shard {
    Endpoint primary;
    Endpoint replica;
  };

  /// One shard call in flight. `request` views the caller's bytes, which
  /// must outlive run_legs.
  struct Leg {
    std::uint32_t shard = 0;
    Endpoint* ep = nullptr;
    bool replica = false;
    std::unique_ptr<net::BlockingClient> client;
    std::string_view request;
    std::string response;
    bool failed = false;
  };

  std::string handle(const std::string& request_xml);
  std::string handle_point_op(const std::string& request_xml,
                              std::string_view type);
  std::string handle_ingest(const std::string& request_xml);
  std::string handle_define(const std::string& request_xml);
  std::string scatter_query(const std::string& request_xml, bool ids_only);
  std::string scatter_stats(const std::string& request_xml);

  /// Picks the serving endpoint for a read on `shard`: primary when alive
  /// (or, with `half_open`, when it claims a revival attempt), else a
  /// fresh-enough replica, else nullptr. `replica_out` reports the choice.
  Endpoint* pick_read_endpoint(std::uint32_t shard, bool& replica_out, bool half_open);

  /// One read leg per shard on its pick_read_endpoint choice (nullptr when
  /// none serves; run_legs fails that leg). Empty when no shard serves.
  std::vector<Leg> read_legs(std::string_view request);

  /// One-leg call on `shard`: a read on pick_read_endpoint's choice, a
  /// mutation on the primary. Returns the shard's response, or
  /// code="unavailable" naming the shard.
  std::string call_shard(std::uint32_t shard, std::string_view request, bool read);

  /// The only code that talks to a shard. Sends every leg, then receives
  /// every leg (shard-side work overlaps), applying the retry/failover rule
  /// above to each; `failed` is set on legs no endpoint answered.
  void run_legs(std::span<Leg> legs, bool reads);

  void probe_loop();

  RouterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  util::ThreadPool pool_;
  std::atomic<std::uint64_t> round_robin_{0};
  /// Serializes define broadcasts so every shard assigns the same ids.
  std::mutex define_mutex_;

  mutable std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  std::size_t inflight_ = 0;
  std::atomic<bool> draining_{false};

  std::atomic<bool> stop_{false};
  std::mutex probe_mutex_;
  std::condition_variable probe_cv_;
  std::thread prober_;
};

}  // namespace hxrc::fed
