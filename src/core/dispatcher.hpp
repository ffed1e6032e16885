// ServiceDispatcher: the concurrent front door of the catalog service.
//
// A grid metadata catalog is hammered by many clients at once (AMGA-style
// multi-client workloads); one CatalogService::handle call per request on
// the caller's thread does not model that. The dispatcher runs N worker
// threads over util::ThreadPool and adds the service-endpoint disciplines
// the single-shot API lacks:
//
//  * bounded admission queue — at most `max_queue` requests may be waiting;
//    beyond that, submit() immediately resolves to
//    `<catalogResponse status="error" code="overloaded">` instead of
//    letting the backlog grow without bound;
//  * per-request deadlines — a request may carry timeoutMs="N" on its root
//    tag (or inherit `default_timeout`); a request whose deadline passes
//    while queued is answered `code="timeout"` without touching the
//    catalog, and one that finishes past its deadline has its result
//    replaced by the timeout response (the client has given up — late
//    results must not look like successes);
//  * per-request-type metrics — counters and latency histograms
//    (admission→completion, queue wait included), reported through the
//    `stats` request type (see util/metrics.hpp).
//
// MetadataCatalog's MVCC snapshot reads are what make the N workers safe —
// read requests pin an epoch and never block; the dispatcher adds no
// locking of its own beyond the admission counter.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <string_view>

#include "core/broker.hpp"
#include "core/catalog.hpp"
#include "core/service.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace hxrc::core {

struct DispatcherConfig {
  /// Worker threads handling requests.
  std::size_t workers = 4;
  /// Bounded admission queue: maximum requests admitted but not yet
  /// executing. Beyond it, submissions are rejected as `overloaded`.
  std::size_t max_queue = 256;
  /// Deadline applied to requests that carry no timeoutMs attribute;
  /// zero = no deadline.
  std::chrono::milliseconds default_timeout{0};
  /// Refuse mutation requests (ingest/addAttribute/define/delete) with
  /// code="validation" before they reach the catalog. Read replicas run
  /// with this set: their only legitimate write path is the replication
  /// apply loop, and a stray client write would silently diverge them from
  /// their primary.
  bool read_only = false;
  /// Test seam: runs on the worker thread before each request is handled.
  /// Lets tests hold workers at a barrier to fill the admission queue or
  /// expire deadlines deterministically.
  std::function<void()> before_execute{};
};

class ServiceDispatcher : public RequestBroker {
 public:
  explicit ServiceDispatcher(MetadataCatalog& catalog, DispatcherConfig config = {});

  ServiceDispatcher(const ServiceDispatcher&) = delete;
  ServiceDispatcher& operator=(const ServiceDispatcher&) = delete;

  /// Admits one serialized request. The future always yields a
  /// <catalogResponse> — overload and timeout included; it never throws
  /// protocol errors.
  std::future<std::string> submit(std::string request_xml);

  /// Callback form of submit, for callers that must not block on a future
  /// (the network front end's event loops). `done` is invoked exactly once
  /// with the serialized <catalogResponse>: on a worker thread for handled
  /// requests, or synchronously on the calling thread when admission is
  /// refused (overloaded / draining) or the response is served from the
  /// L2 cache. `probe_cache = false` skips the built-in try_cached probe —
  /// for callers (the network front end) that already probed and missed,
  /// so a miss is not counted twice.
  void submit_async(std::string request_xml, std::function<void(std::string)> done,
                    bool probe_cache = true) override;

  /// L2 probe: answers a read request straight from the current snapshot's
  /// serialized-response cache, keyed by the raw request bytes — no parsing,
  /// no admission, no worker hop. Returns nullptr on miss, on non-cacheable
  /// requests (mutations, stats, timeoutMs="0"), while draining, or when
  /// the cache is disabled. On a hit the per-type metrics slot is charged
  /// exactly as a dispatched request would be (handled / ok / errors /
  /// latency), so `stats` figures stay truthful. The returned buffer is
  /// immutable and epoch-protected — the network front end writes it to the
  /// socket without copying into a response string first.
  std::shared_ptr<const CachedResponse> try_cached(std::string_view request_xml) override;

  /// Synchronous convenience: submit + wait.
  std::string call(std::string request_xml) { return submit(std::move(request_xml)).get(); }

  /// Requests admitted and not yet picked up by a worker.
  std::size_t queue_depth() const noexcept override {
    return pending_.load(std::memory_order_acquire);
  }

  /// Closes the admission gate without waiting: later submissions resolve
  /// to `code="draining"` while already-admitted requests keep executing.
  /// The network front end calls this on SIGTERM so queued frames are
  /// answered `draining` while it flushes in-flight responses, then calls
  /// drain() once the sockets are quiet. Idempotent; draining is permanent.
  void begin_drain() override { draining_.store(true, std::memory_order_release); }

  /// Quiesces the dispatcher: stops admitting (later submissions resolve to
  /// `code="draining"`), then blocks until every already-admitted request
  /// has completed AND epoch reclamation has caught up (no retired snapshot
  /// or index generation remains). After drain() returns no worker touches
  /// the catalog and no deferred frees are pending, so the durability layer
  /// can take its final WAL flush / detach safely (DurableCatalog::close).
  /// Idempotent; draining is permanent.
  void drain() override;

  bool draining() const noexcept override {
    return draining_.load(std::memory_order_acquire);
  }

  /// The admission-queue bound, for the network front end's backpressure
  /// watermarks (stop reading sockets before submissions start bouncing).
  std::size_t max_queue() const noexcept override { return config_.max_queue; }

  const util::MetricsRegistry& metrics() const noexcept { return metrics_; }
  std::size_t workers() const noexcept { return pool_.size(); }

  /// The catalog's cache counters — the network front end charges
  /// inline_served here when it frames a try_cached hit on the event loop.
  util::CacheMetrics& cache_metrics() noexcept { return catalog_.cache_metrics(); }
  util::CacheMetrics* cache_metrics_hook() noexcept override {
    return &catalog_.cache_metrics();
  }

 private:
  int slot_for(std::string_view type_name) const noexcept;

  DispatcherConfig config_;
  util::MetricsRegistry metrics_;
  MetadataCatalog& catalog_;
  CatalogService service_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> draining_{false};
  /// Declared last: destroyed first, so the workers drain and join while
  /// service_/metrics_/pending_ are still alive.
  util::ThreadPool pool_;
};

}  // namespace hxrc::core
