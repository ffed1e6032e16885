// In-memory span recording for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files only: a RequestBroker
// decorator between each CatalogServer and the broker it serves, plus the
// replay timers in hxbench.cpp. Nothing inside the catalog is instrumented.
//
// Tracing alternates on and off in fixed time slices, so one traced run
// yields both traced and untraced client samples; the difference of their
// medians is the tracing overhead the run reports.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/broker.hpp"
#include "core/catalog.hpp"

namespace hxbench {

using Clock = std::chrono::steady_clock;

/// Microseconds since `epoch`, as a double (sub-microsecond resolution).
inline double micros_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - epoch).count();
}

/// FNV-1a of the request bytes: ties broker spans to client requests.
std::uint64_t request_hash(std::string_view bytes) noexcept;

enum class SpanKind : std::uint8_t { kProbe, kDispatch };

struct Span {
  SpanKind kind = SpanKind::kProbe;
  /// Probe: served from the cache. Dispatch: unused.
  bool hit = false;
  /// First letter of the request type ('q'uery, 'f'etch, 'i'ngest, ...).
  char type = '?';
  std::uint64_t hash = 0;
  double start_us = 0;
  double end_us = 0;
  /// Broker queue depth seen on arrival (dispatch spans only).
  std::uint32_t depth = 0;
};

/// Fixed-capacity, lock-free append log; spans past capacity are dropped
/// and counted.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : spans_(capacity) {}

  void add(const Span& span) noexcept {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i < spans_.size()) {
      spans_[i] = span;
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Call only after every recording thread stopped.
  std::vector<Span> take() {
    std::size_t n = next_.load(std::memory_order_acquire);
    if (n > spans_.size()) n = spans_.size();
    spans_.resize(n);
    return std::move(spans_);
  }
  std::uint64_t dropped() const noexcept { return dropped_.load(std::memory_order_relaxed); }

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Decides whether spans are recorded at a given instant: on in even
/// slices, off in odd ones, and never outside [begin, end).
class TraceClock {
 public:
  explicit TraceClock(Clock::time_point epoch) : epoch_(epoch) {}

  void arm(double begin_us, double end_us) noexcept {
    begin_us_.store(begin_us, std::memory_order_relaxed);
    end_us_.store(end_us, std::memory_order_release);
  }
  void disarm() noexcept { end_us_.store(-1, std::memory_order_release); }

  bool on(double t_us) const noexcept {
    const double end = end_us_.load(std::memory_order_acquire);
    const double begin = begin_us_.load(std::memory_order_relaxed);
    return t_us >= begin && t_us < end && slice_on(t_us - begin);
  }
  /// Whether instant `t_us` (relative to the armed window) lies in an on-slice.
  static bool slice_on(double rel_us) noexcept {
    return static_cast<std::uint64_t>(rel_us / kSliceUs) % 2 == 0;
  }
  double now_us() const noexcept { return micros_since(epoch_, Clock::now()); }

  static constexpr double kSliceUs = 50'000;

 private:
  Clock::time_point epoch_;
  std::atomic<double> begin_us_{0};
  std::atomic<double> end_us_{-1};
};

/// Forwards every RequestBroker call unchanged to `inner`, recording a
/// probe span around try_cached and a dispatch span from submit_async to
/// its completion callback while the TraceClock is on. When `catalog` is
/// given, its MVCC retired-pending gauge is sampled on every 16th traced
/// submission.
class TracingBroker : public hxrc::core::RequestBroker {
 public:
  TracingBroker(hxrc::core::RequestBroker& inner, const TraceClock& clock, SpanLog& log,
                const hxrc::core::MetadataCatalog* catalog = nullptr)
      : inner_(inner), clock_(clock), log_(log), catalog_(catalog) {}

  void submit_async(std::string request_xml, std::function<void(std::string)> done,
                    bool probe_cache) override;
  std::shared_ptr<const hxrc::core::CachedResponse> try_cached(
      std::string_view request_xml) override;
  std::size_t queue_depth() const noexcept override { return inner_.queue_depth(); }
  std::size_t max_queue() const noexcept override { return inner_.max_queue(); }
  void begin_drain() override { inner_.begin_drain(); }
  void drain() override { inner_.drain(); }
  bool draining() const noexcept override { return inner_.draining(); }
  hxrc::util::CacheMetrics* cache_metrics_hook() noexcept override {
    return inner_.cache_metrics_hook();
  }

  std::uint64_t retired_pending_max() const noexcept {
    return retired_max_.load(std::memory_order_relaxed);
  }

 private:
  hxrc::core::RequestBroker& inner_;
  const TraceClock& clock_;
  SpanLog& log_;
  const hxrc::core::MetadataCatalog* catalog_;
  std::atomic<std::uint64_t> submissions_{0};
  std::atomic<std::uint64_t> retired_max_{0};
};

}  // namespace hxbench
