#include "trace.hpp"

#include "core/service.hpp"

namespace hxbench {

std::uint64_t request_hash(std::string_view bytes) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

char type_letter(std::string_view request_xml) {
  const std::string type = hxrc::core::peek_request_type(request_xml);
  return type.empty() ? '?' : type[0];
}

}  // namespace

void TracingBroker::submit_async(std::string request_xml,
                                 std::function<void(std::string)> done,
                                 bool probe_cache) {
  const double start = clock_.now_us();
  if (!clock_.on(start)) {
    inner_.submit_async(std::move(request_xml), std::move(done), probe_cache);
    return;
  }
  Span span;
  span.kind = SpanKind::kDispatch;
  span.type = type_letter(request_xml);
  span.hash = request_hash(request_xml);
  span.start_us = start;
  span.depth = static_cast<std::uint32_t>(inner_.queue_depth());
  if (catalog_ != nullptr &&
      submissions_.fetch_add(1, std::memory_order_relaxed) % 16 == 0) {
    const std::uint64_t pending = catalog_->mvcc_stats().retired_pending;
    std::uint64_t seen = retired_max_.load(std::memory_order_relaxed);
    while (pending > seen &&
           !retired_max_.compare_exchange_weak(seen, pending, std::memory_order_relaxed)) {
    }
  }
  inner_.submit_async(
      std::move(request_xml),
      [this, span, done = std::move(done)](std::string response) mutable {
        span.end_us = clock_.now_us();
        log_.add(span);
        done(std::move(response));
      },
      probe_cache);
}

std::shared_ptr<const hxrc::core::CachedResponse> TracingBroker::try_cached(
    std::string_view request_xml) {
  const double start = clock_.now_us();
  if (!clock_.on(start)) return inner_.try_cached(request_xml);
  auto cached = inner_.try_cached(request_xml);
  Span span;
  span.kind = SpanKind::kProbe;
  span.end_us = clock_.now_us();
  span.start_us = start;
  span.hit = cached != nullptr;
  span.type = type_letter(request_xml);
  span.hash = request_hash(request_xml);
  log_.add(span);
  return cached;
}

}  // namespace hxbench
