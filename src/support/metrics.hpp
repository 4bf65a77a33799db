// MetricsRegistry: the process-wide table of named counters, gauges and
// fixed-bucket histograms behind the telemetry layer (telemetry.hpp holds the
// span side). Naming convention is `layer.noun_unit` — e.g.
// `parse.records_parsed`, `decode.bytes_decoded`, `classify.shard_events`,
// `ckpt.l1_delta_bytes`, `codec.encode_ns`.
//
// Hot-path contract: metric objects have stable addresses for the life of the
// process (reset() zeroes values, it never unregisters), so call sites look a
// metric up once (function-local static reference) and then touch nothing but
// one relaxed atomic. Instrument at chunk/section/record granularity, never
// per trace record — the disabled-telemetry overhead gate in
// `bench_micro --check` holds the whole layer to <= 2% of parse+classify.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ac::telemetry {

/// Monotonic sum. add() is a relaxed fetch_add — safe from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time level (queue depths, bytes consumed) with a high-water mark.
class Gauge {
 public:
  void set(std::int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    raise_max(v);
  }
  /// Monotone set: only moves the value forward (out-of-order progress
  /// callbacks from parallel decoders must not make the gauge jitter).
  void set_max(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    raise_max(v);
  }
  void add(std::int64_t d) {
    const std::int64_t now = v_.fetch_add(d, std::memory_order_relaxed) + d;
    if (d > 0) raise_max(now);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t max_value() const { return max_.load(std::memory_order_relaxed); }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void raise_max(std::int64_t v) {
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed power-of-two buckets: bucket i counts observations in
/// [2^(i-1), 2^i) (bucket 0 counts zero). 48 buckets cover u64 nanosecond
/// timings from 1 ns to ~3 days; observe() is three relaxed atomics.
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void observe(std::uint64_t v) {
    int b = v == 0 ? 0 : 64 - __builtin_clzll(v);
    if (b >= kBuckets) b = kBuckets - 1;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int i) const { return buckets_[i].load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }
  /// Upper bound of the bucket holding the q-quantile observation (q in
  /// [0,1]); a factor-of-two estimate, which is what a cadence profile needs.
  std::uint64_t quantile_bound(double q) const;
  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// The process-wide registry. Lookup interns the name under a mutex (one-time
/// per call site); the returned reference stays valid forever.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// A registered counter's value, or 0 when nothing registered the name yet
  /// (tests and exporters — never a hot path).
  std::uint64_t counter_value(std::string_view name) const;

  /// Zero every registered metric; registrations (and cached references)
  /// survive.
  void reset();

  /// Flat metrics JSON: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}} with names sorted (deterministic output).
  std::string to_json() const;
  /// Write to_json() to `path`; throws ac::Error when the write fails.
  void write_json(const std::string& path) const;

  /// Human summary rendered with support/table.
  std::string summary() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Shorthand for the hot-path interning idiom:
///   static auto& c = metrics().counter("parse.records_parsed");
inline MetricsRegistry& metrics() { return MetricsRegistry::instance(); }

}  // namespace ac::telemetry
