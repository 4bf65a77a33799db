// Telemetry: process-wide scoped-span recording with Chrome-trace export.
//
// Usage at an instrumentation site:
//
//   void parse_chunk(...) {
//     AC_SPAN("parse.chunk");          // RAII; named `layer.what`
//     ...
//   }
//
// Spans are recorded into lock-free per-thread ring buffers (owner-only
// writes, no cross-thread synchronization until flush) with thread id,
// nesting depth, and steady-clock nanosecond timestamps; collect() merges
// them. The category of a span — the Chrome-trace `cat` field — is the
// `layer` prefix before the first '.' of its name.
//
// Disabled (the default) the macro costs one relaxed atomic load; the
// `bench_micro --check` overhead gate holds that to <= 2% of parse+classify.
// Span names must be string literals (or otherwise outlive the Telemetry
// singleton): the ring stores the pointer, not a copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "support/metrics.hpp"

namespace ac::telemetry {

/// One completed span, as merged out of the per-thread rings.
struct Span {
  const char* name;        // static string; category = prefix before first '.'
  std::uint64_t start_ns;  // steady-clock, ns
  std::uint64_t end_ns;
  std::uint32_t tid;       // dense telemetry thread index (not the OS tid)
  std::uint32_t depth;     // nesting depth on its thread at begin time
};

class Telemetry {
 public:
  /// Leaky singleton — spans may end on detached threads during teardown.
  static Telemetry& instance();

  void enable();
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drop all recorded spans (ring contents and drop counts). Buffers stay
  /// registered for their threads' lifetimes.
  void reset();

  /// Merge every thread's ring into one list, ordered by (tid, start_ns).
  /// Only call while no instrumented work is in flight.
  std::vector<Span> collect() const;

  /// Spans overwritten because a ring wrapped before the next flush.
  std::uint64_t dropped() const;

  /// Chrome trace-event JSON ("traceEvents" array of ph:"X" complete events,
  /// microsecond ts/dur) — loads in chrome://tracing and Perfetto.
  std::string chrome_trace_json() const;
  /// Write chrome_trace_json() to `path`; throws ac::Error when the write fails.
  void write_chrome_trace(const std::string& path) const;

  /// Per-name aggregate (count, total ns) rendered with support/table.
  std::string summary() const;

  // -- instrumentation internals (called via ScopedSpan/AC_SPAN) --
  // Out of line so the disabled fast path in the macro stays one load + test.
  static std::uint64_t span_begin();
  static void span_end(const char* name, std::uint64_t start_ns);

 private:
  Telemetry() = default;
  struct ThreadBuf;
  ThreadBuf* buf_for_this_thread();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;                   // guards bufs_ registration + collect
  std::vector<ThreadBuf*> bufs_;            // leaked with the singleton
};

inline Telemetry& telemetry() { return Telemetry::instance(); }

/// RAII span. Prefer the AC_SPAN macro; use the class directly when the
/// scope isn't lexical.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(name) {
    if (Telemetry::instance().enabled()) {
      start_ns_ = Telemetry::span_begin();
      live_ = true;
    }
  }
  ~ScopedSpan() {
    if (live_) Telemetry::span_end(name_, start_ns_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_ = 0;
  bool live_ = false;
};

#define AC_SPAN_CONCAT2(a, b) a##b
#define AC_SPAN_CONCAT(a, b) AC_SPAN_CONCAT2(a, b)
/// Scoped span covering the rest of the enclosing block. `name` must be a
/// string literal shaped `layer.what` (e.g. "parse.chunk").
#define AC_SPAN(name) ::ac::telemetry::ScopedSpan AC_SPAN_CONCAT(ac_span_, __LINE__)(name)

}  // namespace ac::telemetry
