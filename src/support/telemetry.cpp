#include "support/telemetry.hpp"

#include <algorithm>
#include <map>

#include "support/file.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace ac::telemetry {
namespace {

/// Category of a span = the `layer` prefix before the first '.' of its name.
std::string_view span_category(const char* name) {
  std::string_view n(name);
  const auto dot = n.find('.');
  return dot == std::string_view::npos ? n : n.substr(0, dot);
}

}  // namespace

/// Per-thread span ring. The owning thread is the only writer; readers
/// (collect) take an acquire snapshot of `count` and read completed slots.
/// On overflow the oldest spans are overwritten and counted as dropped —
/// instrumentation must never block or allocate in steady state.
struct Telemetry::ThreadBuf {
  static constexpr std::size_t kCapacity = 1 << 13;  // 8Ki spans per thread

  struct Rec {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t depth;
  };

  explicit ThreadBuf(std::uint32_t tid) : tid_(tid) {}

  void push(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
            std::uint32_t depth) {
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    ring_[n % kCapacity] = Rec{name, start_ns, end_ns, depth};
    // Release-publish so a collector that acquires `count` sees the slot.
    count_.store(n + 1, std::memory_order_release);
  }

  void drain_into(std::vector<Span>& out) const {
    const std::uint64_t n = count_.load(std::memory_order_acquire);
    const std::uint64_t kept = std::min<std::uint64_t>(n, kCapacity);
    for (std::uint64_t i = n - kept; i < n; ++i) {
      const Rec& r = ring_[i % kCapacity];
      out.push_back(Span{r.name, r.start_ns, r.end_ns, tid_, r.depth});
    }
  }

  std::uint64_t dropped() const {
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    return n > kCapacity ? n - kCapacity : 0;
  }

  void reset() { count_.store(0, std::memory_order_relaxed); }

  const std::uint32_t tid_;
  std::atomic<std::uint64_t> count_{0};
  std::uint32_t depth_ = 0;  // owner-thread only
  Rec ring_[kCapacity];
};

Telemetry& Telemetry::instance() {
  // Leaky: detached workers may end spans after main() returns.
  static Telemetry* g = new Telemetry();
  return *g;
}

Telemetry::ThreadBuf* Telemetry::buf_for_this_thread() {
  // One ring per thread, created on the thread's first recorded span and
  // kept for the life of the process (worker pools churn through std::thread
  // objects, but each OS thread registers exactly once).
  thread_local ThreadBuf* tl_buf = nullptr;
  if (!tl_buf) {
    std::lock_guard<std::mutex> lock(mu_);
    tl_buf = new ThreadBuf(static_cast<std::uint32_t>(bufs_.size()));
    bufs_.push_back(tl_buf);
  }
  return tl_buf;
}

void Telemetry::enable() { enabled_.store(true, std::memory_order_relaxed); }
void Telemetry::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Telemetry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (ThreadBuf* b : bufs_) b->reset();
}

std::uint64_t Telemetry::span_begin() {
  ThreadBuf* b = instance().buf_for_this_thread();
  ++b->depth_;
  return now_ns();
}

void Telemetry::span_end(const char* name, std::uint64_t start_ns) {
  ThreadBuf* b = instance().buf_for_this_thread();
  const std::uint32_t depth = b->depth_ > 0 ? --b->depth_ : 0;
  b->push(name, start_ns, now_ns(), depth);
}

std::vector<Span> Telemetry::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const ThreadBuf* b : bufs_) b->drain_into(out);
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.depth < b.depth;  // outer span before inner at equal stamps
  });
  return out;
}

std::uint64_t Telemetry::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const ThreadBuf* b : bufs_) n += b->dropped();
  return n;
}

std::string Telemetry::chrome_trace_json() const {
  const std::vector<Span> spans = collect();
  // Rebase on the earliest span so ts starts near 0 in the viewer.
  std::uint64_t t0 = ~0ull;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  if (spans.empty()) t0 = 0;

  std::string out;
  JsonWriter w(&out);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  // Name the rows: tid 0 is whichever thread recorded first (usually main).
  std::uint32_t max_tid = 0;
  for (const Span& s : spans) max_tid = std::max(max_tid, s.tid);
  for (std::uint32_t tid = 0; spans.size() && tid <= max_tid; ++tid) {
    w.begin_object();
    w.field("ph", "M");
    w.field("name", "thread_name");
    w.field("pid", 1);
    w.field("tid", tid);
    w.key("args").begin_object();
    w.field("name", tid == 0 ? std::string("main") : strf("worker-%u", tid));
    w.end_object();
    w.end_object();
  }
  for (const Span& s : spans) {
    w.begin_object();
    w.field("ph", "X");
    w.field("name", s.name);
    w.field("cat", span_category(s.name));
    w.field("pid", 1);
    w.field("tid", s.tid);
    // Chrome trace ts/dur are microseconds; keep sub-us precision as decimals.
    w.raw_field("ts", strf("%.3f", static_cast<double>(s.start_ns - t0) / 1e3));
    w.raw_field("dur", strf("%.3f", static_cast<double>(s.end_ns - s.start_ns) / 1e3));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out.push_back('\n');
  return out;
}

void Telemetry::write_chrome_trace(const std::string& path) const {
  write_file(path, chrome_trace_json());
}

std::string Telemetry::summary() const {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint32_t threads = 0;
    std::uint32_t last_tid = ~0u;
  };
  std::map<std::string, Agg> by_name;
  for (const Span& s : collect()) {  // collect() sorts by tid, so tid
    Agg& a = by_name[s.name];        // transitions count distinct threads
    a.count += 1;
    a.total_ns += s.end_ns - s.start_ns;
    if (a.last_tid != s.tid) {
      a.threads += 1;
      a.last_tid = s.tid;
    }
  }
  TextTable t({"span", "count", "threads", "total ms", "mean us"});
  for (const auto& [name, a] : by_name) {
    t.add_row({name, strf("%llu", static_cast<unsigned long long>(a.count)),
               strf("%u", a.threads),
               strf("%.3f", static_cast<double>(a.total_ns) / 1e6),
               strf("%.2f", static_cast<double>(a.total_ns) / 1e3 /
                                static_cast<double>(a.count))});
  }
  std::string out = t.render();
  const std::uint64_t lost = dropped();
  if (lost) out += strf("(%llu spans dropped to ring overflow)\n",
                        static_cast<unsigned long long>(lost));
  return out;
}

}  // namespace ac::telemetry
