#include "support/metrics.hpp"

#include "support/file.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace ac::telemetry {

std::uint64_t Histogram::quantile_bound(double q) const {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Snapshot counts first so the rank and the walk agree even under
  // concurrent observes.
  std::uint64_t counts[kBuckets];
  std::uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0;
  const std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen > rank) return i == 0 ? 0 : (1ull << i) - 1;
  }
  return ~0ull;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::instance() {
  // Leaky singleton: metric addresses must outlive any detached worker that
  // might still touch a cached reference during process teardown.
  static MetricsRegistry* g = new MetricsRegistry();
  return *g;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  JsonWriter w(&out);
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name).begin_object();
    w.field("value", g->value());
    w.field("max", g->max_value());
    w.end_object();
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name).begin_object();
    w.field("count", h->count());
    w.field("sum", h->sum());
    w.raw_field("mean", strf("%.1f", h->mean()));
    w.field("p50_bound", h->quantile_bound(0.5));
    w.field("p99_bound", h->quantile_bound(0.99));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  out.push_back('\n');
  return out;
}

void MetricsRegistry::write_json(const std::string& path) const { write_file(path, to_json()); }

std::string MetricsRegistry::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  {
    TextTable t({"counter", "value"});
    for (const auto& [name, c] : counters_) {
      t.add_row({name, strf("%llu", static_cast<unsigned long long>(c->value()))});
    }
    if (t.rows()) out += t.render();
  }
  {
    TextTable t({"gauge", "value", "max"});
    for (const auto& [name, g] : gauges_) {
      t.add_row({name, strf("%lld", static_cast<long long>(g->value())),
                 strf("%lld", static_cast<long long>(g->max_value()))});
    }
    if (t.rows()) {
      if (!out.empty()) out += "\n";
      out += t.render();
    }
  }
  {
    TextTable t({"histogram", "count", "mean", "p50<=", "p99<="});
    for (const auto& [name, h] : histograms_) {
      t.add_row({name, strf("%llu", static_cast<unsigned long long>(h->count())),
                 strf("%.1f", h->mean()),
                 strf("%llu", static_cast<unsigned long long>(h->quantile_bound(0.5))),
                 strf("%llu", static_cast<unsigned long long>(h->quantile_bound(0.99)))});
    }
    if (t.rows()) {
      if (!out.empty()) out += "\n";
      out += t.render();
    }
  }
  return out;
}

}  // namespace ac::telemetry
