#include "trace/pool.hpp"

#include <atomic>

namespace ac::trace {

std::uint64_t SymbolPool::next_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint32_t SymbolPool::intern(std::string_view s) {
  if (s.empty()) return npos;
  const auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(refs_.size());
  Ref ref;
  ref.off = static_cast<std::uint32_t>(arena_.size());
  ref.len = static_cast<std::uint32_t>(s.size());
  arena_.append(s);
  refs_.push_back(ref);
  index_.emplace(std::string(s), id);
  return id;
}

std::uint32_t SymbolPool::find(std::string_view s) const {
  if (s.empty()) return npos;
  const auto it = index_.find(s);
  return it == index_.end() ? npos : it->second;
}

std::vector<std::uint32_t> SymbolPool::merge(const SymbolPool& other) {
  std::vector<std::uint32_t> remap(other.refs_.size(), npos);
  const std::lock_guard<std::mutex> lock(merge_mu_);
  for (std::size_t id = 0; id < other.refs_.size(); ++id) {
    remap[id] = intern(other.view(static_cast<std::uint32_t>(id)));
  }
  return remap;
}

void SymbolPool::copy_from(const SymbolPool& other) {
  arena_ = other.arena_;
  refs_ = other.refs_;
  // Rebuild the index so its keys are independent of other's lifetime.
  index_.clear();
  index_.reserve(refs_.size());
  for (std::size_t id = 0; id < refs_.size(); ++id) {
    index_.emplace(std::string(view(static_cast<std::uint32_t>(id))),
                   static_cast<std::uint32_t>(id));
  }
  // merge_mu_ stays this object's own.
}

}  // namespace ac::trace
