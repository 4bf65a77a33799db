#include "analysis/vartable.hpp"

namespace ac::analysis {

int VarTable::canonical(const trace::SymbolPool& pool, std::uint32_t func, std::uint32_t name,
                        int decl_line, std::uint64_t bytes) {
  auto& entries = index_[(static_cast<std::uint64_t>(func) << 32) | name];
  for (const auto& [known_line, id] : entries) {
    if (known_line == decl_line) {
      if (bytes > 0) defs_[static_cast<std::size_t>(id)].bytes = bytes;
      return id;
    }
  }
  VarDef def;
  def.id = static_cast<int>(defs_.size());
  def.name = std::string(pool.view(name));
  def.func = std::string(pool.view(func));
  def.decl_line = decl_line;
  def.bytes = bytes;
  entries.emplace_back(decl_line, def.id);
  defs_.push_back(std::move(def));
  return defs_.back().id;
}

void AddressMap::bind(std::uint64_t base, std::uint64_t bytes, int var_id) {
  const std::uint64_t end = base + bytes;
  // Evict intervals overlapping [base, end).
  auto it = by_base_.upper_bound(base);
  if (it != by_base_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.bytes > base) it = prev;
  }
  while (it != by_base_.end() && it->first < end) it = by_base_.erase(it);
  by_base_.emplace(base, Interval{bytes, var_id});
}

std::optional<AddressMap::Hit> AddressMap::resolve(std::uint64_t addr) const {
  auto it = by_base_.upper_bound(addr);
  if (it == by_base_.begin()) return std::nullopt;
  --it;
  if (addr >= it->first + it->second.bytes) return std::nullopt;
  Hit hit;
  hit.var = it->second.var;
  hit.elem = static_cast<std::int64_t>((addr - it->first) / 8);
  return hit;
}

}  // namespace ac::analysis
