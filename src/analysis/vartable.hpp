// Variable identity and the on-the-fly address map.
//
// VarTable assigns one canonical id per logical variable, keyed by the pool
// ids of (function, name) and the declaration line — so `sum` in main and a
// deceiver local `sum` inside a callee (the paper's Challenge 2) are
// distinct, while the same local across repeated invocations of one function
// is a single logical variable. Ids are dense, in order of first Alloca.
//
// AddressMap tracks which canonical variable currently owns each address
// interval. It is updated in trace order exactly like the paper's reg-var
// map: a fresh Alloca overrides whatever previously occupied that stack
// region (the VM reuses stack addresses across calls, so this matters).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/pool.hpp"

namespace ac::analysis {

struct VarDef {
  int id = -1;
  std::string name;
  std::string func;  // "<global>" for module globals
  int decl_line = 0;
  std::uint64_t bytes = 0;  // storage footprint (last seen)

  bool is_global() const { return func == "<global>"; }
};

class VarTable {
 public:
  /// Get-or-create the canonical id for (func, name, decl_line), given as ids
  /// of `pool`, the one pool a replay names its records by. A new entry copies
  /// the names out of the pool; a re-encounter refreshes the storage footprint
  /// to the last seen non-zero size.
  int canonical(const trace::SymbolPool& pool, std::uint32_t func, std::uint32_t name,
                int decl_line, std::uint64_t bytes);

  const VarDef& def(int id) const { return defs_.at(static_cast<std::size_t>(id)); }
  std::size_t size() const { return defs_.size(); }

 private:
  // (func << 32 | name) -> (decl line, var id) entries; lines per site are
  // almost always unique, so the inner scan is 1-2 entries.
  std::unordered_map<std::uint64_t, std::vector<std::pair<int, int>>> index_;
  std::vector<VarDef> defs_;
};

class AddressMap {
 public:
  /// Bind [base, base+bytes) to `var_id`, evicting overlapped intervals.
  void bind(std::uint64_t base, std::uint64_t bytes, int var_id);

  struct Hit {
    int var = -1;
    std::int64_t elem = 0;  // 8-byte element index within the variable
  };

  /// Resolve an address to the owning variable, or nullopt for foreign
  /// addresses (which a well-formed trace never produces).
  std::optional<Hit> resolve(std::uint64_t addr) const;

 private:
  struct Interval {
    std::uint64_t bytes = 0;
    int var = -1;
  };
  std::map<std::uint64_t, Interval> by_base_;
};

}  // namespace ac::analysis
