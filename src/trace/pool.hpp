// String interning for the compact trace representation.
//
// A SymbolPool maps each distinct name appearing in a trace — function names,
// basic-block labels, register/variable operand names — to a dense u32 id and
// stores the bytes once in a contiguous arena. Multi-million-record traces
// carry only a few hundred distinct names, so interning turns the per-record
// string traffic (the allocator-bound hot path of the legacy TraceRecord
// layout) into 4-byte id copies, and name equality into an integer compare.
//
// Single-writer. merge() is the bulk insert behind TraceBuffer::append_buffer:
// the trace parse interns each chunk into a private pool on its worker, and
// the consuming thread merges those pools into the output one at a time, in
// input order, so the ids come out as a single parse would assign them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ac::trace {

class SymbolPool {
 public:
  /// Sentinel for "no name" (renders as the empty string).
  static constexpr std::uint32_t npos = 0xffffffffu;

  /// Sentinel for a *non-empty* name the pool does not contain: compares
  /// unequal to every real id AND to npos, so "absent function" never
  /// accidentally matches unnamed records. (Unreachable as a real id: arena
  /// offsets are u32, so a pool cannot hold 2^32-2 distinct symbols.)
  static constexpr std::uint32_t absent = 0xfffffffeu;

  /// find() with legacy string-comparison semantics: empty names map to npos
  /// (equal to other empty names), missing non-empty names to `absent`
  /// (equal to nothing).
  std::uint32_t lookup(std::string_view s) const {
    if (s.empty()) return npos;
    const std::uint32_t id = find(s);
    return id == npos ? absent : id;
  }

  // Copies and moves transfer the symbols; a copy gets its own uid(), and
  // assignment and move-from renew the target's and the source's.
  SymbolPool() = default;
  SymbolPool(const SymbolPool& other)
      : arena_(other.arena_), refs_(other.refs_), index_(other.index_) {}
  SymbolPool& operator=(const SymbolPool& other) {
    if (this != &other) {
      arena_ = other.arena_;
      refs_ = other.refs_;
      index_ = other.index_;
      uid_ = next_uid();
    }
    return *this;
  }
  SymbolPool(SymbolPool&& other) noexcept
      : arena_(std::move(other.arena_)),
        refs_(std::move(other.refs_)),
        index_(std::move(other.index_)) {
    other.uid_ = next_uid();
  }
  SymbolPool& operator=(SymbolPool&& other) noexcept {
    if (this != &other) {
      arena_ = std::move(other.arena_);
      refs_ = std::move(other.refs_);
      index_ = std::move(other.index_);
      uid_ = next_uid();
      other.uid_ = next_uid();
    }
    return *this;
  }

  /// Identity of this pool's id space: unique per pool object, and renewed
  /// whenever the contents are replaced wholesale (assignment, move-from).
  /// While it is unchanged every id handed out stays valid, so an id-remap
  /// cache keyed on it can never mistake one pool for another — even a new
  /// pool at a dead one's address.
  std::uint64_t uid() const { return uid_; }

  /// Get-or-create the id of `s`. Ids are dense, assigned in first-seen
  /// order, and stable for the pool's lifetime. The empty string interns to
  /// npos (no arena storage).
  std::uint32_t intern(std::string_view s);

  /// Lookup without insertion; npos when absent (or `s` is empty).
  std::uint32_t find(std::string_view s) const;

  /// The interned bytes; npos (and the absent sentinel) view as "". The view
  /// stays valid until the next intern()/merge() (the arena may grow).
  std::string_view view(std::uint32_t id) const {
    if (id >= refs_.size()) return {};
    const Ref& r = refs_[id];
    return {arena_.data() + r.off, r.len};
  }

  /// Number of distinct symbols.
  std::size_t size() const { return refs_.size(); }

  /// Arena + table footprint in bytes (memory accounting).
  std::size_t byte_size() const {
    return arena_.capacity() + refs_.capacity() * sizeof(Ref);
  }

  /// Bulk insert: interns every symbol of `other` into this pool in
  /// `other`'s id order and returns remap with remap[local_id] == the id in
  /// this pool.
  std::vector<std::uint32_t> merge(const SymbolPool& other);

 private:
  struct Ref {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
  };
  // Heterogeneous string_view lookup (C++20) so hot-path find/intern hits
  // never materialize a std::string.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  static std::uint64_t next_uid();

  std::uint64_t uid_ = next_uid();
  std::string arena_;
  std::vector<Ref> refs_;
  std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>> index_;
};

}  // namespace ac::trace
