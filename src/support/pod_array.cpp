#include "support/pod_array.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <mutex>
#include <utility>

#include "support/metrics.hpp"

namespace ac::detail {

namespace {

/// The one lock over every element type's spare. Never destroyed, so an
/// array freed during static destruction can still take it.
std::mutex& spare_mutex() {
  static auto* const mu = new std::mutex;
  return *mu;
}

/// Bytes the spares of every element type hold, guarded by spare_mutex(),
/// and the `pod_array.spare_bytes` gauge that reports them.
std::size_t spare_total = 0;

void note_spare(std::size_t taken, std::size_t kept) {
  static auto& gauge = telemetry::metrics().gauge("pod_array.spare_bytes");
  spare_total = spare_total - taken + kept;
  gauge.set(static_cast<std::int64_t>(spare_total));
}

std::size_t page_round(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  if (bytes > SIZE_MAX - page) throw std::bad_alloc();
  return (bytes + page - 1) / page * page;
}

void* map_fresh(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

}  // namespace

Mapping acquire_mapping(Mapping& spare, std::size_t bytes) {
  Mapping m;
  {
    std::lock_guard<std::mutex> lock(spare_mutex());
    m = std::exchange(spare, Mapping{});
    if (m.base != nullptr) note_spare(m.bytes, 0);
  }
  try {
    return grow_mapping(m, bytes);
  } catch (...) {
    release_mapping(spare, m);
    throw;
  }
}

Mapping grow_mapping(Mapping m, std::size_t bytes) {
  bytes = page_round(bytes);
  if (bytes <= m.bytes) return m;
  // The pages move onto the start of a fresh mapping of the new size: mremap
  // rewrites page tables and copies nothing. The target is mmap'ed first, so
  // every range an array lives in was mapped by mmap, which ThreadSanitizer
  // intercepts to reset its shadow (it does not intercept mremap).
  void* target = map_fresh(bytes);
  if (m.base == nullptr) return {target, bytes};
  if (mremap(m.base, m.bytes, m.bytes, MREMAP_MAYMOVE | MREMAP_FIXED, target) == MAP_FAILED) {
    munmap(target, bytes);
    throw std::bad_alloc();
  }
  return {target, bytes};
}

void release_mapping(Mapping& spare, Mapping m) noexcept {
  if (m.base == nullptr) return;
  if (m.bytes <= kSpareMaxBytes) {
    std::lock_guard<std::mutex> lock(spare_mutex());
    if (m.bytes > spare.bytes) {
      note_spare(spare.bytes, m.bytes);
      std::swap(m, spare);
    }
  }
  if (m.base != nullptr) munmap(m.base, m.bytes);
}

}  // namespace ac::detail
