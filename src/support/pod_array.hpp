// A growable contiguous array of trivially copyable elements, for the arrays
// that reach megabytes: the trace buffer's records and operands.
//
// Below kMapBytes (1 MiB) the storage is malloc'ed and grows geometrically, as
// std::vector's does. From 1 MiB on it is an anonymous mapping, and growth
// moves the mapping's pages with mremap instead of copying elements. A freed
// mapping becomes its element type's one spare, unless the spare is larger or
// the mapping exceeds kSpareMaxBytes (256 MiB, so an acd that once took a huge
// trace does not keep it), and the next array of that type to reach 1 MiB, by
// growth or by reserve(), starts from the spare. A process that traces program
// after program thus writes into pages it has already touched. That is the
// point: on a 4-core VM a first-touch page fault costs 1.6-2.5 us, and tracing
// the 14 mini-apps into memory took 22.5 K of them a pass while glibc handed
// the freed arrays back to the kernel between programs (~2 K with the spare).
//
// The `pod_array.spare_bytes` gauge reports the bytes every element type's
// spare holds: memory a process keeps after its traces are freed.
//
// Under AddressSanitizer the unused capacity is poisoned, so a read past
// size() is caught.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>

#if defined(__SANITIZE_ADDRESS__)
#define AC_POD_ARRAY_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AC_POD_ARRAY_ASAN 1
#endif
#endif
#ifdef AC_POD_ARRAY_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace ac {

namespace detail {

/// Storage at or above this many bytes is a mapping.
inline constexpr std::size_t kMapBytes = std::size_t{1} << 20;
/// A freed mapping larger than this is unmapped rather than kept as a spare.
inline constexpr std::size_t kSpareMaxBytes = std::size_t{256} << 20;

/// An anonymous read-write mapping; `bytes` is a page multiple.
struct Mapping {
  void* base = nullptr;
  std::size_t bytes = 0;
};

/// A mapping of at least `bytes`: the spare, grown if it is smaller, or a
/// fresh one when there is no spare. Throws std::bad_alloc.
Mapping acquire_mapping(Mapping& spare, std::size_t bytes);
/// `m` grown to at least `bytes`, its pages moved, not copied. On failure `m`
/// is left as it was and std::bad_alloc is thrown.
Mapping grow_mapping(Mapping m, std::size_t bytes);
/// Keep `m` as the spare when it is larger than the spare and at most
/// kSpareMaxBytes; unmap whichever of the two is not kept. Acquiring and
/// releasing keep the `pod_array.spare_bytes` gauge at the spares' total.
void release_mapping(Mapping& spare, Mapping m) noexcept;

inline void poison(const void* p, std::size_t bytes) {
#ifdef AC_POD_ARRAY_ASAN
  if (bytes != 0) __asan_poison_memory_region(p, bytes);
#else
  (void)p, (void)bytes;
#endif
}

inline void unpoison(const void* p, std::size_t bytes) {
#ifdef AC_POD_ARRAY_ASAN
  if (bytes != 0) __asan_unpoison_memory_region(p, bytes);
#else
  (void)p, (void)bytes;
#endif
}

}  // namespace detail

template <class T>
class PodArray {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "PodArray moves its elements as bytes");
  static_assert(alignof(T) <= alignof(std::max_align_t), "malloc must align T");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  PodArray() noexcept = default;
  PodArray(const PodArray& other) { insert(end(), other.begin(), other.end()); }
  PodArray(PodArray&& other) noexcept
      : data_(other.data_), size_(other.size_), cap_(other.cap_), map_bytes_(other.map_bytes_) {
    other.forget();
  }
  PodArray& operator=(const PodArray& other) {
    if (this != &other) {
      clear();
      insert(end(), other.begin(), other.end());
    }
    return *this;
  }
  PodArray& operator=(PodArray&& other) noexcept {
    if (this != &other) {
      release();
      data_ = other.data_;
      size_ = other.size_;
      cap_ = other.cap_;
      map_bytes_ = other.map_bytes_;
      other.forget();
    }
    return *this;
  }
  ~PodArray() { release(); }

  size_type size() const { return size_; }
  size_type capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](size_type i) { return data_[i]; }
  const T& operator[](size_type i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  /// Room for `n` elements in all, allocated exactly (a spare may give more).
  void reserve(size_type n) {
    if (n > cap_) reallocate(n);
  }

  void push_back(const T& value) {
    if (size_ == cap_) [[unlikely]] {
      const T copy = value;  // `value` may be an element that growth moves
      grow_for(size_ + 1);
      construct_back(copy);
      return;
    }
    construct_back(value);
  }

  /// Size `n`; new elements are value-initialized.
  void resize(size_type n) {
    const size_type old = size_;
    resize_uninitialized(n);
    if (n > old) std::uninitialized_value_construct_n(data_ + old, n - old);
  }

  /// Size `n`; new elements are left unwritten, for a caller that overwrites
  /// every one (a parallel decode filling its slots). A reused mapping holds
  /// an earlier array's bytes there.
  void resize_uninitialized(size_type n) {
    if (n > cap_) grow_for(n);
    if (n > size_) {
      detail::unpoison(data_ + size_, (n - size_) * sizeof(T));
    } else {
      detail::poison(data_ + n, (size_ - n) * sizeof(T));
    }
    size_ = n;
  }

  void clear() {
    detail::poison(data_, size_ * sizeof(T));
    size_ = 0;
  }

  /// Append [first, last), which may lie inside this array. `pos` must be
  /// end(): appending is the one insert the trace layer needs.
  T* insert(const T* pos, const T* first, const T* last) {
    assert(pos == end());
    (void)pos;
    const auto n = static_cast<size_type>(last - first);
    if (n > cap_ - size_) {
      const auto at = reinterpret_cast<std::uintptr_t>(first);
      const auto base = reinterpret_cast<std::uintptr_t>(data_);
      const bool inside = at >= base && at < base + size_ * sizeof(T);
      const size_type offset = inside ? static_cast<size_type>(first - data_) : 0;
      grow_for(size_ + n);
      if (inside) first = data_ + offset;
    }
    T* const out = data_ + size_;
    detail::unpoison(out, n * sizeof(T));
    if (n != 0) std::memcpy(static_cast<void*>(out), first, n * sizeof(T));
    size_ += n;
    return out;
  }

 private:
  static constexpr size_type kMaxSize = (std::size_t{1} << 62) / sizeof(T);

  void construct_back(const T& value) {
    detail::unpoison(data_ + size_, sizeof(T));
    ::new (static_cast<void*>(data_ + size_)) T(value);
    ++size_;
  }

  /// Geometric growth to at least `need` elements.
  void grow_for(size_type need) {
    size_type n = cap_ < 16 ? 16 : cap_ * 2;
    if (n < need) n = need;
    reallocate(n);
  }

  [[gnu::noinline]] void reallocate(size_type n) {
    if (n > kMaxSize) throw std::length_error("PodArray exceeds its maximum size");
    const std::size_t bytes = n * sizeof(T);
    // Storage leaves this array unpoisoned: realloc'ed, freed, remapped or
    // kept as the spare.
    detail::unpoison(data_ + size_, (cap_ - size_) * sizeof(T));
    if (map_bytes_ != 0) {
      adopt(detail::grow_mapping({data_, map_bytes_}, bytes));
    } else if (bytes >= detail::kMapBytes) {
      const detail::Mapping m = detail::acquire_mapping(spare_, bytes);
      if (size_ != 0) std::memcpy(m.base, static_cast<const void*>(data_), size_ * sizeof(T));
      std::free(data_);
      adopt(m);
    } else {
      void* p = std::realloc(static_cast<void*>(data_), bytes);
      if (p == nullptr) throw std::bad_alloc();
      data_ = static_cast<T*>(p);
      cap_ = n;
    }
    detail::poison(data_ + size_, (cap_ - size_) * sizeof(T));
  }

  void adopt(const detail::Mapping& m) {
    data_ = static_cast<T*>(m.base);
    map_bytes_ = m.bytes;
    cap_ = m.bytes / sizeof(T);
  }

  void release() noexcept {
    detail::unpoison(data_, cap_ * sizeof(T));
    if (map_bytes_ != 0) {
      detail::release_mapping(spare_, {data_, map_bytes_});
    } else {
      std::free(data_);
    }
    forget();
  }

  void forget() noexcept {
    data_ = nullptr;
    size_ = cap_ = map_bytes_ = 0;
  }

  T* data_ = nullptr;
  size_type size_ = 0;
  size_type cap_ = 0;
  std::size_t map_bytes_ = 0;  // 0: malloc'ed storage

  /// This element type's spare mapping; guarded by the lock in pod_array.cpp.
  /// Constant-initialized and trivially destructible, so an array freed
  /// during static destruction still finds it.
  static constinit inline detail::Mapping spare_{};
};

}  // namespace ac
