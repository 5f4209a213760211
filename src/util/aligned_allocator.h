// Over-aligned allocator for SIMD-friendly dense storage. DenseMatrix keeps
// its buffer 64-byte aligned (one cache line, two AVX2 vectors) so vector
// loads on row starts never straddle cache lines for the typical
// multiple-of-16 feature dimensions.
#pragma once

#include <cstddef>
#include <new>
#include <utility>

namespace hcspmm {

/// Minimal C++17 allocator handing out `Alignment`-byte-aligned storage via
/// the aligned operator new/delete pair.
template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment must be a power of 2");
  static_assert(Alignment >= alignof(T), "alignment must not weaken the type's");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Alignment));
  }

  /// Default-initialises instead of value-initialising, so `resize(n)` on a
  /// vector of floats leaves the new elements indeterminate rather than
  /// zero-filling them serially: large outputs are then first touched by
  /// the parallel kernels that write them. Every such resize must be
  /// followed by a write of each new element.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) noexcept {
    return false;
  }
};

}  // namespace hcspmm
