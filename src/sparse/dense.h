// Row-major dense matrix used for feature/embedding matrices.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/aligned_allocator.h"
#include "util/half.h"

namespace hcspmm {

/// Backing store of DenseMatrix: contiguous (leading dimension == cols) but
/// 64-byte aligned, so SIMD loads on row starts never straddle cache lines —
/// for the typical multiple-of-16 feature dimensions *every* row start is
/// 64-byte aligned, and RowData(0) is for any shape.
using AlignedFloatVector = std::vector<float, AlignedAllocator<float, 64>>;

/// 64-byte-aligned backing of the reduced-precision (fp16/bf16) storage
/// modes: raw uint16_t bit patterns, converted to fp32 on load by the SIMD
/// kernels (accumulation always stays fp32).
using AlignedHalfVector = std::vector<uint16_t, AlignedAllocator<uint16_t, 64>>;

/// Storage precision of a DenseMatrix. kFp32 is the default and the only
/// mode with mutable element access; the reduced modes halve feature
/// bandwidth at a documented (non-bit-identical) precision cost.
enum class FeaturePrecision : uint8_t {
  kFp32 = 0,
  kFp16 = 1,  ///< IEEE binary16 bit patterns
  kBf16 = 2,  ///< bfloat16 (truncated fp32) bit patterns
};

inline const char* FeaturePrecisionName(FeaturePrecision p) {
  switch (p) {
    case FeaturePrecision::kFp32:
      return "fp32";
    case FeaturePrecision::kFp16:
      return "fp16";
    case FeaturePrecision::kBf16:
      return "bf16";
  }
  return "?";
}

/// \brief Dense row-major float matrix (the X / Z operands of SpMM).
///
/// Default storage is fp32. ToPrecision() produces a reduced-storage copy
/// holding uint16_t bit patterns; such matrices are read-only operands
/// (RowData/MutableRowData/At address only the fp32 backing — use
/// HalfRowData/ValueAt on reduced storage).
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int32_t rows, int32_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, fill) {}

  DenseMatrix(const DenseMatrix&) = default;
  DenseMatrix& operator=(const DenseMatrix&) = default;
  /// A moved-from matrix is 0x0 fp32, so rows x cols always equals the size
  /// of the backing in use: an output checked by shape alone is never
  /// written through storage a move took away.
  DenseMatrix(DenseMatrix&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        precision_(std::exchange(other.precision_, FeaturePrecision::kFp32)),
        data_(std::exchange(other.data_, {})),
        half_data_(std::exchange(other.half_data_, {})) {}
  DenseMatrix& operator=(DenseMatrix&& other) noexcept {
    rows_ = std::exchange(other.rows_, 0);
    cols_ = std::exchange(other.cols_, 0);
    precision_ = std::exchange(other.precision_, FeaturePrecision::kFp32);
    data_ = std::exchange(other.data_, {});
    half_data_ = std::exchange(other.half_data_, {});
    return *this;
  }

  /// rows x cols fp32 matrix whose elements are indeterminate: no serial
  /// zero fill, so the pages are first touched by whoever writes them. The
  /// caller must write every element before reading it.
  static DenseMatrix Uninitialized(int32_t rows, int32_t cols);

  int32_t rows() const { return rows_; }
  int32_t cols() const { return cols_; }

  FeaturePrecision precision() const { return precision_; }
  /// True when elements live in the uint16_t backing (fp16/bf16 modes).
  bool reduced_storage() const { return precision_ != FeaturePrecision::kFp32; }

  float& At(int32_t r, int32_t c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  float At(int32_t r, int32_t c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  const float* RowData(int32_t r) const { return data_.data() + static_cast<size_t>(r) * cols_; }
  float* MutableRowData(int32_t r) { return data_.data() + static_cast<size_t>(r) * cols_; }

  /// Row pointer into the reduced (uint16_t) backing; only meaningful when
  /// reduced_storage().
  const uint16_t* HalfRowData(int32_t r) const {
    return half_data_.data() + static_cast<size_t>(r) * cols_;
  }

  /// Element read that works in every storage mode (reduced values widen
  /// exactly to the fp32 they round-tripped to).
  float ValueAt(int32_t r, int32_t c) const {
    switch (precision_) {
      case FeaturePrecision::kFp32:
        return At(r, c);
      case FeaturePrecision::kFp16:
        return F16BitsToF32(half_data_[static_cast<size_t>(r) * cols_ + c]);
      case FeaturePrecision::kBf16:
        return Bf16BitsToF32(half_data_[static_cast<size_t>(r) * cols_ + c]);
    }
    return 0.0f;
  }

  /// Copy of this matrix stored at `p`. Converting fp32 -> fp16/bf16 rounds
  /// to nearest-even once; converting a reduced matrix widens exactly first
  /// (so fp16 -> fp32 -> fp16 is the identity). Conversion to the current
  /// precision is a plain copy.
  DenseMatrix ToPrecision(FeaturePrecision p) const;

  const AlignedFloatVector& data() const { return data_; }
  AlignedFloatVector& mutable_data() { return data_; }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Frobenius-norm of (this - other); matrices must be the same shape.
  /// Works in every storage mode (reads via ValueAt).
  double FrobeniusDistance(const DenseMatrix& other) const;

  /// Max |a-b| over entries; matrices must be the same shape.
  double MaxAbsDifference(const DenseMatrix& other) const;

  /// C = this^T (rows and cols swap). fp32 storage only.
  DenseMatrix Transposed() const;

  /// Exact resident bytes of the element backing (2 bytes/element in the
  /// reduced modes, 4 in fp32).
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(data_.capacity() * sizeof(float) +
                                half_data_.capacity() * sizeof(uint16_t));
  }

 private:
  int32_t rows_ = 0;
  int32_t cols_ = 0;
  FeaturePrecision precision_ = FeaturePrecision::kFp32;
  AlignedFloatVector data_;      // fp32 mode backing (empty when reduced)
  AlignedHalfVector half_data_;  // fp16/bf16 backing (empty when fp32)
};

}  // namespace hcspmm
