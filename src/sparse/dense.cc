#include "sparse/dense.h"

#include <cmath>

#include "util/logging.h"

namespace hcspmm {

DenseMatrix DenseMatrix::Uninitialized(int32_t rows, int32_t cols) {
  DenseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_.resize(static_cast<size_t>(rows) * cols);  // default-initialised
  return m;
}

double DenseMatrix::FrobeniusDistance(const DenseMatrix& other) const {
  HCSPMM_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "shape mismatch";
  double acc = 0.0;
  for (int32_t r = 0; r < rows_; ++r) {
    for (int32_t c = 0; c < cols_; ++c) {
      double d = static_cast<double>(ValueAt(r, c)) - other.ValueAt(r, c);
      acc += d * d;
    }
  }
  return std::sqrt(acc);
}

double DenseMatrix::MaxAbsDifference(const DenseMatrix& other) const {
  HCSPMM_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "shape mismatch";
  double m = 0.0;
  for (int32_t r = 0; r < rows_; ++r) {
    for (int32_t c = 0; c < cols_; ++c) {
      double d =
          std::fabs(static_cast<double>(ValueAt(r, c)) - other.ValueAt(r, c));
      if (d > m) m = d;
    }
  }
  return m;
}

DenseMatrix DenseMatrix::Transposed() const {
  HCSPMM_CHECK(!reduced_storage()) << "Transposed requires fp32 storage";
  DenseMatrix out(cols_, rows_);
  for (int32_t r = 0; r < rows_; ++r) {
    for (int32_t c = 0; c < cols_; ++c) {
      out.At(c, r) = At(r, c);
    }
  }
  return out;
}

DenseMatrix DenseMatrix::ToPrecision(FeaturePrecision p) const {
  if (p == precision_) return *this;
  DenseMatrix out;
  out.rows_ = rows_;
  out.cols_ = cols_;
  out.precision_ = p;
  const size_t n = static_cast<size_t>(rows_) * cols_;
  if (p == FeaturePrecision::kFp32) {
    out.data_.resize(n);
    for (int32_t r = 0; r < rows_; ++r) {
      for (int32_t c = 0; c < cols_; ++c) out.At(r, c) = ValueAt(r, c);
    }
    return out;
  }
  out.half_data_.resize(n);
  size_t i = 0;
  for (int32_t r = 0; r < rows_; ++r) {
    for (int32_t c = 0; c < cols_; ++c, ++i) {
      const float v = ValueAt(r, c);
      out.half_data_[i] =
          p == FeaturePrecision::kFp16 ? F32ToF16Bits(v) : F32ToBf16Bits(v);
    }
  }
  return out;
}

}  // namespace hcspmm
