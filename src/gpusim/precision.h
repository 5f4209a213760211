// Numeric emulation of the reduced-precision formats Tensor cores consume
// (TF32 / FP16 / BF16). Kernels round their operands through these before
// multiplying, so hybrid results show the same mixed-precision behaviour as
// real WMMA (accumulation stays FP32, as on hardware).
#pragma once

#include <cstdint>
#include <cstring>

#include "gpusim/device.h"
#include "util/half.h"  // RoundTf32, shared with the SIMD tables

namespace hcspmm {

/// BF16: FP32 truncated to the top 16 bits with round-to-nearest-even.
inline float RoundBf16(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  uint32_t lsb = (bits >> 16) & 1u;
  bits += 0x7fffu + lsb;
  bits &= 0xffff0000u;
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

/// FP16 (IEEE binary16) via native conversion.
inline float RoundFp16(float x) {
  _Float16 h = static_cast<_Float16>(x);
  return static_cast<float>(h);
}

/// Round per the requested storage type (kFp32 is a pass-through).
inline float RoundTo(DataType t, float x) {
  switch (t) {
    case DataType::kTf32:
      return RoundTf32(x);
    case DataType::kFp16:
      return RoundFp16(x);
    case DataType::kBf16:
      return RoundBf16(x);
    case DataType::kFp32:
      return x;
  }
  return x;
}

}  // namespace hcspmm
