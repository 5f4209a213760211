// Scalar fp16 / bf16 <-> fp32 conversions used by the reduced-precision
// feature storage path. Storage is always raw uint16_t bit patterns; the
// SIMD kernels convert on load and accumulate in fp32, so these conversions
// are the *only* place precision is lost. Both directions are deterministic
// (round-to-nearest-even on narrowing, exact on widening), so reduced-
// precision results are identical at every SIMD level / thread count — just
// not identical to fp32. The TF32 operand rounding of the Tensor path lives
// here too: it is pure integer bit manipulation, which the SIMD tables
// repeat lane by lane with the same constants.
#pragma once

#include <cstdint>
#include <cstring>

namespace hcspmm {

/// fp32 -> IEEE binary16 bit pattern (round-to-nearest-even, hardware
/// semantics via the compiler's _Float16 — the same type RoundFp16 in
/// gpusim/precision.h relies on).
inline uint16_t F32ToF16Bits(float x) {
  const _Float16 h = static_cast<_Float16>(x);
  uint16_t bits;
  std::memcpy(&bits, &h, sizeof(bits));
  return bits;
}

/// TF32 rounding as integer ops on the fp32 encoding: add kTf32RoundBias
/// (round-to-nearest on bit 13, ties away from zero), then keep the bits in
/// kTf32KeepMask (the low 13 mantissa bits cleared). Carries may ripple into
/// the exponent, so FLT_MAX rounds to Inf.
constexpr uint32_t kTf32RoundBias = 1u << 12;
constexpr uint32_t kTf32KeepMask = ~((1u << 13) - 1);

/// TF32: FP32 with the mantissa rounded to 10 bits (19-bit format).
inline float RoundTf32(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  bits = (bits + kTf32RoundBias) & kTf32KeepMask;
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

/// IEEE binary16 bit pattern -> fp32 (exact: every fp16 value is
/// representable in fp32). Pure integer bit manipulation rather than a
/// _Float16 cast: without -mf16c the cast lowers to a per-element
/// __extendhfsf2 library call, which dominated the reduced-precision SpMM
/// hot loop (~30x over fp32) before this rewrite.
inline float F16BitsToF32(uint16_t bits) {
  // Place the fp16 exponent+mantissa in the fp32 field positions, then
  // rebias by multiplying with 2^112 (= 2^(127-15)). The multiply is exact:
  // it only shifts the exponent, and fp16 subnormals (fp32 subnormals
  // before the multiply) renormalize for free. Inf/NaN come out of the
  // multiply as normals with exponent field 143 (31 + 112), so OR-ing the
  // saturated exponent back in restores them, payload intact.
  const uint32_t sign = static_cast<uint32_t>(bits & 0x8000u) << 16;
  uint32_t wide = static_cast<uint32_t>(bits & 0x7fffu) << 13;
  float f;
  std::memcpy(&f, &wide, sizeof(f));
  f *= 0x1p112f;
  std::memcpy(&wide, &f, sizeof(wide));
  if ((bits & 0x7c00u) == 0x7c00u) wide |= 0x7f800000u;
  wide |= sign;
  std::memcpy(&f, &wide, sizeof(f));
  return f;
}

/// fp32 -> bfloat16 bit pattern: keep the top 16 bits of the fp32 encoding
/// with round-to-nearest-even on the dropped mantissa half — the same
/// rounding RoundBf16 in gpusim/precision.h applies before widening back.
inline uint16_t F32ToBf16Bits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const uint32_t lsb = (bits >> 16) & 1u;
  bits += 0x7fffu + lsb;
  return static_cast<uint16_t>(bits >> 16);
}

/// bfloat16 bit pattern -> fp32 (exact: bf16 is a truncated fp32).
inline float Bf16BitsToF32(uint16_t bits) {
  const uint32_t wide = static_cast<uint32_t>(bits) << 16;
  float out;
  std::memcpy(&out, &wide, sizeof(out));
  return out;
}

}  // namespace hcspmm
