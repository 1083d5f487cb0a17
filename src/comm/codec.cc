#include "comm/codec.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

// The vector types below are TU-internal and every use is inlined into the
// target_clones dispatch functions, so the ABI warning about passing wide
// vectors without AVX-512 enabled is noise here (same idiom as
// tensor/kernels.cc).
#pragma GCC diagnostic ignored "-Wpsabi"

namespace calibre::comm {
namespace {

// 16-lane SIMD groups, legalized per target exactly like the tensor
// kernels: one ZMM on AVX-512, two YMM on AVX2, four XMM on baseline SSE2.
typedef float vf32 __attribute__((vector_size(64), aligned(4), may_alias));
typedef std::uint32_t vu32 __attribute__((vector_size(64), aligned(4),
                                          may_alias));
typedef std::int32_t vi32 __attribute__((vector_size(64), aligned(4),
                                         may_alias));  // comparison masks
typedef std::uint16_t vu16 __attribute__((vector_size(32), aligned(2),
                                          may_alias));
typedef std::uint8_t vu8 __attribute__((vector_size(16), aligned(1),
                                        may_alias));

constexpr std::size_t kLanes = 16;  // elements per vector group

// ThreadSanitizer cannot coexist with the ifunc resolvers target_clones
// emits, so TSan builds fall back to the default-target body.
#if defined(__SANITIZE_THREAD__)
#define CALIBRE_CODEC_CLONES __attribute__((flatten))
#else
#define CALIBRE_CODEC_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                               "default"), flatten))
#endif

// Branchless f32 -> f16 for one 16-lane group, bit-identical to the scalar
// f32_to_f16 below for every input (RNE ties, subnormals, inf, NaN). The
// subnormal path rides the FPU: adding 0.5f aligns the value's mantissa so
// the float adder performs the shift *and* the round-to-nearest-even in one
// op; the normal path adds the rebias plus 0xFFF (+ the mantissa's odd bit)
// so plain truncation at >> 13 lands on nearest-even.
inline vu16 f32_to_f16_lanes(vu32 bits) {
  const vu32 sign = bits & 0x80000000u;
  const vu32 u = bits ^ sign;
  // Everything at or above 2^16 (the first f32 whose rounded f16 exponent is
  // 31) is inf after saturation; above-inf payloads are NaN and keep a set
  // mantissa bit (0x200) so they cannot decay to inf.
  const vu32 naninf =
      u > 0x7F800000u ? vu32{} + 0x7E00u : vu32{} + 0x7C00u;
  // Subnormal/zero result (value < 2^-14): 0.5f has ulp 2^-24 = one f16
  // subnormal step, so (value + 0.5f) - 0.5f_bits is the rounded mantissa.
  const vf32 half_one = (vf32)(vu32{} + (126u << 23));
  const vu32 sub_out = (vu32)((vf32)u + half_one) - (126u << 23);
  // Normal result: rebias 127 -> 15 ((15-127) << 23 == 0xC8000000), add
  // 0x0FFF plus the pre-round odd bit, truncate.
  const vu32 mant_odd = (u >> 13) & 1u;
  const vu32 norm_out = (u + 0xC8000FFFu + mant_odd) >> 13;
  vu32 out = u < (113u << 23) ? sub_out : norm_out;
  out = u >= ((127u + 16u) << 23) ? naninf : out;
  out |= sign >> 16;
  return __builtin_convertvector(out, vu16);
}

// Branchless f16 -> f32 for one 16-lane group; exact (and therefore
// bit-identical to the scalar f16_to_f32 below). Normals need only a shift
// and a rebias; inf/NaN get a second exponent bump to 0xFF; subnormals are
// renormalized by the FPU via one subtraction of 2^-14.
inline vf32 f16_to_f32_lanes(vu16 halves) {
  const vu32 h = __builtin_convertvector(halves, vu32);
  const vu32 shifted = (h & 0x7FFFu) << 13;
  const vu32 exp = shifted & 0x0F800000u;
  const vu32 o = shifted + ((127u - 15u) << 23);
  const vu32 infnan_out = o + ((128u - 16u) << 23);
  const vf32 magic = (vf32)(vu32{} + (113u << 23));  // 2^-14
  const vu32 sub_out = (vu32)((vf32)(o + (1u << 23)) - magic);
  vu32 out = exp == vu32{} + 0x0F800000u ? infnan_out : o;
  out = exp == vu32{} ? sub_out : out;
  out |= (h & 0x8000u) << 16;
  return (vf32)out;
}

}  // namespace

CALIBRE_CODEC_CLONES
void f32_to_f16_block(const float* src, const float* base, std::uint16_t* dst,
                      std::size_t count) {
  std::size_t i = 0;
  if (base == nullptr) {
    for (; i + kLanes <= count; i += kLanes) {
      *(vu16*)(dst + i) = f32_to_f16_lanes((vu32)*(const vf32*)(src + i));
    }
    for (; i < count; ++i) dst[i] = f32_to_f16(src[i]);
  } else {
    for (; i + kLanes <= count; i += kLanes) {
      const vf32 delta = *(const vf32*)(src + i) - *(const vf32*)(base + i);
      *(vu16*)(dst + i) = f32_to_f16_lanes((vu32)delta);
    }
    for (; i < count; ++i) dst[i] = f32_to_f16(src[i] - base[i]);
  }
}

CALIBRE_CODEC_CLONES
void f16_to_f32_block(const std::uint16_t* src, const float* base, float* dst,
                      std::size_t count) {
  std::size_t i = 0;
  if (base == nullptr) {
    for (; i + kLanes <= count; i += kLanes) {
      *(vf32*)(dst + i) = f16_to_f32_lanes(*(const vu16*)(src + i));
    }
    for (; i < count; ++i) dst[i] = f16_to_f32(src[i]);
  } else {
    for (; i + kLanes <= count; i += kLanes) {
      *(vf32*)(dst + i) =
          *(const vf32*)(base + i) + f16_to_f32_lanes(*(const vu16*)(src + i));
    }
    for (; i < count; ++i) dst[i] = base[i] + f16_to_f32(src[i]);
  }
}

std::uint8_t int8a_quantize(float value, float zero, float inv_scale) {
  // (value - zero) * inv_scale is sub-then-mul — not contractible into an
  // FMA — so scalar and vector lowering agree bit-for-bit. The clamp's
  // ordered comparisons send NaN to 0; +0.5 then truncation rounds
  // half-away-from-zero on the non-negative clamped range.
  float t = (value - zero) * inv_scale;
  t = t > 0.0f ? t : 0.0f;
  t = t < 255.0f ? t : 255.0f;
  return static_cast<std::uint8_t>(static_cast<std::uint32_t>(t + 0.5f));
}

float int8a_dequantize(std::uint8_t q, float zero, float scale) {
  return zero + scale * static_cast<float>(q);
}

CALIBRE_CODEC_CLONES
void int8a_quantize_block(const float* src, float zero, float inv_scale,
                          std::uint8_t* dst, std::size_t count) {
  const vf32 zero_v = vf32{} + zero;
  const vf32 inv_v = vf32{} + inv_scale;
  const vf32 lo_v = vf32{};
  const vf32 hi_v = vf32{} + 255.0f;
  const vf32 half_v = vf32{} + 0.5f;
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    vf32 t = (*(const vf32*)(src + i) - zero_v) * inv_v;
    t = t > lo_v ? t : lo_v;
    t = t < hi_v ? t : hi_v;
    const vu32 q = __builtin_convertvector(t + half_v, vu32);
    *(vu8*)(dst + i) = __builtin_convertvector(q, vu8);
  }
  for (; i < count; ++i) dst[i] = int8a_quantize(src[i], zero, inv_scale);
}

CALIBRE_CODEC_CLONES
void int8a_dequantize_block(const std::uint8_t* src, float zero, float scale,
                            float* dst, std::size_t count) {
  const vf32 zero_v = vf32{} + zero;
  const vf32 scale_v = vf32{} + scale;
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    const vu32 q = __builtin_convertvector(*(const vu8*)(src + i), vu32);
    *(vf32*)(dst + i) = zero_v + scale_v * __builtin_convertvector(q, vf32);
  }
  for (; i < count; ++i) dst[i] = int8a_dequantize(src[i], zero, scale);
}

namespace {

// Affine parameters for one int8a block: zero = min, scale = range / 255,
// computed in double so the division rounds once. NaNs are skipped by the
// ordered comparisons; a block with no finite values (or any infinity)
// degrades to (0, 0) — every byte quantizes to 0 and dequantizes to 0.
void int8a_block_params(const float* src, std::size_t count, float* zero,
                        float* scale, float* inv_scale) {
  float lo = 0.0f;
  float hi = 0.0f;
  bool seen = false;
  for (std::size_t i = 0; i < count; ++i) {
    const float v = src[i];
    if (v != v) continue;  // NaN
    lo = seen && lo < v ? lo : v;
    hi = seen && hi > v ? hi : v;
    seen = true;
  }
  const double range = static_cast<double>(hi) - static_cast<double>(lo);
  if (!seen || !(range >= 0.0) || range > 6.8e38) {  // empty, NaN or inf range
    *zero = 0.0f;
    *scale = 0.0f;
    *inv_scale = 0.0f;
    return;
  }
  *zero = lo;
  *scale = static_cast<float>(range / 255.0);
  *inv_scale = *scale > 0.0f
                   ? static_cast<float>(1.0 / static_cast<double>(*scale))
                   : 0.0f;
}

// Magnitude key of a topk16 delta: its f32 bits without the sign. Integer
// order on keys is |delta| order for every non-NaN delta, places every NaN
// above +inf, and ties +0.0 with -0.0, so keys totally order any input.
inline std::uint32_t magnitude_key(float delta) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &delta, sizeof(bits));
  return bits & 0x7FFFFFFFu;
}

// magnitude_key of the 16 deltas values[0..16) - base[0..16).
inline vu32 magnitude_keys(const float* values, const float* base) {
  return (vu32)(*(const vf32*)values - *(const vf32*)base) & 0x7FFFFFFFu;
}

// Lanes of a vector comparison result as a 16-bit mask.
inline std::uint32_t lane_bits(vi32 mask) {
  std::uint32_t bits = 0;
  for (std::size_t l = 0; l < kLanes; ++l) bits |= (mask[l] & 1u) << l;
  return bits;
}

// topk16 selection splits each 31-bit key into a 16-bit bucket and a 15-bit
// offset within it.
constexpr std::uint32_t kKeyLowBits = 15;
constexpr std::uint32_t kKeyLowMask = (1u << kKeyLowBits) - 1u;

// Selection pass 1: counts every key's bucket into hist[1 << 16]. Keys are
// formed a vector group at a time into a small buffer; the increments stay
// scalar.
CALIBRE_CODEC_CLONES
void count_key_buckets(const float* values, const float* base,
                       std::size_t count, std::uint32_t* hist) {
  constexpr std::size_t kChunk = 256;
  alignas(64) std::uint32_t buckets[kChunk];
  std::size_t i = 0;
  for (; i + kChunk <= count; i += kChunk) {
    for (std::size_t c = 0; c < kChunk; c += kLanes) {
      *(vu32*)(buckets + c) =
          magnitude_keys(values + i + c, base + i + c) >> kKeyLowBits;
    }
    for (const std::uint32_t bucket : buckets) ++hist[bucket];
  }
  for (; i < count; ++i) {
    ++hist[magnitude_key(values[i] - base[i]) >> kKeyLowBits];
  }
}

// Selection pass 2: counts the offsets of the keys in bucket `bucket` into
// hist[1 << 15]. Few keys fall in one bucket, so a vector group with none
// is skipped whole.
CALIBRE_CODEC_CLONES
void count_bucket_offsets(const float* values, const float* base,
                          std::size_t count, std::uint32_t bucket,
                          std::uint32_t* hist) {
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    const vu32 keys = magnitude_keys(values + i, base + i);
    std::uint32_t in_bucket = lane_bits((keys >> kKeyLowBits) == bucket);
    for (; in_bucket != 0; in_bucket &= in_bucket - 1) {
      ++hist[keys[__builtin_ctz(in_bucket)] & kKeyLowMask];
    }
  }
  for (; i < count; ++i) {
    const std::uint32_t key = magnitude_key(values[i] - base[i]);
    if ((key >> kKeyLowBits) == bucket) ++hist[key & kKeyLowMask];
  }
}

// Selection pass 3: in ascending index order, keeps every key above
// `threshold` and the first `ties` keys equal to it, writing their indices
// and deltas; returns how many it kept. With a non-null `residual` it
// writes the delta at every dropped index and leaves values[i] at kept
// ones (for the caller's fix-up), whether or not `residual` aliases
// `values`. Only vector groups holding a key >= threshold go lane by lane.
CALIBRE_CODEC_CLONES
std::size_t emit_top_keys(const float* values, const float* base,
                          std::size_t count, std::uint32_t threshold,
                          std::size_t ties, std::uint32_t* indices,
                          float* kept, float* residual) {
  std::size_t j = 0;
  const auto take = [&](std::size_t i, float value, float delta,
                        std::uint32_t key) {
    if (key > threshold || (key == threshold && ties > 0)) {
      if (key == threshold) --ties;
      indices[j] = static_cast<std::uint32_t>(i);
      kept[j] = delta;
      ++j;
      if (residual != nullptr) residual[i] = value;
    } else if (residual != nullptr) {
      residual[i] = delta;
    }
  };
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    const vf32 v = *(const vf32*)(values + i);
    const vf32 delta = v - *(const vf32*)(base + i);
    const vu32 keys = (vu32)delta & 0x7FFFFFFFu;
    const vi32 candidate = keys >= threshold;
    if (residual != nullptr) *(vf32*)(residual + i) = candidate ? v : delta;
    for (std::uint32_t lanes = lane_bits(candidate); lanes != 0;
         lanes &= lanes - 1) {
      const int l = __builtin_ctz(lanes);
      take(i + l, v[l], delta[l], keys[l]);
    }
  }
  for (; i < count; ++i) {
    const float delta = values[i] - base[i];
    take(i, values[i], delta, magnitude_key(delta));
  }
  return j;
}

// The topk16 block body (everything after the tag). Keeps the k deltas
// values[i] - base[i] that come first under the strict order |delta|
// descending, index ascending on ties — the order that makes the block a
// pure function of its input.
//
// Selection is an exact two-level radix select on the 31-bit keys: a
// histogram of the top 16 key bits finds the bucket holding the k-th key,
// and a histogram of the low 15 bits inside that bucket finds the k-th key
// T itself, plus how many elements tied at T still fit. One ascending pass
// then keeps every key > T and the lowest-index ties at T, which is the
// exact order's top-k already in wire (ascending index) order: no sort, no
// partial sort, no candidate set. Deltas are recomputed in each pass rather
// than stored, so nothing model-sized is allocated.
//
// With a non-null `residual` (which may alias `values`) the emit pass
// writes the delta at dropped indices, and a fix-up over the kept ones
// writes values[i] - (base[i] + f16(delta)): values - decode(block), in the
// exact expression decode_values reconstructs.
void encode_topk16(Writer& writer, const float* values, const float* base,
                   std::size_t count, std::size_t topk, float* residual) {
  CALIBRE_CHECK_MSG(topk <= count && (topk >= 1 || count == 0),
                    "topk16 k " << topk << " out of [1, " << count << "]");
  CALIBRE_CHECK_LE(count, std::size_t{0xFFFFFFFFu},
                   "topk16 indices are u32");
  std::uint32_t threshold = 0;  // T, the k-th largest key
  std::size_t ties = 0;         // elements keyed T still kept
  if (topk > 0) {
    std::vector<std::uint32_t> hist(std::size_t{1} << 16, 0u);
    count_key_buckets(values, base, count, hist.data());
    // Walk down from the largest bucket; `need` ends as the number of
    // elements the boundary bucket contributes, in [1, hist[bucket]].
    std::size_t need = topk;
    std::uint32_t bucket = 0xFFFFu;
    while (hist[bucket] < need) need -= hist[bucket--];
    // Second level, reusing the first half of the histogram.
    std::fill_n(hist.begin(), kKeyLowMask + 1, 0u);
    count_bucket_offsets(values, base, count, bucket, hist.data());
    std::uint32_t offset = kKeyLowMask;
    while (hist[offset] < need) need -= hist[offset--];
    threshold = (bucket << kKeyLowBits) | offset;
    ties = need;
  }
  std::vector<std::uint32_t> indices(topk);
  std::vector<float> kept(topk);
  const std::size_t selected = emit_top_keys(
      values, base, count, threshold, ties, indices.data(), kept.data(),
      residual);
  CALIBRE_CHECK_EQ(selected, topk, "topk16 selection kept the wrong count");
  std::vector<std::uint16_t> halves(topk);
  f32_to_f16_block(kept.data(), nullptr, halves.data(), topk);
  if (residual != nullptr) {
    for (std::size_t m = 0; m < topk; ++m) {
      const std::uint32_t i = indices[m];
      residual[i] = values[i] - (base[i] + f16_to_f32(halves[m]));
    }
  }
  writer.write_u64(count);
  writer.write_u64(topk);
  writer.write_u32_array(indices.data(), topk);
  writer.write_u16_array(halves.data(), topk);
}

}  // namespace

std::string codec_name(Codec codec) {
  switch (codec) {
    case Codec::kAuto: return "auto";
    case Codec::kF32: return "f32";
    case Codec::kF16: return "f16";
    case Codec::kDelta16: return "delta16";
    case Codec::kTopK16: return "topk16";
    case Codec::kInt8A: return "int8a";
  }
  CALIBRE_CHECK_MSG(false, "unknown codec " << static_cast<int>(codec));
  return {};
}

Codec codec_from_name(const std::string& name) {
  if (name == "auto") return Codec::kAuto;
  if (name == "f32") return Codec::kF32;
  if (name == "f16") return Codec::kF16;
  if (name == "delta16") return Codec::kDelta16;
  if (name == "topk16") return Codec::kTopK16;
  if (name == "int8a") return Codec::kInt8A;
  CALIBRE_CHECK_MSG(false,
                    "unknown wire codec '"
                        << name
                        << "' (expected auto | f32 | f16 | delta16 | topk16 |"
                           " int8a)");
  return Codec::kF32;
}

std::uint16_t f32_to_f16(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  const auto sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
  const std::uint32_t exp = (bits >> 23) & 0xFFu;
  std::uint32_t mant = bits & 0x7FFFFFu;
  if (exp == 0xFFu) {
    // inf stays inf; NaN keeps a set mantissa bit so it cannot decay to inf.
    return sign | 0x7C00u | (mant != 0 ? 0x200u : 0u);
  }
  // Re-bias 127 -> 15.
  const int e = static_cast<int>(exp) - 127 + 15;
  if (e >= 0x1F) return sign | 0x7C00u;  // overflow -> inf
  if (e <= 0) {
    if (e < -10) return sign;  // below the smallest subnormal -> signed zero
    // Subnormal: shift the 24-bit mantissa (implicit bit restored) down to
    // 10 bits, rounding to nearest-even on the dropped remainder.
    mant |= 0x800000u;
    const int shift = 14 - e;  // in [14, 24]
    const std::uint32_t half = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    std::uint32_t out = sign | half;
    if (rem > halfway || (rem == halfway && (out & 1u))) ++out;
    return static_cast<std::uint16_t>(out);
  }
  // Normal: round the 23-bit mantissa to 10 bits (nearest-even). A carry out
  // of the mantissa correctly bumps the exponent, up to and including inf.
  std::uint32_t out =
      sign | (static_cast<std::uint32_t>(e) << 10) | (mant >> 13);
  const std::uint32_t rem = mant & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (out & 1u))) ++out;
  return static_cast<std::uint16_t>(out);
}

float f16_to_f32(std::uint16_t half) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(half) & 0x8000u) << 16;
  std::uint32_t exp = (half >> 10) & 0x1Fu;
  std::uint32_t mant = half & 0x3FFu;
  std::uint32_t bits;
  if (exp == 0x1Fu) {
    bits = sign | 0x7F800000u | (mant << 13);  // inf / NaN
  } else if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // signed zero
    } else {
      // Subnormal: normalize into an f32 with an explicit exponent.
      std::uint32_t e = 127 - 15 + 1;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        --e;
      }
      bits = sign | (e << 23) | ((mant & 0x3FFu) << 13);
    }
  } else {
    bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float value = 0.0f;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::size_t encoded_size(Codec codec, std::size_t count, std::size_t topk) {
  const std::size_t header = sizeof(std::uint8_t) + sizeof(std::uint64_t);
  switch (codec) {
    case Codec::kF32:
      return header + count * sizeof(float);
    case Codec::kF16:
    case Codec::kDelta16:
      return header + count * sizeof(std::uint16_t);
    case Codec::kTopK16:
      if (topk == 0) {  // the degraded (reference-less) f16 form
        return header + count * sizeof(std::uint16_t);
      }
      return header + sizeof(std::uint64_t) +
             topk * (sizeof(std::uint32_t) + sizeof(std::uint16_t));
    case Codec::kInt8A: {
      const std::size_t blocks =
          (count + kInt8BlockSize - 1) / kInt8BlockSize;
      return header + blocks * 2 * sizeof(float) + count;
    }
    case Codec::kAuto: break;
  }
  CALIBRE_CHECK_MSG(false, "encoded_size on config-only codec auto");
  return 0;
}

void encode_values(Writer& writer, const std::vector<float>& values,
                   Codec codec, const float* base, std::size_t base_size,
                   std::size_t topk, float* residual) {
  CALIBRE_CHECK_MSG(codec != Codec::kAuto,
                    "codec auto is config-only; resolve it to a concrete "
                    "codec before encoding");
  if ((codec == Codec::kDelta16 || codec == Codec::kTopK16) &&
      (base == nullptr || base_size != values.size())) {
    // No usable reference (e.g. a payload sized unlike the broadcast):
    // degrade to plain f16. The tag written below keeps decoding unambiguous.
    codec = Codec::kF16;
  }
  writer.write_u8(static_cast<std::uint8_t>(codec));
  const std::size_t count = values.size();
  switch (codec) {
    case Codec::kF32:
      writer.write_f32_vector(values);
      if (residual != nullptr) std::fill_n(residual, count, 0.0f);
      return;
    case Codec::kF16:
    case Codec::kDelta16: {
      const float* ref = codec == Codec::kDelta16 ? base : nullptr;
      std::vector<std::uint16_t> halves(count);
      f32_to_f16_block(values.data(), ref, halves.data(), count);
      writer.write_u16_vector(halves);
      if (residual != nullptr) {
        for (std::size_t i = 0; i < count; ++i) {
          const float half = f16_to_f32(halves[i]);
          residual[i] = values[i] - (ref != nullptr ? ref[i] + half : half);
        }
      }
      return;
    }
    case Codec::kTopK16:
      encode_topk16(writer, values.data(), base, count, topk, residual);
      return;
    case Codec::kInt8A: {
      const std::size_t blocks =
          (count + kInt8BlockSize - 1) / kInt8BlockSize;
      writer.write_u64(count);
      std::vector<float> zeros(blocks);
      std::vector<float> scales(blocks);
      std::vector<std::uint8_t> quants(count);
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t begin = b * kInt8BlockSize;
        const std::size_t len = std::min(kInt8BlockSize, count - begin);
        float inv_scale = 0.0f;
        int8a_block_params(values.data() + begin, len, &zeros[b], &scales[b],
                           &inv_scale);
        int8a_quantize_block(values.data() + begin, zeros[b], inv_scale,
                             quants.data() + begin, len);
        writer.write_f32(zeros[b]);
        writer.write_f32(scales[b]);
        if (residual != nullptr) {
          for (std::size_t i = begin; i < begin + len; ++i) {
            residual[i] =
                values[i] - int8a_dequantize(quants[i], zeros[b], scales[b]);
          }
        }
      }
      writer.write_u8_array(quants.data(), count);
      return;
    }
    case Codec::kAuto: break;  // rejected above
  }
  CALIBRE_CHECK_MSG(false, "unknown codec " << static_cast<int>(codec));
}

std::vector<float> decode_values(Reader& reader, const float* base,
                                 std::size_t base_size) {
  std::vector<float> values;
  decode_values_into(reader, values, base, base_size);
  return values;
}

void decode_values_into(Reader& reader, std::vector<float>& values,
                        const float* base, std::size_t base_size) {
  const std::uint8_t tag = reader.read_u8();
  switch (static_cast<Codec>(tag)) {
    case Codec::kF32:
      reader.read_f32_vector(values);
      return;
    case Codec::kF16: {
      const std::vector<std::uint16_t> halves = reader.read_u16_vector();
      values.resize(halves.size());
      f16_to_f32_block(halves.data(), nullptr, values.data(), halves.size());
      return;
    }
    case Codec::kDelta16: {
      const std::vector<std::uint16_t> halves = reader.read_u16_vector();
      CALIBRE_CHECK_MSG(base != nullptr,
                        "delta16 block of " << halves.size()
                                            << " values with no reference");
      CALIBRE_CHECK_EQ(base_size, halves.size(),
                       "delta16 reference/block size mismatch");
      values.resize(halves.size());
      f16_to_f32_block(halves.data(), base, values.data(), halves.size());
      return;
    }
    case Codec::kTopK16: {
      const std::uint64_t total = reader.read_u64();
      const std::uint64_t k = reader.read_u64();
      // The declared k is validated against the declared total, and both
      // index and value lists are bounded by the remaining bytes, before any
      // allocation happens. The output itself is sized by the *trusted*
      // reference length, never by wire-controlled counts.
      CALIBRE_CHECK_LE(k, total, "topk16 corrupt k");
      CALIBRE_CHECK_MSG(base != nullptr,
                        "topk16 block of " << total
                                           << " values with no reference");
      CALIBRE_CHECK_EQ(base_size, total,
                       "topk16 reference/block size mismatch");
      const std::vector<std::uint32_t> indices = reader.read_u32_array(k);
      const std::vector<std::uint16_t> halves = reader.read_u16_array(k);
      values.assign(base, base + base_size);
      std::uint64_t prev = 0;
      for (std::uint64_t j = 0; j < k; ++j) {
        const std::uint32_t idx = indices[j];
        CALIBRE_CHECK_MSG(idx < total && (j == 0 || idx > prev),
                          "topk16 corrupt index " << idx << " at " << j);
        values[idx] += f16_to_f32(halves[j]);
        prev = idx;
      }
      return;
    }
    case Codec::kInt8A: {
      const std::uint64_t count = reader.read_u64();
      // One payload byte per element, so a count past the remaining bytes is
      // corrupt — checked before deriving the block count from it (and long
      // before allocating), keeping the arithmetic below overflow-free.
      CALIBRE_CHECK_LE(count, reader.remaining(), "int8a corrupt count");
      const std::size_t blocks =
          (count + kInt8BlockSize - 1) / kInt8BlockSize;
      CALIBRE_CHECK_LE(blocks * 2 * sizeof(float) + count, reader.remaining(),
                       "int8a truncated block headers");
      std::vector<float> zeros(blocks);
      std::vector<float> scales(blocks);
      for (std::size_t b = 0; b < blocks; ++b) {
        zeros[b] = reader.read_f32();
        scales[b] = reader.read_f32();
      }
      const std::vector<std::uint8_t> quants = reader.read_u8_array(count);
      values.resize(count);
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t begin = b * kInt8BlockSize;
        const std::size_t len =
            std::min<std::size_t>(kInt8BlockSize, count - begin);
        int8a_dequantize_block(quants.data() + begin, zeros[b], scales[b],
                               values.data() + begin, len);
      }
      return;
    }
    case Codec::kAuto:
      break;  // tag 0 never appears on a valid wire
  }
  CALIBRE_CHECK_MSG(false, "corrupt codec tag " << static_cast<int>(tag));
}

}  // namespace calibre::comm
