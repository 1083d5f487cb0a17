// Wire codecs for model tensors.
//
// Every model that crosses the server/client boundary is a flat float vector;
// the codec decides how those floats are laid out on the wire:
//
//   f32      tag 0x01 | u64 count | count * f32     (lossless, the default)
//   f16      tag 0x02 | u64 count | count * u16     (IEEE binary16 values)
//   delta16  tag 0x03 | u64 count | count * u16     (f16 of value - base)
//   topk16   tag 0x04 | u64 count | u64 k
//            | k * u32 index (strictly ascending)
//            | k * u16 f16(value - base)            (top-k magnitude deltas)
//   int8a    tag 0x05 | u64 count
//            | ceil(count/256) * (f32 zero | f32 scale)
//            | count * u8                           (block-affine int8)
//
// delta16 and topk16 encode against a reference vector both sides already
// hold (the round's broadcast snapshot), so a client update that stays close
// to the global model quantizes far more accurately than raw f16 at the same
// bytes/element — and topk16 only ships the k largest-magnitude deltas
// (everything else decodes as "unchanged from the reference"). int8a is
// self-contained: each 256-element block stores an affine (zero, scale) pair
// and one byte per element, value ~= zero + scale * q. The tag is part of
// the block, so decoders dispatch on the wire, not on out-of-band
// configuration. All counts are validated against the remaining bytes before
// any allocation (same hardening as Reader), and topk16 index lists are
// validated against the declared count before they are applied.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/serde.h"

namespace calibre::comm {

enum class Codec : std::uint8_t {
  // Config-only value: the per-round adaptive chooser (fl/update_codec.h)
  // picks the cheapest concrete codec meeting the error budget. kAuto never
  // appears on the wire — every encoded block carries a concrete tag.
  kAuto = 0,
  kF32 = 1,      // lossless, bitwise identical run-to-run
  kF16 = 2,      // half-precision quantization
  kDelta16 = 3,  // half-precision delta against a shared reference
  kTopK16 = 4,   // top-k magnitude sparsified f16 deltas against a reference
  kInt8A = 5,    // block-wise affine int8 quantization (self-contained)
};

// "auto" | "f32" | "f16" | "delta16" | "topk16" | "int8a".
std::string codec_name(Codec codec);

// Inverse of codec_name; CHECK-fails (listing the valid set) on anything
// else.
Codec codec_from_name(const std::string& name);

// IEEE 754 binary16 conversion. f32_to_f16 rounds to nearest-even, saturates
// to +-inf past the f16 range, flushes below-subnormal magnitudes to signed
// zero, and preserves inf/NaN.
std::uint16_t f32_to_f16(float value);
float f16_to_f32(std::uint16_t half);

// Bulk conversions, SIMD-vectorized per-arch like the tensor kernels and
// bit-identical to the scalar functions above on every input. With a non-null
// `base` the encode converts src[i] - base[i] (the delta16 transform) and the
// decode produces base[i] + half, fused into the same pass.
void f32_to_f16_block(const float* src, const float* base, std::uint16_t* dst,
                      std::size_t count);
void f16_to_f32_block(const std::uint16_t* src, const float* base, float* dst,
                      std::size_t count);

// int8a block geometry: one affine (zero, scale) pair per 256 elements.
inline constexpr std::size_t kInt8BlockSize = 256;

// Scalar int8a quantization reference: q = clamp(round((v - zero) *
// inv_scale)) into [0, 255], branchless, NaN mapping to 0. The block
// functions below are SIMD-vectorized and bit-identical to these on every
// input (the clamp/round sequence is chosen so scalar and vector lowering
// agree; codec.cc is compiled with FP contraction off so no path fuses the
// dequant mul-add into an FMA).
std::uint8_t int8a_quantize(float value, float zero, float inv_scale);
float int8a_dequantize(std::uint8_t q, float zero, float scale);

// Bulk int8a conversion for one block (any count), vectorized per-arch.
void int8a_quantize_block(const float* src, float zero, float inv_scale,
                          std::uint8_t* dst, std::size_t count);
void int8a_dequantize_block(const std::uint8_t* src, float zero, float scale,
                            float* dst, std::size_t count);

// Exact byte size of the block encode_values() writes for `count` values.
// `topk` is the sparsifier's k and only read for kTopK16; topk == 0 sizes
// the degraded (reference-less) f16 form that encode_values falls back to.
std::size_t encoded_size(Codec codec, std::size_t count, std::size_t topk = 0);

// Appends a codec block for `values`. delta16/topk16 require `base` with
// `base_size == values.size()`; without a usable reference they degrade to a
// plain f16 block (the tag on the wire says which was written, so decoding
// stays unambiguous). topk16 additionally requires `topk` in [1, count] —
// the number of largest-|value - base| coordinates shipped, selected under
// |value - base| descending, index ascending on ties (an exact radix select,
// see codec.cc). f32/f16/int8a ignore `base`; kAuto is config-only and
// CHECK-fails here.
//
// With a non-null `residual` (values.size() floats, which may alias
// values.data()) the encoder also writes the error-feedback residual
// values - decode_values(block), bit-identical to decoding the block and
// subtracting, without materializing the decode. f32 round-trips exactly
// and writes zeros.
void encode_values(Writer& writer, const std::vector<float>& values,
                   Codec codec, const float* base = nullptr,
                   std::size_t base_size = 0, std::size_t topk = 0,
                   float* residual = nullptr);

// Reads one codec block, dispatching on its tag. delta16/topk16 blocks
// require the same reference the encoder used (CHECK-fails otherwise).
// Corrupt tags, counts and index lists fail cleanly via CHECK before
// allocating.
std::vector<float> decode_values(Reader& reader, const float* base = nullptr,
                                 std::size_t base_size = 0);
// The same decode into `values`, resized to the block's length. Its
// capacity is reused, so a caller decoding block after block (the auto
// chooser's exact checks) allocates the model-sized output once.
void decode_values_into(Reader& reader, std::vector<float>& values,
                        const float* base = nullptr,
                        std::size_t base_size = 0);

}  // namespace calibre::comm
