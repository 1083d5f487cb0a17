#include "flapi/fixed_accum.h"

#include <cstring>
#include <utility>

#include "tensor/pool.h"

// The vector types below are TU-internal and every use is inlined into the
// target_clones dispatch functions, so the ABI warning about passing wide
// vectors without AVX-512 enabled is noise here (same idiom as
// comm/codec.cc).
#pragma GCC diagnostic ignored "-Wpsabi"

namespace calibre::fl::fixedpoint {
namespace {

// 8-lane groups: one ZMM per u64/f64 vector on AVX-512, two YMM on AVX2,
// four XMM on baseline SSE2.
typedef float vf32 __attribute__((vector_size(32), aligned(4), may_alias));
typedef double vf64 __attribute__((vector_size(64), aligned(8), may_alias));
typedef std::uint64_t vu64 __attribute__((vector_size(64), aligned(8),
                                          may_alias));
typedef std::int64_t vi64 __attribute__((vector_size(64), aligned(8),
                                         may_alias));

constexpr std::size_t kLanes = 8;  // elements per vector group

constexpr std::uint64_t kSignBit = 0x8000000000000000ull;
constexpr std::uint64_t kMantissaMask = (1ull << 52) - 1;
constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ull;  // bits of 2^52
constexpr std::int64_t kMaxBits = 0x4690000000000000ll;  // bits of 2^106

// ThreadSanitizer cannot coexist with the ifunc resolvers target_clones
// emits, so TSan builds fall back to the default-target body.
#if defined(__SANITIZE_THREAD__)
#define CALIBRE_FOLD_CLONES __attribute__((flatten))
#else
#define CALIBRE_FOLD_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                               "default"), flatten))
#endif

// Out of line and cold, so `flatten` keeps the message formatting out of
// the kernels' loop bodies.
__attribute__((noinline, cold)) void fail_term_domain() {
  CALIBRE_CHECK_MSG(false, "fixed-point fold term magnitude exceeds 2^42");
}

// The lane code below is compare-free: only add, subtract, bitwise logic
// and shifts, which AVX2 has for 64-bit lanes and GCC splits cleanly into
// YMM halves. GCC lowers a 512-bit lane compare or select on AVX2 lane by
// lane through scalar code, so every "a < b" is instead read off the sign
// bit of a wrapping difference, and every select is a mask AND.

// 1 where v is nonzero, for v < 2^63.
inline vu64 nonzero(vu64 v) { return (vu64{} - v) >> 63; }

// The carry out of the wrapping 64-bit add sum = a + b.
inline vu64 carry_out(vu64 a, vu64 b, vu64 sum) {
  return ((a & b) | ((a | b) & ~sum)) >> 63;
}

// Two's-complement negation of hi:lo on lanes where neg is all-ones
// (identity where it is zero): ~x + 1, with the +1 carrying into hi
// exactly when the flipped low word is all-ones.
inline void negate_where(vu64 neg, vu64* lo, vu64* hi) {
  const vu64 flipped = *lo ^ neg;
  *lo = flipped - neg;
  *hi = (*hi ^ neg) + carry_out(flipped, neg & 1, *lo);
}

// Exact u64 -> double for values below 2^52: OR the value into the
// mantissa of 2^52, then subtract 2^52.
inline vf64 small_u64_to_f64(vu64 v) {
  return (vf64)(v | kTwo52Bits) - 0x1p52;
}

// rint(scaled) as a two's-complement int128 lo/hi pair, for |scaled| <=
// 2^106 (out-of-domain lanes yield garbage the caller never stores).
inline void quantize_lanes(vf64 scaled, vu64* lo, vu64* hi) {
  const vu64 bits = (vu64)scaled;
  const vu64 neg = vu64{} - (bits >> 63);  // all-ones on negative lanes
  const vu64 mag_bits = bits & ~kSignBit;
  // Round to nearest even on the magnitude (rint is odd-symmetric). Below
  // 2^52, adding 2^52 leaves the units bit as the last mantissa bit, so the
  // add's own rounding is rint and subtracting 2^52 back is exact. At and
  // above 2^52 every double is already an integer, and the magic is 0.
  const vu64 below_2_52 = vu64{} - ((mag_bits - kTwo52Bits) >> 63);
  const vf64 magic = (vf64)(below_2_52 & kTwo52Bits);
  const vu64 rbits = (vu64)(((vf64)mag_bits + magic) - magic);
  // rounded = mant * 2^(exp - 1075) with the implicit bit restored (zero
  // has exp 0 and mant 0). An integral value below 2^53 shifts right
  // exactly; a larger one shifts left by up to 54 bits, into the high word.
  const vu64 exp = rbits >> 52;
  const vu64 mant = (rbits & kMantissaMask) | (nonzero(exp) << 52);
  const vu64 shift = exp - 1075;
  const vu64 shift_neg = vu64{} - (shift >> 63);
  const vu64 left = shift & ~shift_neg & 63;
  const vu64 right = (vu64{} - shift) & shift_neg & 63;
  *lo = (mant >> right) << left;
  *hi = (mant >> 1) >> (63 - left);  // mant >> (64 - left)
  negate_where(neg, lo, hi);
}

// acc[0..8) += rint(w * x * 2^64) for one group, after the domain CHECK.
inline void fold_group(std::uint64_t* lo, std::uint64_t* hi, const float* x,
                       vf64 w) {
  const vf64 scaled =
      __builtin_convertvector(*(const vf32*)x, vf64) * w * 0x1p64;
  // |scaled| <= 2^106 compared on the bit patterns, where NaN and inf sort
  // above every finite magnitude, so they fail it like quantize()'s check:
  // a lane is in the domain iff its difference below is negative.
  const vi64 margin = (vi64)((vu64)scaled & ~kSignBit) - (kMaxBits + 1);
  std::int64_t all_in = -1;
  for (std::size_t k = 0; k < kLanes; ++k) all_in &= margin[k];
  if (__builtin_expect(all_in >= 0, 0)) fail_term_domain();
  vu64 add_lo;
  vu64 add_hi;
  quantize_lanes(scaled, &add_lo, &add_hi);
  const vu64 acc_lo = *(const vu64*)lo;
  const vu64 sum = acc_lo + add_lo;
  *(vu64*)hi = *(const vu64*)hi + add_hi + carry_out(acc_lo, add_lo, sum);
  *(vu64*)lo = sum;
}

// to_double(acc) for one group: the exact int128 -> double conversion with
// one round-to-nearest-even, then the 2^-64 grid scale. See DESIGN.md §8.4
// for the exactness argument.
inline vf64 to_double_lanes(vu64 lo, vu64 hi) {
  const vu64 neg = vu64{} - (hi >> 63);
  // |acc| as an unsigned ahi:alo pair.
  vu64 alo = lo;
  vu64 ahi = hi;
  negate_where(neg, &alo, &ahi);
  // k = bit length of ahi (at most 62 inside the accumulator's domain),
  // read off the exponent of an exact conversion of ahi or, when ahi is
  // 2^52 or more, of ahi >> 12.
  const vu64 top_shift = nonzero(ahi >> 52) * 12;
  const vu64 top_exp = (vu64)small_u64_to_f64(ahi >> top_shift) >> 52;
  const vu64 k = (top_exp - 1022 + top_shift) & (vu64{} - nonzero(ahi));
  // The 64-bit window |acc| >> k, with every bit shifted out OR-ed into its
  // last bit (round to odd). The window keeps 11 bits below the double's
  // 53, so rounding it to nearest even rounds |acc| to nearest even.
  const vu64 dropped = alo & (((vu64{} + 1) << k) - 1);
  const vu64 window =
      (alo >> k) | ((ahi << 1) << (63 - k)) | nonzero(dropped);
  // Both 32-bit halves convert exactly; the add is the one rounding.
  const vf64 rounded = small_u64_to_f64(window >> 32) * 0x1p32 +
                       small_u64_to_f64(window & 0xFFFFFFFFull);
  // Exact power-of-two scale 2^(k - 64): undoes the window shift and
  // applies the grid's 2^-64.
  const vf64 scale = (vf64)((k + (1023 - 64)) << 52);
  return (vf64)((vu64)(rounded * scale) | (neg & kSignBit));
}

// The kernel bodies. Each entry point below is a shell whose `flatten`
// inlines one of them, so every target gets its own copy.

inline void add_scaled_body(std::uint64_t* lo, std::uint64_t* hi,
                            const float* x, double w, std::size_t count) {
  const vf64 w_v = vf64{} + w;
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    fold_group(lo + i, hi + i, x + i, w_v);
  }
  if (i == count) return;
  // Tail: one zero-padded group (rint(0) adds nothing to the padding).
  const std::size_t rest = count - i;
  float x_pad[kLanes] = {};
  std::uint64_t lo_pad[kLanes] = {};
  std::uint64_t hi_pad[kLanes] = {};
  std::memcpy(x_pad, x + i, rest * sizeof(float));
  std::memcpy(lo_pad, lo + i, rest * sizeof(std::uint64_t));
  std::memcpy(hi_pad, hi + i, rest * sizeof(std::uint64_t));
  fold_group(lo_pad, hi_pad, x_pad, w_v);
  std::memcpy(lo + i, lo_pad, rest * sizeof(std::uint64_t));
  std::memcpy(hi + i, hi_pad, rest * sizeof(std::uint64_t));
}

inline void add_body(std::uint64_t* lo, std::uint64_t* hi,
                     const std::uint64_t* rlo, const std::uint64_t* rhi,
                     std::size_t count) {
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    const vu64 acc_lo = *(const vu64*)(lo + i);
    const vu64 add_lo = *(const vu64*)(rlo + i);
    const vu64 sum = acc_lo + add_lo;
    *(vu64*)(hi + i) = *(const vu64*)(hi + i) + *(const vu64*)(rhi + i) +
                       carry_out(acc_lo, add_lo, sum);
    *(vu64*)(lo + i) = sum;
  }
  for (; i < count; ++i) {
    const std::uint64_t sum = lo[i] + rlo[i];
    hi[i] += rhi[i] + (sum < rlo[i] ? 1 : 0);
    lo[i] = sum;
  }
}

// One zero-padded group for the readback tails.
inline vf64 to_double_tail(const std::uint64_t* lo, const std::uint64_t* hi,
                           std::size_t rest) {
  std::uint64_t lo_pad[kLanes] = {};
  std::uint64_t hi_pad[kLanes] = {};
  std::memcpy(lo_pad, lo, rest * sizeof(std::uint64_t));
  std::memcpy(hi_pad, hi, rest * sizeof(std::uint64_t));
  return to_double_lanes(*(const vu64*)lo_pad, *(const vu64*)hi_pad);
}

inline void read_f32_body(const std::uint64_t* lo, const std::uint64_t* hi,
                          double divisor, float* out, std::size_t count) {
  const vf64 div_v = vf64{} + divisor;
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    const vf64 q =
        to_double_lanes(*(const vu64*)(lo + i), *(const vu64*)(hi + i)) /
        div_v;
    *(vf32*)(out + i) = __builtin_convertvector(q, vf32);
  }
  if (i == count) return;
  const vf32 q = __builtin_convertvector(
      to_double_tail(lo + i, hi + i, count - i) / div_v, vf32);
  std::memcpy(out + i, &q, (count - i) * sizeof(float));
}

inline void read_f64_body(const std::uint64_t* lo, const std::uint64_t* hi,
                          double divisor, double* out, std::size_t count) {
  const vf64 div_v = vf64{} + divisor;
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    *(vf64*)(out + i) =
        to_double_lanes(*(const vu64*)(lo + i), *(const vu64*)(hi + i)) /
        div_v;
  }
  if (i == count) return;
  const vf64 q = to_double_tail(lo + i, hi + i, count - i) / div_v;
  std::memcpy(out + i, &q, (count - i) * sizeof(double));
}

// The four entry points in namespace NS, each compiled with ATTRS.
#define CALIBRE_FOLD_ENTRY_POINTS(ATTRS, NS)                                  \
  namespace NS {                                                              \
  ATTRS void add_scaled(std::uint64_t* lo, std::uint64_t* hi, const float* x, \
                        double w, std::size_t count) {                        \
    add_scaled_body(lo, hi, x, w, count);                                     \
  }                                                                           \
  ATTRS void add(std::uint64_t* lo, std::uint64_t* hi,                        \
                 const std::uint64_t* rlo, const std::uint64_t* rhi,          \
                 std::size_t count) {                                         \
    add_body(lo, hi, rlo, rhi, count);                                        \
  }                                                                           \
  ATTRS void read_f32(const std::uint64_t* lo, const std::uint64_t* hi,       \
                      double divisor, float* out, std::size_t count) {        \
    read_f32_body(lo, hi, divisor, out, count);                               \
  }                                                                           \
  ATTRS void read_f64(const std::uint64_t* lo, const std::uint64_t* hi,       \
                      double divisor, double* out, std::size_t count) {       \
    read_f64_body(lo, hi, divisor, out, count);                               \
  }                                                                           \
  }  // namespace NS

// What Accumulator calls: one clone per ISA level, picked at load time.
CALIBRE_FOLD_ENTRY_POINTS(CALIBRE_FOLD_CLONES, dispatched)
// Test-only: the same bodies for one fixed target each (see the header).
CALIBRE_FOLD_ENTRY_POINTS(__attribute__((target("arch=x86-64-v3"), flatten)),
                          x86_64_v3)
CALIBRE_FOLD_ENTRY_POINTS(__attribute__((flatten)), baseline)

#undef CALIBRE_FOLD_ENTRY_POINTS

}  // namespace

bool kernel_target_supported(KernelTarget target) {
  switch (target) {
    case KernelTarget::kX86_64_V3:
      return __builtin_cpu_supports("x86-64-v3") != 0;
    case KernelTarget::kBaseline:
      return true;
  }
  return false;
}

const Kernels& kernels_for_testing(KernelTarget target) {
  static constexpr Kernels kV3 = {x86_64_v3::add_scaled, x86_64_v3::add,
                                  x86_64_v3::read_f32, x86_64_v3::read_f64};
  static constexpr Kernels kBaseline = {baseline::add_scaled, baseline::add,
                                        baseline::read_f32,
                                        baseline::read_f64};
  return target == KernelTarget::kX86_64_V3 ? kV3 : kBaseline;
}

Accumulator& Accumulator::operator=(Accumulator&& other) noexcept {
  if (this != &other) {
    clear();
    lo_ = std::move(other.lo_);
    hi_ = std::move(other.hi_);
  }
  return *this;
}

Accumulator::~Accumulator() { clear(); }

void Accumulator::assign_zero(std::size_t count) {
  clear();
  lo_ = tensor::pool::take<std::uint64_t>(count);
  hi_ = tensor::pool::take<std::uint64_t>(count);
  lo_.assign(count, 0);
  hi_.assign(count, 0);
}

void Accumulator::clear() {
  tensor::pool::give(std::move(lo_));
  tensor::pool::give(std::move(hi_));
  lo_.clear();
  hi_.clear();
}

void Accumulator::add_scaled(const float* x, double w) {
  dispatched::add_scaled(lo_.data(), hi_.data(), x, w, size());
}

void Accumulator::add(const Accumulator& other) {
  CALIBRE_CHECK_EQ(size(), other.size(), "accumulator sizes differ");
  dispatched::add(lo_.data(), hi_.data(), other.lo_.data(), other.hi_.data(),
                  size());
}

void Accumulator::read(double divisor, float* out) const {
  dispatched::read_f32(lo_.data(), hi_.data(), divisor, out, size());
}

void Accumulator::read(double divisor, double* out) const {
  dispatched::read_f64(lo_.data(), hi_.data(), divisor, out, size());
}

}  // namespace calibre::fl::fixedpoint
