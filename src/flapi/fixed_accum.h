// Exact, order-independent accumulation for mergeable streaming folds.
//
// A StreamingAggregator that wants to support hierarchical merge() must
// produce the SAME bits whether its updates were folded flat on one thread
// or split across N shard aggregators and combined — for any N and any
// split. Floating-point addition is not associative, so a double
// accumulator cannot deliver that: (a + b) + c and a + (b + c) differ in
// the last ulp often enough to break final-state hash checks.
//
// The fix is to make the accumulator an integer. Each term is quantized
// ONCE to a fixed-point grid (resolution 2^-64) and summed in 128-bit
// integers; integer addition is exactly associative and commutative, so
// every fold schedule — flat, sharded, two-level edge trees — lands on
// identical bits by construction. Accuracy is not sacrificed: the
// quantization step keeps the full double mantissa of each term (the
// scaled value is rounded to nearest once, exactly like the final rounding
// of a double multiply), and the summation afterwards is EXACT, which is
// strictly tighter than the rounding a running double accumulator performs
// on every fold.
//
// Domain: |term| <= kMaxAbsTerm (2^42 ~ 4.4e12) and at most kMaxFolds
// (2^20) folded terms per accumulator, CHECK-enforced. Under those bounds
// the scaled sum stays below 2^126 and the int128 cannot overflow.
// Resolution 2^-64 ~ 5.4e-20 is invisible after the float cast at
// finish() for any aggregate whose magnitude exceeds ~1e-12 — far below
// every weight/parameter scale the algorithms produce.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace calibre::fl::fixedpoint {

// 128-bit signed accumulator (GCC/Clang builtin; the repo targets both).
using Acc = __int128;

inline constexpr double kScale = 0x1p64;      // grid: 1 ulp = 2^-64
inline constexpr double kInvScale = 0x1p-64;
inline constexpr double kMaxAbsTerm = 0x1p42; // |term| bound, CHECKed
inline constexpr int kMaxFolds = 1 << 20;     // folds-per-accumulator bound

// Quantizes one term to the grid: round-to-nearest-even of v * 2^64,
// computed in double (keeps v's full mantissa; the conversion to int128 is
// exact because the rounded value is integral). CHECK-fails on terms
// outside the overflow-safe domain instead of silently wrapping. The
// scalar definition of the grid: Accumulator::add_scaled below computes
// exactly this per element, without the int128 conversion call.
inline Acc quantize(double v) {
  const double scaled = v * kScale;
  CALIBRE_CHECK_MSG(scaled <= kMaxAbsTerm * kScale &&
                        scaled >= -kMaxAbsTerm * kScale,
                    "fixed-point fold term magnitude exceeds 2^42");
  return static_cast<Acc>(std::rint(scaled));
}

// Exact-to-double readback (one rounding, at the end).
inline double to_double(Acc a) { return static_cast<double>(a) * kInvScale; }

// A vector of 64.64 accumulators, one per model parameter, stored as two
// parallel u64 arrays: element j is the two's-complement int128
// hi[j]:lo[j]. Same 16 bytes per parameter as a vector<Acc>, but the
// split layout lets the SIMD kernels in fixed_accum.cc load eight low
// and eight high words with plain vector loads.
//
// Its arrays recycle through the calling thread's spares (tensor/pool.h):
// assign_zero takes them, clear(), move-assignment and the destructor give
// them back, so a window's fresh accumulator re-zeroes the last window's
// pages instead of faulting in new ones.
class Accumulator {
 public:
  Accumulator() = default;
  Accumulator(const Accumulator&) = delete;
  Accumulator& operator=(const Accumulator&) = delete;
  Accumulator(Accumulator&&) noexcept = default;
  Accumulator& operator=(Accumulator&& other) noexcept;
  ~Accumulator();

  std::size_t size() const { return lo_.size(); }
  bool empty() const { return lo_.empty(); }

  // Resizes to `count` zeroed elements.
  void assign_zero(std::size_t count);
  // Drops every element (a consumed merge partial).
  void clear();

  // acc[j] += quantize(w * double(x[j])) for every j < size(), bit for bit:
  // same product, same scaling, same round-to-nearest-even, same domain
  // CHECK (applied to each group of terms before it is added).
  void add_scaled(const float* x, double w);
  // acc[j] += other[j] (exact, wrapping int128 addition).
  void add(const Accumulator& other);
  // out[j] = float(to_double(acc[j]) / divisor), bit for bit.
  void read(double divisor, float* out) const;
  // out[j] = to_double(acc[j]) / divisor, bit for bit (the float overload
  // rounds this once more).
  void read(double divisor, double* out) const;

  Acc at(std::size_t j) const {
    return static_cast<Acc>(
        (static_cast<unsigned __int128>(hi_[j]) << 64) | lo_[j]);
  }

 private:
  std::vector<std::uint64_t> lo_;
  std::vector<std::uint64_t> hi_;
};

// The four kernels behind Accumulator, over its split lo/hi arrays.
struct Kernels {
  void (*add_scaled)(std::uint64_t* lo, std::uint64_t* hi, const float* x,
                     double w, std::size_t count);
  void (*add)(std::uint64_t* lo, std::uint64_t* hi, const std::uint64_t* rlo,
              const std::uint64_t* rhi, std::size_t count);
  void (*read_f32)(const std::uint64_t* lo, const std::uint64_t* hi,
                   double divisor, float* out, std::size_t count);
  void (*read_f64)(const std::uint64_t* lo, const std::uint64_t* hi,
                   double divisor, double* out, std::size_t count);
};

// Test-only. Accumulator runs the clone the load-time dispatch picks for
// the host, so on an AVX-512 host the tests would never see the AVX2 one.
// These are the same kernel bodies compiled for one fixed target each:
// x86-64-v3 (AVX2), and the translation unit's default target (the x86-64
// baseline unless CALIBRE_NATIVE is on). Accumulator never calls them.
enum class KernelTarget { kX86_64_V3, kBaseline };
// True when the host can run `target`'s kernels.
bool kernel_target_supported(KernelTarget target);
const Kernels& kernels_for_testing(KernelTarget target);

}  // namespace calibre::fl::fixedpoint
