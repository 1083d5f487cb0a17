#include "fl/update_codec.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "comm/serde.h"
#include "common/check.h"

namespace calibre::fl {
namespace {

// Deterministic stride subsample bound for the chooser's error estimates.
constexpr std::size_t kSampleCap = 512;
// Candidates whose estimated error exceeds budget * slack are skipped
// without an exact encode. The final choice is always verified exactly, so
// an estimator miss can only cost bytes (a cheaper viable codec skipped),
// never the budget.
constexpr double kEstimateSlack = 1.5;

std::size_t sample_stride(std::size_t count) {
  return std::max<std::size_t>(1, count / kSampleCap);
}

// Estimated relative L2 reconstruction error of `codec` over a stride
// subsample. Pure function of (values, base, topk) — deterministic.
double estimated_error(comm::Codec codec, const std::vector<float>& values,
                       const float* base, std::size_t topk) {
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  const std::size_t stride = sample_stride(n);
  double err = 0.0;
  double nrm = 0.0;
  switch (codec) {
    case comm::Codec::kF32:
      return 0.0;
    case comm::Codec::kF16:
      for (std::size_t i = 0; i < n; i += stride) {
        const float v = values[i];
        const double d =
            static_cast<double>(comm::f16_to_f32(comm::f32_to_f16(v))) - v;
        err += d * d;
        nrm += static_cast<double>(v) * v;
      }
      break;
    case comm::Codec::kDelta16:
      for (std::size_t i = 0; i < n; i += stride) {
        const float v = values[i];
        const float delta = v - base[i];
        const double d =
            static_cast<double>(base[i]) +
            static_cast<double>(comm::f16_to_f32(comm::f32_to_f16(delta))) - v;
        err += d * d;
        nrm += static_cast<double>(v) * v;
      }
      break;
    case comm::Codec::kInt8A: {
      // Approximate the per-block affine params with one (zero, scale) pair
      // fit over the whole sample; per-block fits are at least this good.
      float lo = 0.0f;
      float hi = 0.0f;
      bool seen = false;
      for (std::size_t i = 0; i < n; i += stride) {
        const float v = values[i];
        if (v != v) continue;
        lo = seen && lo < v ? lo : v;
        hi = seen && hi > v ? hi : v;
        seen = true;
      }
      const float scale =
          seen ? static_cast<float>((static_cast<double>(hi) - lo) / 255.0)
               : 0.0f;
      const float inv =
          scale > 0.0f ? static_cast<float>(1.0 / static_cast<double>(scale))
                       : 0.0f;
      for (std::size_t i = 0; i < n; i += stride) {
        const float v = values[i];
        const double d =
            static_cast<double>(comm::int8a_dequantize(
                comm::int8a_quantize(v, lo, inv), lo, scale)) - v;
        err += d * d;
        nrm += static_cast<double>(v) * v;
      }
      break;
    }
    case comm::Codec::kTopK16: {
      // Dropped coordinates decode back to the base, so their error is the
      // full delta; kept coordinates contribute only f16 rounding (ignored
      // here — the exact verify pass covers it). The sample keeps the same
      // fraction topk/n its full-size selection would.
      std::vector<double> mags;
      mags.reserve(n / stride + 1);
      for (std::size_t i = 0; i < n; i += stride) {
        const float v = values[i];
        mags.push_back(std::fabs(static_cast<double>(v) - base[i]));
        nrm += static_cast<double>(v) * v;
      }
      const std::size_t kept = static_cast<std::size_t>(
          static_cast<double>(topk) / static_cast<double>(n) *
          static_cast<double>(mags.size()));
      std::vector<double> sorted = mags;
      std::nth_element(sorted.begin(),
                       sorted.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(kept, sorted.size())),
                       sorted.end(), std::greater<double>());
      const double threshold =
          kept < sorted.size() ? sorted[kept] : -1.0;  // -1: keep everything
      // Dropped mass: every sampled magnitude at or below the threshold.
      for (const double m : mags) {
        if (m <= threshold) err += m * m;
      }
      break;
    }
    case comm::Codec::kAuto:
      CALIBRE_CHECK_MSG(false, "estimated_error on config-only codec auto");
  }
  if (nrm == 0.0) return err == 0.0 ? 0.0 : 1.0;
  return std::sqrt(err / nrm);
}

}  // namespace

comm::Codec resolve_broadcast_codec(comm::Codec codec) {
  return codec == comm::Codec::kAuto ? comm::Codec::kF16 : codec;
}

std::size_t UpdateEncoder::topk_for(std::size_t count) const {
  if (count == 0) return 0;
  const auto k = static_cast<std::size_t>(
      static_cast<double>(config_.topk_rate) * static_cast<double>(count) +
      0.5);
  return std::clamp<std::size_t>(k, 1, count);
}

double UpdateEncoder::relative_error(const std::vector<float>& values,
                                     const std::vector<float>& decoded) {
  CALIBRE_CHECK_EQ(values.size(), decoded.size(),
                   "relative_error dimension mismatch");
  double err = 0.0;
  double nrm = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double d =
        static_cast<double>(decoded[i]) - static_cast<double>(values[i]);
    err += d * d;
    nrm += static_cast<double>(values[i]) * values[i];
  }
  if (nrm == 0.0) return err == 0.0 ? 0.0 : 1.0;
  return std::sqrt(err / nrm);
}

double UpdateEncoder::residual_norm(int client_id) const {
  double total = 0.0;
  carry_.visit(client_id, [&](const std::vector<float>& residual) {
    for (const float r : residual) total += static_cast<double>(r) * r;
  });
  return std::sqrt(total);
}

std::vector<std::uint8_t> UpdateEncoder::choose(
    ClientUpdate& carried, const nn::ModelState* base,
    const float* base_values, std::size_t topk) const {
  std::vector<float>& values = carried.state.values();
  const std::size_t n = values.size();
  const double budget = static_cast<double>(config_.codec_error_budget);
  // Candidates in ascending encoded size; delta-referenced codecs only when
  // a usable base exists (they would silently degrade to f16 otherwise).
  std::vector<std::pair<std::size_t, comm::Codec>> candidates;
  if (base_values != nullptr) {
    candidates.emplace_back(comm::encoded_size(comm::Codec::kTopK16, n, topk),
                            comm::Codec::kTopK16);
    candidates.emplace_back(comm::encoded_size(comm::Codec::kDelta16, n),
                            comm::Codec::kDelta16);
  }
  candidates.emplace_back(comm::encoded_size(comm::Codec::kInt8A, n),
                          comm::Codec::kInt8A);
  candidates.emplace_back(comm::encoded_size(comm::Codec::kF16, n),
                          comm::Codec::kF16);
  // stable_sort keeps delta16 ahead of the equally-sized f16 (it is never
  // less accurate against a valid base).
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<float> decoded;  // one decode buffer for every exact check
  for (const auto& [size, codec] : candidates) {
    if (size >= comm::encoded_size(comm::Codec::kF32, n)) break;  // no win
    if (estimated_error(codec, values, base_values, topk) >
        budget * kEstimateSlack) {
      continue;
    }
    // The exact check decodes the candidate's own payload; the winner's
    // decode then gives the residual carried - decode(bytes), bit-identical
    // to the codec's in-place residual (comm/codec.h).
    std::vector<std::uint8_t> bytes =
        serialize_update(carried, codec, base, topk);
    comm::Reader reader(bytes);
    (void)reader.read_u32();  // the codec magic
    comm::decode_values_into(reader, decoded, base_values,
                             base_values != nullptr ? n : 0);
    if (relative_error(values, decoded) <= budget) {
      for (std::size_t i = 0; i < n; ++i) values[i] = values[i] - decoded[i];
      return bytes;
    }
  }
  return serialize_update(carried, comm::Codec::kF32, base);  // error zero
}

std::vector<std::uint8_t> UpdateEncoder::encode(const ClientUpdate& update,
                                                const nn::ModelState* base,
                                                int client_id,
                                                comm::Codec* chosen) {
  const comm::Codec configured = config_.wire_codec;
  if (configured != comm::Codec::kTopK16 &&
      configured != comm::Codec::kAuto) {
    // Pass-through codecs: no error feedback, bitwise identical to the
    // pre-EF encoder.
    std::vector<std::uint8_t> bytes =
        serialize_update(update, configured, base);
    if (chosen != nullptr) *chosen = peek_update_codec(bytes);
    return bytes;
  }

  // Take this client's residual buffer out of the store. While it is out
  // this call owns it alone; it becomes the carried update, then — written
  // over in place — the next residual, and goes back in.
  ClientUpdate carried;
  std::vector<float>& values = carried.state.values();
  carry_.mutate(client_id,
                [&](std::vector<float>& stored) { values.swap(stored); });
  const std::vector<float>& raw = update.state.values();
  const std::size_t n = raw.size();
  if (values.size() == n) {
    for (std::size_t i = 0; i < n; ++i) values[i] = raw[i] + values[i];
  } else {
    // Absent, stale, or the exactly-zero sentinel: nothing to carry. A copy
    // rather than raw + 0.0f, so a -0.0 coordinate keeps its sign.
    values.assign(raw.begin(), raw.end());
  }
  carried.weight = update.weight;
  carried.scalars = update.scalars;

  const float* base_values =
      base != nullptr && base->size() == n ? base->values().data() : nullptr;
  const std::size_t topk = topk_for(n);
  // Every codec but f32 leaves `values` holding carried - decode(bytes). A
  // lossless f32 round trip leaves an exactly-zero residual, stored as the
  // empty sentinel rather than an O(model) zero vector.
  std::vector<std::uint8_t> bytes =
      configured == comm::Codec::kAuto
          ? choose(carried, base, base_values, topk)
          : serialize_update(carried, comm::Codec::kTopK16, base, topk,
                             values.data());
  const comm::Codec codec = peek_update_codec(bytes);
  if (chosen != nullptr) *chosen = codec;
  carry_.put(client_id, codec == comm::Codec::kF32 ? std::vector<float>{}
                                                   : std::move(values));
  return bytes;
}

}  // namespace calibre::fl
