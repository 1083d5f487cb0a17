// Client-side update encoding: error feedback for sparsifying codecs and
// the per-update adaptive codec chooser behind --wire-codec auto.
//
// Error feedback (EF-SGD style): when topk16 drops coordinates, the dropped
// mass is not lost. The encoder keeps, per client, the residual
//   r' = carried - decode(encode(carried)),   carried = update + r,
// and adds it into that client's next encoded update before selection, so
// compression error accumulates into the model over rounds instead of being
// discarded. The residual is client state, and it lives where client state
// lives: an algos::ClientStore keyed by client id — never in the runner,
// whose per-round containers die with the round while a residual must
// survive arbitrary re-selection gaps (the residual-in-store lint rule
// enforces this placement). Residuals apply only to the lossy sparsifying
// configs (kTopK16, kAuto); f32/f16/delta16 pass through untouched, keeping
// those paths bitwise identical to pre-EF builds.
//
// The residual is one buffer per client, reused in place: an encode takes
// it out of the store, adds the update into it (carried), overwrites it
// with carried - decode(bytes), and puts it back. Under topk16 the codec
// writes that residual while writing the bytes, so no decode is
// materialized: at steady state an update allocates only its wire bytes
// and the codec's k-sized index and half arrays, nothing model-sized.
//
// The chooser (wire_codec = kAuto) picks, per update, the cheapest codec
// whose exact relative-L2 reconstruction error fits codec_error_budget.
// Candidates are tried in ascending encoded size (topk16, int8a, delta16,
// f16, f32); a deterministic stride subsample prunes hopeless candidates
// cheaply, and a candidate that passes is checked by decoding its payload,
// so the budget is a hard guarantee (f32, error zero, is the last resort).
// The payload checked is the payload sent, and the residual is carried
// minus the decode the check made. Every exact check of one encode decodes
// into the same buffer, so the checks allocate one model-sized decode
// between them, not one per candidate. Every input to the choice is a pure
// function of the update, the broadcast base, and the config — no clocks,
// no thread state — so choices are bit-identical across thread counts.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "algos/client_store.h"
#include "flapi/algorithm.h"
#include "flapi/config.h"

namespace calibre::fl {

// The codec broadcasts actually use under a config codec. Update-direction
// codecs have no reference on the broadcast side: kAuto resolves to kF16
// (kAuto must never reach an encoder), kDelta16/kTopK16 pass through and
// degrade to f16 inside encode_values. Everything else broadcasts as-is.
comm::Codec resolve_broadcast_codec(comm::Codec codec);

class UpdateEncoder {
 public:
  explicit UpdateEncoder(const FlConfig& config) : config_(config) {}

  // Serializes one client's update for the wire under config.wire_codec.
  // `base` is the broadcast reference as the client decoded it (null only
  // under kF32). For kTopK16/kAuto the client's carried residual is added
  // in first, the concrete codec is fixed (configured k) or chosen (error
  // budget), and the new residual is stored back for this client's next
  // round. `chosen` (optional) receives the concrete codec tag written.
  //
  // Thread-safe for any client ids. Distinct ids never interact. The
  // runner never overlaps two encodes of one id: a sync round waits for
  // every reply of its cohort before the next samples, and async keeps at
  // most one dispatch per client in flight. A caller that does encode one
  // id concurrently still gets a safe result: the two encodes never share
  // the buffer — the one that finds it taken carries no residual — so both
  // payloads are valid encodings of what each carried, and the store ends
  // holding a correctly sized residual: the one stored last, which replaces
  // the other's and loses the other encode's dropped mass.
  std::vector<std::uint8_t> encode(const ClientUpdate& update,
                                   const nn::ModelState* base, int client_id,
                                   comm::Codec* chosen = nullptr);

  // k = clamp(round(topk_rate * count), 1, count); 0 for an empty model.
  std::size_t topk_for(std::size_t count) const;

  // Exact relative L2 error ||decoded - values|| / ||values|| (0 for a zero
  // values vector with zero error). Shared by the chooser and the tests.
  static double relative_error(const std::vector<float>& values,
                               const std::vector<float>& decoded);

  // Test hooks into the error-feedback state.
  bool has_residual(int client_id) const { return carry_.contains(client_id); }
  double residual_norm(int client_id) const;
  std::optional<std::vector<float>> residual(int client_id) const {
    return carry_.get(client_id);
  }

 private:
  // Serializes `carried` under the cheapest candidate codec whose exact
  // error fits the budget, and overwrites its values with the residual
  // carried - decode(bytes); under the f32 fallback the values are left
  // as they are. `base_values` is `base`'s values when they match the
  // update's size, else null.
  std::vector<std::uint8_t> choose(ClientUpdate& carried,
                                   const nn::ModelState* base,
                                   const float* base_values,
                                   std::size_t topk) const;

  const FlConfig config_;
  // Per-client error-feedback residual. An empty vector means "exactly
  // zero" (stored after a lossless f32 choice); a vector whose size no
  // longer matches the model is stale and ignored.
  algos::ClientStore<std::vector<float>> carry_;
};

}  // namespace calibre::fl
