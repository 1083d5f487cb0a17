// Serializable flat parameter state.
//
// ModelState is the unit shipped between FL server and clients: a flat float
// vector holding every parameter of a module (or a subset — each algorithm
// decides which parameters it federates). It supports the vector algebra
// aggregation needs plus a compact binary wire format used by the comm layer.
//
// Its storage recycles: a ModelState gives its buffer to the calling
// thread's spares (tensor/pool.h) when it dies or is assigned over, and
// from_parameters / from_bytes take theirs from there, so a thread that
// builds state after state of one model re-touches the same pages instead
// of faulting in fresh ones. values() stays a plain std::vector<float>.
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "comm/codec.h"

namespace calibre::nn {

class ModelState {
 public:
  ModelState() = default;
  explicit ModelState(std::vector<float> values) : values_(std::move(values)) {}
  ModelState(const ModelState&) = default;
  ModelState(ModelState&&) noexcept = default;
  ModelState& operator=(const ModelState&) = default;
  // Gives this state's storage to the spares before adopting `other`'s.
  ModelState& operator=(ModelState&& other) noexcept;
  ~ModelState();

  // Snapshots the current values of `params` into a flat state.
  static ModelState from_parameters(const std::vector<ag::VarPtr>& params);

  // Writes this state back into `params` (total sizes must match).
  void apply_to(const std::vector<ag::VarPtr>& params) const;

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<float>& values() const { return values_; }
  std::vector<float>& values() { return values_; }

  // --- algebra used by aggregation ----------------------------------------
  // this += alpha * other.
  void add_scaled(const ModelState& other, float alpha);
  // this *= alpha.
  void scale(float alpha);
  // this = m * this + (1 - m) * other (EMA merge; FedEMA).
  void ema_merge(const ModelState& other, float m);
  // Euclidean distance to another state (model divergence).
  float l2_distance(const ModelState& other) const;
  float norm() const;

  // --- wire format -----------------------------------------------------------
  // Default (f32) layout: u32 magic | u64 count | count * f32 (little-endian).
  // This is the checkpoint format and the bitwise-stable default wire format.
  std::vector<std::uint8_t> to_bytes() const;
  // Codec-selected layout. kF32 produces exactly the legacy bytes above;
  // kF16/kDelta16 produce u32 codec-magic | codec block (comm/codec.h).
  // `base` is the delta16 reference (ignored by the other codecs).
  std::vector<std::uint8_t> to_bytes(comm::Codec codec,
                                     const ModelState* base = nullptr) const;
  // Accepts both layouts, dispatching on the magic. A delta16 payload needs
  // the same `base` the encoder used; corrupt input CHECK-fails cleanly with
  // counts validated before any allocation.
  static ModelState from_bytes(const std::vector<std::uint8_t>& bytes,
                               const ModelState* base = nullptr);

  // Spare storage to decode a wire payload into: `wire_count` is the count
  // the payload declares, not yet validated, so it is capped at the larger
  // of the payload's remaining bytes and the trusted `base_size` before it
  // sizes anything. The decode that follows validates it.
  static std::vector<float> decode_storage(std::uint64_t wire_count,
                                           std::size_t remaining_bytes,
                                           std::size_t base_size);

 private:
  std::vector<float> values_;
};

}  // namespace calibre::nn
