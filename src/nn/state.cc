#include "nn/state.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "comm/serde.h"
#include "common/check.h"
#include "tensor/pool.h"

namespace calibre::nn {
namespace {

constexpr std::uint32_t kMagic = 0xCA11B4E5;       // legacy/default f32 layout
constexpr std::uint32_t kCodecMagic = 0xCA11C0DE;  // codec-block layout

}  // namespace

ModelState& ModelState::operator=(ModelState&& other) noexcept {
  if (this != &other) {
    tensor::pool::give(std::move(values_));
    values_ = std::move(other.values_);
  }
  return *this;
}

ModelState::~ModelState() { tensor::pool::give(std::move(values_)); }

ModelState ModelState::from_parameters(const std::vector<ag::VarPtr>& params) {
  std::size_t total = 0;
  for (const ag::VarPtr& p : params) {
    total += static_cast<std::size_t>(p->value.size());
  }
  std::vector<float> values = tensor::pool::take<float>(total);
  for (const ag::VarPtr& p : params) {
    const auto& storage = p->value.storage();
    values.insert(values.end(), storage.begin(), storage.end());
  }
  return ModelState(std::move(values));
}

void ModelState::apply_to(const std::vector<ag::VarPtr>& params) const {
  std::size_t offset = 0;
  for (const ag::VarPtr& p : params) {
    const std::size_t count = static_cast<std::size_t>(p->value.size());
    CALIBRE_CHECK_LE(offset + count, values_.size(), "ModelState too small");
    std::copy(values_.begin() + static_cast<std::ptrdiff_t>(offset),
              values_.begin() + static_cast<std::ptrdiff_t>(offset + count),
              p->value.storage().begin());
    offset += count;
  }
  CALIBRE_CHECK_EQ(offset, values_.size(),
                   "ModelState / parameter-list size mismatch");
}

void ModelState::add_scaled(const ModelState& other, float alpha) {
  CALIBRE_CHECK(values_.size() == other.values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    values_[i] += alpha * other.values_[i];
  }
}

void ModelState::scale(float alpha) {
  for (float& value : values_) value *= alpha;
}

void ModelState::ema_merge(const ModelState& other, float m) {
  CALIBRE_CHECK(values_.size() == other.values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    values_[i] = m * values_[i] + (1.0f - m) * other.values_[i];
  }
}

float ModelState::l2_distance(const ModelState& other) const {
  CALIBRE_CHECK(values_.size() == other.values_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const double d = static_cast<double>(values_[i]) - other.values_[i];
    total += d * d;
  }
  return static_cast<float>(std::sqrt(total));
}

float ModelState::norm() const {
  double total = 0.0;
  for (float value : values_) total += static_cast<double>(value) * value;
  return static_cast<float>(std::sqrt(total));
}

std::vector<std::uint8_t> ModelState::to_bytes() const {
  // Byte-for-byte the historical layout (u32 magic | u64 count | f32s) —
  // checkpoints and default-codec runs must stay bitwise stable.
  comm::Writer writer(sizeof(kMagic) + sizeof(std::uint64_t) +
                      values_.size() * sizeof(float));
  writer.write_u32(kMagic);
  writer.write_f32_vector(values_);
  return writer.take();
}

std::vector<std::uint8_t> ModelState::to_bytes(comm::Codec codec,
                                               const ModelState* base) const {
  if (codec == comm::Codec::kF32) return to_bytes();
  comm::Writer writer(sizeof(kCodecMagic) +
                      comm::encoded_size(codec, values_.size()));
  writer.write_u32(kCodecMagic);
  comm::encode_values(writer, values_, codec,
                      base != nullptr ? base->values().data() : nullptr,
                      base != nullptr ? base->size() : 0);
  return writer.take();
}

ModelState ModelState::from_bytes(const std::vector<std::uint8_t>& bytes,
                                  const ModelState* base) {
  comm::Reader reader(bytes);
  const std::uint32_t magic = reader.read_u32();
  CALIBRE_CHECK_MSG(magic == kMagic || magic == kCodecMagic,
                    "ModelState::from_bytes: bad magic");
  const std::size_t base_size = base != nullptr ? base->size() : 0;
  // The count leads the f32 vector, and follows the tag of a codec block.
  std::vector<float> values = decode_storage(
      reader.peek_u64(magic == kMagic ? 0 : 1), reader.remaining(), base_size);
  if (magic == kMagic) {
    reader.read_f32_vector(values);
  } else {
    comm::decode_values_into(
        reader, values, base != nullptr ? base->values().data() : nullptr,
        base_size);
  }
  CALIBRE_CHECK_MSG(reader.exhausted(),
                    "ModelState::from_bytes: payload size mismatch");
  return ModelState(std::move(values));
}

std::vector<float> ModelState::decode_storage(std::uint64_t wire_count,
                                              std::size_t remaining_bytes,
                                              std::size_t base_size) {
  const std::uint64_t bound = std::max(remaining_bytes, base_size);
  return tensor::pool::take<float>(
      static_cast<std::size_t>(std::min(wire_count, bound)));
}

}  // namespace calibre::nn
