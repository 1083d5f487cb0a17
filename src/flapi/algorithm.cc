#include "flapi/algorithm.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "comm/codec.h"
#include "comm/serde.h"
#include "common/check.h"
#include "tensor/pool.h"

namespace calibre::fl {

namespace {

constexpr std::uint32_t kUpdateCodecMagic = 0xCA11C0DF;

std::size_t scalar_map_wire_size(const std::map<std::string, float>& scalars) {
  std::size_t size = sizeof(std::uint32_t);
  for (const auto& [key, value] : scalars) {
    size += sizeof(std::uint32_t) + key.size() + sizeof(value);
  }
  return size;
}

}  // namespace

std::vector<std::uint8_t> serialize_update(const ClientUpdate& update,
                                           comm::Codec codec,
                                           const nn::ModelState* base,
                                           std::size_t topk,
                                           float* residual) {
  const std::size_t tail =
      sizeof(update.weight) + scalar_map_wire_size(update.scalars);
  if (codec == comm::Codec::kF32) {
    // Legacy layout, bitwise identical to pre-codec builds.
    comm::Writer writer(sizeof(std::uint64_t) +
                        update.state.size() * sizeof(float) + tail);
    writer.write_f32_vector(update.state.values());
    writer.write_f32(update.weight);
    writer.write_scalar_map(update.scalars);
    if (residual != nullptr) {
      std::fill_n(residual, update.state.size(), 0.0f);  // exact round trip
    }
    return writer.take();
  }
  comm::Writer writer(
      sizeof(kUpdateCodecMagic) +
      comm::encoded_size(codec, update.state.size(), topk) + tail);
  writer.write_u32(kUpdateCodecMagic);
  comm::encode_values(writer, update.state.values(), codec,
                      base != nullptr ? base->values().data() : nullptr,
                      base != nullptr ? base->size() : 0, topk, residual);
  writer.write_f32(update.weight);
  writer.write_scalar_map(update.scalars);
  return writer.take();
}

comm::Codec peek_update_codec(const std::vector<std::uint8_t>& bytes) {
  std::uint32_t head = 0;
  if (bytes.size() >= sizeof(head)) {
    std::memcpy(&head, bytes.data(), sizeof(head));
  }
  if (head != kUpdateCodecMagic) return comm::Codec::kF32;  // legacy layout
  CALIBRE_CHECK_LT(sizeof(head), bytes.size(), "update ends at codec magic");
  return static_cast<comm::Codec>(bytes[sizeof(head)]);
}

std::uint64_t next_sweep_id() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::size_t update_wire_size_f32(const ClientUpdate& update) {
  return sizeof(std::uint64_t) + update.state.size() * sizeof(float) +
         sizeof(update.weight) + scalar_map_wire_size(update.scalars);
}

ClientUpdate deserialize_update(const std::vector<std::uint8_t>& bytes,
                                const nn::ModelState* base) {
  comm::Reader reader(bytes);
  ClientUpdate update;
  // Peek the layout: codec payloads lead with the magic, legacy payloads
  // with the low u32 of the f32 vector's element count (see algorithm.h on
  // why these cannot collide for any payload the count validation admits).
  std::uint32_t head = 0;
  if (bytes.size() >= sizeof(head)) {
    std::memcpy(&head, bytes.data(), sizeof(head));
  }
  const bool codec = head == kUpdateCodecMagic;
  if (codec) reader.read_u32();
  const std::size_t base_size = base != nullptr ? base->size() : 0;
  // The count leads the f32 vector, and follows the tag of a codec block.
  std::vector<float> values = nn::ModelState::decode_storage(
      reader.peek_u64(codec ? 1 : 0), reader.remaining(), base_size);
  if (codec) {
    comm::decode_values_into(
        reader, values, base != nullptr ? base->values().data() : nullptr,
        base_size);
  } else {
    reader.read_f32_vector(values);
  }
  update.state = nn::ModelState(std::move(values));
  update.weight = reader.read_f32();
  update.scalars = reader.read_scalar_map();
  CALIBRE_CHECK_MSG(reader.exhausted(), "trailing bytes in ClientUpdate");
  return update;
}

// --- streaming aggregation ---------------------------------------------------

void StreamingAggregator::merge(StreamingAggregator&& /*other*/) {
  CALIBRE_CHECK_MSG(false,
                    "this aggregator is not mergeable (mergeable() is false): "
                    "splitting a fold into partials needs a fold whose partial "
                    "state composes");
}

WeightedStreamingAggregator::WeightedStreamingAggregator(WeightFn weight_of)
    : weight_of_(std::move(weight_of)) {}

void WeightedStreamingAggregator::fold(ClientUpdate update) {
  const double w = weight_of_
                       ? weight_of_(update)
                       : static_cast<double>(update.weight);
  CALIBRE_CHECK_MSG(w > 0.0, "non-positive aggregation weight");
  CALIBRE_CHECK_LT(folded_, fixedpoint::kMaxFolds,
                   "too many folds for one accumulator");
  const std::vector<float>& values = update.state.values();
  if (acc_.empty()) {
    CALIBRE_CHECK_MSG(!values.empty(), "empty update state");
    acc_.assign_zero(values.size());
  }
  CALIBRE_CHECK_EQ(acc_.size(), values.size(),
                   "update dimension changed mid-round");
  acc_.add_scaled(values.data(), w);
  total_weight_ += fixedpoint::quantize(w);
  ++folded_;
}

nn::ModelState WeightedStreamingAggregator::finish() {
  CALIBRE_CHECK_MSG(folded_ > 0, "finish() before any update was folded");
  const double total = fixedpoint::to_double(total_weight_);
  std::vector<float> out = tensor::pool::take<float>(acc_.size());
  out.resize(acc_.size());
  acc_.read(total, out.data());
  return nn::ModelState(std::move(out));
}

void WeightedStreamingAggregator::merge(StreamingAggregator&& other) {
  auto* rhs = dynamic_cast<WeightedStreamingAggregator*>(&other);
  CALIBRE_CHECK_MSG(rhs != nullptr && rhs != this,
                    "merge() needs a distinct WeightedStreamingAggregator");
  if (rhs->folded_ == 0) return;  // merging the identity is a no-op
  CALIBRE_CHECK_LE(folded_ + rhs->folded_, fixedpoint::kMaxFolds,
                   "merged fold count exceeds the accumulator bound");
  if (folded_ == 0) {
    acc_ = std::move(rhs->acc_);
  } else {
    CALIBRE_CHECK_EQ(acc_.size(), rhs->acc_.size(),
                     "shard accumulators disagree on update dimension");
    acc_.add(rhs->acc_);
  }
  total_weight_ += rhs->total_weight_;
  folded_ += rhs->folded_;
  rhs->acc_.clear();
  rhs->total_weight_ = 0;
  rhs->folded_ = 0;
}

nn::ModelState Algorithm::aggregate(const nn::ModelState& global,
                                    const std::vector<ClientUpdate>& updates,
                                    int round) {
  CALIBRE_CHECK(!updates.empty());
  const std::unique_ptr<StreamingAggregator> fold =
      make_aggregator(global, round);
  for (const ClientUpdate& update : updates) fold->fold(update);
  return fold->finish();
}

std::unique_ptr<StreamingAggregator> Algorithm::make_aggregator(
    const nn::ModelState& /*global*/, int /*round*/) {
  return std::make_unique<WeightedStreamingAggregator>();
}

}  // namespace calibre::fl
