// Shared immutable message payload.
//
// A broadcast sends the same serialized model to K clients. Holding the bytes
// behind a refcounted immutable buffer makes that a single serialization plus
// K refcount bumps instead of K deep copies: the runner builds one Payload
// per round and every train request (including retry re-sends) shares it.
// Immutability is what makes the sharing safe — handlers on the router pool
// read the same buffer concurrently without synchronization.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace calibre::comm {

class Payload {
 public:
  Payload() = default;

  // Implicit on purpose: `Payload reply = writer.take()` stays the idiom at
  // every producer site. Empty vectors do not allocate a buffer.
  Payload(std::vector<std::uint8_t> bytes)  // NOLINT(google-explicit-constructor)
      : buffer_(bytes.empty() ? nullptr
                              : std::make_shared<Buffer>(std::move(bytes))) {}

  const std::vector<std::uint8_t>& bytes() const {
    static const std::vector<std::uint8_t> kEmpty;
    return buffer_ ? buffer_->bytes : kEmpty;
  }
  std::size_t size() const { return buffer_ ? buffer_->bytes.size() : 0; }
  bool empty() const { return size() == 0; }

  // True when `other` shares this payload's underlying buffer (not merely
  // equal bytes).
  bool shares_buffer_with(const Payload& other) const {
    return buffer_ != nullptr && buffer_ == other.buffer_;
  }

  // Number of Payload handles sharing the buffer; 0 for the empty payload.
  long use_count() const { return buffer_.use_count(); }

  // First-transmission latch for physical-traffic accounting: returns true
  // exactly once per underlying buffer across all sharing handles, false on
  // every later call and always for the empty payload. The router uses this
  // to count a shared broadcast buffer's bytes once, no matter how many
  // messages carry it.
  bool mark_transmitted() const {
    return buffer_ != nullptr &&
           !buffer_->transmitted.exchange(true, std::memory_order_relaxed);
  }

 private:
  struct Buffer {
    explicit Buffer(std::vector<std::uint8_t> b) : bytes(std::move(b)) {}
    const std::vector<std::uint8_t> bytes;
    std::atomic<bool> transmitted{false};
  };

  std::shared_ptr<Buffer> buffer_;
};

}  // namespace calibre::comm
