// Minimal binary writer/reader for wire payloads (little-endian host order;
// the simulation never crosses machines, but the format is explicit so it
// could).
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"

namespace calibre::comm {

class Writer {
 public:
  Writer() = default;
  // Pre-sizes the buffer when the caller knows the payload size up front
  // (ModelState::to_bytes, serialize_update): one allocation, no regrowth.
  explicit Writer(std::size_t expected_bytes) { buffer_.reserve(expected_bytes); }

  void reserve(std::size_t total_bytes) { buffer_.reserve(total_bytes); }

  void write_u8(std::uint8_t value) { buffer_.push_back(value); }
  void write_u16(std::uint16_t value) { write_raw(&value, sizeof(value)); }
  void write_u32(std::uint32_t value) { write_raw(&value, sizeof(value)); }
  void write_u64(std::uint64_t value) { write_raw(&value, sizeof(value)); }
  void write_f32(float value) { write_raw(&value, sizeof(value)); }

  void write_string(const std::string& value) {
    write_u32(static_cast<std::uint32_t>(value.size()));
    write_raw(value.data(), value.size());
  }

  void write_f32_vector(const std::vector<float>& values) {
    write_u64(values.size());
    write_raw(values.data(), values.size() * sizeof(float));
  }

  void write_u16_vector(const std::vector<std::uint16_t>& values) {
    write_u64(values.size());
    write_raw(values.data(), values.size() * sizeof(std::uint16_t));
  }

  // Fixed-count array writes (no length prefix — the caller's wire format
  // already carries the count, e.g. a codec block header).
  void write_u8_array(const std::uint8_t* data, std::size_t count) {
    write_raw(data, count);
  }
  void write_u16_array(const std::uint16_t* data, std::size_t count) {
    write_raw(data, count * sizeof(std::uint16_t));
  }
  void write_u32_array(const std::uint32_t* data, std::size_t count) {
    write_raw(data, count * sizeof(std::uint32_t));
  }

  void write_scalar_map(const std::map<std::string, float>& scalars) {
    write_u32(static_cast<std::uint32_t>(scalars.size()));
    for (const auto& [key, value] : scalars) {
      write_string(key);
      write_f32(value);
    }
  }

  std::vector<std::uint8_t> take() { return std::move(buffer_); }
  const std::vector<std::uint8_t>& bytes() const { return buffer_; }

 private:
  void write_raw(const void* data, std::size_t size) {
    if (size == 0) return;  // empty vectors hand us data() == nullptr
    const auto* begin = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), begin, begin + size);
  }

  std::vector<std::uint8_t> buffer_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  std::uint8_t read_u8() {
    std::uint8_t value = 0;
    read_raw(&value, sizeof(value));
    return value;
  }
  std::uint32_t read_u32() {
    std::uint32_t value = 0;
    read_raw(&value, sizeof(value));
    return value;
  }
  std::uint64_t read_u64() {
    std::uint64_t value = 0;
    read_raw(&value, sizeof(value));
    return value;
  }
  float read_f32() {
    float value = 0.0f;
    read_raw(&value, sizeof(value));
    return value;
  }

  std::string read_string() {
    const std::uint32_t size = read_u32();
    // Validate against the remaining bytes *before* allocating: a corrupt
    // length must fail cleanly, not request a multi-GB buffer.
    CALIBRE_CHECK_LE(size, remaining(), "serde corrupt string length");
    std::string value(size, '\0');
    read_raw(value.data(), size);
    return value;
  }

  std::vector<float> read_f32_vector() {
    std::vector<float> values;
    read_f32_vector(values);
    return values;
  }
  // Reads into `values`, resized to the count, reusing its capacity.
  void read_f32_vector(std::vector<float>& values) {
    const std::uint64_t count = read_u64();
    // Checked as count <= remaining/4 (not count*4 <= remaining): an
    // untrusted u64 count can wrap the multiplication and slip past the
    // underflow check in read_raw with an absurd allocation.
    CALIBRE_CHECK_LE(count, remaining() / sizeof(float),
                     "serde corrupt f32 count");
    values.resize(count);
    read_raw(values.data(), count * sizeof(float));
  }

  std::vector<std::uint16_t> read_u16_vector() {
    const std::uint64_t count = read_u64();
    // Same wraparound-proof shape as read_f32_vector: bound the count by the
    // remaining bytes before allocating.
    CALIBRE_CHECK_LE(count, remaining() / sizeof(std::uint16_t),
                     "serde corrupt u16 count");
    std::vector<std::uint16_t> values(count);
    read_raw(values.data(), count * sizeof(std::uint16_t));
    return values;
  }

  std::map<std::string, float> read_scalar_map() {
    const std::uint32_t count = read_u32();
    std::map<std::string, float> scalars;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string key = read_string();
      scalars[key] = read_f32();
    }
    return scalars;
  }

  // Fixed-count array reads, guarded like the length-prefixed vectors: the
  // count comes from the caller's (untrusted) wire header, so it is bounded
  // by the remaining bytes *before* any allocation, in the wraparound-proof
  // count <= remaining/elem form.
  std::vector<std::uint8_t> read_u8_array(std::size_t count) {
    CALIBRE_CHECK_LE(count, remaining(), "serde corrupt u8 array count");
    std::vector<std::uint8_t> values(count);
    read_raw(values.data(), count);
    return values;
  }
  std::vector<std::uint16_t> read_u16_array(std::size_t count) {
    CALIBRE_CHECK_LE(count, remaining() / sizeof(std::uint16_t),
                     "serde corrupt u16 array count");
    std::vector<std::uint16_t> values(count);
    read_raw(values.data(), count * sizeof(std::uint16_t));
    return values;
  }
  std::vector<std::uint32_t> read_u32_array(std::size_t count) {
    CALIBRE_CHECK_LE(count, remaining() / sizeof(std::uint32_t),
                     "serde corrupt u32 array count");
    std::vector<std::uint32_t> values(count);
    read_raw(values.data(), count * sizeof(std::uint32_t));
    return values;
  }

  // The u64 `offset` bytes past the cursor, read without consuming
  // anything; 0 when the payload ends first. Unvalidated: it lets a decoder
  // size its output before the read that checks the count.
  std::uint64_t peek_u64(std::size_t offset) const {
    std::uint64_t value = 0;
    if (offset <= remaining() && sizeof(value) <= remaining() - offset) {
      std::memcpy(&value, bytes_.data() + cursor_ + offset, sizeof(value));
    }
    return value;
  }

  bool exhausted() const { return cursor_ == bytes_.size(); }

  // Bytes not yet consumed. Public so multi-field codec blocks (topk16,
  // int8a) can bound their own derived counts before allocating.
  std::size_t remaining() const { return bytes_.size() - cursor_; }

 private:

  void read_raw(void* out, std::size_t size) {
    CALIBRE_CHECK_LE(size, remaining(),
                     "serde underflow at offset " << cursor_ << "/"
                                                  << bytes_.size());
    if (size == 0) return;  // out (and bytes_.data()) may be null for 0 bytes
    std::memcpy(out, bytes_.data() + cursor_, size);
    cursor_ += size;
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace calibre::comm
