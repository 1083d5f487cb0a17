// Tests for the communication substrate: serde, payloads, codecs, and the
// router's dispatches under concurrency.
#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <tuple>
#include <vector>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>

#include <gtest/gtest.h>

#include "comm/codec.h"
#include "comm/router.h"
#include "comm/serde.h"
#include "common/check.h"
#include "flapi/algorithm.h"
#include "nn/state.h"
#include "tensor/rng.h"

namespace calibre::comm {
namespace {

// The handler of most router tests: replies with the request's buffer.
Payload echo(int, int, const Payload& request) { return request; }

// Waits for a dispatch's outcome, or nullopt once `timeout` passes without
// one: a router test that loses an outcome fails instead of hanging the
// suite.
std::optional<Outcome> resolve_within(
    std::future<Outcome>& pending,
    std::chrono::milliseconds timeout = std::chrono::seconds(30)) {
  if (pending.wait_for(timeout) != std::future_status::ready) {
    return std::nullopt;
  }
  return pending.get();
}

TEST(Serde, ScalarRoundTrip) {
  Writer writer;
  writer.write_u8(7);
  writer.write_u32(0xDEADBEEF);
  writer.write_u64(0x0123456789ABCDEFULL);
  writer.write_f32(3.25f);
  writer.write_string("hello");
  const auto bytes = writer.take();
  Reader reader(bytes);
  EXPECT_EQ(reader.read_u8(), 7);
  EXPECT_EQ(reader.read_u32(), 0xDEADBEEF);
  EXPECT_EQ(reader.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_FLOAT_EQ(reader.read_f32(), 3.25f);
  EXPECT_EQ(reader.read_string(), "hello");
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serde, VectorAndMapRoundTrip) {
  Writer writer;
  const std::vector<float> values = {1.0f, -2.5f, 0.0f, 1e-9f};
  writer.write_f32_vector(values);
  const std::map<std::string, float> scalars = {{"divergence", 0.5f},
                                                {"loss", 2.25f}};
  writer.write_scalar_map(scalars);
  const auto bytes = writer.take();
  Reader reader(bytes);
  EXPECT_EQ(reader.read_f32_vector(), values);
  EXPECT_EQ(reader.read_scalar_map(), scalars);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serde, EmptyContainers) {
  Writer writer;
  writer.write_f32_vector({});
  writer.write_scalar_map({});
  writer.write_string("");
  const auto bytes = writer.take();
  Reader reader(bytes);
  EXPECT_TRUE(reader.read_f32_vector().empty());
  EXPECT_TRUE(reader.read_scalar_map().empty());
  EXPECT_TRUE(reader.read_string().empty());
}

TEST(Serde, UnderflowThrows) {
  Writer writer;
  writer.write_u32(5);
  const auto bytes = writer.take();
  Reader reader(bytes);
  EXPECT_THROW(reader.read_u64(), CheckError);
}

TEST(Serde, TruncatedF32VectorRejectedWithoutAllocation) {
  Writer writer;
  writer.write_f32_vector({1.0f, 2.0f, 3.0f});
  auto bytes = writer.take();
  bytes.resize(bytes.size() - 4);  // drop the last float
  Reader reader(bytes);
  EXPECT_THROW(reader.read_f32_vector(), CheckError);
}

TEST(Serde, CorruptF32CountRejectedWithoutAllocation) {
  // A count whose byte size wraps the 64-bit multiplication: 2^62 + 1
  // floats "need" 4 bytes after wrapping, which would slip past a naive
  // `cursor + count*4 <= size` underflow check and allocate absurdly.
  Writer writer;
  writer.write_u64((1ULL << 62) + 1);
  writer.write_f32(0.0f);
  const auto bytes = writer.take();
  Reader reader(bytes);
  EXPECT_THROW(reader.read_f32_vector(), CheckError);
}

TEST(Serde, CorruptStringLengthRejectedWithoutAllocation) {
  Writer writer;
  writer.write_u32(0xFFFFFFFFu);  // 4 GB "string", no bytes behind it
  const auto bytes = writer.take();
  Reader reader(bytes);
  EXPECT_THROW(reader.read_string(), CheckError);
}

TEST(Serde, CorruptPayloadRoundTrip) {
  // Flipping the count of an otherwise valid payload must fail cleanly.
  Writer writer;
  writer.write_f32_vector({1.0f, 2.0f});
  auto bytes = writer.take();
  bytes[0] = 0xFF;  // little-endian low byte of the u64 count
  Reader reader(bytes);
  EXPECT_THROW(reader.read_f32_vector(), CheckError);
}

// Every client endpoint (id >= 0) is served by the one device handler; a
// negative id names no endpoint.
TEST(Router, UnknownEndpointThrows) {
  Router router(1, echo);
  EXPECT_THROW(router.dispatch(-1, 0, Payload()), CheckError);
}

TEST(Router, RoutesToHandlerAndBack) {
  Router router(2, [](int client, int round, const Payload& request) {
    Writer writer;
    writer.write_u32(static_cast<std::uint32_t>(client));
    writer.write_u32(static_cast<std::uint32_t>(round + 100));
    writer.write_u64(request.size());
    return Payload(writer.take());
  });
  std::future<Outcome> pending =
      router.dispatch(3, 7, Payload(std::vector<std::uint8_t>(5, 1)));
  const std::optional<Outcome> outcome = resolve_within(pending);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->ok);
  Reader reader(outcome->reply.bytes());
  EXPECT_EQ(reader.read_u32(), 3u);
  EXPECT_EQ(reader.read_u32(), 107u);
  EXPECT_EQ(reader.read_u64(), 5u);
  EXPECT_EQ(outcome->delays_ms, std::vector<int>{0});  // one attempt
  const TrafficStats stats = router.stats();
  EXPECT_EQ(stats.messages, 2u);
  EXPECT_EQ(stats.broadcast_bytes, 5 + kHeaderBytes);
  EXPECT_EQ(stats.collected_bytes, outcome->reply.size() + kHeaderBytes);
}

// Regression for the silent client-failure deadlock: a handler that throws
// used to vanish into an abandoned future, leaving the server blocked
// forever. Its dispatch must now resolve as a failure carrying the
// exception text, and the error reply still counts as collected traffic (a
// serde string: u32 length + text).
TEST(Router, ThrowingHandlerRepliesWithTrainError) {
  Router router(2, [](int, int, const Payload&) -> Payload {
    throw std::runtime_error("boom");
  });
  std::future<Outcome> pending = router.dispatch(5, 3, Payload());
  const std::optional<Outcome> outcome = resolve_within(pending);
  ASSERT_TRUE(outcome.has_value()) << "dispatch never resolved (deadlock bug)";
  EXPECT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->error, "boom");
  EXPECT_TRUE(outcome->reply.empty());
  EXPECT_EQ(outcome->traffic.collected_bytes, 4 + 4 + kHeaderBytes);
  EXPECT_EQ(outcome->traffic.collect_serializations, 1u);
}

TEST(Router, NonStdExceptionAlsoRepliesWithTrainError) {
  Router router(1, [](int, int, const Payload&) -> Payload { throw 42; });
  std::future<Outcome> pending = router.dispatch(0, 0, Payload());
  const std::optional<Outcome> outcome = resolve_within(pending);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->error, "unknown error");
}

// A failed attempt is retried inside the dispatch until the budget runs
// out; each retry re-sends the shared request and counts a failure reply.
TEST(Router, FailedAttemptsRetryInsideTheDispatch) {
  std::atomic<int> calls{0};
  Router router(2, [&](int, int, const Payload& request) {
    if (calls.fetch_add(1) % 3 != 2) throw std::runtime_error("flaky");
    return request;
  });
  const Payload request(std::vector<std::uint8_t>(10, 7));
  std::future<Outcome> exhausted = router.dispatch(0, 0, request, 1);
  const std::optional<Outcome> failed = resolve_within(exhausted);
  ASSERT_TRUE(failed.has_value());
  EXPECT_FALSE(failed->ok);
  EXPECT_EQ(failed->error, "flaky");
  EXPECT_EQ(failed->delays_ms.size(), 2u);
  std::future<Outcome> recovered = router.dispatch(0, 1, request, 5);
  const std::optional<Outcome> ok = resolve_within(recovered);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->ok);
  EXPECT_EQ(ok->delays_ms.size(), 1u) << "the third call succeeds at once";
  EXPECT_EQ(calls.load(), 3);
  // Two requests and two error replies, then one request and its reply.
  EXPECT_EQ(failed->traffic.messages, 4u);
  EXPECT_EQ(failed->traffic.broadcast_bytes, 2 * (10 + kHeaderBytes));
  EXPECT_EQ(failed->traffic.broadcast_serializations, 1u);
  EXPECT_EQ(ok->traffic.messages, 2u);
  EXPECT_EQ(ok->traffic.broadcast_serializations, 0u) << "already sent once";
}

TEST(Router, FaultInjectionRateOneFailsEveryDispatch) {
  std::atomic<int> handler_runs{0};
  Router router(2, [&](int, int, const Payload& request) {
    ++handler_runs;
    return request;
  });
  FaultConfig fault;
  fault.failure_rate = 1.0f;
  fault.seed = 17;
  router.set_fault_profiles({fault});
  std::vector<std::future<Outcome>> pending;
  for (int e = 0; e < 4; ++e) pending.push_back(router.dispatch(e, 0, {}, 2));
  for (std::future<Outcome>& dispatch : pending) {
    const std::optional<Outcome> outcome = resolve_within(dispatch);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_FALSE(outcome->ok);
    EXPECT_EQ(outcome->error, "injected handler fault");
    EXPECT_EQ(outcome->delays_ms.size(), 3u) << "every retry failed too";
  }
  EXPECT_EQ(handler_runs.load(), 0);
}

TEST(Router, FaultInjectionIsDeterministicPerSeed) {
  // Same seed => identical (client, round, attempts, outcome) records; the
  // dice are a pure function of the fault stream, independent of pool
  // interleaving, as long as one endpoint's dispatches do not overlap:
  // every round below resolves before the next one is dispatched.
  auto run = [](std::uint64_t seed) {
    Router router(3, echo);
    FaultConfig fault;
    fault.failure_rate = 0.5f;
    fault.seed = seed;
    router.set_fault_profiles({fault});
    std::vector<std::tuple<int, int, std::size_t, bool>> outcomes;
    for (int round = 0; round < 4; ++round) {
      std::vector<std::future<Outcome>> pending;
      for (int e = 0; e < 6; ++e) {
        pending.push_back(router.dispatch(e, round, {}, 1));
      }
      for (int e = 0; e < 6; ++e) {
        const std::optional<Outcome> outcome =
            resolve_within(pending[static_cast<std::size_t>(e)]);
        EXPECT_TRUE(outcome.has_value());
        if (!outcome.has_value()) return outcomes;
        outcomes.emplace_back(e, round, outcome->delays_ms.size(),
                              outcome->ok);
      }
    }
    return outcomes;
  };
  const auto first = run(99);
  const auto second = run(99);
  EXPECT_EQ(first, second);
  int failures = 0;
  int retried = 0;
  for (const auto& [client, round, attempts, ok] : first) {
    failures += ok ? 0 : 1;
    retried += attempts > 1 ? 1 : 0;
  }
  EXPECT_GT(retried, 0);  // p = 0.5 over 24 first attempts
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 24);
}

TEST(Router, ManyConcurrentRequests) {
  Router router(4, [](int client, int round, const Payload&) {
    Writer writer;
    writer.write_u32(static_cast<std::uint32_t>(client));
    writer.write_u32(static_cast<std::uint32_t>(round));
    return Payload(writer.take());
  });
  constexpr int kEndpoints = 8;
  constexpr int kRequestsEach = 20;
  std::vector<std::future<Outcome>> pending;
  for (int i = 0; i < kRequestsEach; ++i) {
    for (int e = 0; e < kEndpoints; ++e) {
      pending.push_back(router.dispatch(e, i, {}));
    }
  }
  for (std::size_t k = 0; k < pending.size(); ++k) {
    const std::optional<Outcome> outcome = resolve_within(pending[k]);
    ASSERT_TRUE(outcome.has_value());
    ASSERT_TRUE(outcome->ok);
    Reader reader(outcome->reply.bytes());
    EXPECT_EQ(reader.read_u32(), k % kEndpoints);
    EXPECT_EQ(reader.read_u32(), k / kEndpoints);
  }
  EXPECT_EQ(router.stats().messages,
            2u * static_cast<std::uint64_t>(kEndpoints * kRequestsEach));
}

// --- Payload: shared immutable broadcast buffers ---------------------------

TEST(Payload, SharesBufferAcrossCopies) {
  const Payload original(std::vector<std::uint8_t>{1, 2, 3});
  const Payload copy = original;  // refcount bump, no deep copy
  EXPECT_TRUE(original.shares_buffer_with(copy));
  EXPECT_TRUE(copy.shares_buffer_with(original));
  EXPECT_EQ(original.use_count(), 2);
  EXPECT_EQ(&original.bytes(), &copy.bytes());

  const Payload rebuilt(std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_FALSE(original.shares_buffer_with(rebuilt));  // equal bytes, new buffer
}

TEST(Payload, EmptyPayloadAllocatesNothing) {
  const Payload empty;
  const Payload from_empty_vector((std::vector<std::uint8_t>{}));
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(from_empty_vector.empty());
  EXPECT_EQ(empty.use_count(), 0);
  EXPECT_EQ(from_empty_vector.use_count(), 0);
  EXPECT_FALSE(empty.shares_buffer_with(from_empty_vector));
  EXPECT_FALSE(empty.mark_transmitted());  // never "first transmission"
}

TEST(Payload, MarkTransmittedLatchesOncePerBuffer) {
  const Payload original(std::vector<std::uint8_t>{9, 9});
  const Payload shared = original;
  EXPECT_TRUE(original.mark_transmitted());
  EXPECT_FALSE(original.mark_transmitted());  // same handle
  EXPECT_FALSE(shared.mark_transmitted());    // sharing handle, same buffer
  const Payload fresh(std::vector<std::uint8_t>{9, 9});
  EXPECT_TRUE(fresh.mark_transmitted());  // distinct buffer latches anew
}

TEST(Message, HeaderBytesDeriveFromActualFields) {
  // The header cost used by traffic accounting must track the wire header:
  // a type tag plus the sender, receiver and round fields.
  struct WireHeader {
    std::uint8_t type;
    std::int32_t sender;
    std::int32_t receiver;
    std::int32_t round;
  };
  EXPECT_EQ(kHeaderBytes, sizeof(WireHeader::type) +
                              sizeof(WireHeader::sender) +
                              sizeof(WireHeader::receiver) +
                              sizeof(WireHeader::round));
  // Every message pays it on top of its payload, an empty one included.
  Router router(1, [](int, int, const Payload&) { return Payload(); });
  std::future<Outcome> pending =
      router.dispatch(0, 0, Payload(std::vector<std::uint8_t>(17, 0xAB)));
  ASSERT_TRUE(resolve_within(pending).has_value());
  EXPECT_EQ(router.stats().broadcast_bytes, kHeaderBytes + 17u);
  EXPECT_EQ(router.stats().collected_bytes, kHeaderBytes);
}

// --- Codec: binary16 conversion --------------------------------------------

TEST(Codec, F16ConversionHitsIeeeEdgeValues) {
  EXPECT_EQ(f32_to_f16(0.0f), 0x0000);
  EXPECT_EQ(f32_to_f16(-0.0f), 0x8000);
  EXPECT_EQ(f32_to_f16(1.0f), 0x3C00);
  EXPECT_EQ(f32_to_f16(-2.0f), 0xC000);
  EXPECT_EQ(f32_to_f16(65504.0f), 0x7BFF);  // largest finite f16
  EXPECT_EQ(f32_to_f16(1e6f), 0x7C00);      // overflow saturates to +inf
  EXPECT_EQ(f32_to_f16(-1e6f), 0xFC00);
  EXPECT_EQ(f32_to_f16(std::numeric_limits<float>::infinity()), 0x7C00);
  // Smallest subnormal (2^-24) survives; half of it ties to even -> zero.
  EXPECT_EQ(f32_to_f16(5.9604645e-8f), 0x0001);
  EXPECT_EQ(f32_to_f16(2.9802322e-8f), 0x0000);
  EXPECT_EQ(f32_to_f16(-1e-12f), 0x8000);  // below-subnormal keeps the sign
  // NaN stays NaN through the round trip.
  const std::uint16_t nan_half =
      f32_to_f16(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(f16_to_f32(nan_half)));
}

TEST(Codec, F16RoundTripIsExactForRepresentableValues) {
  // Integers up to 2048 and power-of-two scales are exact in binary16.
  for (const float value : {0.0f, 1.0f, -1.0f, 2.0f, 1024.0f, 2048.0f,
                            0.5f, -0.25f, 0.125f, 65504.0f, -65504.0f}) {
    EXPECT_EQ(f16_to_f32(f32_to_f16(value)), value) << "value " << value;
  }
  for (int i = 0; i <= 2048; i += 37) {
    const float value = static_cast<float>(i);
    EXPECT_EQ(f16_to_f32(f32_to_f16(value)), value);
  }
}

TEST(Codec, F16RoundsToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next f16 (1 + 2^-10);
  // ties go to the even significand, i.e. 1.0.
  EXPECT_EQ(f32_to_f16(1.0f + 0.00048828125f), 0x3C00);
  // Just above the tie rounds up.
  EXPECT_EQ(f32_to_f16(1.0f + 0.0005f), 0x3C01);
}

// Exhaustive defined-behavior proof for the conversion pair: every one of
// the 65536 binary16 bit patterns decodes and re-encodes without UB (this
// test runs inside the ubsan lane, where any shift/overflow/float-cast UB
// aborts) and round-trips bit-identically — subnormals, both zeros, both
// infinities included. NaNs keep sign and NaN-ness but canonicalize their
// payload to the single quiet bit f32_to_f16 emits.
TEST(Codec, F16AllBitPatternsRoundTripBitwise) {
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const auto half = static_cast<std::uint16_t>(bits);
    const float value = f16_to_f32(half);
    const std::uint16_t back = f32_to_f16(value);
    const bool is_nan =
        ((half >> 10) & 0x1Fu) == 0x1Fu && (half & 0x3FFu) != 0;
    if (is_nan) {
      EXPECT_TRUE(std::isnan(value)) << "bits 0x" << std::hex << bits;
      EXPECT_TRUE(std::isnan(f16_to_f32(back)));
      EXPECT_EQ(back & 0x8000u, half & 0x8000u);  // sign survives
    } else {
      EXPECT_EQ(back, half) << "bits 0x" << std::hex << bits;
    }
  }
}

// The overflow boundary: 65520 = (65504 + 65536) / 2 is exactly halfway
// between the largest finite f16 and the value that would need the infinity
// exponent; the 65504 significand is odd, so the tie rounds *up* to inf.
// Anything below the halfway point stays finite.
TEST(Codec, F16OverflowBoundaryTiesToInfinity) {
  EXPECT_EQ(f32_to_f16(65520.0f), 0x7C00);
  EXPECT_EQ(f32_to_f16(-65520.0f), 0xFC00);
  EXPECT_EQ(f32_to_f16(65519.0f), 0x7BFF);
  EXPECT_EQ(f32_to_f16(std::nextafterf(65520.0f, 0.0f)), 0x7BFF);
}

// The SIMD bulk converters must be bit-identical to the scalar functions:
// the wire format (and the streaming/batch equivalence proof built on it)
// depends on encode bytes not changing with the instruction set or the
// position of a value inside a block. Decode side: every one of the 65536
// f16 patterns through the block path. Encode side: adversarial floats
// (ties, subnormal boundaries, overflow halfway, NaN payloads) placed at
// every lane offset, plus a broad random sweep.
TEST(Codec, BlockConvertersMatchScalarBitwise) {
  // Decode: exhaustive over all f16 bit patterns, odd length to cover the
  // scalar tail after the 16-lane groups.
  std::vector<std::uint16_t> halves(0x10000 + 7);
  for (std::size_t i = 0; i < halves.size(); ++i) {
    halves[i] = static_cast<std::uint16_t>(i & 0xFFFFu);
  }
  std::vector<float> bulk(halves.size());
  f16_to_f32_block(halves.data(), nullptr, bulk.data(), halves.size());
  for (std::size_t i = 0; i < halves.size(); ++i) {
    const float scalar = f16_to_f32(halves[i]);
    EXPECT_EQ(std::memcmp(&bulk[i], &scalar, sizeof(float)), 0)
        << "half 0x" << std::hex << halves[i];
  }

  // Encode: edge values at every alignment, then a seeded random sweep over
  // the full f32 range (sign * random exponent * random mantissa).
  std::vector<float> values;
  const float edges[] = {0.0f,
                         -0.0f,
                         1.0f,
                         1.0f + 0.00048828125f,  // RNE tie at 1.0
                         65504.0f,
                         65519.0f,
                         65520.0f,  // overflow tie -> inf
                         -65520.0f,
                         5.9604645e-8f,   // smallest f16 subnormal
                         2.9802322e-8f,   // tie to zero
                         -1e-12f,
                         1e6f,
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity(),
                         std::numeric_limits<float>::quiet_NaN()};
  for (const float edge : edges) {
    for (int offset = 0; offset < 17; ++offset) {
      values.insert(values.end(), static_cast<std::size_t>(offset), 0.25f);
      values.push_back(edge);
    }
  }
  rng::Generator gen(0xC0DEC);
  for (int i = 0; i < 4096; ++i) {
    const auto bits = static_cast<std::uint32_t>(
        gen.uniform_index(std::uint64_t{1} << 32));
    float value = 0.0f;
    std::memcpy(&value, &bits, sizeof(value));
    values.push_back(value);
  }
  std::vector<std::uint16_t> encoded(values.size());
  f32_to_f16_block(values.data(), nullptr, encoded.data(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(encoded[i], f32_to_f16(values[i])) << "index " << i;
  }

  // Fused delta paths: encode (src - base) and decode (base + half) must
  // match composing the scalar ops by hand.
  std::vector<float> base(values.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<float>(gen.uniform());
  }
  std::vector<std::uint16_t> delta(values.size());
  f32_to_f16_block(values.data(), base.data(), delta.data(), values.size());
  std::vector<float> decoded(values.size());
  f16_to_f32_block(delta.data(), base.data(), decoded.data(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(delta[i], f32_to_f16(values[i] - base[i])) << "index " << i;
    const float expect = base[i] + f16_to_f32(delta[i]);
    EXPECT_EQ(std::memcmp(&decoded[i], &expect, sizeof(float)), 0)
        << "index " << i;
  }
}

// --- Codec: block encode/decode --------------------------------------------

std::vector<float> random_values(std::size_t count, std::uint64_t seed,
                                 float scale) {
  rng::Generator gen(seed);
  std::vector<float> values(count);
  for (float& v : values) v = static_cast<float>(gen.normal()) * scale;
  return values;
}

TEST(Codec, F32BlockRoundTripsBitwise) {
  const std::vector<float> values = random_values(129, 11, 1.0f);
  Writer writer;
  encode_values(writer, values, Codec::kF32);
  const auto bytes = writer.take();
  EXPECT_EQ(bytes.size(), encoded_size(Codec::kF32, values.size()));
  Reader reader(bytes);
  EXPECT_EQ(decode_values(reader), values);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Codec, F16BlockRoundTripsWithinHalfPrecision) {
  const std::vector<float> values = random_values(200, 12, 1.0f);
  Writer writer;
  encode_values(writer, values, Codec::kF16);
  const auto bytes = writer.take();
  EXPECT_EQ(bytes.size(), encoded_size(Codec::kF16, values.size()));
  Reader reader(bytes);
  const std::vector<float> decoded = decode_values(reader);
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    // binary16 has a 10-bit significand: relative error <= 2^-11.
    EXPECT_NEAR(decoded[i], values[i], std::abs(values[i]) * 4.9e-4f + 1e-7f);
  }
}

TEST(Codec, Delta16BeatsF16NearTheReference) {
  const std::vector<float> base = random_values(300, 13, 1.0f);
  std::vector<float> values = base;
  rng::Generator gen(14);
  for (float& v : values) v += static_cast<float>(gen.normal()) * 0.01f;

  Writer delta_writer;
  encode_values(delta_writer, values, Codec::kDelta16, base.data(),
                base.size());
  auto delta_bytes = delta_writer.take();
  Reader delta_reader(delta_bytes);
  const std::vector<float> from_delta =
      decode_values(delta_reader, base.data(), base.size());

  Writer f16_writer;
  encode_values(f16_writer, values, Codec::kF16);
  auto f16_bytes = f16_writer.take();
  Reader f16_reader(f16_bytes);
  const std::vector<float> from_f16 = decode_values(f16_reader);

  ASSERT_EQ(from_delta.size(), values.size());
  double delta_err = 0.0, f16_err = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    delta_err += std::abs(from_delta[i] - values[i]);
    f16_err += std::abs(from_f16[i] - values[i]);
  }
  // Small deltas quantize against a tiny exponent range, so the delta codec
  // must be at least ~5x more accurate here (measured ~11x).
  EXPECT_LT(delta_err * 5.0, f16_err);
  EXPECT_EQ(delta_bytes.size(), f16_bytes.size());  // same wire cost
}

TEST(Codec, Delta16WithoutBaseDegradesToSelfDescribingF16) {
  const std::vector<float> values = random_values(40, 15, 1.0f);
  Writer writer;
  encode_values(writer, values, Codec::kDelta16);  // no base available
  const auto bytes = writer.take();
  // The wire says f16, so decoding needs no reference.
  Reader reader(bytes);
  const std::vector<float> decoded = decode_values(reader);
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(decoded[i], values[i], std::abs(values[i]) * 4.9e-4f + 1e-7f);
  }
}

TEST(Codec, Delta16DecodeRequiresMatchingBase) {
  const std::vector<float> base = random_values(8, 16, 1.0f);
  Writer writer;
  encode_values(writer, base, Codec::kDelta16, base.data(), base.size());
  const auto bytes = writer.take();
  {
    Reader reader(bytes);
    EXPECT_THROW(decode_values(reader), CheckError);  // no base
  }
  {
    Reader reader(bytes);
    EXPECT_THROW(decode_values(reader, base.data(), base.size() - 1),
                 CheckError);  // wrong dimension
  }
}

TEST(Codec, CorruptTagAndCountFailCleanly) {
  const std::vector<float> values = {1.0f, 2.0f};
  Writer writer;
  encode_values(writer, values, Codec::kF32);
  auto bytes = writer.take();
  bytes[0] = 0x7F;  // no such codec tag
  Reader reader(bytes);
  EXPECT_THROW(decode_values(reader), CheckError);

  // An f16 count far past the remaining bytes must not allocate.
  Writer huge;
  huge.write_u8(0x02);
  huge.write_u64((1ULL << 63) + 5);
  huge.write_u16(0);
  const auto huge_bytes = huge.take();
  Reader huge_reader(huge_bytes);
  EXPECT_THROW(decode_values(huge_reader), CheckError);
}

TEST(Codec, NameRoundTrip) {
  for (const Codec codec : {Codec::kAuto, Codec::kF32, Codec::kF16,
                            Codec::kDelta16, Codec::kTopK16, Codec::kInt8A}) {
    EXPECT_EQ(codec_from_name(codec_name(codec)), codec);
  }
  EXPECT_THROW(codec_from_name("zstd"), CheckError);
}

// --- topk16 / int8a wire blocks ---------------------------------------------

TEST(Codec, TopK16RoundTripKeepsLargestMagnitudeDeltas) {
  std::vector<float> base = random_values(64, 40, 1.0f);
  std::vector<float> values = base;
  for (float& v : values) v += 1e-4f;  // background noise below the top-3
  values[3] += 8.0f;
  values[31] -= 6.0f;
  values[60] += 7.0f;
  Writer writer;
  encode_values(writer, values, Codec::kTopK16, base.data(), base.size(), 3);
  const auto bytes = writer.take();
  EXPECT_EQ(bytes.size(), encoded_size(Codec::kTopK16, values.size(), 3));
  Reader reader(bytes);
  const std::vector<float> decoded =
      decode_values(reader, base.data(), base.size());
  EXPECT_EQ(reader.remaining(), 0u);
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (i == 3 || i == 31 || i == 60) {
      EXPECT_NEAR(decoded[i], values[i], 0.02f) << "selected coord " << i;
    } else {
      // Coordinates outside the top-k reconstruct the base exactly.
      EXPECT_EQ(decoded[i], base[i]) << "dropped coord " << i;
    }
  }
}

TEST(Codec, TopK16EncodingIsDeterministicUnderTies) {
  // Equal-magnitude deltas: the bit-level magnitude + index tiebreak must
  // make repeated encodes byte-identical (the chooser relies on this).
  const std::vector<float> base(32, 0.0f);
  std::vector<float> values(32, 0.5f);  // every delta ties
  Writer a;
  encode_values(a, values, Codec::kTopK16, base.data(), base.size(), 5);
  Writer b;
  encode_values(b, values, Codec::kTopK16, base.data(), base.size(), 5);
  const auto bytes_a = a.take();
  EXPECT_EQ(bytes_a, b.take());
  // Lowest indices win ties: indices 0..4, ascending.
  Reader reader(bytes_a);
  const auto decoded = decode_values(reader, base.data(), base.size());
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NE(decoded[i], 0.0f);
  for (std::size_t i = 5; i < 32; ++i) EXPECT_EQ(decoded[i], 0.0f);
}

TEST(Codec, TopK16SampledThresholdSelectionStaysExact) {
  // The encoder's radix select must pick the exact same index set as a
  // brute-force sort under the documented total order (|delta| desc, index
  // asc on ties) at a size past the old sampled-threshold cutoff (count >=
  // 4096). Heavy ties around the k-th magnitude are the hard case: every
  // tied element shares the threshold key, the index tiebreak picks.
  const std::size_t count = 8192;
  std::vector<float> base(count, 0.0f);
  std::vector<float> values = random_values(count, 91, 1e-3f);
  for (std::size_t i = 0; i < count; i += 37) values[i] = 0.25f;  // tie band
  for (const std::size_t k : {std::size_t{1}, std::size_t{64},
                              std::size_t{640}, count}) {
    Writer writer;
    encode_values(writer, values, Codec::kTopK16, base.data(), base.size(),
                  k);
    const auto bytes = writer.take();
    Reader reader(bytes);
    ASSERT_EQ(reader.read_u8(), 0x04) << "topk16 tag";  // Codec::kTopK16
    ASSERT_EQ(reader.read_u64(), count);
    ASSERT_EQ(reader.read_u64(), k);
    const std::vector<std::uint32_t> got = reader.read_u32_array(k);
    // Reference selection: full sort, no sampling shortcut.
    std::vector<std::uint32_t> expected(count);
    std::iota(expected.begin(), expected.end(), 0u);
    const auto magnitude = [&](std::uint32_t i) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &values[i], sizeof(bits));
      return bits & 0x7FFFFFFFu;
    };
    std::sort(expected.begin(), expected.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const std::uint32_t ma = magnitude(a);
                const std::uint32_t mb = magnitude(b);
                return ma != mb ? ma > mb : a < b;
              });
    expected.resize(k);
    std::sort(expected.begin(), expected.end());  // wire order: ascending
    EXPECT_EQ(got, expected) << "k=" << k;
  }
}

std::vector<std::uint32_t> float_bits(const float* values, std::size_t count) {
  std::vector<std::uint32_t> bits(count);
  std::memcpy(bits.data(), values, count * sizeof(float));
  return bits;
}

// Values against a base whose deltas cover every selection hazard: a small
// random background, heavy bands of exactly tied magnitudes (of both signs,
// against non-zero bases), +-0.0, subnormals, +-inf and NaNs of both signs.
void hazard_inputs(std::size_t count, std::uint64_t seed,
                   std::vector<float>* values, std::vector<float>* base) {
  rng::Generator gen(seed);
  const float kBases[] = {0.0f, 1.0f, -2.0f, 0.5f};
  const float kTies[] = {0.25f, -0.25f, 0.125f};
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  values->resize(count);
  base->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    float b = kBases[gen.uniform_index(4)];
    float v = b + static_cast<float>(gen.normal()) * 1e-2f;
    switch (gen.uniform_index(12)) {
      case 0: case 1: case 2:  // tie bands
        v = b + kTies[gen.uniform_index(3)];
        break;
      case 3:
        v = b;  // +0.0 delta
        break;
      case 4:
        b = 0.0f;
        v = -0.0f;  // -0.0 delta
        break;
      case 5:
        b = 0.0f;
        v = (gen.uniform_index(2) ? 1.0f : -1.0f) * denorm *
            static_cast<float>(1 + gen.uniform_index(3));
        break;
      case 6:
        if (gen.uniform_index(8) == 0) v = gen.uniform_index(2) ? inf : -inf;
        break;
      case 7:
        if (gen.uniform_index(8) == 0) v = gen.uniform_index(2) ? nan : -nan;
        break;
      default:
        break;  // background
    }
    (*values)[i] = v;
    (*base)[i] = b;
  }
}

TEST(Codec, TopK16SelectionMatchesSortReference) {
  // Property: for any input, topk16 keeps exactly the first k indices of
  // the full sort under (magnitude key desc, index asc), ships them in
  // ascending order with f16(delta) payloads, and its residual output is
  // values - decode(block), bit for bit.
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{7}, std::size_t{4095}, std::size_t{4096},
        std::size_t{70001}}) {
    for (const std::uint64_t seed : {101u, 202u, 303u}) {
      std::vector<float> values;
      std::vector<float> base;
      hazard_inputs(count, seed + count, &values, &base);
      std::vector<float> deltas(count);
      std::vector<std::uint32_t> keys(count);
      for (std::size_t i = 0; i < count; ++i) {
        deltas[i] = values[i] - base[i];
        std::memcpy(&keys[i], &deltas[i], sizeof(float));
        keys[i] &= 0x7FFFFFFFu;
      }
      std::vector<std::uint32_t> order(count);
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return keys[a] != keys[b] ? keys[a] > keys[b] : a < b;
                });
      std::set<std::size_t> ks;
      for (const std::size_t k :
           {std::size_t{1}, std::size_t{2}, count / 16, count - 1, count}) {
        if (k >= 1 && k <= count) ks.insert(k);
      }
      for (const std::size_t k : ks) {
        SCOPED_TRACE(testing::Message()
                     << "count=" << count << " seed=" << seed << " k=" << k);
        std::vector<std::uint32_t> expected(order.begin(),
                                            order.begin() + k);
        std::sort(expected.begin(), expected.end());
        std::vector<std::uint16_t> expected_halves(k);
        for (std::size_t j = 0; j < k; ++j) {
          expected_halves[j] = f32_to_f16(deltas[expected[j]]);
        }

        std::vector<float> residual = values;  // aliased in-place output
        Writer writer;
        encode_values(writer, residual, Codec::kTopK16, base.data(),
                      base.size(), k, residual.data());
        const auto bytes = writer.take();
        ASSERT_EQ(bytes.size(), encoded_size(Codec::kTopK16, count, k));
        Reader reader(bytes);
        ASSERT_EQ(reader.read_u8(), 0x04);
        ASSERT_EQ(reader.read_u64(), count);
        ASSERT_EQ(reader.read_u64(), k);
        EXPECT_EQ(reader.read_u32_array(k), expected);
        EXPECT_EQ(reader.read_u16_array(k), expected_halves);

        Reader echo(bytes);
        const std::vector<float> decoded =
            decode_values(echo, base.data(), base.size());
        std::vector<float> reference(count);
        for (std::size_t i = 0; i < count; ++i) {
          reference[i] = values[i] - decoded[i];
        }
        EXPECT_EQ(float_bits(residual.data(), count),
                  float_bits(reference.data(), count));
      }
    }
  }
}

TEST(Codec, ResidualOutputEqualsValuesMinusDecode) {
  // Every codec's residual output, aliased onto its input or not, is the
  // bitwise difference between the input and what the block decodes to.
  std::vector<float> values;
  std::vector<float> base;
  hazard_inputs(1031, 77, &values, &base);
  const std::size_t n = values.size();
  for (const Codec codec : {Codec::kF32, Codec::kF16, Codec::kDelta16,
                            Codec::kTopK16, Codec::kInt8A}) {
    for (const bool with_base : {true, false}) {
      SCOPED_TRACE(testing::Message() << codec_name(codec)
                                      << (with_base ? "" : " (no base)"));
      const float* ref = with_base ? base.data() : nullptr;
      const std::size_t ref_size = with_base ? n : 0;
      std::vector<float> separate(n, 7.0f);
      Writer a;
      encode_values(a, values, codec, ref, ref_size, n / 16,
                    separate.data());
      std::vector<float> aliased = values;
      Writer b;
      encode_values(b, aliased, codec, ref, ref_size, n / 16,
                    aliased.data());
      const auto bytes = a.take();
      EXPECT_EQ(bytes, b.take());
      Reader reader(bytes);
      const std::vector<float> decoded = decode_values(reader, ref, ref_size);
      std::vector<float> expected(n);
      for (std::size_t i = 0; i < n; ++i) {
        expected[i] = codec == Codec::kF32 ? 0.0f : values[i] - decoded[i];
      }
      EXPECT_EQ(float_bits(separate.data(), n), float_bits(expected.data(), n));
      EXPECT_EQ(float_bits(aliased.data(), n), float_bits(expected.data(), n));
    }
  }
}

TEST(Codec, TopK16WithoutBaseDegradesToSelfDescribingF16) {
  const std::vector<float> values = random_values(17, 46, 1.0f);
  Writer writer;
  encode_values(writer, values, Codec::kTopK16, nullptr, 0, 4);
  const auto bytes = writer.take();
  EXPECT_EQ(bytes[0], 0x02);  // f16 tag: decodable with no reference
  Reader reader(bytes);
  EXPECT_EQ(decode_values(reader).size(), values.size());
}

TEST(Codec, TopK16DecodeRequiresMatchingBase) {
  const std::vector<float> base = random_values(12, 51, 1.0f);
  std::vector<float> values = base;
  values[5] += 1.0f;
  Writer writer;
  encode_values(writer, values, Codec::kTopK16, base.data(), base.size(), 2);
  const auto bytes = writer.take();
  {
    Reader reader(bytes);
    EXPECT_THROW(decode_values(reader), CheckError);  // no base
  }
  {
    Reader reader(bytes);
    EXPECT_THROW(decode_values(reader, base.data(), base.size() - 1),
                 CheckError);  // wrong dimension
  }
}

TEST(Codec, TopK16IndexListValidatedAgainstCountBeforeAllocation) {
  const std::vector<float> base = random_values(8, 45, 1.0f);
  {
    // Declared k astronomically past the payload must fail before any
    // allocation (a wraparound-prone k * 6 size computation would pass).
    Writer huge;
    huge.write_u8(0x04);
    huge.write_u64(base.size());
    huge.write_u64((1ULL << 62) + 3);
    const auto bytes = huge.take();
    Reader reader(bytes);
    EXPECT_THROW(decode_values(reader, base.data(), base.size()), CheckError);
  }
  {
    // k <= total but more index entries declared than bytes present.
    Writer trunc;
    trunc.write_u8(0x04);
    trunc.write_u64(base.size());
    trunc.write_u64(6);
    trunc.write_u32(0);
    trunc.write_u16(0);
    const auto bytes = trunc.take();
    Reader reader(bytes);
    EXPECT_THROW(decode_values(reader, base.data(), base.size()), CheckError);
  }
  {
    // Out-of-range index (9 >= total 8) rejected after the size checks.
    Writer oob;
    oob.write_u8(0x04);
    oob.write_u64(base.size());
    oob.write_u64(2);
    oob.write_u32(1);
    oob.write_u32(9);
    oob.write_u16(0);
    oob.write_u16(0);
    const auto bytes = oob.take();
    Reader reader(bytes);
    EXPECT_THROW(decode_values(reader, base.data(), base.size()), CheckError);
  }
  {
    // Non-ascending (duplicate) indices rejected: a repeated index would
    // silently double-apply a delta.
    Writer dup;
    dup.write_u8(0x04);
    dup.write_u64(base.size());
    dup.write_u64(2);
    dup.write_u32(3);
    dup.write_u32(3);
    dup.write_u16(0);
    dup.write_u16(0);
    const auto bytes = dup.take();
    Reader reader(bytes);
    EXPECT_THROW(decode_values(reader, base.data(), base.size()), CheckError);
  }
}

TEST(Codec, Int8ARoundTripWithinBlockScale) {
  // More than two blocks so per-block params are exercised.
  const std::vector<float> values = random_values(600, 47, 2.0f);
  Writer writer;
  encode_values(writer, values, Codec::kInt8A);
  const auto bytes = writer.take();
  EXPECT_EQ(bytes.size(), encoded_size(Codec::kInt8A, values.size()));
  Reader reader(bytes);
  const std::vector<float> decoded = decode_values(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  ASSERT_EQ(decoded.size(), values.size());
  // Affine reconstruction error is at most half a quantization step, where
  // the step is each 256-element block's own min-to-max range over 255.
  for (std::size_t start = 0; start < values.size(); start += kInt8BlockSize) {
    const std::size_t end = std::min(values.size(), start + kInt8BlockSize);
    float lo = values[start];
    float hi = values[start];
    for (std::size_t i = start; i < end; ++i) {
      lo = std::min(lo, values[i]);
      hi = std::max(hi, values[i]);
    }
    const float step = (hi - lo) / 255.0f;
    for (std::size_t i = start; i < end; ++i) {
      EXPECT_NEAR(decoded[i], values[i], step * 0.5f + 1e-4f) << i;
    }
  }
}

TEST(Codec, Int8ANonFiniteInputsDegradeDeterministically) {
  // An infinite value makes its block's range unrepresentable: the whole
  // block degrades to the (0, 0) affine params and decodes to exact zeros.
  std::vector<float> with_inf = random_values(40, 48, 1.0f);
  with_inf[7] = std::numeric_limits<float>::infinity();
  Writer a;
  encode_values(a, with_inf, Codec::kInt8A);
  Writer b;
  encode_values(b, with_inf, Codec::kInt8A);
  const auto bytes = a.take();
  EXPECT_EQ(bytes, b.take());  // byte-identical across encodes
  Reader reader(bytes);
  for (const float v : decode_values(reader)) EXPECT_EQ(v, 0.0f);

  // NaNs are skipped by the param scan and quantize to the block minimum:
  // the decode stays finite everywhere.
  std::vector<float> with_nan = random_values(40, 49, 1.0f);
  with_nan[3] = std::numeric_limits<float>::quiet_NaN();
  Writer writer;
  encode_values(writer, with_nan, Codec::kInt8A);
  const auto nan_bytes = writer.take();
  Reader nan_reader(nan_bytes);
  for (const float v : decode_values(nan_reader)) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Codec, Int8ACountValidatedBeforeAllocation) {
  {
    Writer huge;
    huge.write_u8(0x05);
    huge.write_u64((1ULL << 63) + 9);  // count far past the payload
    huge.write_u32(0);
    const auto bytes = huge.take();
    Reader reader(bytes);
    EXPECT_THROW(decode_values(reader), CheckError);
  }
  {
    // count fits the remaining bytes but the per-block param table does
    // not: the combined bound must reject before the param allocation.
    Writer trunc;
    trunc.write_u8(0x05);
    trunc.write_u64(10);
    for (int i = 0; i < 14; ++i) trunc.write_u8(0);  // 14 < 8 + 10
    const auto bytes = trunc.take();
    Reader reader(bytes);
    EXPECT_THROW(decode_values(reader), CheckError);
  }
}

TEST(Codec, TopK16Int8AAllPrefixesRejected) {
  const std::vector<float> base = random_values(23, 41, 1.0f);
  std::vector<float> values = base;
  for (float& v : values) v += 0.01f;
  Writer topk;
  encode_values(topk, values, Codec::kTopK16, base.data(), base.size(), 5);
  Writer int8;
  encode_values(int8, values, Codec::kInt8A);
  for (const auto& bytes : {topk.take(), int8.take()}) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<std::uint8_t> prefix(bytes.begin(),
                                             bytes.begin() + len);
      Reader reader(prefix);
      EXPECT_THROW(decode_values(reader, base.data(), base.size()),
                   CheckError)
          << "prefix of length " << len << " slipped through";
    }
  }
}

TEST(Codec, TopK16Int8ABitFlipsFailOrPreserveDimension) {
  const std::vector<float> base = random_values(33, 42, 1.0f);
  std::vector<float> values = base;
  for (float& v : values) v += 0.05f;
  const struct {
    Codec codec;
    std::size_t topk;
  } cases[] = {{Codec::kTopK16, 7}, {Codec::kInt8A, 0}};
  for (const auto& c : cases) {
    Writer writer;
    encode_values(writer, values, c.codec, base.data(), base.size(), c.topk);
    const auto bytes = writer.take();
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      for (const int bit : {0, 3, 7}) {
        auto mutated = bytes;
        mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ (1u << bit));
        Reader reader(mutated);
        try {
          const auto decoded =
              decode_values(reader, base.data(), base.size());
          // A decode that leaves trailing bytes (e.g. a count bit flipped
          // low) is rejected by every caller's exhaustion check; only a
          // fully-consumed decode must preserve the dimension.
          if (reader.remaining() == 0) {
            EXPECT_EQ(decoded.size(), values.size())
                << "codec " << codec_name(c.codec) << " byte " << i
                << " bit " << bit;
          }
        } catch (const CheckError&) {
          // clean rejection is equally fine
        }
      }
    }
  }
}

TEST(Codec, RandomGarbageBlocksNeverOverAllocate) {
  rng::Generator gen(43);
  const std::vector<float> base = random_values(16, 44, 1.0f);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> garbage(gen.uniform_index(96));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(gen.uniform_index(256));
    }
    // Half the trials force the new tags so the topk16/int8a paths see the
    // garbage body, not just the tag dispatch.
    if (!garbage.empty()) {
      garbage[0] = (trial % 2 == 0) ? 0x04 : 0x05;
    }
    Reader reader(garbage);
    try {
      const auto decoded = decode_values(reader, base.data(), base.size());
      // topk16 output is sized by the trusted base, int8a by a count
      // bounded against the remaining bytes — never by raw wire values.
      EXPECT_LE(decoded.size(), std::max(garbage.size(), base.size()));
    } catch (const CheckError&) {
    }
  }
}

// --- ModelState wire formats ------------------------------------------------

TEST(StateWire, DefaultToBytesIsLegacyLayoutBitwise) {
  const nn::ModelState state(std::vector<float>{1.5f, -2.0f, 0.25f});
  const auto bytes = state.to_bytes();
  // u32 magic | u64 count | 3 * f32 — assembled by hand.
  Writer writer;
  writer.write_u32(0xCA11B4E5u);
  writer.write_f32_vector(state.values());
  EXPECT_EQ(bytes, writer.take());
  // The codec overload with kF32 must produce exactly the same bytes.
  EXPECT_EQ(state.to_bytes(comm::Codec::kF32), bytes);
  EXPECT_EQ(nn::ModelState::from_bytes(bytes).values(), state.values());
}

TEST(StateWire, CodecLayoutsRoundTripThroughFromBytes) {
  const nn::ModelState base(random_values(64, 21, 1.0f));
  nn::ModelState state = base;
  for (float& v : state.values()) v += 0.003f;

  const auto f16_bytes = state.to_bytes(Codec::kF16);
  const nn::ModelState from_f16 = nn::ModelState::from_bytes(f16_bytes);
  ASSERT_EQ(from_f16.size(), state.size());
  EXPECT_LT(from_f16.l2_distance(state), 1e-2f);

  const auto delta_bytes = state.to_bytes(Codec::kDelta16, &base);
  const nn::ModelState from_delta =
      nn::ModelState::from_bytes(delta_bytes, &base);
  ASSERT_EQ(from_delta.size(), state.size());
  EXPECT_LT(from_delta.l2_distance(state), 1e-4f);
  EXPECT_LT(f16_bytes.size(), state.to_bytes().size() * 0.55);
}

// Every strict prefix of a valid payload must fail with CheckError — never a
// crash, never a giant allocation, never a silent partial decode.
void expect_all_prefixes_rejected(const std::vector<std::uint8_t>& bytes,
                                  const nn::ModelState* base) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + len);
    EXPECT_THROW(nn::ModelState::from_bytes(prefix, base), CheckError)
        << "prefix of length " << len << " slipped through";
  }
}

TEST(StateWire, TruncationFuzzAllCodecs) {
  const nn::ModelState base(random_values(13, 22, 1.0f));
  const nn::ModelState state(random_values(13, 23, 1.0f));
  expect_all_prefixes_rejected(state.to_bytes(), nullptr);
  expect_all_prefixes_rejected(state.to_bytes(Codec::kF16), nullptr);
  expect_all_prefixes_rejected(state.to_bytes(Codec::kDelta16, &base), &base);
}

TEST(StateWire, BitFlipFuzzEitherRejectsOrKeepsDimension) {
  // Flipping any single bit must either fail the magic/count/size checks or
  // decode to a state of the original dimension (a value-byte flip only
  // perturbs one element). Nothing else is acceptable.
  const nn::ModelState base(random_values(13, 24, 1.0f));
  const nn::ModelState state(random_values(13, 25, 1.0f));
  for (const Codec codec : {Codec::kF32, Codec::kF16, Codec::kDelta16}) {
    const auto bytes = state.to_bytes(codec, &base);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      for (const int bit : {0, 3, 7}) {
        auto mutated = bytes;
        mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ (1u << bit));
        try {
          const nn::ModelState decoded =
              nn::ModelState::from_bytes(mutated, &base);
          EXPECT_EQ(decoded.size(), state.size())
              << "codec " << codec_name(codec) << " byte " << i << " bit "
              << bit;
        } catch (const CheckError&) {
          // clean rejection is equally fine
        }
      }
    }
  }
}

TEST(StateWire, RandomGarbageNeverOverAllocates) {
  rng::Generator gen(26);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> garbage(gen.uniform_index(96));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(gen.uniform_index(256));
    }
    try {
      const nn::ModelState decoded = nn::ModelState::from_bytes(garbage);
      // Counts are validated against the remaining payload, so any decode
      // that survives is bounded by the input size.
      EXPECT_LE(decoded.size() * sizeof(std::uint16_t), garbage.size());
    } catch (const CheckError&) {
    }
  }
}

// --- ClientUpdate wire formats ---------------------------------------------

fl::ClientUpdate sample_update(std::uint64_t seed) {
  fl::ClientUpdate update;
  update.state = nn::ModelState(random_values(19, seed, 1.0f));
  update.weight = 32.0f;
  update.scalars = {{"divergence", 0.125f}, {"ssl_loss", 2.5f}};
  return update;
}

TEST(UpdateWire, LegacyLayoutIsDefaultAndBitwiseStable) {
  const fl::ClientUpdate update = sample_update(31);
  const auto bytes = fl::serialize_update(update);
  // Legacy layout: f32 vector | weight | scalar map — assembled by hand.
  Writer writer;
  writer.write_f32_vector(update.state.values());
  writer.write_f32(update.weight);
  writer.write_scalar_map(update.scalars);
  EXPECT_EQ(bytes, writer.take());
  const fl::ClientUpdate decoded = fl::deserialize_update(bytes);
  EXPECT_EQ(decoded.state.values(), update.state.values());
  EXPECT_EQ(decoded.weight, update.weight);
  EXPECT_EQ(decoded.scalars, update.scalars);
}

TEST(UpdateWire, CodecLayoutsRoundTrip) {
  const nn::ModelState broadcast(random_values(19, 32, 1.0f));
  fl::ClientUpdate update = sample_update(31);
  update.state = broadcast;
  for (float& v : update.state.values()) v += 0.002f;

  for (const Codec codec : {Codec::kF16, Codec::kDelta16}) {
    const auto bytes = fl::serialize_update(update, codec, &broadcast);
    const fl::ClientUpdate decoded = fl::deserialize_update(bytes, &broadcast);
    ASSERT_EQ(decoded.state.size(), update.state.size());
    EXPECT_LT(decoded.state.l2_distance(update.state), 1e-2f);
    EXPECT_EQ(decoded.weight, update.weight);
    EXPECT_EQ(decoded.scalars, update.scalars);
    EXPECT_LT(bytes.size(), fl::serialize_update(update).size());
  }
}

TEST(UpdateWire, TruncationFuzzBothLayouts) {
  const nn::ModelState broadcast(random_values(19, 33, 1.0f));
  const fl::ClientUpdate update = sample_update(34);
  for (const auto& bytes :
       {fl::serialize_update(update),
        fl::serialize_update(update, Codec::kF16),
        fl::serialize_update(update, Codec::kDelta16, &broadcast)}) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<std::uint8_t> prefix(bytes.begin(),
                                             bytes.begin() + len);
      EXPECT_THROW(fl::deserialize_update(prefix, &broadcast), CheckError)
          << "prefix of length " << len;
    }
  }
}

TEST(UpdateWire, RandomGarbageFailsCleanly) {
  rng::Generator gen(35);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> garbage(gen.uniform_index(96));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(gen.uniform_index(256));
    }
    try {
      const fl::ClientUpdate decoded = fl::deserialize_update(garbage);
      EXPECT_LE(decoded.state.size() * sizeof(std::uint16_t), garbage.size());
    } catch (const CheckError&) {
    }
  }
}

TEST(UpdateWire, TopK16AndInt8ALayoutsRoundTrip) {
  const nn::ModelState broadcast(random_values(300, 49, 1.0f));
  fl::ClientUpdate update = sample_update(50);
  update.state = broadcast;
  for (float& v : update.state.values()) v += 0.002f;
  const std::size_t f32_size = fl::update_wire_size_f32(update);

  const auto topk_bytes =
      fl::serialize_update(update, Codec::kTopK16, &broadcast, 30);
  EXPECT_EQ(fl::peek_update_codec(topk_bytes), Codec::kTopK16);
  const fl::ClientUpdate from_topk =
      fl::deserialize_update(topk_bytes, &broadcast);
  ASSERT_EQ(from_topk.state.size(), update.state.size());
  EXPECT_EQ(from_topk.weight, update.weight);
  EXPECT_EQ(from_topk.scalars, update.scalars);
  // 30 of 300 coordinates at 6 bytes each: comfortably under a quarter of
  // the f32 layout (the PR's headline compression claim).
  EXPECT_LT(topk_bytes.size(), f32_size / 4);

  const auto int8_bytes = fl::serialize_update(update, Codec::kInt8A);
  EXPECT_EQ(fl::peek_update_codec(int8_bytes), Codec::kInt8A);
  const fl::ClientUpdate from_int8 = fl::deserialize_update(int8_bytes);
  ASSERT_EQ(from_int8.state.size(), update.state.size());
  EXPECT_EQ(from_int8.weight, update.weight);
  // Quantization noise scales with the block ranges; bound it relative to
  // the state's own norm (~1% of a unit-Gaussian state is ample).
  EXPECT_LT(from_int8.state.l2_distance(update.state),
            0.02f * update.state.norm());
  EXPECT_LT(static_cast<double>(int8_bytes.size()),
            static_cast<double>(f32_size) * 0.3);

  EXPECT_EQ(fl::peek_update_codec(fl::serialize_update(update)), Codec::kF32);
}

TEST(UpdateWire, TruncationFuzzNewCodecs) {
  const nn::ModelState broadcast(random_values(19, 52, 1.0f));
  const fl::ClientUpdate update = sample_update(53);
  for (const auto& bytes :
       {fl::serialize_update(update, Codec::kTopK16, &broadcast, 4),
        fl::serialize_update(update, Codec::kInt8A)}) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<std::uint8_t> prefix(bytes.begin(),
                                             bytes.begin() + len);
      EXPECT_THROW(fl::deserialize_update(prefix, &broadcast), CheckError)
          << "prefix of length " << len;
    }
  }
}

// --- Router: shared-payload accounting and concurrent reads -----------------

TEST(Router, SharedBroadcastCountsPhysicalBytesOnce) {
  Router router(2, [](int, int, const Payload&) { return Payload(); });
  constexpr int kClients = 8;
  const Payload snapshot{std::vector<std::uint8_t>(1000, 0x5A)};
  std::vector<std::future<Outcome>> pending;
  for (int e = 0; e < kClients; ++e) {
    pending.push_back(router.dispatch(e, 0, snapshot));  // same buffer
  }
  std::vector<Outcome> outcomes;
  for (std::future<Outcome>& dispatch : pending) {
    std::optional<Outcome> outcome = resolve_within(dispatch);
    ASSERT_TRUE(outcome.has_value());
    outcomes.push_back(std::move(*outcome));
  }
  const auto k = static_cast<std::uint64_t>(kClients);
  const TrafficStats stats = router.stats();
  EXPECT_EQ(stats.messages, 2 * k);  // requests and their empty replies
  EXPECT_EQ(stats.broadcast_bytes, k * (1000 + kHeaderBytes));
  EXPECT_EQ(stats.collected_bytes, k * kHeaderBytes);
  EXPECT_EQ(stats.logical_bytes, stats.broadcast_bytes + stats.collected_bytes);
  // Payload bytes hit the wire once; later sends cost only the header.
  EXPECT_EQ(stats.physical_bytes, 1000 + 2 * k * kHeaderBytes);
  EXPECT_EQ(stats.broadcast_serializations, 1u);
  EXPECT_EQ(stats.collect_serializations, 0u);
  // The first dispatch sent the buffer: requests are counted on the
  // caller's thread, in dispatch order.
  EXPECT_EQ(outcomes.front().traffic.broadcast_serializations, 1u);
}

// Each outcome carries its dispatch's share of the traffic: the shares are
// component-wise parts of the router's totals.
TEST(Router, DispatchTrafficSharesSumToTheTotals) {
  Router router(2, echo);
  FaultConfig fault;
  fault.failure_rate = 0.5f;
  fault.seed = 3;
  router.set_fault_profiles({fault});
  TrafficStats sum;
  for (int round = 0; round < 4; ++round) {
    std::vector<std::future<Outcome>> pending;
    for (int e = 0; e < 5; ++e) {
      pending.push_back(router.dispatch(
          e, round, Payload(std::vector<std::uint8_t>(10 + e, 1)), 1));
    }
    for (std::future<Outcome>& dispatch : pending) {
      const std::optional<Outcome> outcome = resolve_within(dispatch);
      ASSERT_TRUE(outcome.has_value());
      sum += outcome->traffic;
    }
  }
  const TrafficStats totals = router.stats();
  EXPECT_EQ(sum.messages, totals.messages);
  EXPECT_EQ(sum.logical_bytes, totals.logical_bytes);
  EXPECT_EQ(sum.physical_bytes, totals.physical_bytes);
  EXPECT_EQ(sum.broadcast_bytes, totals.broadcast_bytes);
  EXPECT_EQ(sum.collected_bytes, totals.collected_bytes);
  EXPECT_EQ(sum.broadcast_serializations, totals.broadcast_serializations);
  EXPECT_EQ(sum.collect_serializations, totals.collect_serializations);
  EXPECT_EQ(totals.broadcast_serializations, 20u);
  EXPECT_GT(totals.messages, 40u) << "p = 0.5 retries some dispatches";
}

TEST(Router, ConcurrentHandlersReadOneSharedBufferSafely) {
  // The zero-copy contract: many pool threads read the same immutable buffer
  // concurrently with no synchronization beyond the refcount. Run under TSan
  // via calibre_concurrency_tests.
  Router router(4, [](int, int, const Payload& request) {
    std::uint64_t sum = 0;
    for (const std::uint8_t b : request.bytes()) sum += b;
    Writer writer;
    writer.write_u64(sum);
    return Payload(writer.take());
  });
  constexpr int kClients = 16;
  const std::vector<std::uint8_t> blob(4096, 0x3C);
  std::uint64_t expected_sum = 0;
  for (const std::uint8_t b : blob) expected_sum += b;
  const Payload snapshot{std::vector<std::uint8_t>(blob)};
  std::vector<std::future<Outcome>> pending;
  for (int e = 0; e < kClients; ++e) {
    pending.push_back(router.dispatch(e, 0, snapshot));
  }
  for (std::future<Outcome>& dispatch : pending) {
    const std::optional<Outcome> outcome =
        resolve_within(dispatch, std::chrono::seconds(60));
    ASSERT_TRUE(outcome.has_value());
    ASSERT_TRUE(outcome->ok);
    Reader reader(outcome->reply.bytes());
    EXPECT_EQ(reader.read_u64(), expected_sum);
  }
  EXPECT_EQ(router.stats().broadcast_serializations, 1u);
}

// --- heterogeneous device classes + availability schedule -------------------

TEST(Router, FaultProfilesRouteByDeviceClass) {
  std::atomic<int> handler_runs{0};
  Router router(2, [&](int, int, const Payload& request) {
    ++handler_runs;
    return request;
  });
  FaultConfig broken;
  broken.failure_rate = 1.0f;
  broken.seed = 9;
  FaultConfig healthy;
  healthy.seed = 9;
  // Even endpoints are class 0 (always fail), odd ones class 1 (never).
  router.set_fault_profiles({broken, healthy});
  std::vector<std::future<Outcome>> pending;
  for (int e = 0; e < 6; ++e) pending.push_back(router.dispatch(e, 0, {}));
  for (int e = 0; e < 6; ++e) {
    const std::optional<Outcome> outcome =
        resolve_within(pending[static_cast<std::size_t>(e)]);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->ok, e % 2 == 1) << "endpoint " << e;
  }
  EXPECT_EQ(handler_runs.load(), 3);
}

TEST(Router, AvailabilityScheduleIsOfflineForWholeRounds) {
  // duty 0.5 over a 2-round period: every endpoint alternates online /
  // offline with a per-endpoint phase. Offline attempts fail before the
  // handler with the dedicated error text, and a retry in the same round
  // keeps failing — the schedule ignores the attempt counter on purpose.
  std::atomic<int> handler_runs{0};
  Router router(2, [&](int, int, const Payload& request) {
    ++handler_runs;
    return request;
  });
  FaultConfig fault;
  fault.seed = 33;
  fault.duty_cycle = 0.5f;
  fault.period_rounds = 2;
  router.set_fault_profiles({fault});
  int online_rounds = 0;
  for (int round = 0; round < 6; ++round) {
    std::future<Outcome> pending = router.dispatch(7, round, {}, 1);
    const std::optional<Outcome> outcome = resolve_within(pending);
    ASSERT_TRUE(outcome.has_value());
    if (outcome->ok) {
      ++online_rounds;
      EXPECT_EQ(outcome->delays_ms.size(), 1u);
    } else {
      EXPECT_EQ(outcome->error, kOfflineErrorText);
      EXPECT_EQ(outcome->delays_ms.size(), 2u)
          << "round " << round << ": the retry found the device online";
    }
  }
  // duty 0.5, period 2: exactly one online round per period, so 3 of 6.
  EXPECT_EQ(online_rounds, 3);
  EXPECT_EQ(handler_runs.load(), online_rounds);
}

TEST(Router, RejectsInvalidFaultConfigs) {
  Router router(1, echo);
  FaultConfig fault;
  fault.failure_rate = 1.5f;
  EXPECT_THROW(router.set_fault_profiles({fault}), CheckError);
  fault.failure_rate = 0.0f;
  fault.latency_ms = -1;
  EXPECT_THROW(router.set_fault_profiles({fault}), CheckError);
  fault.latency_ms = 0;
  fault.duty_cycle = 0.5f;  // needs period_rounds > 0
  EXPECT_THROW(router.set_fault_profiles({fault}), CheckError);
  fault.duty_cycle = 1.0f;
  EXPECT_THROW(router.set_fault_profiles({}), CheckError);
}

// Injected latency is virtual: every attempt runs at once and the outcome
// reports its seeded delay for the caller's clock. With ONE pool thread and
// a 300 ms cap, eight dispatches therefore all resolve at once, where delays
// slept on the pool (or even waited out concurrently) would take at least
// the largest.
TEST(Router, InjectedLatencyDoesNotSerializeOnPoolWorkers) {
  Router router(1, echo);
  constexpr int kDispatches = 8;
  FaultConfig fault;
  fault.latency_ms = 300;
  fault.seed = 5;
  router.set_fault_profiles({fault});
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<Outcome>> pending;
  for (int i = 0; i < kDispatches; ++i) {
    pending.push_back(router.dispatch(0, i, {}));
  }
  std::vector<int> delays;
  for (std::future<Outcome>& dispatch : pending) {
    const std::optional<Outcome> outcome = resolve_within(dispatch);
    ASSERT_TRUE(outcome.has_value());
    ASSERT_EQ(outcome->delays_ms.size(), 1u);
    delays.push_back(outcome->delays_ms.front());
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // The one worker runs the dispatches in order: the i-th is endpoint 0's
  // i-th attempt (attempt i) of round i.
  for (int i = 0; i < kDispatches; ++i) {
    EXPECT_EQ(delays[static_cast<std::size_t>(i)],
              injected_delay_ms(fault, 0, i, static_cast<std::uint64_t>(i)))
        << "dispatch " << i;
  }
  const int longest = *std::max_element(delays.begin(), delays.end());
  EXPECT_GT(longest, 150) << "this seed draws a delay worth waiting for";
  EXPECT_LE(longest, fault.latency_ms);
  EXPECT_LT(elapsed, std::chrono::milliseconds(longest))
      << "the router waited out an injected delay";
}

}  // namespace
}  // namespace calibre::comm
