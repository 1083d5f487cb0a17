// Pooled tensor storage: a per-thread, size-bucketed free-list cache of the
// float buffers backing every Tensor.
//
// Motivation (see DESIGN.md "Tensor storage pool"): after the kernel layer
// made the GEMMs fast, a training step became dominated by allocation churn —
// every autograd op allocates a fresh output tensor plus backward gradients,
// so one SimCLR local step performs hundreds of heap allocations and keeps
// re-touching cold memory. The pool recycles those buffers: step t+1's
// forward/backward graph runs almost entirely in step t's (cache-warm)
// storage.
//
// Design:
//  * Storage unit: raw 64-byte-aligned float buffers sized to power-of-two
//    "bucket classes" (min kMinBucketFloats). A request of n floats is served
//    by a buffer of capacity round_up_pow2(n), so any cached buffer of the
//    matching class can satisfy any request of that class.
//  * Ownership: strictly per-thread. Each thread owns an independent
//    ThreadCache; acquisition and release touch only thread-local state (no
//    locks, no atomics on the hot path). A buffer released on a different
//    thread than it was acquired on simply migrates to the releasing
//    thread's cache — safe because buffers are plain operator-new memory.
//  * Lifetime: Tensor storage is std::vector<float, PoolAllocator>, so
//    acquisition happens in the Tensor constructor and recycling in the
//    destructor, with zero API change for callers. Vector moves steal the
//    buffer as before (the allocator is stateless). Element construction is
//    default-init (a no-op for float): buffers come back with unspecified
//    contents and every constructor that promises zeros fills explicitly,
//    which is what makes recycling bitwise-deterministic.
//  * reset() releases a thread's cached buffers back to the OS. It is
//    CALIBRE_CHECK-rejected while any pooled buffer is still checked out on
//    the calling thread (a live tensor/graph): recycling between optimizer
//    steps is automatic via the free lists and needs no reset; reset exists
//    to bound memory between workloads (e.g. a Runner worker between
//    clients), never mid-graph.
//  * Kill-switch: CALIBRE_TENSOR_POOL=0 (env, read once) or set_enabled()
//    disables caching and restores the seed's storage behavior: every
//    acquisition is a fresh ZEROED allocation (std::vector value-init) and
//    every release goes straight to operator delete. That is both the
//    baseline the train_step bench measures against and a deterministic
//    debugging mode — a buffer an op fails to overwrite reads as zeros, not
//    recycled garbage. Numerics are bitwise identical either way (every op
//    fully writes its output before it escapes).
//  * Caps: per-bucket and per-thread cached-byte limits bound the cache;
//    beyond them released buffers are freed (counted in Stats::drops).
//  * Spares: model-sized std::vector storage (a ModelState's floats, a
//    fold accumulator's words) cannot use PoolAllocator, because its type
//    is part of public signatures. Its owners give it back here instead
//    when they die (give) and take it again for the next buffer of that
//    size (take), under the same per-thread ownership, the same
//    kill-switch and a cap of kMaxSpares per type and thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

namespace calibre::tensor::pool {

// Smallest bucket, in floats. Requests below this round up to it.
inline constexpr std::size_t kMinBucketFloats = 8;

// Largest pooled request, in floats (256 MiB). Bigger buffers bypass the
// cache entirely (plain new/delete) and are not counted as pool traffic.
inline constexpr std::size_t kMaxBucketFloats = std::size_t{1} << 26;

// Per-thread allocation counters. `misses` is the number of real heap
// allocations — the "allocations" the train_step bench reports per step.
struct Stats {
  std::uint64_t hits = 0;        // servings from the free lists
  std::uint64_t misses = 0;      // servings from operator new
  std::uint64_t miss_bytes = 0;  // bytes of those operator-new servings
  std::uint64_t releases = 0;    // buffers parked back into the free lists
  std::uint64_t drops = 0;       // buffers freed because a cap was exceeded
  std::uint64_t cached_bytes = 0;  // bytes currently parked on this thread
  std::int64_t outstanding = 0;    // buffers checked out on this thread
  std::uint64_t spare_hits = 0;    // take()s served by a parked spare
  std::uint64_t spare_misses = 0;  // take()s served by operator new
  std::uint64_t spares = 0;        // spares parked on this thread now
};

// Process-wide switch (initialised from CALIBRE_TENSOR_POOL, default on).
bool enabled();
void set_enabled(bool on);

// Counters of the calling thread's cache.
Stats thread_stats();
// Zeroes the calling thread's hit/miss/release/drop counters
// (cached_bytes/outstanding/spares describe live state and are preserved).
void reset_thread_stats();

// Buffers checked out on the calling thread (acquired minus released here;
// can go negative on a thread that releases buffers acquired elsewhere).
std::int64_t outstanding();

// Releases every buffer cached by the calling thread back to the OS,
// spares included. CALIBRE_CHECK-fails when outstanding() != 0 — i.e.
// while any tensor or autograd graph built on this thread is still alive.
void reset();

// --- Spares ------------------------------------------------------------------
// Smallest storage that counts as a spare; smaller vectors are neither
// parked nor counted.
inline constexpr std::size_t kMinSpareBytes = std::size_t{1} << 20;
// Spares of one element type a thread parks at most: one window's lo/hi
// accumulator arrays at agg_shards 2, or a device thread's decoded
// broadcast and update state with room to spare.
inline constexpr std::size_t kMaxSpares = 4;

// An empty vector whose capacity fits `n` elements: the calling thread's
// best-fitting parked spare, else a fresh reservation. Contents are
// unspecified until written, so the taker writes every element before
// anything reads it. T is float or std::uint64_t.
template <typename T>
std::vector<T> take(std::size_t n);

// Parks `storage` on the calling thread (leaving it empty) when it is a
// spare, the switch is on and the thread holds fewer than kMaxSpares of
// its type; otherwise leaves it with the caller, who frees it as before.
template <typename T>
void give(std::vector<T>&& storage) noexcept;

// Frees every spare parked on the calling thread.
void release_spares();

// Raw buffer interface (the allocator below is the only production caller).
// acquire returns at least round_up_pow2(n) floats of 64-byte-aligned
// storage with unspecified contents; release must receive the same n.
float* acquire(std::size_t n);
void release(float* p, std::size_t n) noexcept;

// std::vector allocator backed by the thread-local pool. Element
// construction is default-init (no-op for float), so vector(n)/resize(n)
// do NOT zero — Tensor fills explicitly where zeros are promised.
struct PoolAllocator {
  using value_type = float;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::true_type;

  // Containers rebind their allocator to the element type; this allocator
  // only ever serves float (FloatStore), so every rebind is the identity.
  template <typename U>
  struct rebind {
    static_assert(std::is_same_v<U, float>,
                  "PoolAllocator only allocates float storage");
    using other = PoolAllocator;
  };

  PoolAllocator() = default;

  float* allocate(std::size_t n) { return acquire(n); }
  void deallocate(float* p, std::size_t n) noexcept { release(p, n); }

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(static_cast<Args&&>(args)...);
  }
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;  // default-init: no-op for float
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
  friend bool operator!=(const PoolAllocator&, const PoolAllocator&) {
    return false;
  }
};

}  // namespace calibre::tensor::pool
