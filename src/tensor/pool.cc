#include "tensor/pool.h"

#include <array>
#include <atomic>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/env.h"

namespace calibre::tensor::pool {
namespace {

constexpr std::size_t kAlignment = 64;  // covers every SIMD width we emit

// Bucket caps: free lists never hold more than kMaxPerBucket buffers, and a
// thread never parks more than kMaxCachedBytes in total. Beyond either cap a
// released buffer is freed instead (Stats::drops).
constexpr std::size_t kMaxPerBucket = 64;
constexpr std::uint64_t kMaxCachedBytes = std::uint64_t{1} << 28;  // 256 MiB

// Bucket index of a request: smallest power-of-two class >= n, floored at
// kMinBucketFloats. Index 0 holds kMinBucketFloats-float buffers.
std::size_t bucket_index(std::size_t n) {
  std::size_t capacity = kMinBucketFloats;
  std::size_t index = 0;
  while (capacity < n) {
    capacity <<= 1;
    ++index;
  }
  return index;
}

std::size_t bucket_floats(std::size_t index) {
  return kMinBucketFloats << index;
}

constexpr std::size_t kNumBuckets = 24;  // 8 .. 8*2^23 = 64Mi floats

float* raw_alloc(std::size_t floats) {
  return static_cast<float*>(
      ::operator new(floats * sizeof(float), std::align_val_t{kAlignment}));
}

void raw_free(float* p) noexcept {
  ::operator delete(p, std::align_val_t{kAlignment});
}

struct ThreadCache {
  std::array<std::vector<float*>, kNumBuckets> free_lists;
  // Room for kMaxSpares each is reserved up front, so give() never
  // allocates.
  std::vector<std::vector<float>> float_spares;
  std::vector<std::vector<std::uint64_t>> word_spares;
  Stats stats;

  ThreadCache() {
    float_spares.reserve(kMaxSpares);
    word_spares.reserve(kMaxSpares);
  }

  ~ThreadCache() {
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      for (float* p : free_lists[b]) raw_free(p);
      free_lists[b].clear();
    }
  }
};

// The cache is reached through a raw thread_local pointer that the owning
// wrapper nulls in its destructor, so releases that happen during thread
// teardown (after the cache is gone) degrade to plain frees instead of
// touching a destroyed object. acquire() constructs on first use.
thread_local ThreadCache* tls_cache = nullptr;

struct CacheOwner {
  ThreadCache cache;
  CacheOwner() { tls_cache = &cache; }
  ~CacheOwner() { tls_cache = nullptr; }
};

ThreadCache& cache_for_thread() {
  static thread_local CacheOwner owner;
  return owner.cache;
}

template <typename T>
std::vector<std::vector<T>>& spares_of(ThreadCache& cache) {
  if constexpr (std::is_same_v<T, float>) {
    return cache.float_spares;
  } else {
    return cache.word_spares;
  }
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{
      env::get_flag("CALIBRE_TENSOR_POOL", /*fallback=*/true)};
  return flag;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

Stats thread_stats() { return cache_for_thread().stats; }

void reset_thread_stats() {
  Stats& stats = cache_for_thread().stats;
  stats.hits = stats.misses = stats.miss_bytes = stats.releases =
      stats.drops = stats.spare_hits = stats.spare_misses = 0;
}

std::int64_t outstanding() { return cache_for_thread().stats.outstanding; }

void reset() {
  ThreadCache& cache = cache_for_thread();
  CALIBRE_CHECK_MSG(cache.stats.outstanding == 0,
                    "tensor pool reset() with "
                        << cache.stats.outstanding
                        << " buffers still checked out on this thread — "
                           "destroy all tensors/graphs before resetting");
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    for (float* p : cache.free_lists[b]) raw_free(p);
    cache.free_lists[b].clear();
  }
  cache.stats.cached_bytes = 0;
  release_spares();
}

template <typename T>
std::vector<T> take(std::size_t n) {
  std::vector<T> storage;
  if (n < kMinSpareBytes / sizeof(T)) {
    storage.reserve(n);
    return storage;
  }
  ThreadCache& cache = cache_for_thread();
  std::vector<std::vector<T>>& spares = spares_of<T>(cache);
  std::size_t best = spares.size();
  for (std::size_t i = 0; enabled() && i < spares.size(); ++i) {
    if (spares[i].capacity() >= n &&
        (best == spares.size() ||
         spares[i].capacity() < spares[best].capacity())) {
      best = i;
    }
  }
  if (best < spares.size()) {
    storage.swap(spares[best]);
    spares[best].swap(spares.back());
    spares.pop_back();
    --cache.stats.spares;
    ++cache.stats.spare_hits;
    storage.clear();
    return storage;
  }
  ++cache.stats.spare_misses;
  storage.reserve(n);
  return storage;
}

template <typename T>
void give(std::vector<T>&& storage) noexcept {
  ThreadCache* cache = tls_cache;  // null during thread/static teardown
  if (cache == nullptr || !enabled() ||
      storage.capacity() < kMinSpareBytes / sizeof(T)) {
    return;
  }
  std::vector<std::vector<T>>& spares = spares_of<T>(*cache);
  if (spares.size() >= kMaxSpares) return;
  spares.push_back(std::move(storage));  // within the reserved capacity
  ++cache->stats.spares;
}

template std::vector<float> take<float>(std::size_t n);
template std::vector<std::uint64_t> take<std::uint64_t>(std::size_t n);
template void give<float>(std::vector<float>&& storage) noexcept;
template void give<std::uint64_t>(
    std::vector<std::uint64_t>&& storage) noexcept;

void release_spares() {
  ThreadCache& cache = cache_for_thread();
  cache.float_spares.clear();
  cache.word_spares.clear();
  cache.stats.spares = 0;
}

float* acquire(std::size_t n) {
  if (n > kMaxBucketFloats) return raw_alloc(n);  // bypass: not pool traffic
  ThreadCache& cache = cache_for_thread();
  const std::size_t index = bucket_index(n);
  ++cache.stats.outstanding;
  if (enabled()) {
    std::vector<float*>& list = cache.free_lists[index];
    if (!list.empty()) {
      float* p = list.back();
      list.pop_back();
      cache.stats.cached_bytes -= bucket_floats(index) * sizeof(float);
      ++cache.stats.hits;
      return p;
    }
    ++cache.stats.misses;
    cache.stats.miss_bytes += bucket_floats(index) * sizeof(float);
    // Allocate the full bucket capacity so this buffer can later serve any
    // request of the same class.
    return raw_alloc(bucket_floats(index));
  }
  ++cache.stats.misses;
  cache.stats.miss_bytes += bucket_floats(index) * sizeof(float);
  // Disabled: restore the seed's storage behavior — every buffer is a fresh
  // zeroed allocation (std::vector<float> value-init), the baseline the
  // train_step bench measures and a deterministic safety net for debugging
  // suspected stale-read bugs.
  float* p = raw_alloc(bucket_floats(index));
  std::memset(p, 0, n * sizeof(float));
  return p;
}

void release(float* p, std::size_t n) noexcept {
  if (p == nullptr) return;
  if (n > kMaxBucketFloats) {
    raw_free(p);
    return;
  }
  ThreadCache* cache = tls_cache;  // null during thread/static teardown
  if (cache != nullptr) --cache->stats.outstanding;
  const std::size_t index = bucket_index(n);
  const std::uint64_t bytes = bucket_floats(index) * sizeof(float);
  if (cache == nullptr || !enabled() ||
      cache->free_lists[index].size() >= kMaxPerBucket ||
      cache->stats.cached_bytes + bytes > kMaxCachedBytes) {
    if (cache != nullptr) ++cache->stats.drops;
    raw_free(p);
    return;
  }
  cache->free_lists[index].push_back(p);
  cache->stats.cached_bytes += bytes;
  ++cache->stats.releases;
}

}  // namespace calibre::tensor::pool
