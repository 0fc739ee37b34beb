// LruMap semantics and the bounded metamodel cache: max-entries eviction,
// recency updates, and the hit/miss/eviction statistics accessors.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "engine/metamodel_cache.h"
#include "util/lru_map.h"

namespace reds {
namespace {

TEST(LruMapTest, PutGetAndEviction) {
  LruMap<int, std::string> map(2);
  map.Put(1, "one");
  map.Put(2, "two");
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.evictions(), 0u);

  map.Put(3, "three");  // evicts 1, the least recently used
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.evictions(), 1u);
  EXPECT_EQ(map.Get(1), nullptr);
  ASSERT_NE(map.Get(2), nullptr);
  EXPECT_EQ(*map.Get(3), "three");
}

TEST(LruMapTest, GetRefreshesRecency) {
  LruMap<int, int> map(2);
  map.Put(1, 10);
  map.Put(2, 20);
  ASSERT_NE(map.Get(1), nullptr);  // 1 becomes most recent
  map.Put(3, 30);                  // evicts 2, not 1
  EXPECT_NE(map.Get(1), nullptr);
  EXPECT_EQ(map.Get(2), nullptr);
  EXPECT_NE(map.Get(3), nullptr);
}

TEST(LruMapTest, PeekDoesNotRefreshRecency) {
  LruMap<int, int> map(2);
  map.Put(1, 10);
  map.Put(2, 20);
  ASSERT_NE(map.Peek(1), nullptr);  // no touch
  map.Put(3, 30);                   // still evicts 1
  EXPECT_EQ(map.Get(1), nullptr);
}

TEST(LruMapTest, PutOverwritesInPlace) {
  LruMap<int, int> map(2);
  map.Put(1, 10);
  map.Put(2, 20);
  map.Put(1, 11);  // overwrite, no growth, no eviction
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.evictions(), 0u);
  EXPECT_EQ(*map.Get(1), 11);
}

TEST(LruMapTest, ZeroCapacityIsUnbounded) {
  LruMap<int, int> map(0);
  for (int i = 0; i < 100; ++i) map.Put(i, i);
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(map.evictions(), 0u);
}

TEST(LruMapTest, SetCapacityEvictsDown) {
  LruMap<int, int> map(0);
  for (int i = 0; i < 10; ++i) map.Put(i, i);
  map.SetCapacity(3);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.evictions(), 7u);
  // The three most recent survive.
  EXPECT_NE(map.Peek(9), nullptr);
  EXPECT_NE(map.Peek(8), nullptr);
  EXPECT_NE(map.Peek(7), nullptr);
}

TEST(LruMapTest, EraseAndClearAreNotEvictions) {
  LruMap<int, int> map(5);
  map.Put(1, 10);
  map.Put(2, 20);
  EXPECT_TRUE(map.Erase(1));
  EXPECT_FALSE(map.Erase(1));
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.evictions(), 0u);
}

namespace fake {

// Minimal metamodel: the cache only stores pointers, never predicts.
class StubModel : public ml::Metamodel {
 public:
  void Fit(const Dataset&, uint64_t) override {}
  void PredictBlock(la::ConstMatrixView x, double* out) const override {
    std::fill(out, out + x.rows(), 0.5);
  }
  int num_features() const override { return 1; }
};

std::shared_ptr<const ml::Metamodel> MakeStub() {
  return std::make_shared<StubModel>();
}

engine::MetamodelKey KeyFor(uint64_t fingerprint) {
  engine::MetamodelKey key;
  key.fingerprint = fingerprint;
  return key;
}

}  // namespace fake

TEST(MetamodelCacheLruTest, EvictsBeyondCapacityAndRefits) {
  engine::MetamodelCache cache(/*capacity=*/2);
  cache.GetOrFit(fake::KeyFor(1), fake::MakeStub);
  cache.GetOrFit(fake::KeyFor(2), fake::MakeStub);
  cache.GetOrFit(fake::KeyFor(3), fake::MakeStub);  // evicts key 1
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.fit_count(), 3);
  EXPECT_EQ(cache.eviction_count(), 1u);

  // Key 1 was evicted: asking again is a miss that refits (and evicts 2).
  cache.GetOrFit(fake::KeyFor(1), fake::MakeStub);
  EXPECT_EQ(cache.fit_count(), 4);
  EXPECT_EQ(cache.eviction_count(), 2u);
  // Keys 3 and 1 are resident: both hit without fitting.
  cache.GetOrFit(fake::KeyFor(3), fake::MakeStub);
  cache.GetOrFit(fake::KeyFor(1), fake::MakeStub);
  EXPECT_EQ(cache.fit_count(), 4);
  EXPECT_EQ(cache.hit_count(), 2);
}

TEST(MetamodelCacheLruTest, HitsRefreshRecency) {
  engine::MetamodelCache cache(/*capacity=*/2);
  cache.GetOrFit(fake::KeyFor(1), fake::MakeStub);
  cache.GetOrFit(fake::KeyFor(2), fake::MakeStub);
  cache.GetOrFit(fake::KeyFor(1), fake::MakeStub);  // hit: 1 most recent
  cache.GetOrFit(fake::KeyFor(3), fake::MakeStub);  // evicts 2, not 1
  cache.GetOrFit(fake::KeyFor(1), fake::MakeStub);  // still resident
  EXPECT_EQ(cache.fit_count(), 3);
  EXPECT_EQ(cache.hit_count(), 2);
}

TEST(MetamodelCacheLruTest, StatsSnapshot) {
  engine::MetamodelCache cache(/*capacity=*/4);
  cache.GetOrFit(fake::KeyFor(1), fake::MakeStub);
  cache.GetOrFit(fake::KeyFor(1), fake::MakeStub);
  const engine::MetamodelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.fits, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 1);
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_EQ(cache.capacity(), 4u);
}

TEST(MetamodelCacheLruTest, InFlightFitSurvivesEvictionPressure) {
  // An in-flight fit is pinned: even with capacity 1 and other keys
  // churning the LRU, a racing request for the same key must wait on the
  // one running fit instead of training a duplicate.
  engine::MetamodelCache cache(/*capacity=*/1);
  std::atomic<bool> release{false};
  std::atomic<int> slow_fits{0};

  std::thread slow([&] {
    cache.GetOrFit(fake::KeyFor(100), [&] {
      slow_fits.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      return fake::MakeStub();
    });
  });
  // Churn the (capacity 1) completed-model LRU while key 100 is fitting.
  while (slow_fits.load() == 0) std::this_thread::yield();
  for (uint64_t i = 0; i < 8; ++i) cache.GetOrFit(fake::KeyFor(i), fake::MakeStub);

  std::thread waiter([&] {
    // Must join the in-flight fit (a hit), not start a second one.
    cache.GetOrFit(fake::KeyFor(100), [&] {
      slow_fits.fetch_add(1);
      return fake::MakeStub();
    });
  });
  release.store(true);
  slow.join();
  waiter.join();
  EXPECT_EQ(slow_fits.load(), 1);
}

TEST(MetamodelCacheLruTest, UnboundedByDefault) {
  engine::MetamodelCache cache;
  for (uint64_t i = 0; i < 300; ++i) {
    cache.GetOrFit(fake::KeyFor(i), fake::MakeStub);
  }
  EXPECT_EQ(cache.size(), 300);
  EXPECT_EQ(cache.eviction_count(), 0u);
}

}  // namespace
}  // namespace reds
