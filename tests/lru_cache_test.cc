// LruMap semantics and the single-flight memo behind every cache tier:
// max-entries eviction, recency updates, registry counters, pinned
// in-flight builds, uncached failures, and one build per key under races.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/metamodel_cache.h"
#include "obs/metrics.h"
#include "util/lru_map.h"
#include "util/memo.h"

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

// Spins until `done` holds; the memo tests use it to wait for threads to
// reach a known point (a join counted in hits(), a build started).
template <typename Pred>
void SpinUntil(Pred done) {
  while (!done()) std::this_thread::yield();
}

using IntMemo = Memo<int, std::shared_ptr<const int>>;

std::shared_ptr<const int> Boxed(int v) { return std::make_shared<const int>(v); }

TEST(MemoTest, EvictsBeyondCapacityAndRebuilds) {
  IntMemo memo(/*capacity=*/2, nullptr, "test");
  int builds = 0;
  const auto build = [&builds] { return Boxed(++builds); };
  memo.GetOrBuild(1, build);
  memo.GetOrBuild(2, build);
  memo.GetOrBuild(3, build);  // evicts key 1
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.misses(), 3u);
  EXPECT_EQ(memo.evictions(), 1u);

  // Key 1 was evicted: asking again is a miss that rebuilds (and evicts 2).
  memo.GetOrBuild(1, build);
  EXPECT_EQ(memo.misses(), 4u);
  EXPECT_EQ(memo.evictions(), 2u);
  // Keys 3 and 1 are resident: both hit without building.
  EXPECT_EQ(*memo.GetOrBuild(3, build), 3);
  EXPECT_EQ(*memo.GetOrBuild(1, build), 4);
  EXPECT_EQ(builds, 4);
  EXPECT_EQ(memo.hits(), 2u);
}

TEST(MemoTest, HitsRefreshRecency) {
  IntMemo memo(/*capacity=*/2, nullptr, "test");
  const auto build = [] { return Boxed(0); };
  memo.GetOrBuild(1, build);
  memo.GetOrBuild(2, build);
  memo.GetOrBuild(1, build);  // hit: 1 most recent
  memo.GetOrBuild(3, build);  // evicts 2, not 1
  memo.GetOrBuild(1, build);  // still resident
  EXPECT_EQ(memo.misses(), 3u);
  EXPECT_EQ(memo.hits(), 2u);
}

TEST(MemoTest, CountersAndSizeGaugeLiveInTheRegistry) {
  obs::MetricsRegistry registry;
  IntMemo memo(/*capacity=*/1, &registry, "cache.test", "builds");
  MemoOutcome outcome = MemoOutcome::kHit;
  memo.GetOrBuild(1, [] { return Boxed(1); }, &outcome);
  EXPECT_EQ(outcome, MemoOutcome::kBuilt);
  memo.GetOrBuild(1, [] { return Boxed(1); }, &outcome);
  EXPECT_EQ(outcome, MemoOutcome::kHit);
  memo.GetOrBuild(2, [] { return Boxed(2); });  // evicts 1
  EXPECT_EQ(registry.CounterValue("cache.test.builds"), 2u);
  EXPECT_EQ(registry.CounterValue("cache.test.hits"), 1u);
  EXPECT_EQ(registry.CounterValue("cache.test.evictions"), 1u);
  EXPECT_EQ(registry.GaugeValue("cache.test.size"), 1);
  memo.Clear();  // a drop, not an eviction; counters are kept
  EXPECT_EQ(registry.GaugeValue("cache.test.size"), 0);
  EXPECT_EQ(registry.CounterValue("cache.test.evictions"), 1u);
  EXPECT_EQ(memo.misses(), 2u);
}

TEST(MemoTest, MetamodelTierKeepsItsMetricNames) {
  obs::MetricsRegistry registry;
  engine::MetamodelCache cache(/*capacity=*/4, &registry, "cache.metamodel",
                               "fits");
  engine::MetamodelKey key;
  key.fingerprint = 7;
  cache.GetOrBuild(key, [] { return std::shared_ptr<const ml::Metamodel>(); });
  cache.GetOrBuild(key, [] { return std::shared_ptr<const ml::Metamodel>(); });
  EXPECT_EQ(registry.CounterValue("cache.metamodel.fits"), 1u);
  EXPECT_EQ(registry.CounterValue("cache.metamodel.hits"), 1u);
  EXPECT_EQ(registry.GaugeValue("cache.metamodel.size"), 1);
}

TEST(MemoTest, InFlightBuildSurvivesEvictionPressure) {
  // An in-flight build is pinned: even with capacity 1 and other keys
  // churning the LRU, a racing request for the same key must wait on the
  // one running build instead of starting a duplicate.
  IntMemo memo(/*capacity=*/1, nullptr, "test");
  std::atomic<bool> release{false};
  std::atomic<int> slow_builds{0};

  std::thread slow([&] {
    memo.GetOrBuild(100, [&] {
      slow_builds.fetch_add(1);
      SpinUntil([&] { return release.load(); });
      return Boxed(100);
    });
  });
  // Churn the (capacity 1) finished-entry LRU while key 100 is building.
  SpinUntil([&] { return slow_builds.load() == 1; });
  for (int i = 0; i < 8; ++i) memo.GetOrBuild(i, [i] { return Boxed(i); });
  EXPECT_EQ(memo.size(), 2u);  // one finished + the pinned in-flight build

  const uint64_t hits_before = memo.hits();
  MemoOutcome outcome = MemoOutcome::kBuilt;
  std::thread waiter([&] {
    memo.GetOrBuild(
        100,
        [&] {
          slow_builds.fetch_add(1);
          return Boxed(-1);
        },
        &outcome);
  });
  SpinUntil([&] { return memo.hits() == hits_before + 1; });
  release.store(true);
  slow.join();
  waiter.join();
  EXPECT_EQ(slow_builds.load(), 1);
  EXPECT_EQ(outcome, MemoOutcome::kJoined);
}

TEST(MemoTest, ThrowingBuildIsNotCachedAndEveryWaiterSeesIt) {
  IntMemo memo(/*capacity=*/4, nullptr, "test");
  std::atomic<bool> release{false};
  std::atomic<bool> building{false};
  constexpr int kWaiters = 3;
  std::atomic<int> caught{0};

  std::thread owner([&] {
    try {
      memo.GetOrBuild(1, [&]() -> std::shared_ptr<const int> {
        building.store(true);
        SpinUntil([&] { return release.load(); });
        throw std::runtime_error("build failed");
      });
    } catch (const std::runtime_error& e) {
      if (std::string(e.what()) == "build failed") caught.fetch_add(1);
    }
  });
  SpinUntil([&] { return building.load(); });
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      try {
        memo.GetOrBuild(1, [] { return Boxed(-1); });
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()) == "build failed") caught.fetch_add(1);
      }
    });
  }
  SpinUntil([&] { return memo.hits() == static_cast<uint64_t>(kWaiters); });
  release.store(true);
  owner.join();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(caught.load(), 1 + kWaiters);
  EXPECT_EQ(memo.size(), 0u);

  // Nothing was cached: the next call builds again, and that result stays.
  EXPECT_EQ(*memo.GetOrBuild(1, [] { return Boxed(11); }), 11);
  EXPECT_EQ(*memo.GetOrBuild(1, [] { return Boxed(12); }), 11);
  EXPECT_EQ(memo.misses(), 2u);
}

TEST(MemoTest, ConcurrentCallersOfOneKeyShareOneBuild) {
  IntMemo memo(/*capacity=*/4, nullptr, "test");
  constexpr int kThreads = 8;
  std::atomic<int> builds{0};
  std::atomic<bool> go{false};
  std::vector<std::shared_ptr<const int>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      SpinUntil([&] { return go.load(); });
      got[static_cast<size_t>(i)] = memo.GetOrBuild(5, [&] {
        builds.fetch_add(1);
        // Hold the build open until every other caller has joined it.
        SpinUntil([&] { return memo.hits() == static_cast<uint64_t>(kThreads - 1); });
        return Boxed(5);
      });
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), static_cast<uint64_t>(kThreads - 1));
  for (const auto& value : got) EXPECT_EQ(value.get(), got[0].get());
}

TEST(MemoTest, ClearNeverLetsAFinishedAttemptOverwriteItsSuccessor) {
  IntMemo memo(/*capacity=*/4, nullptr, "test");
  std::atomic<bool> release{false};
  std::atomic<bool> building{false};
  std::shared_ptr<const int> first;
  std::thread owner([&] {
    first = memo.GetOrBuild(1, [&] {
      building.store(true);
      SpinUntil([&] { return release.load(); });
      return Boxed(1);
    });
  });
  SpinUntil([&] { return building.load(); });
  memo.Clear();
  // A successor attempt starts and finishes while the first still runs.
  EXPECT_EQ(*memo.GetOrBuild(1, [] { return Boxed(2); }), 2);
  release.store(true);
  owner.join();
  EXPECT_EQ(*first, 1);  // the first attempt's caller still gets its value
  EXPECT_EQ(*memo.GetOrBuild(1, [] { return Boxed(3); }), 2);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(MemoTest, ZeroCapacityIsUnbounded) {
  IntMemo memo(/*capacity=*/0, nullptr, "test");
  for (int i = 0; i < 300; ++i) memo.GetOrBuild(i, [i] { return Boxed(i); });
  EXPECT_EQ(memo.size(), 300u);
  EXPECT_EQ(memo.evictions(), 0u);
}

}  // namespace
}  // namespace reds
