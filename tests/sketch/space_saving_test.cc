#include "slb/sketch/space_saving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "slb/common/rng.h"
#include "slb/workload/zipf.h"

namespace slb {
namespace {

TEST(SpaceSavingTest, ExactWhenUnderCapacity) {
  SpaceSaving ss(10);
  for (int i = 0; i < 5; ++i) {
    for (int r = 0; r <= i; ++r) ss.UpdateAndEstimate(i);
  }
  // Key i occurred i+1 times; capacity never exceeded, so counts are exact.
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ss.Estimate(i), i + 1);
    EXPECT_EQ(ss.GuaranteedCount(i), i + 1);
  }
  EXPECT_EQ(ss.total(), 15u);
  EXPECT_EQ(ss.Estimate(999), 0u) << "unknown key, structure not full";
}

TEST(SpaceSavingTest, UpdateReturnsNewCount) {
  SpaceSaving ss(4);
  EXPECT_EQ(ss.UpdateAndEstimate(7), 1u);
  EXPECT_EQ(ss.UpdateAndEstimate(7), 2u);
  EXPECT_EQ(ss.UpdateAndEstimate(7), 3u);
}

TEST(SpaceSavingTest, EvictionChargesError) {
  SpaceSaving ss(2);
  ss.UpdateAndEstimate(1);  // {1:1}
  ss.UpdateAndEstimate(1);  // {1:2}
  ss.UpdateAndEstimate(2);  // {1:2, 2:1}
  // 3 evicts 2 (the min, count 1): count = 2, error = 1.
  EXPECT_EQ(ss.UpdateAndEstimate(3), 2u);
  EXPECT_EQ(ss.GuaranteedCount(3), 1u);
  EXPECT_EQ(ss.Estimate(2), ss.min_count()) << "evicted key reports min bound";
}

TEST(SpaceSavingTest, OverestimateInvariantOnAdversarialStream) {
  // Rotating distinct keys with a few hot ones; counts must never
  // underestimate and the error must be bounded by N/capacity.
  const size_t capacity = 50;
  SpaceSaving ss(capacity);
  std::map<uint64_t, uint64_t> truth;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    uint64_t key;
    if (rng.NextBool(0.3)) {
      key = rng.NextBounded(5);  // hot set
    } else {
      key = 1000 + rng.NextBounded(2000);  // churn
    }
    ++truth[key];
    ss.UpdateAndEstimate(key);
  }
  const uint64_t bound = ss.total() / capacity;
  for (const HeavyKey& hk : ss.Counters()) {
    const uint64_t true_count = truth[hk.key];
    EXPECT_GE(hk.count, true_count) << "key " << hk.key;
    EXPECT_LE(hk.count - hk.error, true_count) << "key " << hk.key;
    EXPECT_LE(hk.error, bound) << "error exceeds N/k bound";
  }
}

TEST(SpaceSavingTest, HeavyHittersIsSupersetOfTrueHeavyKeys) {
  // Classic guarantee: every key with true frequency > N/capacity is
  // monitored, hence reported at phi <= 1/capacity.
  const size_t capacity = 100;
  SpaceSaving ss(capacity);
  ZipfDistribution zipf(1.5, 10000);
  Rng rng(11);
  std::map<uint64_t, uint64_t> truth;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const uint64_t key = zipf.Sample(&rng);
    ++truth[key];
    ss.UpdateAndEstimate(key);
  }
  const double phi = 0.02;
  const auto reported = ss.HeavyHitters(phi);
  std::vector<uint64_t> reported_keys;
  for (const auto& hk : reported) reported_keys.push_back(hk.key);
  for (const auto& [key, count] : truth) {
    if (static_cast<double>(count) >= phi * n) {
      EXPECT_NE(std::find(reported_keys.begin(), reported_keys.end(), key),
                reported_keys.end())
          << "true heavy key " << key << " (count " << count << ") missed";
    }
  }
}

TEST(SpaceSavingTest, HeavyHittersSortedDescending) {
  SpaceSaving ss(10);
  Rng rng(3);
  ZipfDistribution zipf(1.2, 100);
  for (int i = 0; i < 10000; ++i) ss.UpdateAndEstimate(zipf.Sample(&rng));
  const auto hh = ss.HeavyHitters(0.01);
  for (size_t i = 1; i < hh.size(); ++i) {
    EXPECT_GE(hh[i - 1].count, hh[i].count);
  }
}

TEST(SpaceSavingTest, CapacityOneDegenerates) {
  SpaceSaving ss(1);
  ss.UpdateAndEstimate(1);
  ss.UpdateAndEstimate(2);
  ss.UpdateAndEstimate(3);
  EXPECT_EQ(ss.total(), 3u);
  EXPECT_EQ(ss.memory_counters(), 1u);
  // The single counter's count equals the stream length (all mass).
  EXPECT_EQ(ss.Counters()[0].count, 3u);
  EXPECT_EQ(ss.Counters()[0].key, 3u);
}

TEST(SpaceSavingTest, ResetClearsState) {
  SpaceSaving ss(8);
  for (int i = 0; i < 100; ++i) ss.UpdateAndEstimate(i % 10);
  ss.Reset();
  EXPECT_EQ(ss.total(), 0u);
  EXPECT_EQ(ss.memory_counters(), 0u);
  EXPECT_EQ(ss.min_count(), 0u);
  EXPECT_EQ(ss.UpdateAndEstimate(5), 1u);
}

TEST(SpaceSavingTest, MonitorsAtMostCapacityKeys) {
  SpaceSaving ss(16);
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) ss.UpdateAndEstimate(rng.NextBounded(1000));
  EXPECT_LE(ss.memory_counters(), 16u);
}

TEST(SpaceSavingTest, MinCountTracksColdestCounter) {
  SpaceSaving ss(3);
  ss.UpdateAndEstimate(1);
  ss.UpdateAndEstimate(1);
  ss.UpdateAndEstimate(2);
  ss.UpdateAndEstimate(3);
  EXPECT_EQ(ss.min_count(), 1u);
  ss.UpdateAndEstimate(2);
  ss.UpdateAndEstimate(3);
  EXPECT_EQ(ss.min_count(), 2u);
}

TEST(SpaceSavingMergeTest, DisjointStreamsKeepCounts) {
  SpaceSaving a(10);
  SpaceSaving b(10);
  for (int i = 0; i < 5; ++i) a.UpdateAndEstimate(1);
  for (int i = 0; i < 3; ++i) b.UpdateAndEstimate(2);
  a.Merge(b);
  EXPECT_EQ(a.total(), 8u);
  // Neither summary was full, so counts stay exact after merging.
  EXPECT_EQ(a.Estimate(1), 5u);
  EXPECT_EQ(a.Estimate(2), 3u);
}

TEST(SpaceSavingMergeTest, OverlappingStreamsAddCounts) {
  SpaceSaving a(10);
  SpaceSaving b(10);
  for (int i = 0; i < 5; ++i) a.UpdateAndEstimate(42);
  for (int i = 0; i < 7; ++i) b.UpdateAndEstimate(42);
  a.Merge(b);
  EXPECT_EQ(a.Estimate(42), 12u);
  EXPECT_EQ(a.GuaranteedCount(42), 12u);
}

TEST(SpaceSavingMergeTest, PreservesOverestimateInvariant) {
  // Split one stream across two summaries; the merged estimates must still
  // upper-bound the true counts.
  const size_t capacity = 32;
  SpaceSaving a(capacity);
  SpaceSaving b(capacity);
  ZipfDistribution zipf(1.4, 5000);
  Rng rng(21);
  std::map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 40000; ++i) {
    const uint64_t key = zipf.Sample(&rng);
    ++truth[key];
    (i % 2 == 0 ? a : b).UpdateAndEstimate(key);
  }
  a.Merge(b);
  EXPECT_EQ(a.total(), 40000u);
  EXPECT_LE(a.memory_counters(), capacity);
  for (const HeavyKey& hk : a.Counters()) {
    EXPECT_GE(hk.count, truth[hk.key]) << "merged estimate must not undercount";
  }
  // The hottest key must survive the merge.
  EXPECT_GT(a.Estimate(0), 0u);
}

// Distributed head tracking as the paper runs it: every source keeps its own
// SpaceSaving summary and the global head is their merge.
SpaceSaving MergeAll(const std::vector<SpaceSaving>& per_source) {
  SpaceSaving global = per_source.front();
  for (size_t s = 1; s < per_source.size(); ++s) global.Merge(per_source[s]);
  return global;
}

TEST(DistributedTrackerTest, HotKeyAtOneSourceVisibleGlobally) {
  // A key hot at ONLY source 3 must appear in the global head after the
  // merge, even though other sources never see it.
  const uint32_t sources = 4;
  std::vector<SpaceSaving> per_source(sources, SpaceSaving(64));
  Rng rng(5);
  for (int round = 0; round < 2000; ++round) {
    for (uint32_t s = 0; s < sources; ++s) {
      if (s == 3 && rng.NextBool(0.5)) {
        per_source[s].UpdateAndEstimate(777);  // hot only at source 3
      } else {
        per_source[s].UpdateAndEstimate(rng.NextBounded(5000));
      }
    }
  }
  const SpaceSaving global = MergeAll(per_source);
  // Key 777 holds ~12.5% of the global stream.
  EXPECT_GE(static_cast<double>(global.Estimate(777)),
            0.05 * static_cast<double>(global.total()))
      << "the merged head must learn about source 3's hot key";
  const auto heavy = global.HeavyHitters(0.05);
  EXPECT_TRUE(std::any_of(heavy.begin(), heavy.end(),
                          [](const HeavyKey& hk) { return hk.key == 777; }));
}

TEST(DistributedTrackerTest, EstimateNeverUndercountsSkewedStreams) {
  const uint32_t sources = 3;
  std::vector<SpaceSaving> per_source(sources, SpaceSaving(100));
  ZipfDistribution zipf(1.5, 2000);
  Rng rng(9);
  std::map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t key = zipf.Sample(&rng);
    ++truth[key];
    per_source[static_cast<uint32_t>(i % sources)].UpdateAndEstimate(key);
  }
  const SpaceSaving global = MergeAll(per_source);
  EXPECT_EQ(global.total(), 30000u);
  for (const auto& [key, count] : truth) {
    if (count < 300) continue;  // clearly-tracked keys only
    EXPECT_GE(global.Estimate(key), count) << "key " << key;
  }
}

TEST(SpaceSavingMergeTest, MergeIntoEmpty) {
  SpaceSaving a(10);
  SpaceSaving b(10);
  for (int i = 0; i < 4; ++i) b.UpdateAndEstimate(9);
  a.Merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.Estimate(9), 4u);
}

TEST(SpaceSavingTest, StreamSummaryHandlesLongIncrementChains) {
  // One key incremented many times walks the bucket list upward; interleave
  // with churn to exercise bucket create/free.
  SpaceSaving ss(4);
  for (int round = 0; round < 1000; ++round) {
    ss.UpdateAndEstimate(1);
    if (round % 3 == 0) ss.UpdateAndEstimate(2 + (round % 5));
  }
  EXPECT_GE(ss.Estimate(1), 1000u);
  EXPECT_EQ(ss.total(), 1000u + 334u);
}

}  // namespace
}  // namespace slb
