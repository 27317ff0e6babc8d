// Crosschecks of ExecuteTopology's cluster model against closed-form
// predictions — the quantitative backing for docs/ARCHITECTURE.md's claim
// that the discrete-event engine reproduces the throughput/latency
// *mechanisms* of the paper's cluster (Figs. 13-14).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "slb/common/rng.h"
#include "slb/dspe/standard_bolts.h"
#include "slb/dspe/topology.h"
#include "slb/workload/zipf.h"

namespace slb {
namespace {

constexpr uint32_t kSources = 16;
constexpr uint32_t kWorkers = 40;
constexpr uint64_t kMessages = 40000;
constexpr uint64_t kKeys = 10000;

// Each source draws its share of the stream from Zipf(z, kKeys).
class ZipfSpout final : public Spout {
 public:
  ZipfSpout(double z, uint64_t count, uint64_t seed)
      : zipf_(z, kKeys), remaining_(count), rng_(seed) {}

  bool NextTuple(TopologyTuple* out) override {
    if (remaining_ == 0) return false;
    --remaining_;
    out->key = zipf_.Sample(&rng_);
    out->value = 1;
    return true;
  }

 private:
  ZipfDistribution zipf_;
  uint64_t remaining_;
  Rng rng_;
};

TopologyOptions TheoryOptions() {
  TopologyOptions options;
  options.bolt_service_ms = 2.0;        // 500/s per worker
  options.transport_rate_per_s = 5000;  // 25% of aggregate worker capacity
  options.max_pending_per_spout = 60;
  options.hash_seed = 3;
  options.seed = 21;
  return options;
}

TopologyStats RunCluster(AlgorithmKind algo, double z,
                         const TopologyOptions& options = TheoryOptions()) {
  TopologyBuilder builder;
  builder.AddSpout("sources", [z](uint32_t i) {
    return std::make_unique<ZipfSpout>(z, kMessages / kSources,
                                       21 + 1000003ULL * i);
  }, kSources);
  builder.AddBolt("workers",
                  [](uint32_t) { return std::make_unique<CountingBolt>(); },
                  kWorkers)
      .Input("sources", Grouping{algo, {}});
  auto stats = ExecuteTopology(builder.Build(), options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->roots_acked, kMessages);
  return stats.value();
}

// The largest per-worker average latency (Fig. 14's max column).
double MaxWorkerAvgLatencyMs(const TopologyStats& stats) {
  const std::vector<double>& avg = stats.components.at(1).task_latency_avg_ms;
  return *std::max_element(avg.begin(), avg.end());
}

TEST(TopologyTheoryTest, BottleneckFormulaPredictsKgThroughput) {
  // KG pins the hottest key (share p1) on one worker. When
  // p1 * transport_rate exceeds the worker service rate, throughput is
  // service_rate / p1.
  const double z = 2.0;
  const double p1 = ZipfTopProbability(z, kKeys);  // ~0.60
  const TopologyOptions options = TheoryOptions();
  const double service_rate = 1000.0 / options.bolt_service_ms;  // per worker
  ASSERT_GT(p1 * options.transport_rate_per_s, service_rate)
      << "setup must make the hot worker the bottleneck";
  const double predicted = service_rate / p1;

  const TopologyStats stats = RunCluster(AlgorithmKind::kKeyGrouping, z);
  EXPECT_NEAR(stats.throughput_per_s, predicted, 0.15 * predicted);
}

TEST(TopologyTheoryTest, TransportFormulaPredictsBalancedThroughput) {
  // A balanced scheme leaves every worker far below saturation; throughput
  // equals the transport stage's rate.
  const TopologyStats stats = RunCluster(AlgorithmKind::kShuffleGrouping, 2.0);
  EXPECT_NEAR(stats.throughput_per_s, 5000.0, 300.0);
}

TEST(TopologyTheoryTest, CreditWindowBoundsHotWorkerLatency) {
  // Under extreme skew, nearly the whole credit window piles up at the hot
  // worker; its queue is bounded by sources * max_pending, so the worst
  // per-worker average latency is about window * service_time.
  const TopologyOptions options = TheoryOptions();
  const TopologyStats stats = RunCluster(AlgorithmKind::kKeyGrouping, 2.0);
  const double window =
      static_cast<double>(kSources) * options.max_pending_per_spout;
  const double ceiling = window * options.bolt_service_ms;
  EXPECT_LE(MaxWorkerAvgLatencyMs(stats), ceiling * 1.05);
  EXPECT_GE(MaxWorkerAvgLatencyMs(stats), 0.3 * ceiling)
      << "most of the window should sit at the hot worker";
}

TEST(TopologyTheoryTest, ShrinkingCreditWindowShrinksTailLatency) {
  TopologyOptions options = TheoryOptions();
  options.max_pending_per_spout = 60;
  const TopologyStats wide =
      RunCluster(AlgorithmKind::kKeyGrouping, 2.0, options);
  options.max_pending_per_spout = 15;
  const TopologyStats narrow =
      RunCluster(AlgorithmKind::kKeyGrouping, 2.0, options);
  EXPECT_LT(MaxWorkerAvgLatencyMs(narrow), 0.5 * MaxWorkerAvgLatencyMs(wide))
      << "backpressure caps queueing delay (Storm's max spout pending)";
  // Throughput at the bottleneck is window-independent once the hot worker
  // never idles.
  EXPECT_NEAR(narrow.throughput_per_s, wide.throughput_per_s,
              0.15 * wide.throughput_per_s);
}

TEST(TopologyTheoryTest, BalancedLatencyEqualsWindowOverTransportRate) {
  // Balanced schemes park the whole credit window in the transport queue
  // (sources emit instantly whenever they hold credits), so steady-state
  // latency is window / transport_rate plus the worker service time — the
  // framework-buffering floor that dominates SG's latency in Fig. 14.
  const TopologyOptions options = TheoryOptions();
  const TopologyStats stats = RunCluster(AlgorithmKind::kShuffleGrouping, 1.0);
  const double window =
      static_cast<double>(kSources) * options.max_pending_per_spout;
  const double predicted_ms =
      window / options.transport_rate_per_s * 1e3 + options.bolt_service_ms;
  EXPECT_GE(stats.latency_p50_ms,
            1000.0 / options.transport_rate_per_s + options.bolt_service_ms);
  EXPECT_NEAR(stats.latency_p50_ms, predicted_ms, 0.15 * predicted_ms);
}

}  // namespace
}  // namespace slb
