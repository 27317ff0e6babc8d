#include "slb/dspe/topology.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "slb/common/rng.h"
#include "slb/dspe/plan.h"
#include "slb/sim/partition_simulator.h"
#include "slb/workload/stream_generator.h"
#include "slb/workload/zipf.h"

namespace slb {
namespace {

// A spout emitting `count` tuples from a Zipf distribution.
class ZipfSpout final : public Spout {
 public:
  ZipfSpout(double z, uint64_t keys, uint64_t count, uint64_t seed)
      : zipf_(z, keys), remaining_(count), rng_(seed) {}

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

// Counts tuples per key (stateful aggregation). Optionally mirrors counts
// into a caller-owned sink: the engine owns and destroys bolt instances, so
// tests must not hold raw pointers into them past ExecuteTopology().
class CountBolt final : public Bolt {
 public:
  explicit CountBolt(std::map<uint64_t, uint64_t>* sink = nullptr)
      : sink_(sink) {}

  void Execute(const TopologyTuple& tuple, OutputCollector*) override {
    counts_[tuple.key] += tuple.value;
    if (sink_ != nullptr) (*sink_)[tuple.key] += tuple.value;
  }
  size_t StateEntries() const override { return counts_.size(); }

 private:
  std::map<uint64_t, uint64_t> counts_;
  std::map<uint64_t, uint64_t>* sink_;
};

// Re-emits each tuple `fanout` times (exercises the ack tree).
class FanoutBolt final : public Bolt {
 public:
  explicit FanoutBolt(int fanout) : fanout_(fanout) {}
  void Execute(const TopologyTuple& tuple, OutputCollector* out) override {
    for (int i = 0; i < fanout_; ++i) {
      out->Emit(TopologyTuple{tuple.key * 10 + static_cast<uint64_t>(i), 1});
    }
  }

 private:
  int fanout_;
};

// Emits its round-robin share of a shared key vector (positions offset,
// offset + stride, ...): the sender interleave RunPartitionSimulation models.
class VectorSpout final : public Spout {
 public:
  VectorSpout(std::shared_ptr<const std::vector<uint64_t>> keys,
              uint64_t offset, uint64_t stride)
      : keys_(std::move(keys)), pos_(offset), stride_(stride) {}

  bool NextTuple(TopologyTuple* out) override {
    if (pos_ >= keys_->size()) return false;
    out->key = (*keys_)[pos_];
    out->value = 1;
    pos_ += stride_;
    return true;
  }

 private:
  std::shared_ptr<const std::vector<uint64_t>> keys_;
  uint64_t pos_;
  uint64_t stride_;
};

TopologyOptions FastOptions() {
  TopologyOptions options;
  options.transport_rate_per_s = 1e5;  // 0.01 ms per routed copy
  options.bolt_service_ms = 0.05;
  options.max_pending_per_spout = 100;
  return options;
}

// The Figs. 13-14 cluster shape at test scale: Zipf sources -> workers, with
// 1 ms per tuple at every worker and a 4000/s transport stage.
TopologyOptions ClusterOptions() {
  TopologyOptions options;
  options.bolt_service_ms = 1.0;
  options.transport_rate_per_s = 4000;
  options.max_pending_per_spout = 50;
  options.hash_seed = 5;
  options.seed = 11;
  return options;
}

Result<TopologyStats> RunCluster(AlgorithmKind algorithm, double z,
                                 uint32_t sources = 8, uint32_t workers = 20,
                                 uint64_t messages = 20000) {
  TopologyBuilder builder;
  builder.AddSpout("src", [=](uint32_t i) {
    return std::make_unique<ZipfSpout>(z, 2000, messages / sources, 11 + i);
  }, sources);
  builder.AddBolt("workers",
                  [](uint32_t) { return std::make_unique<CountBolt>(); },
                  workers)
      .Input("src", Grouping{algorithm, {}});
  return ExecuteTopology(builder.Build(), ClusterOptions());
}

TEST(TopologyValidationTest, RejectsEmptyTopology) {
  TopologyBuilder builder;
  EXPECT_FALSE(ExecuteTopology(builder.Build(), FastOptions()).ok());
}

TEST(TopologyValidationTest, RejectsBadOptions) {
  TopologyBuilder builder;
  builder.AddSpout("src", [](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 10, 5, 1);
  }, 1);
  builder.AddBolt("sink", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  1)
      .Input("src", Grouping::Shuffle());
  for (int bad = 0; bad < 3; ++bad) {
    TopologyOptions options = FastOptions();
    if (bad == 0) options.bolt_service_ms = 0;
    if (bad == 1) options.transport_rate_per_s = 0;
    if (bad == 2) options.max_pending_per_spout = 0;
    EXPECT_FALSE(ExecuteTopology(builder.Build(), options).ok()) << bad;
  }
}

TEST(TopologyValidationTest, RejectsDuplicateNames) {
  TopologyBuilder builder;
  builder.AddSpout("a", [](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 10, 5, 1);
  }, 1);
  builder.AddBolt("a", [](uint32_t) { return std::make_unique<CountBolt>(); }, 1)
      .Input("a", Grouping::Shuffle());
  EXPECT_FALSE(ExecuteTopology(builder.Build(), FastOptions()).ok());
}

TEST(TopologyValidationTest, RejectsUnknownUpstream) {
  TopologyBuilder builder;
  builder.AddSpout("src", [](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 10, 5, 1);
  }, 1);
  builder.AddBolt("sink", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  1)
      .Input("nope", Grouping::Shuffle());
  EXPECT_FALSE(ExecuteTopology(builder.Build(), FastOptions()).ok());
}

TEST(TopologyValidationTest, RejectsBoltWithoutInputs) {
  TopologyBuilder builder;
  builder.AddSpout("src", [](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 10, 5, 1);
  }, 1);
  builder.AddBolt("lonely",
                  [](uint32_t) { return std::make_unique<CountBolt>(); }, 1);
  EXPECT_FALSE(ExecuteTopology(builder.Build(), FastOptions()).ok());
}

TEST(TopologyValidationTest, RejectsCycles) {
  TopologyBuilder builder;
  builder.AddSpout("src", [](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 10, 5, 1);
  }, 1);
  builder.AddBolt("a", [](uint32_t) { return std::make_unique<CountBolt>(); }, 1)
      .Input("src", Grouping::Shuffle())
      .Input("b", Grouping::Shuffle());
  builder.AddBolt("b", [](uint32_t) { return std::make_unique<CountBolt>(); }, 1)
      .Input("a", Grouping::Shuffle());
  EXPECT_FALSE(ExecuteTopology(builder.Build(), FastOptions()).ok());
}

TEST(TopologyExecutionTest, ProcessesEveryTupleExactlyOnce) {
  const uint64_t count = 2000;
  std::map<uint64_t, uint64_t> sink;  // engine is single-threaded
  TopologyBuilder builder;
  builder.AddSpout("src", [&](uint32_t i) {
    return std::make_unique<ZipfSpout>(1.2, 100, count / 2, 7 + i);
  }, 2);
  builder.AddBolt("count", [&](uint32_t) {
    return std::make_unique<CountBolt>(&sink);
  }, 4).Input("src", Grouping::Pkg());

  auto stats = ExecuteTopology(builder.Build(), FastOptions());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->roots_acked, count);
  EXPECT_EQ(stats->tuples_processed, count * 2);  // spout emits + bolt execs
  uint64_t total = 0;
  for (const auto& [key, c] : sink) total += c;
  EXPECT_EQ(total, count);
}

TEST(TopologyExecutionTest, AckTreeCoversDescendants) {
  // src -> fanout(3) -> count: each root completes only after its three
  // descendants are processed, so throughput and acks must both be exact.
  const uint64_t count = 500;
  TopologyBuilder builder;
  builder.AddSpout("src", [&](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 50, count, 3);
  }, 1);
  builder.AddBolt("fan", [](uint32_t) { return std::make_unique<FanoutBolt>(3); },
                  2).Input("src", Grouping::Shuffle());
  builder.AddBolt("count", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  4).Input("fan", Grouping::Pkg());

  auto stats = ExecuteTopology(builder.Build(), FastOptions());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->roots_acked, count);
  // spout count + fan count + 3x count at the counter.
  EXPECT_EQ(stats->tuples_processed, count + count + 3 * count);
  ASSERT_EQ(stats->components.size(), 3u);
  EXPECT_EQ(stats->components[2].tuples_processed, 3 * count);
}

TEST(TopologyExecutionTest, KeyGroupingImbalancedUnderSkew) {
  TopologyBuilder builder;
  builder.AddSpout("src", [&](uint32_t) {
    return std::make_unique<ZipfSpout>(1.8, 1000, 5000, 11);
  }, 1);
  builder.AddBolt("agg", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  10).Input("src", Grouping::Key());
  auto kg = ExecuteTopology(builder.Build(), FastOptions());
  ASSERT_TRUE(kg.ok());

  TopologyBuilder builder2;
  builder2.AddSpout("src", [&](uint32_t) {
    return std::make_unique<ZipfSpout>(1.8, 1000, 5000, 11);
  }, 1);
  builder2.AddBolt("agg", [](uint32_t) { return std::make_unique<CountBolt>(); },
                   10).Input("src", Grouping::DChoices());
  auto dc = ExecuteTopology(builder2.Build(), FastOptions());
  ASSERT_TRUE(dc.ok());

  const double kg_imb = kg->components[1].imbalance;
  const double dc_imb = dc->components[1].imbalance;
  EXPECT_GT(kg_imb, 0.2) << "z=1.8 pins ~45% of tuples on one task";
  EXPECT_LT(dc_imb, kg_imb / 4);
  // Throughput follows balance: D-C must clearly beat KG here.
  EXPECT_GT(dc->throughput_per_s, 1.2 * kg->throughput_per_s);
}

TEST(TopologyExecutionTest, StateEntriesReported) {
  TopologyBuilder builder;
  builder.AddSpout("src", [&](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 200, 3000, 5);
  }, 1);
  builder.AddBolt("agg", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  5).Input("src", Grouping::Pkg());
  auto stats = ExecuteTopology(builder.Build(), FastOptions());
  ASSERT_TRUE(stats.ok());
  // PKG: every key on at most 2 tasks => state <= 2 * |K|.
  EXPECT_GT(stats->components[1].state_entries, 0u);
  EXPECT_LE(stats->components[1].state_entries, 2 * 200u);
}

TEST(TopologyExecutionTest, DeterministicForFixedSeeds) {
  auto run = [] {
    TopologyBuilder builder;
    builder.AddSpout("src", [&](uint32_t) {
      return std::make_unique<ZipfSpout>(1.4, 300, 2000, 9);
    }, 2);
    builder.AddBolt("agg", [](uint32_t) { return std::make_unique<CountBolt>(); },
                    6).Input("src", Grouping::DChoices());
    return ExecuteTopology(builder.Build(), FastOptions());
  };
  auto a = run();
  auto b = run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->makespan_s, b->makespan_s);
  EXPECT_DOUBLE_EQ(a->latency_p99_ms, b->latency_p99_ms);
  EXPECT_EQ(a->components[1].task_loads, b->components[1].task_loads);
}

TEST(TopologyExecutionTest, TupleBudgetGuardsAgainstLoops) {
  TopologyBuilder builder;
  builder.AddSpout("src", [&](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 10, 1000, 1);
  }, 1);
  builder.AddBolt("fan", [](uint32_t) { return std::make_unique<FanoutBolt>(5); },
                  1).Input("src", Grouping::Shuffle());
  builder.AddBolt("sink", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  1).Input("fan", Grouping::Shuffle());
  TopologyOptions options = FastOptions();
  options.max_tuples = 100;  // far below the 7000 the run needs
  auto stats = ExecuteTopology(builder.Build(), options);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TopologyExecutionTest, MultiStagePipelineLatencyOrdering) {
  TopologyBuilder builder;
  builder.AddSpout("src", [&](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 100, 1000, 2);
  }, 1);
  builder.AddBolt("a", [](uint32_t) { return std::make_unique<FanoutBolt>(1); },
                  2).Input("src", Grouping::Shuffle());
  builder.AddBolt("b", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  2).Input("a", Grouping::Pkg());
  auto stats = ExecuteTopology(builder.Build(), FastOptions());
  ASSERT_TRUE(stats.ok());
  // Tree latency >= 2 bolt service times + 2 transport hops.
  EXPECT_GE(stats->latency_p50_ms, 2 * 0.05 + 2 * 0.01 - 1e-9);
  EXPECT_LE(stats->latency_p50_ms, stats->latency_p99_ms);
}

TEST(TopologyExecutionTest, LatencyIsAtLeastTransportPlusService) {
  auto stats = RunCluster(AlgorithmKind::kShuffleGrouping, 1.4);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Every tuple pays transport (0.25 ms) + worker service (1 ms).
  EXPECT_GE(stats->latency_p50_ms, 1.25 - 1e-9);
  EXPECT_GE(stats->latency_max_ms, stats->latency_p99_ms);
  EXPECT_GE(stats->latency_p99_ms, stats->latency_p50_ms);
}

TEST(TopologyExecutionTest, HeadAwareAlgorithmsMatchShuffleThroughput) {
  auto sg = RunCluster(AlgorithmKind::kShuffleGrouping, 2.0);
  auto dc = RunCluster(AlgorithmKind::kDChoices, 2.0);
  auto wc = RunCluster(AlgorithmKind::kWChoices, 2.0);
  ASSERT_TRUE(sg.ok());
  ASSERT_TRUE(dc.ok());
  ASSERT_TRUE(wc.ok());
  EXPECT_GT(dc->throughput_per_s, 0.85 * sg->throughput_per_s);
  EXPECT_GT(wc->throughput_per_s, 0.85 * sg->throughput_per_s);
}

TEST(TopologyExecutionTest, WorkerAverageLatencyPercentilesOrdered) {
  auto stats = RunCluster(AlgorithmKind::kPkg, 1.4);
  ASSERT_TRUE(stats.ok());
  const ComponentStats& workers = stats->components[1];
  ASSERT_EQ(workers.task_latency_avg_ms.size(), 20u);
  Histogram across_workers(0, 1);
  for (size_t i = 0; i < workers.task_latency_avg_ms.size(); ++i) {
    if (workers.task_loads[i] == 0) continue;
    EXPECT_GE(workers.task_latency_avg_ms[i], 1.25 - 1e-9);
    across_workers.Add(workers.task_latency_avg_ms[i]);
  }
  EXPECT_LE(across_workers.p50(), across_workers.p95());
  EXPECT_LE(across_workers.p95(), across_workers.p99());
  EXPECT_LE(across_workers.p99(), across_workers.max() + 1e-9);
  // Spouts complete nothing downstream of themselves.
  for (double avg : stats->components[0].task_latency_avg_ms) {
    EXPECT_EQ(avg, 0.0);
  }
}

TEST(TopologyExecutionTest, SingleSourceSingleWorker) {
  auto stats = RunCluster(AlgorithmKind::kShuffleGrouping, 1.4, 1, 1, 100);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->roots_acked, 100u);
  // Single worker at 1 ms/tuple: makespan >= 0.1 s.
  EXPECT_GE(stats->makespan_s, 0.099);
}

// The Figs. 13-14 imbalance columns: on a round-robin split of one stream,
// with the partition simulator seeded by the topology's edge hash seed,
// every sender routes identically, so ExecuteTopology's worker imbalance
// and load vector equal RunPartitionSimulation's final ones.
TEST(TopologyExecutionTest, WorkerImbalanceMatchesPartitionSimulator) {
  static constexpr uint32_t kSources = 4;
  static constexpr uint32_t kWorkers = 10;
  static constexpr uint64_t kBaseHashSeed = 42;
  SyntheticStreamGenerator::Options stream_options;
  stream_options.zipf_exponent = 1.6;
  stream_options.num_keys = 1000;
  stream_options.num_messages = 20000;
  stream_options.seed = 77;

  SyntheticStreamGenerator stream(stream_options);
  auto keys = std::make_shared<std::vector<uint64_t>>();
  for (uint64_t i = 0; i < stream_options.num_messages; ++i) {
    keys->push_back(stream.NextKey());
  }
  std::shared_ptr<const std::vector<uint64_t>> shared = keys;

  for (AlgorithmKind algorithm :
       {AlgorithmKind::kKeyGrouping, AlgorithmKind::kPkg,
        AlgorithmKind::kDChoices, AlgorithmKind::kWChoices}) {
    SCOPED_TRACE(AlgorithmKindName(algorithm));
    TopologyBuilder builder;
    builder.AddSpout("sources", [shared](uint32_t task) {
      return std::make_unique<VectorSpout>(shared, task, kSources);
    }, kSources);
    builder.AddBolt("workers",
                    [](uint32_t) { return std::make_unique<CountBolt>(); },
                    kWorkers)
        .Input("sources", Grouping{algorithm, {}});
    TopologyOptions options = FastOptions();
    options.hash_seed = kBaseHashSeed;
    auto topo = ExecuteTopology(builder.Build(), options);
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();

    PartitionSimConfig config;
    config.algorithm = algorithm;
    config.partitioner.num_workers = kWorkers;
    config.partitioner.hash_seed = EdgeHashSeed(kBaseHashSeed, 0, 0);
    config.num_sources = kSources;
    stream.Reset();
    auto sim = RunPartitionSimulation(config, &stream);
    ASSERT_TRUE(sim.ok()) << sim.status().ToString();

    const ComponentStats& workers = topo->components[1];
    EXPECT_GT(sim->final_imbalance, 0.0);
    EXPECT_DOUBLE_EQ(workers.imbalance, sim->final_imbalance);
    ASSERT_EQ(workers.task_loads.size(), sim->worker_loads.size());
    for (size_t i = 0; i < workers.task_loads.size(); ++i) {
      EXPECT_DOUBLE_EQ(workers.task_loads[i], sim->worker_loads[i]) << i;
    }
  }
}

}  // namespace
}  // namespace slb
