// Threaded-DSPE benchmark: end-to-end throughput and root-tree latency of
// ExecuteTopologyThreaded under KG, PKG, D-C and W-C, plus a traced pass that
// times every layer from outside through the library's public headers.
//
//   dspe_bench --workload NAME --seed N --seconds S --trace 0|1
//
// Load is closed-loop, like Storm's max-spout-pending: 4 spouts, one per
// executor thread, each hold the default credit window of 70 roots. The key
// stream is generated from --seed and materialised before timing, then split
// round-robin across the spouts. A "cell" is one ExecuteTopologyThreaded run
// of the whole stream under one algorithm; cells run in rounds (one cell per
// algorithm, rotating the order) until --seconds have passed, and every metric
// is a median over cells.
//
// --trace 0 prints the end-to-end metrics, measured untraced. --trace 1 is a
// separate pass that records spans from this file's NextTuple/Execute code,
// times the layers outside-in, runs the single-executor-thread baseline and
// the shuffle-grouping reference, and prints the per-layer metrics. README.md
// maps each per-layer metric to the end-to-end metric it should move.
//
// Every cell passes a correctness gate outside its timed region: per-key
// totals over the sink bolts must equal the stream histogram, and on the
// single-edge topologies the partitioned bolt's task_loads must equal
// ExecuteTopology's. The last stdout line is one JSON object; the exit code
// is nonzero when a gate or a cell failed.

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "slb/core/partitioner.h"
#include "slb/dspe/plan.h"
#include "slb/dspe/runtime.h"
#include "slb/dspe/spsc_queue.h"
#include "slb/dspe/standard_bolts.h"
#include "slb/dspe/topology.h"
#include "slb/hash/hash_family.h"
#include "slb/sketch/space_saving.h"
#include "slb/workload/stream_generator.h"

namespace slb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kSpouts = 4;
constexpr uint32_t kThreads = 4;
constexpr uint32_t kBatch = TopologyRuntimeOptions{}.batch_size;
constexpr uint32_t kRingCapacity = TopologyRuntimeOptions{}.queue_capacity;
constexpr uint32_t kFanout = 4;  // children per fanout-bolt Execute
// Components are planned spouts first, so the swept bolt is component 1.
constexpr size_t kSweptComponent = 1;

struct Workload {
  const char* name;
  double zipf;
  uint64_t num_keys;
  uint64_t messages;    // roots per cell
  uint32_t workers;     // tasks of the partitioned (swept) bolt
  uint32_t work_iters;  // busy-work per partitioned-bolt Execute
  uint32_t sinks;       // 0: single edge; else fanout -> shuffle -> sinks
};

// Why each workload exists, and which layer it loads, is in README.md. Cells
// are kept short (20-200 ms at 4 threads) so a run holds many of them: on a
// shared host a CPU-steal burst then spoils a few cells, not the median.
// fanout-z1-wide's cells hold 50k roots: at 100k, the larger sink tables made
// its p99 follow the host's memory contention about twice as closely.
constexpr Workload kWorkloads[] = {
    {"paper-z2-work", 2.0, 10000, 50000, 80, 2000, 0},
    {"route-z2-n100", 2.0, 10000, 250000, 100, 0, 0},
    {"fanout-z1-wide", 1.0, 1000000, 50000, 16, 0, 16},
};

struct Algo {
  const char* name;
  AlgorithmKind kind;
};
constexpr Algo kAlgos[] = {{"kg", AlgorithmKind::kKeyGrouping},
                           {"pkg", AlgorithmKind::kPkg},
                           {"dc", AlgorithmKind::kDChoices},
                           {"wc", AlgorithmKind::kWChoices}};
constexpr size_t kNumAlgos = std::size(kAlgos);

uint64_t g_sink = 0;  // results of timed loops land here so none is elided

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double Median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Nearest-rank quantile; reorders `v`.
double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t rank = std::min(
      v->size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(v->size()))) - 1);
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(rank),
                   v->end());
  return (*v)[rank];
}

uint32_t HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<uint32_t>(CPU_COUNT(&set));
}

// ---------------------------------------------------------------------------
// Inputs

struct Stream {
  std::vector<uint64_t> keys;  // global order; the position is the root id
  std::array<std::vector<uint64_t>, kSpouts> per_spout;  // round-robin split
  std::vector<uint64_t> histogram;                       // count per key
};

Stream MakeStream(const Workload& w, uint64_t messages, uint64_t seed) {
  SyntheticStreamGenerator::Options options;
  options.name = w.name;
  options.zipf_exponent = w.zipf;
  options.num_keys = w.num_keys;
  options.num_messages = messages;
  options.seed = seed;
  SyntheticStreamGenerator gen(options);
  Stream s;
  s.keys.resize(messages);
  s.histogram.assign(w.num_keys, 0);
  for (auto& spout : s.per_spout) spout.reserve(messages / kSpouts + 1);
  for (uint64_t i = 0; i < messages; ++i) {
    const uint64_t key = gen.NextKey();
    s.keys[i] = key;
    s.per_spout[i % kSpouts].push_back(key);
    ++s.histogram[key];
  }
  return s;
}

// A fixed-length xorshift chain: the same work per tuple on every run and
// host, not a time calibration. The caller keeps the result, so it stays.
uint64_t BusyWork(uint64_t key, uint32_t iters) {
  uint64_t x = key * 0x9e3779b97f4a7c15ULL + 1;
  for (uint32_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// ---------------------------------------------------------------------------
// Spouts and bolts

struct Span {
  uint64_t start_ns;
  uint32_t root;
  uint32_t dur_ns;
};

// Per-task state owned by the benchmark (the engine owns and destroys the
// Bolt wrappers): per-key counts for the gate, the busy-work digest, and the
// traced spans. Exactly one executor thread touches a slot during a run.
struct alignas(kCacheLineBytes) TaskSlot {
  CountingBolt counts;
  uint64_t digest = 0;
  std::vector<Span> spans;
};

void RecordSpan(TaskSlot* slot, uint64_t start_ns, uint64_t root) {
  const uint64_t end_ns = NowNs();
  slot->spans.push_back(Span{start_ns, static_cast<uint32_t>(root),
                             static_cast<uint32_t>(end_ns - start_ns)});
}

class StreamSpout final : public Spout {
 public:
  // `emit_ns` (one entry per key of this spout) is null when untraced.
  StreamSpout(const std::vector<uint64_t>* keys, uint32_t index,
              uint64_t* emit_ns)
      : keys_(keys), index_(index), emit_ns_(emit_ns) {}

  bool NextTuple(TopologyTuple* out) override {
    if (next_ == keys_->size()) return false;
    out->key = (*keys_)[next_];
    out->value = index_ + uint64_t{kSpouts} * next_;  // stream position
    if (emit_ns_ != nullptr) emit_ns_[next_] = NowNs();
    ++next_;
    return true;
  }

 private:
  const std::vector<uint64_t>* keys_;
  uint64_t index_;
  uint64_t* emit_ns_;
  size_t next_ = 0;
};

// The paper's worker: fixed busy-work, then a per-key count.
class WorkerBolt final : public Bolt {
 public:
  WorkerBolt(TaskSlot* slot, uint32_t iters, bool traced)
      : slot_(slot), iters_(iters), traced_(traced) {}

  void Execute(const TopologyTuple& tuple, OutputCollector*) override {
    const uint64_t start = traced_ ? NowNs() : 0;
    slot_->digest += BusyWork(tuple.key, iters_);
    slot_->counts.Execute(TopologyTuple{tuple.key, 1}, nullptr);
    if (traced_) RecordSpan(slot_, start, tuple.value);
  }

 private:
  TaskSlot* slot_;
  uint32_t iters_;
  bool traced_;
};

// Re-emits each tuple kFanout times to the shuffle-grouped sinks.
class FanoutBolt final : public Bolt {
 public:
  FanoutBolt(TaskSlot* slot, bool traced) : slot_(slot), traced_(traced) {}

  void Execute(const TopologyTuple& tuple, OutputCollector* out) override {
    const uint64_t start = traced_ ? NowNs() : 0;
    for (uint32_t c = 0; c < kFanout; ++c) out->Emit(tuple);
    if (traced_) RecordSpan(slot_, start, tuple.value);
  }

 private:
  TaskSlot* slot_;
  bool traced_;
};

// ---------------------------------------------------------------------------
// Cells

// A cell's per-task state outlives the cell, as task state outlives any
// stretch of a long-running topology: the gate reads every count back out,
// which empties the hash tables but keeps their bucket arrays, so the next
// cell of the same algorithm and mode inserts into tables already sized for
// the stream instead of regrowing them from empty in every cell. Regrowth
// stalls a task's executor for a whole rehash, and those stalls set the
// fanout-z1-wide p99. The state is rebuilt after a failed cell.
struct CellState {
  std::vector<std::unique_ptr<TaskSlot>> workers;  // the swept bolt's tasks
  std::vector<std::unique_ptr<TaskSlot>> sinks;    // empty on single edge
  std::array<std::vector<uint64_t>, kSpouts> emit_ns;  // traced only
};

std::unique_ptr<CellState> MakeCellState(const Workload& w, const Stream& s,
                                         bool traced) {
  auto cell = std::make_unique<CellState>();
  const uint64_t m = s.keys.size();
  for (uint32_t i = 0; i < w.workers; ++i) {
    cell->workers.push_back(std::make_unique<TaskSlot>());
    // A hot key's task outgrows this; vector growth covers it.
    if (traced) cell->workers.back()->spans.reserve(2 * m / w.workers + 1024);
  }
  for (uint32_t i = 0; i < w.sinks; ++i) {
    cell->sinks.push_back(std::make_unique<TaskSlot>());
    // Shuffle grouping spreads each sender's children within +-1 per sink.
    if (traced) {
      cell->sinks.back()->spans.reserve(kFanout * m / w.sinks + w.workers + 16);
    }
  }
  if (traced) {
    for (uint32_t i = 0; i < kSpouts; ++i) {
      cell->emit_ns[i].assign(s.per_spout[i].size(), 0);
    }
  }
  return cell;
}

TopologyBuilder::Topology BuildTopology(const Workload& w, const Stream& s,
                                        AlgorithmKind kind, uint32_t iters,
                                        bool traced, CellState* cell) {
  TopologyBuilder builder;
  builder.AddSpout(
      "spout",
      [&s, cell, traced](uint32_t i) {
        return std::make_unique<StreamSpout>(
            &s.per_spout[i], i, traced ? cell->emit_ns[i].data() : nullptr);
      },
      kSpouts);
  const Grouping swept{kind, {}};
  if (w.sinks == 0) {
    builder
        .AddBolt("worker",
                 [cell, iters, traced](uint32_t i) {
                   return std::make_unique<WorkerBolt>(cell->workers[i].get(),
                                                       iters, traced);
                 },
                 w.workers)
        .Input("spout", swept);
  } else {
    builder
        .AddBolt("fanout",
                 [cell, traced](uint32_t i) {
                   return std::make_unique<FanoutBolt>(cell->workers[i].get(),
                                                       traced);
                 },
                 w.workers)
        .Input("spout", swept);
    builder
        .AddBolt("sink",
                 [cell, traced](uint32_t i) {
                   return std::make_unique<WorkerBolt>(cell->sinks[i].get(), 0,
                                                       traced);
                 },
                 w.sinks)
        .Input("fanout", Grouping::Shuffle());
  }
  return builder.Build();
}

// The gate's reference for single-edge topologies: the discrete-event
// engine's task_loads for the same topology. Bolt work cannot change routing
// (bolts on this edge emit nothing), so the simulator runs with zero
// busy-work iterations to keep the gate cheap.
Result<std::vector<double>> SimulatedLoads(const Workload& w, const Stream& s,
                                           AlgorithmKind kind) {
  auto cell = MakeCellState(w, s, false);
  auto sim = ExecuteTopology(BuildTopology(w, s, kind, 0, false, cell.get()),
                             TopologyOptions{});
  if (!sim.ok()) return sim.status();
  return sim.value().components.at(kSweptComponent).task_loads;
}

// Returns the empty string when the cell's outputs are correct, else why not.
// `sim_loads` is the ExecuteTopology reference, or null where there is none.
std::string CheckCell(const Workload& w, const Stream& s,
                      const TopologyStats& stats, CellState* cell,
                      const std::vector<double>* sim_loads) {
  const uint64_t m = s.keys.size();
  if (stats.roots_acked != m) {
    return "acked " + std::to_string(stats.roots_acked) + " of " +
           std::to_string(m) + " roots";
  }
  // Reading a task's counts back is a map walk per key, a third of a fanout
  // cell's wall time when serial; kThreads threads share the tasks so more
  // of a run is spent measuring.
  auto& slots = w.sinks == 0 ? cell->workers : cell->sinks;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> counts(slots.size());
  std::vector<std::thread> readers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&slots, &counts, t] {
      std::vector<uint64_t> keys;
      for (size_t i = t; i < slots.size(); i += kThreads) {
        keys.clear();
        slots[i]->counts.AppendStateKeys(&keys);
        counts[i].reserve(keys.size());
        for (const uint64_t key : keys) {
          uint64_t value = 0;
          slots[i]->counts.ExtractKeyState(key, &value);
          counts[i].emplace_back(key, value);
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  std::vector<uint64_t> totals(w.num_keys, 0);
  for (const auto& task : counts) {
    for (const auto& [key, value] : task) {
      if (key >= w.num_keys) return "sink saw unknown key";
      totals[key] += value;
    }
  }
  const uint64_t copies = w.sinks == 0 ? 1 : kFanout;
  for (uint64_t k = 0; k < w.num_keys; ++k) {
    if (totals[k] != copies * s.histogram[k]) {
      return "per-key total of key " + std::to_string(k) +
             " differs from the stream histogram";
    }
  }
  if (sim_loads != nullptr &&
      (stats.components.size() <= kSweptComponent ||
       stats.components[kSweptComponent].task_loads != *sim_loads)) {
    return "task_loads differ from ExecuteTopology";
  }
  return "";
}

struct TraceSummary {
  double service_ns = 0.0;      // mean Execute span of the swept bolt
  double busy_max = 0.0;        // max task busy time / makespan
  double busy_imbalance = 0.0;  // per-task busy time, max/mean - 1
  double wait_p50_us = 0.0;     // NextTuple return -> first Execute start
  double wait_p99_us = 0.0;
  double tree_mean_us = 0.0;    // NextTuple return -> tree's last Execute end
};

// Folds a traced cell's spans by root id. Returns an error when a span names
// no root of the stream or a root has no first-hop span.
std::string Summarize(const CellState& cell, const TopologyStats& stats,
                      uint64_t m, TraceSummary* out) {
  std::vector<uint64_t> emit(m, 0), first(m, 0), last(m, 0);
  for (uint32_t sp = 0; sp < kSpouts; ++sp) {
    for (size_t i = 0; i < cell.emit_ns[sp].size(); ++i) {
      emit[sp + uint64_t{kSpouts} * i] = cell.emit_ns[sp][i];
    }
  }
  TraceSummary& t = *out;
  std::vector<double> busy;
  double total_ns = 0.0;
  uint64_t spans = 0;
  for (const auto& slot : cell.workers) {
    double task_ns = 0.0;
    for (const Span& span : slot->spans) {
      if (span.root >= m) return "span with an unknown root id";
      task_ns += span.dur_ns;
      first[span.root] = span.start_ns;
      last[span.root] = std::max(last[span.root], span.start_ns + span.dur_ns);
    }
    busy.push_back(task_ns);
    total_ns += task_ns;
    spans += slot->spans.size();
  }
  for (const auto& slot : cell.sinks) {
    for (const Span& span : slot->spans) {
      if (span.root >= m) return "span with an unknown root id";
      last[span.root] = std::max(last[span.root], span.start_ns + span.dur_ns);
    }
  }
  t.service_ns = spans > 0 ? total_ns / static_cast<double>(spans) : 0.0;
  const double max_busy = *std::max_element(busy.begin(), busy.end());
  const double mean_busy = total_ns / static_cast<double>(busy.size());
  t.busy_max = max_busy * 1e-9 / stats.makespan_s;
  t.busy_imbalance = mean_busy > 0 ? max_busy / mean_busy - 1.0 : 0.0;
  std::vector<double> waits;
  waits.reserve(m);
  double tree_sum = 0.0;
  for (uint64_t r = 0; r < m; ++r) {
    if (first[r] == 0) return "root " + std::to_string(r) + " has no span";
    waits.push_back(static_cast<double>(first[r] - emit[r]) * 1e-3);
    tree_sum += static_cast<double>(last[r] - emit[r]) * 1e-3;
  }
  t.tree_mean_us = tree_sum / static_cast<double>(m);
  t.wait_p50_us = Quantile(&waits, 0.50);
  t.wait_p99_us = Quantile(&waits, 0.99);
  return "";
}

struct CellOutcome {
  std::string error;  // empty when the cell ran and passed the gate
  TopologyStats stats;
  double overhead_s = 0.0;  // cell wall time outside the makespan
  TraceSummary trace;       // traced cells only
};

// `state` carries the per-task state from the previous cell of the same
// algorithm and mode; it is made when null and dropped when the cell fails.
CellOutcome RunCell(const Workload& w, const Stream& s, AlgorithmKind kind,
                    uint32_t threads, bool traced,
                    const std::vector<double>* sim_loads,
                    std::unique_ptr<CellState>* state) {
  CellOutcome out;
  const auto t0 = Clock::now();
  if (*state == nullptr) *state = MakeCellState(w, s, traced);
  CellState* cell = state->get();
  for (auto* slots : {&cell->workers, &cell->sinks}) {
    for (const auto& slot : *slots) slot->spans.clear();
  }
  const auto topology = BuildTopology(w, s, kind, w.work_iters, traced, cell);
  TopologyRuntimeOptions runtime;
  runtime.num_threads = threads;
  auto result = ExecuteTopologyThreaded(topology, TopologyOptions{}, runtime);
  const auto t1 = Clock::now();
  if (!result.ok()) {
    out.error = result.status().ToString();
    state->reset();
    return out;
  }
  out.stats = std::move(result.value());
  out.error = CheckCell(w, s, out.stats, cell, sim_loads);
  if (out.error.empty() && traced) {
    out.error = Summarize(*cell, out.stats, s.keys.size(), &out.trace);
  }
  for (const auto& slot : cell->workers) {
    g_sink += slot->digest;
    slot->digest = 0;
  }
  const auto t2 = Clock::now();
  if (!out.error.empty()) state->reset();
  // Set-up is everything but the makespan: building the state (first cell
  // only) and the topology, the engine's own set-up and teardown, and
  // freeing the per-task state after a failure.
  out.overhead_s =
      Seconds(t0, t1) - out.stats.makespan_s + Seconds(t2, Clock::now());
  return out;
}

// ---------------------------------------------------------------------------
// Outside-in layer timings, on the workload's own streams.

// Median over `reps` timed calls of `body` (which performs `ops` operations),
// in ns per operation. `setup` runs untimed before each call.
template <typename Setup, typename Body>
double MedianNsPerOp(int reps, uint64_t ops, Setup&& setup, Body&& body) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    setup();
    const auto t0 = Clock::now();
    body();
    ns.push_back(Seconds(t0, Clock::now()) * 1e9 / static_cast<double>(ops));
  }
  return Median(ns);
}

constexpr int kReps = 3;

struct Layers {
  double hash_ns = 0.0;
  double sketch_ns = 0.0;
  double sketch_hit = 0.0;
  std::array<double, kNumAlgos> route_ns{};
  double route_sg_ns = 0.0;  // fanout -> sink edge (layer sum only)
  double head_choices = 0.0;
  double head_share = 0.0;
  double reopt_per_mmsg = 0.0;
  double ring_ns = 0.0;
  double state_ns = 0.0;
  double work_ns = 0.0;
};

PartitionerOptions SweptEdgeOptions(uint32_t n) {
  PartitionerOptions options;
  options.num_workers = n;
  // The seed every spout of the swept edge shares (spout component 0, edge 0).
  options.hash_seed = EdgeHashSeed(TopologyOptions{}.hash_seed, 0, 0);
  return options;
}

double RouteNs(AlgorithmKind kind, const PartitionerOptions& options,
               const std::vector<uint64_t>& keys) {
  std::unique_ptr<StreamPartitioner> p;
  uint32_t out[kBatch];
  return MedianNsPerOp(
      kReps, keys.size(),
      [&] { p = std::move(CreatePartitioner(kind, options).value()); },
      [&] {
        for (size_t off = 0; off < keys.size(); off += kBatch) {
          const size_t count = std::min<size_t>(kBatch, keys.size() - off);
          p->RouteBatch(keys.data() + off, count, out);
          g_sink += out[0];
        }
      });
}

struct RingItem {  // the runtime's in-flight tuple: key, value, spout, slot
  uint64_t key;
  uint64_t value;
  uint32_t task;
  uint32_t slot;
};

// One SpscRing between two threads, batch kBatch, the runtime's capacity.
double RingNsPerItem(uint64_t items) {
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    SpscRing<RingItem> ring(kRingCapacity);
    std::atomic<bool> go{false};
    std::thread consumer([&] {
      RingItem buf[kBatch];
      uint64_t got = 0, sum = 0;
      while (!go.load(std::memory_order_acquire)) {
      }
      while (got < items) {
        const size_t n = ring.TryPopBatch(buf, kBatch);
        for (size_t i = 0; i < n; ++i) sum += buf[i].value;
        got += n;
      }
      g_sink += sum;
    });
    RingItem buf[kBatch];
    const auto t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (uint64_t sent = 0; sent < items;) {
      const size_t count = std::min<uint64_t>(kBatch, items - sent);
      for (size_t i = 0; i < count; ++i) {
        buf[i] = RingItem{sent + i, sent + i, 0, 0};
      }
      size_t done = 0;
      while (done < count) {
        done += ring.TryPushBatch(buf + done, count - done);
      }
      sent += count;
    }
    consumer.join();
    ns.push_back(Seconds(t0, Clock::now()) * 1e9 / static_cast<double>(items));
  }
  return Median(ns);
}

Layers MeasureLayers(const Workload& w, const Stream& s) {
  Layers l;
  const std::vector<uint64_t>& sub = s.per_spout[0];  // one sender's stream
  const PartitionerOptions options = SweptEdgeOptions(w.workers);

  const HashFamily family(2, w.workers, options.hash_seed);
  l.hash_ns = MedianNsPerOp(kReps, sub.size(), [] {}, [&] {
    uint32_t a = 0, b = 0;
    for (const uint64_t key : sub) {
      family.Worker2(key, &a, &b);
      g_sink += a ^ b;
    }
  });

  // SpaceSaving at D-C's auto capacity (2/theta counters, at least 64).
  const auto capacity = std::max<size_t>(
      static_cast<size_t>(std::ceil(2.0 / options.theta())), 64);
  std::unique_ptr<SpaceSaving> sketch;
  l.sketch_ns = MedianNsPerOp(
      kReps, sub.size(), [&] { sketch = std::make_unique<SpaceSaving>(capacity); },
      [&] {
        for (const uint64_t key : sub) g_sink += sketch->UpdateAndEstimate(key);
      });
  sketch = std::make_unique<SpaceSaving>(capacity);
  uint64_t hits = 0;
  for (const uint64_t key : sub) {
    hits += sketch->GuaranteedCount(key) > 0;  // monitored before the update
    sketch->UpdateAndEstimate(key);
  }
  l.sketch_hit = static_cast<double>(hits) / static_cast<double>(sub.size());

  for (size_t a = 0; a < kNumAlgos; ++a) {
    l.route_ns[a] = RouteNs(kAlgos[a].kind, options, sub);
  }
  if (w.sinks > 0) {
    l.route_sg_ns = RouteNs(AlgorithmKind::kShuffleGrouping,
                            SweptEdgeOptions(w.sinks), sub);
  }
  auto dc = std::move(CreatePartitioner(AlgorithmKind::kDChoices, options).value());
  uint64_t head = 0;
  for (const uint64_t key : sub) {
    dc->Route(key);
    head += dc->last_was_head();
  }
  l.head_choices = dc->head_choices();
  l.head_share = static_cast<double>(head) / static_cast<double>(sub.size());
  l.reopt_per_mmsg = static_cast<double>(dc->reoptimize_count()) * 1e6 /
                     static_cast<double>(sub.size());

  l.ring_ns = RingNsPerItem(std::max<uint64_t>(s.keys.size(), 1 << 20));

  // As in the cells, each pass inserts into a table that an earlier pass
  // sized and the gate's read-back emptied; one untimed pass sizes it.
  CountingBolt bolt;
  std::vector<uint64_t> held;
  const auto count_stream = [&] {
    for (const uint64_t key : s.keys) {
      bolt.Execute(TopologyTuple{key, 1}, nullptr);
    }
  };
  const auto empty_bolt = [&] {
    held.clear();
    bolt.AppendStateKeys(&held);
    for (const uint64_t key : held) {
      uint64_t value = 0;
      bolt.ExtractKeyState(key, &value);
    }
  };
  count_stream();
  l.state_ns = MedianNsPerOp(kReps, s.keys.size(), empty_bolt, count_stream);

  const size_t work_ops =
      w.work_iters > 0 ? std::min<size_t>(s.keys.size(), 20000) : s.keys.size();
  l.work_ns = MedianNsPerOp(kReps, work_ops, [] {}, [&] {
    for (size_t i = 0; i < work_ops; ++i) {
      g_sink += BusyWork(s.keys[i], w.work_iters);
    }
  });
  return l;
}

// ---------------------------------------------------------------------------
// Reporting

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    std::printf("metric %-30s %14.6g %-8s %s\n", name.c_str(), value,
                unit.c_str(), note.c_str());
    if (!std::isfinite(value)) finite_ = false;
    entries_.push_back({name, value, unit});
  }

  // The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  void PrintJson(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct && finite_ ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char value[64];
      if (std::isfinite(e.value)) {
        std::snprintf(value, sizeof(value), "%.17g", e.value);
      } else {
        std::snprintf(value, sizeof(value), "null");
      }
      std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", e.name.c_str(), value, e.unit.c_str());
    }
    std::printf("}}\n");
  }

  bool finite() const { return finite_; }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  bool finite_ = true;
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string commit = "unknown";
};

// Tallies roots attempted and failed across every cell of a run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  bool Count(const CellOutcome& cell, const char* label, uint64_t roots) {
    attempted += roots;
    if (cell.error.empty()) return true;
    failed += roots;
    errors.push_back(std::string(label) + ": " + cell.error);
    return false;
  }
};

struct Inputs {
  Stream stream;
  double gen_s = 0.0;  // median wall time of one stream generation
  std::array<std::vector<double>, kNumAlgos> sim_loads;
  std::array<bool, kNumAlgos> sim_ok{};
};

// Generation is part of setup_s. On fanout-z1-wide it is most of it, and one
// generation there varied from 47 to 95 ms within a process, so its median
// takes more repetitions than the layer timings.
constexpr int kGenReps = 9;

Inputs PrepareInputs(const Args& args, uint64_t messages, Tally* tally) {
  Inputs in;
  std::vector<double> gen;
  for (int r = 0; r < kGenReps; ++r) {
    const auto t0 = Clock::now();
    in.stream = MakeStream(*args.workload, messages, args.seed);
    gen.push_back(Seconds(t0, Clock::now()));
  }
  in.gen_s = Median(gen);
  if (args.workload->sinks == 0) {
    for (size_t a = 0; a < kNumAlgos; ++a) {
      auto loads = SimulatedLoads(*args.workload, in.stream, kAlgos[a].kind);
      in.sim_ok[a] = loads.ok();
      if (loads.ok()) {
        in.sim_loads[a] = std::move(loads.value());
      } else {
        tally->errors.push_back(loads.status().ToString());
      }
    }
  }
  return in;
}

const std::vector<double>* SimLoads(const Inputs& in, size_t a) {
  return in.sim_ok[a] ? &in.sim_loads[a] : nullptr;
}

std::string Samples(uint64_t per_cell, size_t cells) {
  return "samples=" + std::to_string(per_cell) + "x" + std::to_string(cells);
}

// --trace 0: the end-to-end metrics, from untraced cells only.
void RunEndToEnd(const Args& args, const Inputs& in, Clock::time_point deadline,
                 Tally* tally, Report* report) {
  const Workload& w = *args.workload;
  const uint64_t m = in.stream.keys.size();
  std::array<std::vector<double>, kNumAlgos> tput, p50, p99, overhead;
  std::array<std::unique_ptr<CellState>, kNumAlgos> state;
  for (size_t round = 0; round < 3 || Clock::now() < deadline; ++round) {
    for (size_t j = 0; j < kNumAlgos; ++j) {
      const size_t a = (round + j) % kNumAlgos;
      CellOutcome cell = RunCell(w, in.stream, kAlgos[a].kind, kThreads, false,
                                 SimLoads(in, a), &state[a]);
      if (!tally->Count(cell, kAlgos[a].name, m)) continue;
      std::printf("cell   %-3s round=%zu throughput=%.6g/s p50=%.4gms "
                  "p99=%.4gms makespan=%.4gs setup=%.4gs idle=%.3gs\n",
                  kAlgos[a].name, round, cell.stats.throughput_per_s,
                  cell.stats.latency_p50_ms, cell.stats.latency_p99_ms,
                  cell.stats.makespan_s, cell.overhead_s, cell.stats.idle_s);
      tput[a].push_back(cell.stats.throughput_per_s);
      p50[a].push_back(cell.stats.latency_p50_ms);
      p99[a].push_back(cell.stats.latency_p99_ms);
      overhead[a].push_back(cell.overhead_s);
    }
  }
  double setup_s = in.gen_s;
  for (size_t a = 0; a < kNumAlgos; ++a) {
    const std::string name = kAlgos[a].name;
    const std::string cells = "cells=" + std::to_string(tput[a].size());
    report->Add("throughput." + name, Median(tput[a]), "1/s", cells);
    report->Add("latency_p50_ms." + name, Median(p50[a]), "ms",
                Samples(m, p50[a].size()));
    report->Add("latency_p99_ms." + name, Median(p99[a]), "ms",
                Samples(m, p99[a].size()));
    setup_s += Median(overhead[a]);
  }
  report->Add("setup_s", setup_s, "s",
              "generation + one cell's set-up per algorithm");
}

// --trace 1: traced cells, the single-thread baseline, the SG reference and
// the outside-in layer timings.
void RunTraced(const Args& args, const Inputs& in, Clock::time_point deadline,
               Tally* tally, Report* report) {
  const Workload& w = *args.workload;
  const uint64_t m = in.stream.keys.size();
  const Layers layers = MeasureLayers(w, in.stream);

  struct PerAlgo {
    std::vector<double> tput, tput_traced, tput_1t, imbalance, idle, parks,
        service, busy_max, busy_imb, wait50, wait99, ack;
  };
  std::array<PerAlgo, kNumAlgos> per;
  std::vector<double> tput_sg, overhead_all;
  std::array<std::unique_ptr<CellState>, kNumAlgos> traced_state, plain_state,
      single_state;
  std::unique_ptr<CellState> sg_state;
  for (size_t round = 0; round < 1 || Clock::now() < deadline; ++round) {
    for (size_t j = 0; j < kNumAlgos; ++j) {
      const size_t a = (round + j) % kNumAlgos;
      const AlgorithmKind kind = kAlgos[a].kind;
      PerAlgo& p = per[a];
      CellOutcome traced = RunCell(w, in.stream, kind, kThreads, true,
                                   SimLoads(in, a), &traced_state[a]);
      if (tally->Count(traced, kAlgos[a].name, m)) {
        const TraceSummary& t = traced.trace;
        p.tput_traced.push_back(traced.stats.throughput_per_s);
        p.service.push_back(t.service_ns);
        p.busy_max.push_back(t.busy_max);
        p.busy_imb.push_back(t.busy_imbalance);
        p.wait50.push_back(t.wait_p50_us);
        p.wait99.push_back(t.wait_p99_us);
        p.ack.push_back(traced.stats.latency_avg_ms * 1e3 - t.tree_mean_us);
      }
      CellOutcome plain = RunCell(w, in.stream, kind, kThreads, false,
                                  SimLoads(in, a), &plain_state[a]);
      if (tally->Count(plain, kAlgos[a].name, m)) {
        const TopologyStats& st = plain.stats;
        p.tput.push_back(st.throughput_per_s);
        p.imbalance.push_back(st.components[kSweptComponent].imbalance);
        p.idle.push_back(st.idle_s / (kThreads * st.makespan_s));
        p.parks.push_back(static_cast<double>(st.parks) * 1e6 /
                          static_cast<double>(st.roots_acked));
        overhead_all.push_back(plain.overhead_s);
      }
      CellOutcome single = RunCell(w, in.stream, kind, 1, false,
                                   SimLoads(in, a), &single_state[a]);
      if (tally->Count(single, kAlgos[a].name, m)) {
        p.tput_1t.push_back(single.stats.throughput_per_s);
      }
    }
    // SG has no simulator reference; its key totals are still gated.
    CellOutcome sg = RunCell(w, in.stream, AlgorithmKind::kShuffleGrouping,
                             kThreads, false, nullptr, &sg_state);
    if (tally->Count(sg, "sg", m)) tput_sg.push_back(sg.stats.throughput_per_s);
  }

  report->Add("workload.gen_s", in.gen_s, "s");
  report->Add("runtime.setup_s", Median(overhead_all), "s", "per cell");
  report->Add("hash.ns", layers.hash_ns, "ns", "HashFamily::Worker2 per key");
  report->Add("sketch.update_ns", layers.sketch_ns, "ns");
  report->Add("sketch.hit_ratio", layers.sketch_hit, "ratio");
  for (size_t a = 0; a < kNumAlgos; ++a) {
    report->Add(std::string("route.ns.") + kAlgos[a].name, layers.route_ns[a],
                "ns", "RouteBatch, one sender's substream");
  }
  report->Add("route.head_choices.dc", layers.head_choices, "count");
  report->Add("route.head_share.dc", layers.head_share, "ratio");
  report->Add("route.reopt_per_mmsg.dc", layers.reopt_per_mmsg, "1/Mmsg");
  report->Add("ring.ns", layers.ring_ns, "ns", "per tuple, batch 64");
  report->Add("bolt.state_ns", layers.state_ns, "ns", "CountingBolt::Execute");
  report->Add("bolt.work_ns", layers.work_ns, "ns",
              "busy-work of " + std::to_string(w.work_iters) + " iterations");
  if (w.sinks > 0) {
    std::printf("info   route.ns.sg (fanout->sink edge) %.6g ns\n",
                layers.route_sg_ns);
  }

  // Per-root cost the outside-in layers explain at one executor thread.
  const double tuples_per_root = w.sinks == 0 ? 1.0 : 1.0 + kFanout;
  const double sink_execs = w.sinks == 0 ? 1.0 : kFanout;
  const double child_routes = w.sinks == 0 ? 0.0 : kFanout;
  double traced_loss = 0.0;
  for (size_t a = 0; a < kNumAlgos; ++a) {
    const std::string name = kAlgos[a].name;
    const PerAlgo& p = per[a];
    report->Add("route.imbalance." + name, Median(p.imbalance), "ratio");
    report->Add("bolt.service_ns." + name, Median(p.service), "ns");
    report->Add("bolt.busy_max." + name, Median(p.busy_max), "ratio");
    report->Add("bolt.busy_imbalance." + name, Median(p.busy_imb), "ratio");
    report->Add("transport.wait_us_p50." + name, Median(p.wait50), "us",
                Samples(m, p.wait50.size()));
    report->Add("transport.wait_us_p99." + name, Median(p.wait99), "us",
                Samples(m, p.wait99.size()));
    report->Add("ack.delay_us." + name, Median(p.ack), "us");
    report->Add("runtime.idle_share." + name, Median(p.idle), "ratio");
    report->Add("runtime.parks_per_mroot." + name, Median(p.parks), "1/Mroot");
    const double tput_1t = Median(p.tput_1t);
    const double tput = Median(p.tput);
    report->Add("runtime.tput_1t." + name, tput_1t, "1/s");
    report->Add("runtime.speedup." + name, tput / tput_1t, "ratio");
    const double per_root_ns = 1e9 / tput_1t;
    const double layers_ns =
        layers.route_ns[a] + child_routes * layers.route_sg_ns +
        tuples_per_root * layers.ring_ns + sink_execs * layers.state_ns +
        layers.work_ns;
    const double residual_ns = per_root_ns - layers_ns;
    report->Add("runtime.residual_ns." + name, residual_ns, "ns");
    report->Add("runtime.explained_share." + name, layers_ns / per_root_ns,
                "ratio");
    std::printf(
        "layersum %-3s per_root=%.1fns layers=%.1fns (route=%.1f "
        "sg_route=%.1fx%.0f ring=%.1fx%.0f state=%.1fx%.0f work=%.1f) "
        "explained=%.0f%% residual=%.0f%%%s\n",
        name.c_str(), per_root_ns, layers_ns, layers.route_ns[a],
        layers.route_sg_ns, child_routes, layers.ring_ns, tuples_per_root,
        layers.state_ns, sink_execs, layers.work_ns,
        100.0 * layers_ns / per_root_ns,
        100.0 * residual_ns / per_root_ns,
        residual_ns > 0.25 * per_root_ns ? "  FLAG residual > 25%" : "");
    traced_loss += 1.0 - Median(p.tput_traced) / tput;
  }
  report->Add("ref.throughput_sg", Median(tput_sg), "1/s");
  report->Add("trace.overhead", traced_loss / kNumAlgos, "ratio",
              "1 - traced/untraced throughput, mean over algorithms");
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--scale full|tiny] [--commit ID]\nworkloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args->workload = &w;
      }
      if (args->workload == nullptr) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 3600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") return false;
      args->tiny = value == "tiny";
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return args->workload != nullptr;
}

int Main(int argc, char** argv) {
  const auto start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);
  const Workload& w = *args.workload;
  const uint64_t messages =
      args.tiny ? std::max<uint64_t>(w.messages / 25, 2000) : w.messages;
  const uint32_t host_cpus = HostCpus();
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"host_cpus\": %u, \"executor_threads\": %u, \"spouts\": %u, "
      "\"max_pending_per_spout\": %u, \"roots_per_cell\": %llu, "
      "\"commit\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\"}\n",
      w.name, static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      host_cpus, kThreads, kSpouts, TopologyOptions{}.max_pending_per_spout,
      static_cast<unsigned long long>(messages), args.commit.c_str(),
      PERFBENCH_BUILD_TYPE, __VERSION__);
  if (kThreads > host_cpus) {
    std::fprintf(stderr,
                 "warning: %u executor threads exceed the %u CPUs this process "
                 "may run on; throughput and latency will not be comparable\n",
                 kThreads, host_cpus);
  }

  Tally tally;
  Report report;
  const Inputs in = PrepareInputs(args, messages, &tally);
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  if (args.trace) {
    RunTraced(args, in, deadline, &tally, &report);
  } else {
    RunEndToEnd(args, in, deadline, &tally, &report);
  }
  const bool correct = tally.errors.empty() && report.finite();
  std::printf("check  failed_frac %.6g (%llu of %llu roots) digest %llx\n",
              tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                        static_cast<double>(tally.attempted)
                                  : 1.0,
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(g_sink));
  constexpr size_t kShownErrors = 8;
  for (size_t i = 0; i < std::min(tally.errors.size(), kShownErrors); ++i) {
    std::printf("check  FAILED %s\n", tally.errors[i].c_str());
  }
  if (tally.errors.size() > kShownErrors) {
    std::printf("check  FAILED ... and %zu more\n",
                tally.errors.size() - kShownErrors);
  }
  report.PrintJson(correct, std::max<uint64_t>(tally.attempted, 1),
                   tally.failed);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace slb::perfbench

int main(int argc, char** argv) { return slb::perfbench::Main(argc, argv); }
