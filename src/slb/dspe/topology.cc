#include "slb/dspe/topology.h"

#include <algorithm>
#include <deque>
#include <queue>
#include <utility>

#include "slb/common/logging.h"
#include "slb/dspe/plan.h"

namespace slb {

TopologyBuilder& TopologyBuilder::AddSpout(const std::string& name,
                                           SpoutFactory factory,
                                           uint32_t parallelism) {
  topology_.spouts.push_back(SpoutDecl{name, std::move(factory), parallelism});
  return *this;
}

TopologyBuilder& TopologyBuilder::AddBolt(const std::string& name,
                                          BoltFactory factory,
                                          uint32_t parallelism) {
  topology_.bolts.push_back(BoltDecl{name, std::move(factory), parallelism, {}});
  return *this;
}

TopologyBuilder& TopologyBuilder::Input(const std::string& upstream,
                                        Grouping grouping) {
  SLB_CHECK(!topology_.bolts.empty()) << "Input() requires a bolt; call AddBolt";
  topology_.bolts.back().inputs.emplace_back(upstream, grouping);
  return *this;
}

namespace {

// ---------------------------------------------------------------------------
// Flattened runtime structures (the plan supplies components and task ids).

struct InFlight {
  TopologyTuple tuple;
  uint64_t root = 0;  // index into root bookkeeping
};

struct Task {
  uint32_t component = 0;
  bool busy = false;
  std::deque<InFlight> queue;
  // One sender-local partitioner per outgoing edge of the component.
  std::vector<std::unique_ptr<StreamPartitioner>> partitioners;
  std::unique_ptr<Spout> spout;
  std::unique_ptr<Bolt> bolt;
  uint64_t processed = 0;
  RunningStats latency_ms;  // root emission -> completion here (bolts)
  // Spout-only:
  uint32_t credits = 0;
  bool exhausted = false;
};

struct Root {
  double emit_time_s = 0.0;
  uint64_t pending = 0;
  uint32_t spout_task = 0;
};

// A routed copy waiting in the shared transport stage.
struct Transfer {
  uint32_t target = 0;
  InFlight in_flight;
};

enum class EventType : uint8_t { kTransportDone, kTaskDone };

struct Event {
  double time_s;
  EventType type;
  uint32_t task;  // meaningful for kTaskDone
  bool operator>(const Event& other) const { return time_s > other.time_s; }
};

class Collector final : public OutputCollector {
 public:
  void Emit(const TopologyTuple& tuple) override { emitted.push_back(tuple); }
  std::vector<TopologyTuple> emitted;
};

}  // namespace

Result<TopologyStats> ExecuteTopology(const TopologyBuilder::Topology& topology,
                                      const TopologyOptions& options) {
  if (options.bolt_service_ms <= 0 || options.transport_rate_per_s <= 0) {
    return Status::InvalidArgument(
        "bolt_service_ms and transport_rate_per_s must be positive");
  }
  if (options.max_pending_per_spout < 1) {
    return Status::InvalidArgument("max_pending_per_spout must be >= 1");
  }

  auto planned = PlanTopology(topology);
  if (!planned.ok()) return planned.status();
  const TopologyPlan& plan = planned.value();
  const std::vector<PlannedComponent>& components = plan.components;

  // --- Instantiate tasks. --------------------------------------------------
  std::vector<Task> tasks;
  tasks.reserve(plan.num_tasks);
  for (uint32_t c = 0; c < components.size(); ++c) {
    for (uint32_t i = 0; i < components[c].parallelism; ++i) {
      Task task;
      task.component = c;
      if (components[c].is_spout) {
        task.spout = topology.spouts[components[c].decl_index].factory(i);
        task.credits = options.max_pending_per_spout;
        if (task.spout == nullptr) {
          return Status::InvalidArgument("spout factory returned null");
        }
      } else {
        const auto& decl = topology.bolts[components[c].decl_index];
        task.bolt = decl.factory(i);
        if (task.bolt == nullptr) {
          return Status::InvalidArgument("bolt factory returned null");
        }
        task.bolt->Prepare(i, components[c].parallelism);
      }
      tasks.push_back(std::move(task));
    }
  }
  // Partitioners: one per (task, outgoing edge); hash seed shared per edge so
  // all senders agree on candidate sets (Sec. III).
  for (Task& task : tasks) {
    auto partitioners =
        MakeEdgePartitioners(plan, task.component, options.hash_seed);
    if (!partitioners.ok()) return partitioners.status();
    task.partitioners = std::move(partitioners.value());
  }

  // --- Event loop. ----------------------------------------------------------
  const double bolt_service_s = options.bolt_service_ms / 1e3;
  const double transport_service_s = 1.0 / options.transport_rate_per_s;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::deque<Transfer> transport;
  bool transport_busy = false;
  std::vector<Root> roots;
  Histogram latency_ms(1 << 18, options.seed ^ 0xabcdULL);
  TopologyStats stats;
  double now_s = 0.0;
  double last_ack_s = 0.0;

  // Routes `tuple` along every outgoing edge of `task` into the transport
  // stage; returns the copies made.
  auto route_downstream = [&](Task& task, const TopologyTuple& tuple,
                              uint64_t root) {
    const PlannedComponent& comp = components[task.component];
    for (size_t e = 0; e < comp.outputs.size(); ++e) {
      const uint32_t idx = task.partitioners[e]->Route(tuple.key);
      const uint32_t target =
          components[comp.outputs[e].to_component].first_task + idx;
      transport.push_back(Transfer{target, InFlight{tuple, root}});
    }
    if (!transport_busy && !transport.empty()) {
      transport_busy = true;
      events.push(Event{now_s + transport_service_s,
                        EventType::kTransportDone, 0});
    }
    return static_cast<uint64_t>(comp.outputs.size());
  };

  // Records a completed tree and returns its credit to the spout.
  auto ack_root = [&](uint64_t root_id) {
    const Root& root = roots[root_id];
    latency_ms.Add((now_s - root.emit_time_s) * 1e3);
    ++stats.roots_acked;
    last_ack_s = now_s;
    ++tasks[root.spout_task].credits;
  };

  // A spout emits instantly for as long as it holds credits.
  auto try_emit = [&](uint32_t task_id) {
    Task& task = tasks[task_id];
    while (!task.exhausted && task.credits > 0) {
      TopologyTuple tuple;
      if (!task.spout->NextTuple(&tuple)) {
        task.exhausted = true;
        break;
      }
      ++task.processed;
      ++stats.tuples_processed;
      --task.credits;
      roots.push_back(Root{now_s, 0, task_id});
      const uint64_t root_id = roots.size() - 1;
      roots[root_id].pending = route_downstream(task, tuple, root_id);
      if (roots[root_id].pending == 0) ack_root(root_id);  // no consumers
    }
  };

  for (uint32_t t = 0; t < tasks.size(); ++t) {
    if (tasks[t].spout != nullptr) try_emit(t);
  }

  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    now_s = ev.time_s;

    if (ev.type == EventType::kTransportDone) {
      // The head copy leaves the transport stage for its target's queue.
      SLB_CHECK(!transport.empty());
      const Transfer transfer = transport.front();
      transport.pop_front();
      Task& target = tasks[transfer.target];
      target.queue.push_back(transfer.in_flight);
      if (!target.busy) {
        target.busy = true;
        events.push(Event{now_s + bolt_service_s, EventType::kTaskDone,
                          transfer.target});
      }
      if (!transport.empty()) {
        events.push(Event{now_s + transport_service_s,
                          EventType::kTransportDone, 0});
      } else {
        transport_busy = false;
      }
      continue;
    }

    // kTaskDone: the head-of-queue tuple finishes processing at this bolt.
    Task& task = tasks[ev.task];
    SLB_CHECK(!task.queue.empty());
    const InFlight in_flight = task.queue.front();
    task.queue.pop_front();
    ++task.processed;
    ++stats.tuples_processed;
    if (options.max_tuples != 0 && stats.tuples_processed > options.max_tuples) {
      return Status::FailedPrecondition(
          "tuple budget exceeded; emission loop in topology?");
    }
    task.latency_ms.Add((now_s - roots[in_flight.root].emit_time_s) * 1e3);

    Collector collector;
    task.bolt->Execute(in_flight.tuple, &collector);
    for (const TopologyTuple& out : collector.emitted) {
      roots[in_flight.root].pending +=
          route_downstream(task, out, in_flight.root);
    }
    Root& root = roots[in_flight.root];
    SLB_CHECK(root.pending > 0);
    if (--root.pending == 0) {
      ack_root(in_flight.root);
      try_emit(root.spout_task);
    }

    if (!task.queue.empty()) {
      events.push(Event{now_s + bolt_service_s, EventType::kTaskDone, ev.task});
    } else {
      task.busy = false;
    }
  }

  // --- Collect statistics. --------------------------------------------------
  stats.makespan_s = last_ack_s;
  stats.throughput_per_s =
      last_ack_s > 0 ? static_cast<double>(stats.roots_acked) / last_ack_s : 0.0;
  stats.latency_avg_ms = latency_ms.mean();
  stats.latency_p50_ms = latency_ms.p50();
  stats.latency_p95_ms = latency_ms.p95();
  stats.latency_p99_ms = latency_ms.p99();
  stats.latency_max_ms = latency_ms.max();

  for (const PlannedComponent& comp : components) {
    ComponentStats cs;
    cs.name = comp.name;
    uint64_t total = 0;
    for (uint32_t i = 0; i < comp.parallelism; ++i) {
      total += tasks[comp.first_task + i].processed;
    }
    cs.tuples_processed = total;
    cs.task_loads.resize(comp.parallelism, 0.0);
    cs.task_latency_avg_ms.resize(comp.parallelism, 0.0);
    double max_load = 0.0;
    for (uint32_t i = 0; i < comp.parallelism; ++i) {
      const Task& task = tasks[comp.first_task + i];
      cs.task_loads[i] = total > 0 ? static_cast<double>(task.processed) /
                                         static_cast<double>(total)
                                   : 0.0;
      cs.task_latency_avg_ms[i] = task.latency_ms.mean();
      max_load = std::max(max_load, cs.task_loads[i]);
      if (task.bolt != nullptr) cs.state_entries += task.bolt->StateEntries();
    }
    cs.imbalance =
        total > 0 ? max_load - 1.0 / static_cast<double>(comp.parallelism) : 0.0;
    stats.components.push_back(std::move(cs));
  }
  return stats;
}

}  // namespace slb
