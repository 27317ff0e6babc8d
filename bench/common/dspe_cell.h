// Sweep cell runner for the cluster-level experiments (Figs. 13-14). Every
// cell builds the same topology — the scenario's stream split round-robin
// over the sources, routed by the cell's grouping to `n` worker bolts — and
// runs it on one of two engines:
//
//   * kSim       — ExecuteTopology, the discrete-event Storm stand-in
//                  (modeled service and transport times; deterministic);
//   * kThreaded  — ExecuteTopologyThreaded, the real multi-threaded runtime
//                  (SPSC rings, credit backpressure): throughput and latency
//                  are *measured* on the host, not modeled.
//
// Either way the cell reports throughput counters, latency snapshots and the
// workers' final load vector and imbalance in the cell payload. The engines
// route identically, so the imbalance columns agree between them.

#pragma once

#include <string>

#include "slb/dspe/runtime.h"
#include "slb/sim/sweep.h"

namespace slb::bench {

enum class DspeEngine {
  kSim,       // discrete-event queueing model
  kThreaded,  // real threads, measured wall-clock
};

/// Parses "sim" / "threaded" (case-insensitive).
Result<DspeEngine> ParseDspeEngine(const std::string& text);

/// Parses "adaptive" / "spin" (case-insensitive) into the threaded engine's
/// idle-executor policy.
Result<WaitStrategy> ParseWaitStrategy(const std::string& text);

struct DspeCellOptions {
  DspeEngine engine = DspeEngine::kSim;
  /// kThreaded only: executor threads / ring sizes / emit batch.
  TopologyRuntimeOptions runtime;
  /// Which payload components the cells attach.
  bool throughput = true;       // Fig. 13 columns
  bool latency = true;          // tuple-level latency snapshot
  bool worker_latency = false;  // Fig. 14's per-worker average percentiles
                                // (kSim only; the threaded runtime reports
                                // tuple-level percentiles)
};

SweepCellRunner MakeDspeCellRunner(DspeCellOptions options);

}  // namespace slb::bench
