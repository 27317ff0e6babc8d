// Streaming statistics and exact-percentile histograms.
//
// Used by both DSPE engines (latency percentiles, Fig. 14) and by test
// assertions on distributions. Two flavours:
//   * RunningStats  — O(1) memory mean/variance/min/max (Welford).
//   * Histogram     — stores samples, exact quantiles; optionally reservoir-
//                     subsampled past a cap so unbounded streams stay bounded.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "slb/common/rng.h"

namespace slb {

/// Welford online mean/variance plus min/max.
class RunningStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance (0 when fewer than 2 samples).
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel reduction).
  void Merge(const RunningStats& other);

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample container with exact quantiles. If more than `reservoir_capacity`
/// samples arrive, switches to uniform reservoir sampling (Vitter's R), so
/// quantiles become estimates with bounded memory. Min/max/mean stay exact.
///
/// Thread safety: writes (Add/Merge) require external exclusion, but any
/// number of threads may call Quantile()/p50()/p95()/p99() concurrently once
/// writes have quiesced — the lazy sort is guarded internally.
class Histogram {
 public:
  /// `reservoir_capacity` == 0 means "never subsample" (unbounded memory).
  explicit Histogram(size_t reservoir_capacity = 1 << 20, uint64_t seed = 1);

  void Add(double x);

  /// Folds another histogram in (parallel reduction of per-thread latency
  /// histograms). count/mean/min/max stay exact; the sample reservoir is the
  /// union of both reservoirs, uniformly downsampled back to capacity when it
  /// overflows — quantiles stay unbiased when neither input subsampled and
  /// remain estimates otherwise.
  void Merge(const Histogram& other);

  int64_t count() const { return stats_.count(); }
  double mean() const { return stats_.mean(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }
  double stddev() const { return stats_.stddev(); }

  /// Quantile in [0,1]; e.g. 0.5 = median, 0.99 = p99. Returns 0 when empty.
  /// Uses the nearest-rank definition on the (possibly subsampled) samples.
  /// Safe to call from multiple threads concurrently (but not concurrently
  /// with Add/Merge).
  double Quantile(double q) const;

  /// Convenience accessors matching the paper's reporting (Fig. 14).
  double p50() const { return Quantile(0.50); }
  double p95() const { return Quantile(0.95); }
  double p99() const { return Quantile(0.99); }

  bool subsampled() const { return subsampled_; }
  size_t sample_count() const { return samples_.size(); }

 private:
  RunningStats stats_;
  // mutable: Quantile() sorts in place (multiset unchanged) under sort_mu_.
  mutable std::vector<double> samples_;
  size_t capacity_;
  bool subsampled_ = false;
  Rng rng_;
  // Lazy-sort state: the first Quantile() after a write sorts the reservoir.
  // Double-checked under sort_mu_; the release store / acquire load pair on
  // sorted_ publishes the sorted contents to lock-free fast-path readers.
  mutable std::mutex sort_mu_;
  mutable std::atomic<bool> sorted_{true};
};

}  // namespace slb
