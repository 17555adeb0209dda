// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Metrics registry: named counters, gauges and fixed-bucket histograms,
// snapshot-able to deterministic JSON. Two scopes are conventional:
// MetricsRegistry::Global() for process-wide totals, and short-lived
// per-query registries (EXPLAIN ANALYZE creates one per statement).
//
// Hot-path discipline: look the metric pointer up ONCE per scope (query,
// Optimize() run, ...) and increment through the pointer — Get* does a map
// lookup; Increment/Set/Observe are a handful of instructions. Instances
// are not thread-safe; give each worker its own registry and merge
// snapshots (the planned sharding model) rather than sharing one.

#ifndef ROBUSTQO_OBS_METRICS_H_
#define ROBUSTQO_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/quantile_sketch.h"

namespace robustqo {
namespace obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: observations are counted into the first bucket
/// whose upper bound is >= the value; one implicit overflow bucket catches
/// the rest. Bounds are fixed at registration — no allocation on Observe.
///
/// Non-finite observations never poison the aggregate: NaN goes into a
/// dedicated counter (outside count() and the buckets), ±inf land in the
/// overflow/first bucket respectively, and sum() only accumulates finite
/// values.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  /// Bucketed observations (everything except NaN).
  uint64_t count() const { return count_; }
  /// NaN observations — the dedicated "invalid" bucket.
  uint64_t nan_count() const { return nan_count_; }
  /// Sum of the finite observations.
  double sum() const { return sum_; }
  /// Inclusive bucket upper bounds (the overflow bucket is implicit).
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket counts; size is upper_bounds().size() + 1 (last=overflow).
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  void Reset();

 private:
  friend class MetricsRegistry;  // MergeFrom

  std::vector<double> upper_bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t nan_count_ = 0;
  double sum_ = 0.0;
};

/// Name -> metric registry. Metric pointers are stable for the registry's
/// lifetime (safe to cache across calls).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the named metric, registering it on first use. A histogram's
  /// bounds are taken from the first registration; later calls ignore
  /// `upper_bounds`.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& upper_bounds);
  /// A sketch's accuracy is taken from the first registration; later calls
  /// ignore `relative_accuracy`.
  QuantileSketch* GetSketch(const std::string& name,
                            double relative_accuracy = 0.01);

  /// Zeroes every metric, keeping registrations (and cached pointers)
  /// valid.
  void Reset();

  /// Sums `other` into this registry, the reduction step of the per-worker
  /// sharding model: counters and same-bounded histograms add, sketches
  /// merge, gauges take the maximum (the only merge that is independent of
  /// how observations were partitioned across workers). Merging histograms
  /// of non-integral values can perturb the last bits of sum() depending on
  /// the partition; every other merged value is partition-independent.
  void MergeFrom(const MetricsRegistry& other);

  /// Deterministic JSON snapshot: metrics sorted by name, values formatted
  /// with fixed precision. Byte-identical across runs that recorded the
  /// same values.
  std::string ToJson() const;

  /// Process-wide registry for system totals.
  static MetricsRegistry* Global();

  // Read-only iteration, sorted by name (exporters, tests).
  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, std::unique_ptr<QuantileSketch>>& sketches()
      const {
    return sketches_;
  }

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<QuantileSketch>> sketches_;
};

}  // namespace obs
}  // namespace robustqo

#endif  // ROBUSTQO_OBS_METRICS_H_
