// Metrics registry: named counters, gauges, and fixed-bucket latency
// histograms for the runtime telemetry layer.
//
// The registry hands out stable references — a metric, once created,
// lives as long as its registry, so instrumentation sites can look a
// metric up once and update it lock-free afterwards (all updates are
// relaxed atomics; registration takes the registry mutex). A snapshot
// copies every metric's current value into plain structs, sorted by
// name, for reports and the Chrome-trace summary.
//
// Metrics may carry labels: a sorted set of key=value dimensions
// (tenant, session, phase, resource) that split one logical series
// into a family. Two metrics with the same name but different labels
// are distinct instruments; a name owns exactly one kind across all of
// its label sets. The unlabeled metric `counter("x")` is the same
// instrument as `counter("x", {})`.
//
// Metric names follow a `subsystem.quantity` convention; the glossary
// lives in docs/observability.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace torex {

/// Label dimensions of one metric, canonically sorted by key.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Sorts labels by key and rejects empty or duplicate keys. Every
/// registry entry point canonicalizes, so call sites may pass labels
/// in any order.
MetricLabels canonical_labels(MetricLabels labels);

/// Monotonically increasing count (events, retransmits, blocks moved).
class Counter {
 public:
  void add(std::int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins instantaneous value (in-flight transfers, session
/// queue depth).
class Gauge {
 public:
  void set(std::int64_t value) { value_.store(value, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: bucket i counts observations with
/// value <= bounds[i] (first matching bucket); anything above the last
/// bound lands in the implicit overflow bucket. Tracks count/sum/min/max
/// alongside the buckets so snapshots can report means and extremes.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<std::int64_t> upper_bounds);

  void observe(std::int64_t value);

  const std::vector<std::int64_t>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<std::int64_t> bucket_counts() const;
  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Min/max over observations; 0 when empty.
  std::int64_t min() const;
  std::int64_t max() const;

  /// q-th quantile (q in [0,1]) estimated by linear interpolation
  /// inside the covering bucket; the overflow bucket interpolates up
  /// to the observed max. 0 when empty.
  double percentile(double q) const;

 private:
  std::vector<std::int64_t> bounds_;
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Point-in-time copy of one metric.
struct CounterSnapshot {
  std::string name;
  MetricLabels labels;
  std::int64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  MetricLabels labels;
  std::int64_t value = 0;
};
struct HistogramSnapshot {
  std::string name;
  MetricLabels labels;
  std::vector<std::int64_t> bounds;
  std::vector<std::int64_t> counts;  ///< bounds.size() + 1 (overflow last)
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;

  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
  /// Same estimator as Histogram::percentile, over the copied buckets.
  double percentile(double q) const;
};

/// Every metric of a registry at one instant, each family sorted by
/// (name, labels).
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Unlabeled counter value by name; 0 when absent (convenient in
  /// tests/tools). Labeled entries of the same name are not summed.
  std::int64_t counter_value(const std::string& name) const;
  /// Unlabeled gauge value by name; 0 when absent.
  std::int64_t gauge_value(const std::string& name) const;
  /// Labeled lookups; 0 when absent. Labels may be given in any order.
  std::int64_t counter_value(const std::string& name, MetricLabels labels) const;
  std::int64_t gauge_value(const std::string& name, MetricLabels labels) const;
  /// Histogram by (name, labels); nullptr when absent.
  const HistogramSnapshot* histogram(const std::string& name, MetricLabels labels = {}) const;
};

/// (name, labels) -> metric map with find-or-create semantics. A name
/// owns one kind across all label sets; creating two metrics of
/// different kinds under one name throws std::logic_error.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, MetricLabels labels = {});
  Gauge& gauge(const std::string& name, MetricLabels labels = {});
  /// `upper_bounds` is used on first creation; later lookups of the same
  /// (name, labels) ignore it (bounds are fixed for the histogram's
  /// lifetime).
  Histogram& histogram(const std::string& name, std::vector<std::int64_t> upper_bounds,
                       MetricLabels labels = {});

  MetricsSnapshot snapshot() const;

 private:
  using Key = std::pair<std::string, MetricLabels>;
  void check_kind(const std::string& name, char kind) const;  // mu_ held

  mutable std::mutex mu_;
  std::map<std::string, char> kinds_;  ///< 'c' / 'g' / 'h' per family name
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

/// Default bucket edges for nanosecond latencies: 1us .. ~1s in octaves.
std::vector<std::int64_t> default_latency_bounds_ns();

/// q-th quantile (q in [0,1]) of raw samples with linear interpolation
/// between order statistics — the one percentile definition shared by
/// the benches and tools. 0 when empty.
double percentile(std::vector<double> values, double q);

}  // namespace torex
