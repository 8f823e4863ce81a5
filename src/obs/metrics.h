#ifndef SIREP_OBS_METRICS_H_
#define SIREP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sirep::obs {

/// The observability substrate for the SI-Rep stack: named counters,
/// gauges, and fixed-bucket histograms behind one thread-safe registry.
///
/// Design constraints (this sits on the commit hot path):
///  * recording is lock-free — counters are striped across cache lines,
///    histograms bump per-bucket atomics; no mutex is ever taken after a
///    metric handle has been obtained;
///  * handles are raw pointers that stay valid for the registry's
///    lifetime, so components look a metric up once (constructor) and
///    record through the pointer forever after;
///  * snapshots are merely racy-consistent (each atomic is read once;
///    totals can lag bucket sums by in-flight updates) — fine for
///    monitoring, and the ordering in Histogram::Observe guarantees
///    bucket-sum >= count in any snapshot.
///
/// Each component (storage engine, GCS group, middleware replica) owns
/// its own registry so per-replica numbers stay separable; a deployment
/// aggregates them with MetricsSnapshot::Merge (see Cluster::DumpMetrics).

/// Monotone event counter, striped to keep concurrent increments off a
/// single cache line.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t n) {
    slots_[SlotIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kStripes = 8;
  static size_t SlotIndex();

  struct alignas(64) Slot {
    std::atomic<uint64_t> value{0};
  };
  std::array<Slot, kStripes> slots_;
};

/// Instantaneous level (queue depth, active transactions, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Exponential bucket upper bounds for latency histograms, in
/// microseconds: 1, 2, 4, ..., 2^23 us (~8.4 s), 24 finite buckets plus
/// the implicit +inf overflow bucket.
const std::vector<double>& LatencyBucketsUs();

/// Small linear bounds for length-like distributions (queue depths,
/// version-chain lengths, retry counts): 1..16, 24, 32, 48, 64, 96, 128,
/// 256, 1024.
const std::vector<double>& LengthBuckets();

struct HistogramSnapshot {
  std::vector<double> bounds;      ///< finite upper bounds, ascending
  std::vector<uint64_t> buckets;   ///< bounds.size() + 1 (last = +inf)
  uint64_t count = 0;
  double sum = 0;
  double min = 0;  ///< 0 when count == 0
  double max = 0;

  double Mean() const { return count == 0 ? 0.0 : sum / count; }
  /// Quantile estimate by linear interpolation inside the bucket (q in
  /// [0,1]). Clamped to [min, max] so tiny samples don't report a whole
  /// bucket's width.
  double Quantile(double q) const;

  /// The percentile summary benches print instead of raw bucket dumps.
  struct Percentiles {
    uint64_t count = 0;
    double mean = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
  };
  Percentiles SummaryPercentiles() const;

  void Merge(const HistogramSnapshot& other);
  bool operator==(const HistogramSnapshot& other) const = default;
};

/// Fixed-bucket histogram. A value lands in the first bucket whose upper
/// bound is >= value; values above every bound land in the overflow
/// bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);
  uint64_t Count() const { return count_.load(std::memory_order_acquire); }
  HistogramSnapshot Snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  const std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<double> sum_{0};
  std::atomic<double> min_{0};
  std::atomic<double> max_{0};
  std::atomic<uint64_t> count_{0};  // bumped last (release)
};

/// The shared JSON writer: escaped string, round-trip double, integers.
void AppendJsonString(std::string* out, const std::string& s);
void AppendDouble(std::string* out, double v);
void AppendU64(std::string* out, uint64_t v);
void AppendI64(std::string* out, int64_t v);

/// Everything a registry knew at one instant. Mergeable across
/// registries (counters/gauges add, same-shape histograms add
/// bucket-wise) and serializable as JSON or Prometheus text.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  void Merge(const MetricsSnapshot& other);
  std::string ToJson() const;
  std::string ToPrometheusText() const;

  /// Percentile summary of the named histogram, or a zeroed row when the
  /// histogram is absent or empty.
  HistogramSnapshot::Percentiles Percentiles(const std::string& name) const;

  /// Parses the output of ToJson() back (round-trip; used by tests and
  /// by tooling that scrapes bench output).
  static Result<MetricsSnapshot> FromJson(const std::string& json);

  bool operator==(const MetricsSnapshot& other) const = default;
};

/// Naming convention lint: every registered metric name must be
/// `component.noun` (optionally nested, with a unit suffix where the
/// value has one): lowercase dot-separated segments of [a-z0-9_],
/// starting with a letter, at least two segments — e.g.
/// "mw.commit.stage.apply_us", "gcs.tcp.connect_retries". Enforced by
/// an assert in the registry's Get* methods (debug builds) and by a
/// unit test that sweeps every name a running cluster registers.
bool IsValidMetricName(std::string_view name);

/// Thread-safe name -> metric registry. Registration takes a mutex;
/// recording through the returned pointers never does. Metrics are never
/// removed, so pointers remain valid until the registry dies.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `bounds` is consulted only on first creation; later callers get the
  /// existing histogram whatever its bounds.
  Histogram* GetHistogram(std::string_view name,
                          const std::vector<double>& bounds);
  /// Latency-bucketed convenience (microseconds).
  Histogram* GetLatencyHistogram(std::string_view name) {
    return GetHistogram(name, LatencyBucketsUs());
  }

  MetricsSnapshot Snapshot() const;
  std::string SnapshotJson() const { return Snapshot().ToJson(); }
  std::string PrometheusText() const { return Snapshot().ToPrometheusText(); }

  /// Process-global registry for standalone components that were not
  /// handed one explicitly.
  static MetricsRegistry& Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Stopwatch recording elapsed wall time into a histogram (microseconds)
/// on destruction. `hist` may be null (no-op) so call sites don't need
/// their own guards.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* hist);
  ~ScopedLatency();

  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

  /// Stops the clock early and records once; destruction then no-ops.
  void Stop();

 private:
  Histogram* hist_;
  uint64_t start_ns_;
};

/// Monotonic nanosecond clock reading (steady_clock), the time base for
/// every duration metric in the system.
uint64_t MonotonicNanos();

inline double NanosToUs(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace sirep::obs

#endif  // SIREP_OBS_METRICS_H_
