#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace perfbench {

// ---- percentiles ----

/// A percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr size_t kTailSamples = 10;

/// The quantile reported in place of `q`: the highest one at or below
/// `q` with at least kTailSamples samples above it (nearest-rank). With
/// fewer than 2 * kTailSamples samples no such quantile exists and the
/// median stands in.
double ReportableQuantile(size_t n, double q);

/// Nearest-rank quantile of `samples` (reorders them); 0 when empty.
double QuantileOf(std::vector<double>& samples, double q);

struct Summary {
  size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p99 = 0;      ///< at ReportableQuantile(count, 0.99)
  double p99_q = 0.5;  ///< the quantile p99 was taken at
};
Summary Summarize(std::vector<double> samples);

/// p50 and tail quantile of a registry histogram under the same rule.
Summary SummarizeHistogram(const sirep::obs::HistogramSnapshot& h);

/// `after` minus `before`, counter- and bucket-wise: the registry's
/// activity between two snapshots. Gauges keep `after`'s value.
sirep::obs::MetricsSnapshot Diff(const sirep::obs::MetricsSnapshot& after,
                                 const sirep::obs::MetricsSnapshot& before);

/// Median of `values`; 0 when empty.
double Median(std::vector<double> values);

// ---- closed-loop accounting ----

enum class Outcome { kCommitted, kAborted, kLost, kFailed };

/// Aborts are the protocol's normal answer to a conflict (validation,
/// first-updater-wins, deadlock victim); lost covers a crash of the
/// client's replica (kTransactionLost, kUnavailable). Anything else is a
/// failure of the program.
Outcome Classify(const sirep::Status& status);

struct Tally {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t lost = 0;
  uint64_t failed = 0;
  uint64_t committed_updates = 0;
  uint64_t committed_reads = 0;
  /// Row increments of committed transactions, and of lost ones (which
  /// may or may not have committed: in doubt).
  uint64_t committed_increments = 0;
  uint64_t lost_increments = 0;

  void Record(Outcome outcome, bool read_only, uint64_t increments);
  void Add(const Tally& other);
  /// attempted == committed + aborted + lost + failed.
  bool Balanced() const;
};

// ---- clocks and process resources ----

uint64_t NowNs();
uint64_t ThreadCpuNs();

struct ProcSample {
  double cpu_s = 0;       ///< process user + system CPU (getrusage)
  int64_t rss_bytes = 0;  ///< resident set size
  /// Machine-wide CPU ticks (/proc/stat): all, idle (with iowait), and
  /// those the hypervisor gave to other guests (steal).
  uint64_t host_total = 0;
  uint64_t host_idle = 0;
  uint64_t host_steal = 0;
};
ProcSample SampleProcess();

/// Share of all machine CPU time between two samples that the hypervisor
/// gave to other guests.
double StealShare(const ProcSample& from, const ProcSample& to);

/// Share of all machine CPU time between two samples that this process
/// did not get for a reason outside it: steal, plus the busy time of
/// other processes (machine busy time minus this process's CPU time).
/// Both slow every wall-clock figure here.
double InterferenceShare(const ProcSample& from, const ProcSample& to);

// ---- spans timed around calls into the program ----

enum class Span : int {
  kMwBegin = 0,
  kMwExecute,
  kMwCommit,
  kMwCommitRo,
  kEnginePrepare,
  kEngineExecute,
  kStorageExtract,
  kStorageCommit,
  kStorageApply,
  kClusterQuiesce,
  kClusterVacuum,
};
inline constexpr int kNumSpans = 11;
const char* SpanName(Span span);

/// Wall and thread-CPU clock readings at a span's start.
struct SpanStart {
  uint64_t wall_ns;
  uint64_t cpu_ns;
  static SpanStart Now() { return {NowNs(), ThreadCpuNs()}; }
};

/// Durations of one span kind, in microseconds.
struct SpanSamples {
  std::vector<double> wall_us;
  std::vector<double> cpu_us;
  void Add(double wall, double cpu) {
    wall_us.push_back(wall);
    cpu_us.push_back(cpu);
  }
  void Merge(const SpanSamples& other);
};

/// One thread's spans (no locking; merge after the threads join).
struct SpanSet {
  std::array<SpanSamples, kNumSpans> spans;
  SpanSamples& operator[](Span s) { return spans[static_cast<int>(s)]; }
  const SpanSamples& operator[](Span s) const {
    return spans[static_cast<int>(s)];
  }
  void Merge(const SpanSet& other);
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
