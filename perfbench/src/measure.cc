#include "measure.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <numeric>

namespace perfbench {

double ReportableQuantile(size_t n, double q) {
  if (n < 2 * kTailSamples) return 0.5;
  return std::min(q, 1.0 - static_cast<double>(kTailSamples) /
                               static_cast<double>(n));
}

double QuantileOf(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  // Nearest rank: the smallest sample with at least q * n samples at or
  // below it (the epsilon keeps q = 1 - k/n from rounding up a rank).
  const double rank =
      std::ceil(q * static_cast<double>(samples.size()) - 1e-9);
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(idx, samples.size() - 1));
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  s.p50 = QuantileOf(samples, 0.5);
  s.p99_q = ReportableQuantile(samples.size(), 0.99);
  s.p99 = QuantileOf(samples, s.p99_q);
  return s;
}

Summary SummarizeHistogram(const sirep::obs::HistogramSnapshot& h) {
  Summary s;
  s.count = h.count;
  if (h.count == 0) return s;
  s.mean = h.Mean();
  s.p50 = h.Quantile(0.5);
  s.p99_q = ReportableQuantile(h.count, 0.99);
  s.p99 = h.Quantile(s.p99_q);
  return s;
}

sirep::obs::MetricsSnapshot Diff(const sirep::obs::MetricsSnapshot& after,
                                 const sirep::obs::MetricsSnapshot& before) {
  sirep::obs::MetricsSnapshot out = after;
  for (auto& [name, value] : out.counters) {
    auto it = before.counters.find(name);
    if (it != before.counters.end()) value -= std::min(value, it->second);
  }
  for (auto& [name, h] : out.histograms) {
    auto it = before.histograms.find(name);
    if (it == before.histograms.end() || it->second.count == 0) continue;
    const auto& b = it->second;
    if (b.buckets.size() != h.buckets.size()) continue;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      h.buckets[i] -= std::min(h.buckets[i], b.buckets[i]);
    }
    h.count -= std::min(h.count, b.count);
    h.sum -= b.sum;
  }
  return out;
}

double Median(std::vector<double> values) {
  const size_t n = values.size();
  if (n == 0) return 0;
  std::sort(values.begin(), values.end());
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Outcome Classify(const sirep::Status& status) {
  using sirep::StatusCode;
  switch (status.code()) {
    case StatusCode::kOk:
      return Outcome::kCommitted;
    case StatusCode::kAborted:
    case StatusCode::kConflict:
    case StatusCode::kDeadlock:
      return Outcome::kAborted;
    case StatusCode::kTransactionLost:
    case StatusCode::kUnavailable:
      return Outcome::kLost;
    default:
      return Outcome::kFailed;
  }
}

void Tally::Record(Outcome outcome, bool read_only, uint64_t increments) {
  ++attempted;
  switch (outcome) {
    case Outcome::kCommitted:
      ++committed;
      if (read_only) {
        ++committed_reads;
      } else {
        ++committed_updates;
      }
      committed_increments += increments;
      break;
    case Outcome::kAborted:
      ++aborted;
      break;
    case Outcome::kLost:
      ++lost;
      lost_increments += increments;
      break;
    case Outcome::kFailed:
      ++failed;
      break;
  }
}

void Tally::Add(const Tally& o) {
  attempted += o.attempted;
  committed += o.committed;
  aborted += o.aborted;
  lost += o.lost;
  failed += o.failed;
  committed_updates += o.committed_updates;
  committed_reads += o.committed_reads;
  committed_increments += o.committed_increments;
  lost_increments += o.lost_increments;
}

bool Tally::Balanced() const {
  return attempted == committed + aborted + lost + failed &&
         committed == committed_updates + committed_reads;
}

uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

ProcSample SampleProcess() {
  ProcSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  s.rss_bytes = resident_pages * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
  // "cpu user nice system idle iowait irq softirq steal ..."
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  for (int field = 0; field < 8; ++field) {
    uint64_t ticks = 0;
    if (!(stat >> ticks)) break;
    s.host_total += ticks;
    if (field == 3 || field == 4) s.host_idle += ticks;
    if (field == 7) s.host_steal = ticks;
  }
  return s;
}

double StealShare(const ProcSample& from, const ProcSample& to) {
  const uint64_t total = to.host_total - from.host_total;
  if (total == 0) return 0;
  return static_cast<double>(to.host_steal - from.host_steal) /
         static_cast<double>(total);
}

double InterferenceShare(const ProcSample& from, const ProcSample& to) {
  const double total = static_cast<double>(to.host_total - from.host_total);
  if (total <= 0) return 0;
  const double steal = static_cast<double>(to.host_steal - from.host_steal);
  const double idle = static_cast<double>(to.host_idle - from.host_idle);
  const double own =
      (to.cpu_s - from.cpu_s) * static_cast<double>(sysconf(_SC_CLK_TCK));
  const double others = std::max(0.0, total - idle - steal - own);
  return (steal + others) / total;
}

const char* SpanName(Span span) {
  switch (span) {
    case Span::kMwBegin:
      return "middleware.begin";
    case Span::kMwExecute:
      return "middleware.execute";
    case Span::kMwCommit:
      return "middleware.commit";
    case Span::kMwCommitRo:
      return "middleware.commit_ro";
    case Span::kEnginePrepare:
      return "engine.prepare";
    case Span::kEngineExecute:
      return "engine.execute";
    case Span::kStorageExtract:
      return "storage.extract";
    case Span::kStorageCommit:
      return "storage.commit";
    case Span::kStorageApply:
      return "storage.apply";
    case Span::kClusterQuiesce:
      return "cluster.quiesce";
    case Span::kClusterVacuum:
      return "cluster.vacuum";
  }
  return "unknown";
}

void SpanSamples::Merge(const SpanSamples& other) {
  wall_us.insert(wall_us.end(), other.wall_us.begin(), other.wall_us.end());
  cpu_us.insert(cpu_us.end(), other.cpu_us.begin(), other.cpu_us.end());
}

void SpanSet::Merge(const SpanSet& other) {
  for (int i = 0; i < kNumSpans; ++i) spans[i].Merge(other.spans[i]);
}

}  // namespace perfbench
