// Self-tests of the benchmark's own code: the percentile rule, the
// median, closed-loop accounting, and the correctness checks. Run with
// `python3 perfbench/run.py --selftest` or ctest in the build directory.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "cluster/cluster.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool cond, const std::string& what) {
  if (!cond) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void TestPercentileRule() {
  Expect(ReportableQuantile(1000, 0.99) == 0.99, "p99 kept at n=1000");
  Expect(std::fabs(ReportableQuantile(500, 0.99) - 0.98) < 1e-12,
         "p99 lowered to p98 at n=500");
  Expect(ReportableQuantile(19, 0.99) == 0.5, "median below 20 samples");
  Expect(ReportableQuantile(0, 0.99) == 0.5, "median when empty");
  // Whatever n, the reported sample has at least 10 samples above it.
  for (size_t n = 20; n <= 5000; n += 7) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
    const double q = ReportableQuantile(n, 0.99);
    const double value = QuantileOf(v, q);
    const auto beyond = static_cast<size_t>(n - 1 - static_cast<size_t>(value));
    Expect(beyond >= kTailSamples,
           "n=" + std::to_string(n) + ": only " + std::to_string(beyond) +
               " samples beyond the reported percentile");
  }
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Summary s = Summarize(v);
  Expect(s.count == 1000 && s.p50 == 500 && s.p99 == 990 && s.mean == 500.5,
         "Summarize of 1..1000");
}

void TestMedian() {
  Expect(Median({}) == 0 && Median({3, 1, 2}) == 2 &&
             Median({4, 1, 3, 2}) == 2.5,
         "Median");
}

void TestInterferenceShare() {
  // Over 400 machine ticks: 100 idle, 40 stolen, and this process ran
  // 1 s; the busy ticks it did not run went to other processes.
  const double tck = static_cast<double>(sysconf(_SC_CLK_TCK));
  ProcSample a;
  a.host_total = 1000;
  a.host_idle = 500;
  a.host_steal = 10;
  a.cpu_s = 3.0;
  ProcSample b = a;
  b.host_total += 400;
  b.host_idle += 100;
  b.host_steal += 40;
  b.cpu_s += 1.0;
  const double others = std::max(0.0, 400 - 100 - 40 - tck);
  Expect(std::fabs(InterferenceShare(a, b) - (40 + others) / 400) < 1e-12,
         "interference = steal + others' busy time");
  Expect(std::fabs(StealShare(a, b) - 0.1) < 1e-12, "steal share");
  Expect(InterferenceShare(a, a) == 0, "no interference over no time");
}

void TestAccountingAndChecks() {
  Expect(Classify(sirep::Status::OK()) == Outcome::kCommitted, "ok");
  Expect(Classify(sirep::Status::Conflict("")) == Outcome::kAborted, "ww");
  Expect(Classify(sirep::Status::Deadlock("")) == Outcome::kAborted, "dl");
  Expect(Classify(sirep::Status::Aborted("")) == Outcome::kAborted, "val");
  Expect(Classify(sirep::Status::TransactionLost("")) == Outcome::kLost,
         "lost");
  Expect(Classify(sirep::Status::Unavailable("")) == Outcome::kLost, "unav");
  Expect(Classify(sirep::Status::Internal("")) == Outcome::kFailed, "fail");

  // A small closed loop with conflicts: 4 clients increment 5 hot rows.
  sirep::cluster::ClusterOptions options;
  options.gcs.transport = sirep::gcs::TransportKind::kInProcess;
  sirep::cluster::Cluster cluster(options);
  Expect(cluster.Start().ok(), "cluster start");
  KvWorkload gen(KvWorkload::Options{5, 100, 2});
  Expect(cluster.LoadEverywhere([&](sirep::engine::Database* db) {
           return gen.Load(db);
         }).ok(),
         "load");
  const std::vector<std::string> tables = {"kv"};
  const int64_t sum_before =
      TotalSum(DigestDatabase(cluster.db(0), tables).value());

  constexpr int kTxnsPerClient = 150;
  std::vector<Tally> tallies(4);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < tallies.size(); ++i) {
    threads.emplace_back([&, i] {
      sirep::client::ConnectionOptions co;
      co.autocommit = false;
      co.seed = i + 1;
      auto conn = cluster.Connect(co).value();
      sirep::Prng prng(ClientSeed(7, i));
      for (int t = 0; t < kTxnsPerClient; ++t) {
        const auto txn = gen.Next(prng);
        sirep::Status st;
        for (const auto& [sql, params] : txn.statements) {
          auto r = conn->Execute(sql, params);
          if (!r.ok()) {
            st = r.status();
            break;
          }
        }
        if (st.ok()) {
          st = conn->Commit();
        } else {
          conn->Rollback();
        }
        tallies[i].Record(Classify(st), txn.read_only, txn.statements.size());
      }
    });
  }
  for (auto& t : threads) t.join();
  Tally total;
  for (const auto& t : tallies) total.Add(t);
  Expect(total.Balanced(), "attempted == committed + aborted + lost + failed");
  Expect(total.attempted == 4 * kTxnsPerClient, "every attempt counted");
  Expect(total.failed == 0 && total.lost == 0, "no failures or losses");
  Expect(total.aborted > 0, "the hot rows produced aborts");
  Tally broken = total;
  ++broken.attempted;
  Expect(!broken.Balanced(), "an unbooked attempt is caught");

  cluster.Quiesce();
  std::vector<sirep::engine::Database*> dbs;
  for (size_t i = 0; i < cluster.size(); ++i) dbs.push_back(cluster.db(i));
  Expect(CheckDatabases(dbs, tables, sum_before, total).empty(),
         "a correct run passes the checks");

  // The increment invariant catches a missing or extra increment.
  Tally missing = total;
  --missing.committed_increments;
  Expect(!CheckDatabases(dbs, tables, sum_before, missing).empty(),
         "one increment too few is caught");
  Tally lost = total;
  lost.committed_increments -= 2;
  lost.lost_increments = 2;
  Expect(CheckDatabases(dbs, tables, sum_before, lost).empty(),
         "in-doubt increments may have committed");

  // A replica changed behind the middleware's back is caught, also when
  // its sum still matches.
  auto* victim = cluster.db(1);
  Expect(victim->ExecuteAutoCommit("UPDATE kv SET v = v + 1 WHERE k = 0")
             .ok() &&
             victim->ExecuteAutoCommit("UPDATE kv SET v = v - 1 WHERE k = 1")
                 .ok(),
         "corrupt replica 1");
  const std::string err = CheckDatabases(dbs, tables, sum_before, total);
  Expect(err.find("replica 1") != std::string::npos,
         "the corrupted replica is named: '" + err + "'");
}

void TestDiff() {
  sirep::obs::MetricsRegistry reg;
  auto* c = reg.GetCounter("bench.things");
  auto* h = reg.GetLatencyHistogram("bench.wait_us");
  c->Add(5);
  h->Observe(3);
  const auto before = reg.Snapshot();
  c->Add(2);
  for (int i = 0; i < 4; ++i) h->Observe(100);
  const auto d = Diff(reg.Snapshot(), before);
  Expect(d.counters.at("bench.things") == 2, "counter diff");
  Expect(d.histograms.at("bench.wait_us").count == 4, "histogram diff count");
  Expect(SummarizeHistogram(d.histograms.at("bench.wait_us")).p50 > 50,
         "histogram diff drops earlier samples");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestMedian();
  perfbench::TestInterferenceShare();
  perfbench::TestAccountingAndChecks();
  perfbench::TestDiff();
  if (perfbench::failures > 0) {
    std::cerr << perfbench::failures << " self-test failure(s)\n";
    return 1;
  }
  std::cout << "perfbench self-tests passed\n";
  return 0;
}
