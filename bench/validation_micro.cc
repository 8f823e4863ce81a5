// Validation microbenchmarks + granularity ablation.
//
//  * BM_Validate/{n}: cost of one middleware validation — the replica's
//    step-II code, digest hashing plus Certifier::Certify — against a
//    window of n writesets. The paper's "validation is an atomic phase"
//    is only viable because this is microseconds.
//  * BM_ValidateRecentOnly/{n}: the same probe through WsList, the
//    literal ws_list scan the reference SRCA middleware runs.
//  * The ablation table contrasts conflict probability at tuple vs table
//    granularity for the update-intensive workload: the design reason
//    SI-Rep validates tuples while the baseline [20] locks tables.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "common/prng.h"
#include "middleware/certifier.h"
#include "middleware/ws_list.h"
#include "workload/simple_workloads.h"

using namespace sirep;
using sql::Value;

namespace {

std::shared_ptr<const storage::WriteSet> RandomWs(Prng& prng,
                                                  int64_t tables,
                                                  int64_t rows,
                                                  int64_t entries) {
  auto ws = std::make_shared<storage::WriteSet>();
  for (int64_t i = 0; i < entries; ++i) {
    const int64_t t = static_cast<int64_t>(prng.Uniform(tables));
    const int64_t k = static_cast<int64_t>(prng.Uniform(rows));
    ws->Record({"ut" + std::to_string(t), sql::Key{{Value::Int(k)}}},
               storage::WriteOp::kUpdate, {Value::Int(k)});
  }
  return ws;
}

/// A certifier whose window holds `backlog` random writesets.
middleware::Certifier FilledCertifier(Prng& prng, int64_t backlog) {
  middleware::Certifier certifier(static_cast<size_t>(backlog));
  for (int64_t i = 0; i < backlog; ++i) {
    certifier.Certify(
        certifier.last_validated(),
        middleware::Certifier::DigestsOf(*RandomWs(prng, 10, 100, 10)));
  }
  return certifier;
}

/// One delivered writeset's step II. The cert is the head, so every
/// call probes all digests, commits, appends and evicts one entry: the
/// steady state of a full window.
uint64_t CertifyAtHead(middleware::Certifier& certifier,
                       const storage::WriteSet& ws) {
  return certifier
      .Certify(certifier.last_validated(),
               middleware::Certifier::DigestsOf(ws))
      .tid;
}

void BM_Validate(benchmark::State& state) {
  Prng prng(3);
  middleware::Certifier certifier = FilledCertifier(prng, state.range(0));
  auto probe = RandomWs(prng, 10, 100, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CertifyAtHead(certifier, *probe));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Validate)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_ValidateRecentOnly(benchmark::State& state) {
  // The realistic case: cert lags by only a handful of tids.
  const int64_t backlog = state.range(0);
  Prng prng(3);
  middleware::WsList list(1 << 20);
  for (int64_t tid = 1; tid <= backlog; ++tid) {
    list.Append(static_cast<uint64_t>(tid), RandomWs(prng, 10, 100, 10));
  }
  auto probe = RandomWs(prng, 10, 100, 10);
  const uint64_t cert = static_cast<uint64_t>(backlog) - 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.ConflictsAfter(cert, *probe));
  }
}
BENCHMARK(BM_ValidateRecentOnly)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench("validation_micro", &argc, argv);
  bench::BenchReport report("validation_micro");
  // Ablation: tuple- vs table-granularity conflict rates.
  Prng prng(bench::BenchSeed() * 2 + 3);
  constexpr int kPairs = 20000;
  int tuple_conflicts = 0;
  int table_conflicts = 0;
  for (int i = 0; i < kPairs; ++i) {
    auto a = RandomWs(prng, 10, 100, 10);
    auto b = RandomWs(prng, 10, 100, 10);
    if (a->Intersects(*b)) ++tuple_conflicts;
    auto ta = a->Tables();
    auto tb = b->Tables();
    bool table_hit = false;
    for (const auto& x : ta) {
      for (const auto& y : tb) {
        if (x == y) table_hit = true;
      }
    }
    if (table_hit) ++table_conflicts;
  }
  std::printf(
      "\nGranularity ablation (update-intensive: 10 updates over 10 tables "
      "x 100 rows):\n"
      "  tuple-granularity conflict rate: %5.2f%%  (SI-Rep validation)\n"
      "  table-granularity conflict rate: %5.2f%%  (baseline [20] locks)\n"
      "  => table locking serializes ~%.0fx more transaction pairs\n\n",
      100.0 * tuple_conflicts / kPairs, 100.0 * table_conflicts / kPairs,
      static_cast<double>(table_conflicts) /
          std::max(1, tuple_conflicts));

  report.AddScalar("tuple_conflict_pct", 100.0 * tuple_conflicts / kPairs,
                   "%", bench::Direction::kInfo);
  report.AddScalar("table_conflict_pct", 100.0 * table_conflicts / kPairs,
                   "%", bench::Direction::kInfo);

  // Timed validation cost (the atomic-phase viability claim): one
  // step-II certification against a 512-writeset window.
  {
    Prng vprng(3);
    middleware::Certifier certifier = FilledCertifier(vprng, 512);
    auto probe = RandomWs(vprng, 10, 100, 10);
    const int kIters = bench::FastMode() ? 2000 : 20000;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(CertifyAtHead(certifier, *probe));
    }
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count() /
                      kIters;
    std::printf("validate vs 512-ws backlog: %.2f us/validation\n\n", us);
    report.AddScalar("validate_backlog512.us", us, "us",
                     bench::Direction::kLowerIsBetter);
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bench::FinishReport(report);
  return 0;
}
