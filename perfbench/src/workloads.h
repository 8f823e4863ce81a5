#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gcs/transport.h"
#include "workload/workload.h"

namespace perfbench {

/// One table `kv(k INT PK, v INT, pad VARCHAR)` of `rows` rows (v = 0).
/// Each transaction is, with probability update_percent, `updates_per_txn`
/// single-row increments on uniform keys, else one point read.
class KvWorkload : public sirep::workload::WorkloadGenerator {
 public:
  struct Options {
    int64_t rows = 100000;
    int64_t update_percent = 20;
    int64_t updates_per_txn = 1;
  };

  explicit KvWorkload(Options options) : options_(options) {}

  std::string name() const override { return "kv"; }
  sirep::Status Load(sirep::engine::Database* db) override;
  sirep::workload::TxnInstance Next(sirep::Prng& prng) override;

 private:
  Options options_;
};

/// A benchmark workload: cluster shape, data and transaction mix.
struct WorkloadDef {
  std::string name;
  sirep::gcs::TransportKind transport = sirep::gcs::TransportKind::kInProcess;
  /// Closed-loop clients, client i on replica i mod 3. Fewer than the
  /// 4 vCPUs, since the cluster's own threads need the rest: with one
  /// client per vCPU the latency tail measured the scheduler.
  size_t clients = 2;
  /// Set-ups per untraced window; run.py reports the median of every
  /// set-up of its windows as setup_s.
  size_t setup_repeats = 1;
  int64_t rows = 0;  ///< rows loaded per replica, all tables
  std::vector<std::string> tables;
  std::function<std::unique_ptr<sirep::workload::WorkloadGenerator>()>
      make_generator;
};

/// The workload named `name`, or null.
const WorkloadDef* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Per-client generator seed derived from the run seed.
uint64_t ClientSeed(uint64_t seed, size_t client);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
