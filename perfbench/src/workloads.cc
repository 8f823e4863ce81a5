#include "workloads.h"

#include "workload/simple_workloads.h"

namespace perfbench {

using sirep::Status;
using sirep::sql::Value;
using sirep::workload::TxnInstance;

Status KvWorkload::Load(sirep::engine::Database* db) {
  auto created = db->ExecuteAutoCommit(
      "CREATE TABLE kv (k INT, v INT, pad VARCHAR(100), PRIMARY KEY (k))");
  if (!created.ok()) return created.status();
  auto txn = db->Begin();
  const std::string insert = "INSERT INTO kv VALUES (?, ?, ?)";
  for (int64_t k = 0; k < options_.rows; ++k) {
    auto res = db->Execute(txn, insert,
                           {Value::Int(k), Value::Int(0),
                            Value::String("xxxxxxxxxxxxxxxx")});
    if (!res.ok()) {
      db->Abort(txn);
      return res.status();
    }
  }
  return db->Commit(txn);
}

TxnInstance KvWorkload::Next(sirep::Prng& prng) {
  TxnInstance txn;
  txn.tables = {"kv"};
  const auto rows = static_cast<uint64_t>(options_.rows);
  if (static_cast<int64_t>(prng.Uniform(100)) < options_.update_percent) {
    for (int64_t i = 0; i < options_.updates_per_txn; ++i) {
      txn.statements.push_back(
          {"UPDATE kv SET v = v + 1 WHERE k = ?",
           {Value::Int(static_cast<int64_t>(prng.Uniform(rows)))}});
    }
  } else {
    txn.read_only = true;
    txn.statements.push_back(
        {"SELECT v FROM kv WHERE k = ?",
         {Value::Int(static_cast<int64_t>(prng.Uniform(rows)))}});
  }
  return txn;
}

namespace {

constexpr int64_t kKvRows = 100000;

std::vector<WorkloadDef> MakeWorkloads() {
  using sirep::gcs::TransportKind;
  std::vector<WorkloadDef> defs;

  WorkloadDef read_mostly;
  read_mostly.name = "read-mostly";
  read_mostly.rows = kKvRows;
  read_mostly.tables = {"kv"};
  read_mostly.make_generator = [] {
    return std::make_unique<KvWorkload>(KvWorkload::Options{kKvRows, 20, 1});
  };
  defs.push_back(read_mostly);

  // The paper's §6.3 update-intensive mix, at the repo's defaults.
  WorkloadDef contended;
  contended.name = "write-contended";
  const sirep::workload::UpdateIntensiveWorkload::Options ui;
  contended.rows = ui.num_tables * ui.rows_per_table;
  for (int64_t t = 0; t < ui.num_tables; ++t) {
    contended.tables.push_back("ut" + std::to_string(t));
  }
  contended.setup_repeats = 5;
  // 2 clients split the commits unevenly, one side winning most
  // conflicts, and which side varies from process to process, so the
  // update p50 jumped between runs; 4 spread the conflicts evenly.
  contended.clients = 4;
  contended.make_generator = [] {
    return std::make_unique<sirep::workload::UpdateIntensiveWorkload>();
  };
  defs.push_back(contended);

  WorkloadDef tcp;
  tcp.name = "write-tcp";
  tcp.transport = TransportKind::kTcp;
  tcp.rows = kKvRows;
  tcp.tables = {"kv"};
  tcp.make_generator = [] {
    return std::make_unique<KvWorkload>(KvWorkload::Options{kKvRows, 100, 4});
  };
  defs.push_back(tcp);
  return defs;
}

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = MakeWorkloads();
  return defs;
}

}  // namespace

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const auto& def : Workloads()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const auto& def : Workloads()) names.push_back(def.name);
  return names;
}

uint64_t ClientSeed(uint64_t seed, size_t client) {
  return seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull * (client + 1);
}

}  // namespace perfbench
