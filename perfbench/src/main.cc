// Real-CPU benchmark of SI-Rep: a 3-replica cluster in one process with
// emulation off, driven by closed-loop clients. See README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--source-id <id>]
//
// Prints one "name value unit" line per metric, then, as the last line,
// {"correct", "attempted", "failed", "metrics"} as JSON. Exits 1 without
// that line when a correctness check fails, 2 on a usage error. An
// untraced run measures one window; run.py runs several and combines
// them.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "cluster/cluster.h"
#include "measure.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using sirep::Status;
using sirep::cluster::Cluster;
using sirep::workload::TxnInstance;
using sirep::workload::WorkloadGenerator;

constexpr size_t kReplicas = 3;
constexpr uint64_t kWarmupNs = 1'000'000'000ull;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string source_id = "unknown";
};

[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "perfbench: FAILED: " << message << std::endl;
  std::exit(1);
}

void SleepUntilNs(uint64_t t) {
  const uint64_t now = NowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---- set-up ----

sirep::cluster::ClusterOptions BenchClusterOptions(const WorkloadDef& def) {
  sirep::cluster::ClusterOptions o;
  o.num_replicas = kReplicas;
  o.gcs.transport = def.transport;
  o.gcs.multicast_delay = std::chrono::microseconds(0);
  o.cost = sirep::cluster::CostModel{};  // all zero: no emulation
  return o;
}

struct Deployment {
  std::unique_ptr<WorkloadGenerator> generator;
  std::unique_ptr<Cluster> cluster;
  double setup_s = 0;
  ProcSample after_setup;
  int64_t sum_before = 0;
};

/// Polls every replica's health until all are live in the full view.
void WaitReady(Cluster& cluster) {
  const uint64_t deadline = NowNs() + 10'000'000'000ull;
  for (;;) {
    bool ready = true;
    for (size_t i = 0; i < cluster.size(); ++i) {
      const auto h = cluster.replica(i)->GetHealth();
      ready = ready && h.role == "live" && h.view_members == kReplicas;
    }
    if (ready) return;
    if (NowNs() > deadline) Fail("cluster not ready within 10 s");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Cluster construction to every replica live with the full view and
/// the data loaded: the span setup_s measures.
Deployment SetUp(const WorkloadDef& def) {
  Deployment d;
  d.generator = def.make_generator();
  const uint64_t t0 = NowNs();
  d.cluster = std::make_unique<Cluster>(BenchClusterOptions(def));
  Status st = d.cluster->Start();
  if (!st.ok()) Fail("cluster start: " + st.ToString());
  WaitReady(*d.cluster);
  st = d.cluster->LoadEverywhere([&](sirep::engine::Database* db) {
    return d.generator->Load(db);
  });
  if (!st.ok()) Fail("load: " + st.ToString());
  d.setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  d.after_setup = SampleProcess();
  auto digest = DigestDatabase(d.cluster->db(0), def.tables);
  if (!digest.ok()) Fail("digest after load: " + digest.status().ToString());
  d.sum_before = TotalSum(digest.value());
  return d;
}

// ---- closed-loop clients ----

struct RunControl {
  uint64_t t_start = 0;  ///< window start (end of warm-up)
  uint64_t t_end = 0;
  std::atomic<bool> stop{false};
};

/// One client's view of the run. Threads write only their own state.
struct ClientState {
  Tally total;   ///< every transaction of the run (correctness checks)
  Tally window;  ///< those completing inside the timed window
  std::vector<double> update_ms;
  std::vector<double> read_ms;
  std::string first_error;
  // Traced clients only.
  SpanSet spans;
  double txn_wall_us = 0;   ///< in-window transactions, first call to last
  double span_wall_us = 0;  ///< of which inside a span
  double update_span_us = 0;  ///< spans of committed update transactions
  double update_exec_us = 0;  ///< their engine.execute spans (reference)
  double update_apply_us = 0; ///< their storage.apply spans (reference)
};

/// The spans of the transaction in flight, kept until its outcome says
/// whether it belongs to the window.
class TxnSpans {
 public:
  void Clear() { n_ = 0; }
  /// Closes a span opened at `start`; returns its wall time in us.
  double End(Span span, const SpanStart& start) {
    const SpanStart now = SpanStart::Now();
    Entry e{span, static_cast<double>(now.wall_ns - start.wall_ns) / 1e3,
            static_cast<double>(now.cpu_ns - start.cpu_ns) / 1e3};
    if (n_ < entries_.size()) entries_[n_++] = e;
    return e.wall_us;
  }
  double Sum(Span span) const {
    double s = 0;
    for (size_t i = 0; i < n_; ++i) {
      if (entries_[i].span == span) s += entries_[i].wall_us;
    }
    return s;
  }
  double Total() const {
    double s = 0;
    for (size_t i = 0; i < n_; ++i) s += entries_[i].wall_us;
    return s;
  }
  void FlushTo(SpanSet& set) const {
    for (size_t i = 0; i < n_; ++i) {
      set[entries_[i].span].Add(entries_[i].wall_us, entries_[i].cpu_us);
    }
  }

 private:
  struct Entry {
    Span span;
    double wall_us;
    double cpu_us;
  };
  std::array<Entry, 64> entries_{};
  size_t n_ = 0;
};

/// Books one finished transaction; true if it fell inside the window.
bool Complete(ClientState& c, const RunControl& rc, const TxnInstance& txn,
              const Status& status, uint64_t t0, uint64_t t1) {
  const Outcome outcome = Classify(status);
  const uint64_t increments = txn.read_only ? 0 : txn.statements.size();
  c.total.Record(outcome, txn.read_only, increments);
  if (outcome == Outcome::kFailed && c.first_error.empty()) {
    c.first_error = status.ToString();
  }
  if (t1 < rc.t_start || t1 >= rc.t_end) return false;
  c.window.Record(outcome, txn.read_only, increments);
  if (outcome == Outcome::kCommitted) {
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    (txn.read_only ? c.read_ms : c.update_ms).push_back(ms);
  }
  return true;
}

/// A statement's result is what the workload implies: one row read, or
/// one row incremented.
Status CheckResult(const TxnInstance& txn,
                   const sirep::engine::QueryResult& r,
                   const std::string& sql) {
  const bool ok = txn.read_only ? r.NumRows() == 1 : r.rows_affected == 1;
  return ok ? Status::OK() : Status::Internal("unexpected result of " + sql);
}

/// Untraced: the JDBC-like connection, autocommit off, client i pinned
/// to replica i mod 3. Routing is the same in every run; the seed only
/// changes the statements.
void ConnectionClient(Cluster& cluster, WorkloadGenerator& gen,
                      uint64_t seed, size_t index, ClientState& c,
                      RunControl& rc) {
  sirep::client::ConnectionOptions options;
  options.autocommit = false;
  options.seed = index + 1;
  options.pinned_replica =
      static_cast<int>(cluster.replica(index % kReplicas)->member_id());
  auto conn = cluster.Connect(options);
  if (!conn.ok()) {
    c.total.Record(Outcome::kFailed, false, 0);
    c.first_error = "connect: " + conn.status().ToString();
    return;
  }
  sirep::Prng prng(seed);
  while (!rc.stop.load(std::memory_order_relaxed)) {
    const TxnInstance txn = gen.Next(prng);
    const uint64_t t0 = NowNs();
    Status st;
    for (const auto& [sql, params] : txn.statements) {
      auto r = conn.value()->Execute(sql, params);
      st = r.ok() ? CheckResult(txn, r.value(), sql) : r.status();
      if (!st.ok()) break;
    }
    if (st.ok()) {
      st = conn.value()->Commit();
    } else {
      conn.value()->Rollback();
    }
    Complete(c, rc, txn, st, t0, NowNs());
  }
}

/// Traced: SrcaRepReplica's BeginTxn / Execute / CommitTxn called
/// directly, each inside a span.
void ReplicaClient(Cluster& cluster, WorkloadGenerator& gen, uint64_t seed,
                   size_t index, ClientState& c, RunControl& rc) {
  sirep::middleware::SrcaRepReplica* rep = cluster.replica(index % kReplicas);
  sirep::Prng prng(seed);
  TxnSpans spans;
  while (!rc.stop.load(std::memory_order_relaxed)) {
    const TxnInstance txn = gen.Next(prng);
    spans.Clear();
    const uint64_t t0 = NowNs();
    SpanStart s = SpanStart::Now();
    auto handle = rep->BeginTxn();
    spans.End(Span::kMwBegin, s);
    Status st = handle.status();
    if (st.ok()) {
      for (const auto& [sql, params] : txn.statements) {
        s = SpanStart::Now();
        auto r = rep->Execute(handle.value(), sql, params);
        spans.End(Span::kMwExecute, s);
        st = r.ok() ? CheckResult(txn, r.value(), sql) : r.status();
        if (!st.ok()) break;
      }
      if (st.ok()) {
        s = SpanStart::Now();
        st = rep->CommitTxn(handle.value());
        spans.End(txn.read_only ? Span::kMwCommitRo : Span::kMwCommit, s);
      } else {
        rep->RollbackTxn(handle.value());
      }
    }
    const uint64_t t1 = NowNs();
    if (Complete(c, rc, txn, st, t0, t1)) {
      spans.FlushTo(c.spans);
      c.txn_wall_us += static_cast<double>(t1 - t0) / 1e3;
      c.span_wall_us += spans.Total();
      if (st.ok() && !txn.read_only) c.update_span_us += spans.Total();
    }
  }
}

/// Reference: the same stream against one standalone Database (no
/// middleware); each committed writeset is applied to a second one.
void ReferenceClient(sirep::engine::Database& db,
                     sirep::engine::Database& apply_db, WorkloadGenerator& gen,
                     uint64_t seed, ClientState& c, RunControl& rc) {
  sirep::Prng prng(seed);
  TxnSpans spans;
  while (!rc.stop.load(std::memory_order_relaxed)) {
    const TxnInstance txn = gen.Next(prng);
    spans.Clear();
    const uint64_t t0 = NowNs();
    auto dbt = db.Begin();
    Status st;
    for (const auto& [sql, params] : txn.statements) {
      SpanStart s = SpanStart::Now();
      auto stmt = db.Prepare(sql);
      spans.End(Span::kEnginePrepare, s);
      if (!stmt.ok()) {
        st = stmt.status();
        break;
      }
      s = SpanStart::Now();
      auto r = db.Execute(dbt, *stmt.value(), params);
      spans.End(Span::kEngineExecute, s);
      st = r.ok() ? CheckResult(txn, r.value(), sql) : r.status();
      if (!st.ok()) break;
    }
    std::shared_ptr<const sirep::storage::WriteSet> ws;
    if (st.ok() && !txn.read_only) {
      SpanStart s = SpanStart::Now();
      ws = db.ExtractWriteSet(dbt);
      spans.End(Span::kStorageExtract, s);
      s = SpanStart::Now();
      st = db.Commit(dbt);
      spans.End(Span::kStorageCommit, s);
    } else if (st.ok()) {
      st = db.Commit(dbt);
    } else {
      db.Abort(dbt);
    }
    const double txn_us = spans.Total();
    double apply_us = 0;
    if (st.ok() && ws != nullptr) {
      // Concurrent appliers may collide on a row: retry, as the
      // middleware's apply path does.
      for (int attempt = 0;; ++attempt) {
        auto at = apply_db.Begin();
        SpanStart s = SpanStart::Now();
        Status ast = apply_db.ApplyWriteSet(at, *ws);
        apply_us += spans.End(Span::kStorageApply, s);
        if (ast.ok()) ast = apply_db.Commit(at);
        if (ast.ok()) break;
        apply_db.Abort(at);
        if (attempt >= 1000) {
          st = Status::Internal("reference apply: " + ast.ToString());
          break;
        }
      }
    }
    if (Complete(c, rc, txn, st, t0, NowNs())) {
      spans.FlushTo(c.spans);
      if (st.ok() && !txn.read_only) {
        c.update_span_us += txn_us;
        c.update_exec_us += spans.Sum(Span::kEngineExecute);
        c.update_apply_us += apply_us;
      }
    }
  }
}

// ---- one timed window ----

struct WindowResult {
  Tally window;
  Tally total;
  std::vector<double> update_ms;
  std::vector<double> read_ms;
  double window_s = 0;
  ProcSample start;
  ProcSample end;
  std::string first_error;
  SpanSet spans;
  double txn_wall_us = 0;
  double span_wall_us = 0;
  double update_span_us = 0;
  double update_exec_us = 0;
  double update_apply_us = 0;
  sirep::obs::MetricsSnapshot registry_start;
};

using ClientFn = std::function<void(size_t index, ClientState&, RunControl&)>;

/// Runs `clients` threads of `client` through a warm-up and a timed
/// window of `seconds`. `on_open`, if set, runs as the window opens.
WindowResult RunWindow(const ClientFn& client, size_t clients, int seconds,
                       const std::function<void()>& on_open = nullptr) {
  RunControl rc;
  rc.t_start = NowNs() + kWarmupNs;
  rc.t_end = rc.t_start + static_cast<uint64_t>(seconds) * 1'000'000'000ull;
  std::vector<std::unique_ptr<ClientState>> states;
  for (size_t i = 0; i < clients; ++i) {
    states.push_back(std::make_unique<ClientState>());
  }
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] { client(i, *states[i], rc); });
  }
  WindowResult res;
  SleepUntilNs(rc.t_start);
  res.start = SampleProcess();
  if (on_open) on_open();
  SleepUntilNs(rc.t_end);
  res.end = SampleProcess();
  rc.stop.store(true);
  for (auto& t : threads) t.join();
  res.window_s = static_cast<double>(rc.t_end - rc.t_start) / 1e9;
  for (auto& cp : states) {
    ClientState& c = *cp;
    res.window.Add(c.window);
    res.total.Add(c.total);
    res.update_ms.insert(res.update_ms.end(), c.update_ms.begin(),
                         c.update_ms.end());
    res.read_ms.insert(res.read_ms.end(), c.read_ms.begin(), c.read_ms.end());
    if (res.first_error.empty()) res.first_error = c.first_error;
    res.spans.Merge(c.spans);
    res.txn_wall_us += c.txn_wall_us;
    res.span_wall_us += c.span_wall_us;
    res.update_span_us += c.update_span_us;
    res.update_exec_us += c.update_exec_us;
    res.update_apply_us += c.update_apply_us;
  }
  return res;
}

/// Runs the workload's steady load on a deployment, through connections
/// or, traced, through the replicas directly.
WindowResult RunClusterWindow(Deployment& d, const WorkloadDef& def,
                              const Args& args, bool traced) {
  Cluster& cluster = *d.cluster;
  WorkloadGenerator& gen = *d.generator;
  const uint64_t seed = args.seed;
  ClientFn client = [&](size_t i, ClientState& c, RunControl& rc) {
    if (traced) {
      ReplicaClient(cluster, gen, ClientSeed(seed, i), i, c, rc);
    } else {
      ConnectionClient(cluster, gen, ClientSeed(seed, i), i, c, rc);
    }
  };
  sirep::obs::MetricsSnapshot registry_start;
  WindowResult res = RunWindow(client, def.clients, args.seconds, [&] {
    if (traced) registry_start = cluster.DumpMetrics();
  });
  res.registry_start = std::move(registry_start);
  return res;
}

/// Quiesces, then checks outcomes and replica contents; fails the run on
/// any violation.
void CheckClusterRun(Deployment& d, const WorkloadDef& def,
                     const WindowResult& w) {
  if (!w.total.Balanced() || !w.window.Balanced()) {
    Fail("accounting: attempted != committed + aborted + lost + failed");
  }
  if (w.total.failed > 0) {
    Fail(std::to_string(w.total.failed) +
         " transactions failed; first: " + w.first_error);
  }
  if (w.window.committed == 0) Fail("no transaction committed in the window");
  std::vector<sirep::engine::Database*> dbs;
  for (size_t i = 0; i < d.cluster->size(); ++i) {
    if (!d.cluster->replica(i)->IsAcceptingClients()) {
      Fail("replica " + std::to_string(i) + " is not live after the run");
    }
    dbs.push_back(d.cluster->db(i));
  }
  const std::string err =
      CheckDatabases(dbs, def.tables, d.sum_before, w.total);
  if (!err.empty()) Fail(err);
}

// ---- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// What a run reports: its metrics, and the window's transactions.
struct RunResult {
  std::vector<Metric> metrics;
  Tally tally;
};

void Emit(const std::vector<Metric>& metrics, const Tally& tally) {
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) Fail("metric " + m.name + " is not finite");
    std::cout << m.name << " " << Num(m.value) << " " << m.unit;
    if (!m.note.empty()) std::cout << "  (" << m.note << ")";
    std::cout << "\n";
  }
  std::ostringstream js;
  js << "{\"correct\": true, \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) js << ", ";
    js << "\"" << metrics[i].name << "\": {\"value\": "
       << Num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

std::string QuantileNote(const Summary& s, double q) {
  std::ostringstream os;
  os << "q=" << q << " of n=" << s.count;
  return os.str();
}

void PrintProvenance(const WorkloadDef& def, const Args& args) {
  const auto opts = BenchClusterOptions(def);
  const auto& cost = opts.cost;
  std::ostringstream os;
  os << "# provenance {\"workload\": \"" << def.name << "\", \"seed\": "
     << args.seed << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"replicas\": " << opts.num_replicas
     << ", \"replication\": \"full\", \"rows\": " << def.rows
     << ", \"tables\": " << def.tables.size()
     << ", \"clients\": " << def.clients << ", \"transport\": \""
     << (def.transport == sirep::gcs::TransportKind::kTcp ? "tcp" : "inproc")
     << "\", \"source_id\": \"" << args.source_id
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"emulated\": " << (cost.enabled() ? "true" : "false")
     << ", \"cost_model_us\": {\"select\": " << cost.select_service.count()
     << ", \"update\": " << cost.update_service.count()
     << ", \"insert\": " << cost.insert_service.count()
     << ", \"delete\": " << cost.delete_service.count()
     << "}, \"multicast_delay_us\": " << opts.gcs.multicast_delay.count()
     << ", \"wal\": \"off\", \"sirep_env\": \"none\"}";
  std::cout << os.str() << "\n";
  if (cost.enabled() || opts.gcs.multicast_delay.count() != 0) {
    Fail("emulation is on");
  }
}

// ---- the two kinds of run ----

/// One window on a fresh cluster. run.py runs several of these, each in
/// its own process, and reports the median of each figure over them.
RunResult RunUntraced(const WorkloadDef& def, const Args& args) {
  std::vector<double> setups;
  double setup_rss_mb = 0;
  WindowResult w;
  {
    Deployment d = SetUp(def);
    setups.push_back(d.setup_s);
    setup_rss_mb = static_cast<double>(d.after_setup.rss_bytes) / (1 << 20);
    w = RunClusterWindow(d, def, args, /*traced=*/false);
    d.cluster->Quiesce();
    CheckClusterRun(d, def, w);
  }
  // Further set-ups after the measured one, so that its window runs in a
  // fresh process and its RSS growth is not absorbed by freed memory.
  while (setups.size() < def.setup_repeats) {
    setups.push_back(SetUp(def).setup_s);
  }

  const double committed = static_cast<double>(w.window.committed);
  std::vector<double> updates = w.update_ms;
  // The tail reported is p95: on read-mostly about 1 % of updates take a
  // slow path, so p99 sits on the edge of it and swings between runs.
  const double q95 = ReportableQuantile(updates.size(), 0.95);
  std::vector<Metric> metrics = {
      {"commit_tps", committed / w.window_s, "1/s", ""},
      {"update_p50_ms", QuantileOf(updates, 0.5), "ms", ""},
      {"update_p95_ms", QuantileOf(updates, q95), "ms", ""},
      {"commit_ratio", committed / static_cast<double>(w.window.attempted),
       "ratio", "committed per attempted"},
      {"cpu_us_per_txn", (w.end.cpu_s - w.start.cpu_s) * 1e6 / committed,
       "us", ""},
      {"rss_growth_bytes_per_txn",
       static_cast<double>(w.end.rss_bytes - w.start.rss_bytes) / committed,
       "bytes", ""},
      {"setup_s", Median(setups), "s",
       "median of " + std::to_string(setups.size())},
      {"setup_rss_mb", setup_rss_mb, "MB", ""},
  };
  // Printed but not in the JSON: update p99 (see above), figures that do
  // not exist on every workload, and what run.py needs to combine
  // windows.
  const Summary upd = Summarize(w.update_ms);
  const Summary rd = Summarize(w.read_ms);
  std::cout << "# update_p99_ms " << Num(upd.p99) << " ms ("
            << QuantileNote(upd, upd.p99_q) << ")\n"
            << "# read_p50_ms " << Num(rd.p50) << " ms ("
            << QuantileNote(rd, 0.5) << ")\n"
            << "# read_p99_ms " << Num(rd.p99) << " ms ("
            << QuantileNote(rd, rd.p99_q) << ")\n"
            << "# abort_ratio "
            << Num(Ratio(w.window.aborted, w.window.attempted)) << "\n"
            << "# lost_ratio " << Num(Ratio(w.window.lost, w.window.attempted))
            << "\n# window_s " << Num(w.window_s) << " committed "
            << w.window.committed << " aborted " << w.window.aborted
            << " lost " << w.window.lost << "\n# setup_s_each";
  for (double v : setups) std::cout << " " << Num(v);
  std::cout << "\n# host_steal_share " << Num(StealShare(w.start, w.end))
            << "\n# interference_share "
            << Num(InterferenceShare(w.start, w.end)) << "\n";
  return {metrics, w.window};
}

void AddSpanMetrics(std::vector<Metric>& out, const SpanSet& set) {
  for (int i = 0; i < kNumSpans; ++i) {
    const auto span = static_cast<Span>(i);
    const std::string name = SpanName(span);
    const SpanSamples& samples = set[span];
    const Summary wall = Summarize(samples.wall_us);
    const Summary cpu = Summarize(samples.cpu_us);
    out.push_back({name + ".count", static_cast<double>(wall.count), "count",
                   ""});
    out.push_back({name + ".wall_us.p50", wall.p50, "us", ""});
    out.push_back({name + ".wall_us.p99", wall.p99, "us",
                   QuantileNote(wall, wall.p99_q)});
    out.push_back({name + ".cpu_us.mean", cpu.mean, "us", ""});
  }
}

RunResult RunTraced(const WorkloadDef& def, const Args& args) {
  std::vector<Metric> metrics;

  // Phase A: untraced, through client::Connection (trace-overhead base
  // and the client-side figures).
  WindowResult a;
  {
    Deployment d = SetUp(def);
    a = RunClusterWindow(d, def, args, /*traced=*/false);
    d.cluster->Quiesce();
    CheckClusterRun(d, def, a);
  }

  // Phase B: traced, SrcaRepReplica called directly.
  SpanSet spans;
  WindowResult b;
  sirep::obs::MetricsSnapshot reg;
  double dead_versions = 0;
  {
    Deployment d = SetUp(def);
    b = RunClusterWindow(d, def, args, /*traced=*/true);
    SpanStart s = SpanStart::Now();
    d.cluster->Quiesce();
    spans[Span::kClusterQuiesce].Add(
        static_cast<double>(NowNs() - s.wall_ns) / 1e3,
        static_cast<double>(ThreadCpuNs() - s.cpu_ns) / 1e3);
    CheckClusterRun(d, def, b);
    reg = Diff(d.cluster->DumpMetrics(), b.registry_start);
    s = SpanStart::Now();
    dead_versions = static_cast<double>(d.cluster->VacuumAll());
    spans[Span::kClusterVacuum].Add(
        static_cast<double>(NowNs() - s.wall_ns) / 1e3,
        static_cast<double>(ThreadCpuNs() - s.cpu_ns) / 1e3);
  }
  spans.Merge(b.spans);

  // Phase C: the centralized reference, no middleware.
  WindowResult c;
  {
    auto gen = def.make_generator();
    sirep::engine::Database db("reference");
    sirep::engine::Database apply_db("apply");
    Status st = gen->Load(&db);
    if (st.ok()) st = gen->Load(&apply_db);
    if (!st.ok()) Fail("reference load: " + st.ToString());
    auto digest = DigestDatabase(&db, def.tables);
    if (!digest.ok()) Fail("reference digest: " + digest.status().ToString());
    const int64_t sum_before = TotalSum(digest.value());
    WorkloadGenerator& g = *gen;
    c = RunWindow(
        [&](size_t i, ClientState& cs, RunControl& rc) {
          ReferenceClient(db, apply_db, g, ClientSeed(args.seed, i), cs, rc);
        },
        def.clients, args.seconds);
    if (!c.total.Balanced() || c.total.failed > 0) {
      Fail("reference run: " + std::to_string(c.total.failed) +
           " failed; first: " + c.first_error);
    }
    const std::string err = CheckDatabases({&db}, def.tables, sum_before,
                                           c.total);
    if (!err.empty()) Fail("reference: " + err);
  }
  spans.Merge(c.spans);

  AddSpanMetrics(metrics, spans);
  const double b_updates = static_cast<double>(b.window.committed_updates);
  const double c_updates = static_cast<double>(c.window.committed_updates);
  const double tps_a = static_cast<double>(a.window.committed) / a.window_s;
  const double tps_b = static_cast<double>(b.window.committed) / b.window_s;
  metrics.push_back({"storage.apply_to_execute_ratio",
                     Ratio(c.update_apply_us, c.update_exec_us), "ratio",
                     "per committed update txn, reference phase"});
  metrics.push_back(
      {"middleware.overhead_ratio",
       Ratio(Ratio(b.update_span_us, b_updates),
             Ratio(c.update_span_us, c_updates)),
       "ratio", "mw begin+execute+commit over ref prepare+execute+extract+"
                "commit, per committed update txn"});
  metrics.push_back({"storage.dead_versions_per_update_row",
                     Ratio(dead_versions,
                           static_cast<double>(b.total.committed_increments) *
                               kReplicas),
                     "ratio", "vacuumed versions per committed row update "
                              "per replica"});
  metrics.push_back({"bench.trace_overhead_ratio", Ratio(tps_b, tps_a),
                     "ratio", "traced commit_tps over untraced"});
  metrics.push_back({"bench.span_coverage_ratio",
                     Ratio(b.span_wall_us, b.txn_wall_us), "ratio",
                     "middleware spans over traced txn wall time"});

  // From the program's own registry, over the traced window.
  const double attempted = static_cast<double>(b.window.attempted);
  auto hist = [&](const std::string& reg_name, const std::string& name,
                  bool p50) {
    const auto it = reg.histograms.find(reg_name);
    const Summary s = it == reg.histograms.end()
                          ? Summary{}
                          : SummarizeHistogram(it->second);
    if (p50) metrics.push_back({name + ".p50", s.p50, "us", ""});
    metrics.push_back({name + ".p99", s.p99, "us",
                       QuantileNote(s, s.p99_q)});
  };
  auto counter = [&](const std::string& reg_name) {
    const auto it = reg.counters.find(reg_name);
    return it == reg.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  metrics.push_back({"gcs.frames_per_update",
                     Ratio(counter("gcs.frames_sent"), b_updates), "ratio",
                     "per committed update txn"});
  hist("gcs.multicast_us", "gcs.multicast_us", true);
  for (const char* stage : {"sequencer_queue", "delivery_skew",
                            "local_validate", "global_validate",
                            "remote_apply_lag", "snapshot_staleness"}) {
    hist(std::string("mw.commit.stage.") + stage + "_us",
         std::string("mw.stage.") + stage + "_us", true);
  }
  hist("mw.begin.hole_wait_us", "mw.begin.hole_wait_us", true);
  for (const char* lock : {"holes", "tocommit", "wsindex"}) {
    hist(std::string("mw.lock.") + lock + ".wait_us",
         std::string("mw.lock.") + lock + ".wait_us", false);
  }
  metrics.push_back({"mw.local_val_aborts_per_attempt",
                     Ratio(counter("mw.local_val_aborts"), attempted),
                     "ratio", ""});
  metrics.push_back({"mw.global_val_aborts_per_attempt",
                     Ratio(counter("mw.global_val_aborts"), attempted),
                     "ratio", ""});
  metrics.push_back({"storage.ww_conflicts_per_attempt",
                     Ratio(counter("storage.ww_conflicts"), attempted),
                     "ratio", ""});
  metrics.push_back({"mw.apply_retries_per_update",
                     Ratio(counter("mw.apply_retries"), b_updates), "ratio",
                     "per committed update txn"});
  {
    const auto it = reg.histograms.find("storage.version_chain_len");
    const Summary s = it == reg.histograms.end()
                          ? Summary{}
                          : SummarizeHistogram(it->second);
    metrics.push_back({"storage.version_chain_len.p50", s.p50, "count", ""});
    metrics.push_back({"storage.version_chain_len.p99", s.p99, "count",
                       QuantileNote(s, s.p99_q)});
  }

  // Client-side figures of the untraced phase.
  const Summary rd = Summarize(a.read_ms);
  metrics.push_back({"client.read_p50_ms", rd.p50, "ms", ""});
  metrics.push_back({"client.read_p99_ms", rd.p99, "ms",
                     QuantileNote(rd, rd.p99_q)});
  metrics.push_back({"client.abort_ratio",
                     Ratio(a.window.aborted, a.window.attempted), "ratio",
                     "per attempted txn"});
  metrics.push_back({"client.lost_ratio",
                     Ratio(a.window.lost, a.window.attempted), "ratio",
                     "per attempted txn"});
  return {metrics, b.window};
}

int Usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\nusage: perfbench --workload <";
  const auto names = WorkloadNames();
  for (size_t i = 0; i < names.size(); ++i) {
    std::cerr << (i ? "|" : "") << names[i];
  }
  std::cerr << "> --seed <n> --seconds <1-60> --trace <0|1> "
               "[--source-id <id>]\n";
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  const WorkloadDef* def = FindWorkload(args.workload);
  if (def == nullptr) return Usage("unknown workload '" + args.workload + "'");
  if (args.seconds < 1 || args.seconds > 60) {
    return Usage("--seconds must be 1..60");
  }
  // Every SIREP_* variable is a knob that changes what is measured.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SIREP_", 6) == 0) {
      std::cerr << "perfbench: refusing to run with " << *e
                << " set; unset every SIREP_* variable\n";
      return 2;
    }
  }
  PrintProvenance(*def, args);
  const ProcSample start = SampleProcess();
  const RunResult result =
      args.trace ? RunTraced(*def, args) : RunUntraced(*def, args);
  std::cout << "# run_steal_share " << Num(StealShare(start, SampleProcess()))
            << "\n";
  Emit(result.metrics, result.tally);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
