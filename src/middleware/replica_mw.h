#ifndef SIREP_MIDDLEWARE_REPLICA_MW_H_
#define SIREP_MIDDLEWARE_REPLICA_MW_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/partition_map.h"
#include "common/status.h"
#include "engine/database.h"
#include "engine/query_result.h"
#include "gcs/group.h"
#include "middleware/apply_pipeline.h"
#include "middleware/certifier.h"
#include "middleware/global_txn_id.h"
#include "middleware/hole_tracker.h"
#include "middleware/messages.h"
#include "middleware/recovery.h"
#include "middleware/tocommit_queue.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sirep::middleware {

/// Which replica-control variant to run (paper §4.3.3 / §6.3).
enum class ReplicaMode {
  /// Full SRCA-Rep: adjustments 1-3, provides 1-copy-SI.
  kSrcaRep,
  /// SRCA-Opt: adjustments 1-2 only. Starts/commits never synchronize, so
  /// commit orders may diverge across replicas under indirect conflicts —
  /// faster under update-intensive load, but only per-replica SI.
  kSrcaOpt,
};

struct ReplicaOptions {
  ReplicaMode mode = ReplicaMode::kSrcaRep;
  /// Validated writesets retained for online recovery donation (paper
  /// §5.4: "the middleware probably has to log writesets"). 0 disables
  /// the log; such a replica cannot act as a recovery donor.
  size_t ws_log_capacity = 1 << 20;
  /// Join in recovery mode: buffer deliveries and reject clients until
  /// Recover() completes. Used when restarting a crashed replica or
  /// adding a new one while the cluster keeps processing transactions.
  bool start_recovering = false;
  /// Cold-start seed after a full-cluster outage: join live immediately
  /// and adopt this tid as the already-validated prefix (the database
  /// under this replica holds every commit up to it). Online recovery
  /// needs a live donor, so when every replica is down the one holding
  /// the longest stable prefix — which, by in-order apply, contains
  /// every acknowledged commit — restarts with this set; everyone else
  /// then recovers from it normally (its empty writeset log forces a
  /// fresh full copy). 0 disables. Mutually exclusive with
  /// `start_recovering`.
  uint64_t bootstrap_prefix = 0;
  /// Width of the remote-apply pipeline (see ApplyPipeline): 1 selects
  /// the strict serial path, >1 a sharded worker pool applying
  /// non-conflicting writesets in parallel. Should be > 1 or blocked
  /// applies (waiting on local transactions' locks) serialize unrelated
  /// applies; local commits are never run here (the committing client's
  /// thread performs them), so the hidden-deadlock freedom of
  /// Adjustment 2 does not depend on this width. The SIREP_APPLY_THREADS
  /// environment variable, when set, overrides this value.
  size_t applier_threads = 8;
  /// Sliding window of retained validated writesets (see Certifier).
  size_t ws_list_window = 65536;
  /// Base deadline for a whole Recover() run. The effective deadline
  /// grows with the bytes actually received so a large full-copy
  /// transfer does not spuriously time out (see Recover()).
  std::chrono::milliseconds recovery_timeout{30000};
  /// Donor silence longer than this counts as a donor fault: the
  /// recoverer abandons the transfer and re-requests from the next
  /// donor, resuming at its cursor.
  std::chrono::milliseconds recovery_chunk_timeout{2000};
  /// Rows (or log entries) per recovery chunk — the streaming unit of
  /// state transfer and the resume granularity within a table.
  /// SIREP_RECOVERY_CHUNK_ROWS overrides.
  size_t recovery_chunk_rows = 512;
  /// Recovery attempts (initial + retries across donors / re-anchors)
  /// before Recover() gives up with a retryable error.
  size_t recovery_max_attempts = 8;
  /// Buffered post-marker deliveries above this high-water mark trigger
  /// backpressure: the buffer is dropped and the transfer re-anchored at
  /// a fresh marker instead of growing without bound.
  /// SIREP_RECOVERY_BUFFER_HWM overrides.
  size_t recovery_buffer_high_water = 4096;
  /// Partial replication (null = full replication everywhere). All
  /// replicas of a cluster share one map (it models the cluster's
  /// partition-assignment config); `partition_slot` is this replica's
  /// stable slot in it, which determines the partitions it holds. A
  /// replica holding a partition applies its writesets; non-holders
  /// certify against writeset digests alone and keep only bookkeeping.
  std::shared_ptr<cluster::PartitionMap> partition_map;
  size_t partition_slot = 0;
};

/// Validation/commit outcome of a transaction as known at this replica.
enum class TxnOutcome { kUnknown, kCommitted, kAborted };

/// One SI-Rep middleware replica M^k (paper Fig. 3c / Fig. 4): runs in
/// front of exactly one database replica, executes local transactions
/// against it, multicasts writesets in total order, validates all
/// writesets in delivery order, and applies/commits them subject to the
/// conflict-ordering and hole rules.
///
/// Clients do not use this class directly; client::Connection (the
/// JDBC-like driver) talks to it and handles fail-over.
class SrcaRepReplica final : public gcs::GroupListener,
                             private RecoveryHost {
 public:
  /// A client transaction local to this replica.
  struct TxnHandle {
    GlobalTxnId gid;
    storage::TransactionPtr db_txn;
    /// Commit-path stage trace, carried from BeginTxn through commit.
    std::shared_ptr<obs::TxnTrace> trace;
    bool valid() const { return gid.valid() && db_txn != nullptr; }
  };

  /// Legacy aggregate view of the replica's counters; the values now
  /// live in metrics() under the "mw." prefix and this struct is
  /// populated from them (kept so existing tests and benches compile).
  struct Stats {
    uint64_t committed = 0;
    uint64_t empty_ws_commits = 0;   ///< read-only fast path
    uint64_t local_val_aborts = 0;   ///< failed Fig.4 I.2.d
    uint64_t global_val_aborts = 0;  ///< failed Fig.4 II.2 (local txns)
    uint64_t remote_discards = 0;    ///< failed II.2 (remote txns)
    uint64_t apply_retries = 0;      ///< deadlock/conflict retries in III
    HoleTracker::Stats holes;
  };

  SrcaRepReplica(engine::Database* db, gcs::Group* group,
                 ReplicaOptions options = {});
  ~SrcaRepReplica() override;

  SrcaRepReplica(const SrcaRepReplica&) = delete;
  SrcaRepReplica& operator=(const SrcaRepReplica&) = delete;

  /// Joins the group. Must be called before any transaction.
  Status Start();

  gcs::MemberId member_id() const override {
    return member_id_.load(std::memory_order_acquire);
  }
  engine::Database* db() const { return db_; }
  /// Effective options after environment overrides (SIREP_RECOVERY_*,
  /// see ReplicaOptions).
  const ReplicaOptions& options() const { return options_; }

  // ---- session API ----

  /// Starts a local transaction. Under SRCA-Rep this waits until the
  /// commit order has no holes (Adjustment 3; the paper issues a dummy
  /// statement to force an early, synchronized begin — we have an explicit
  /// begin instead).
  Result<TxnHandle> BeginTxn();

  /// Executes a statement of the transaction at the local DB replica.
  /// A transaction-failure status means the transaction was aborted
  /// inside the database (conflict/deadlock) — restart it.
  Result<engine::QueryResult> Execute(const TxnHandle& txn,
                                      const std::string& sql,
                                      const std::vector<sql::Value>& params =
                                          {});

  /// Runs the commit protocol: writeset extraction, local validation,
  /// total-order multicast, global validation, local commit. Blocks until
  /// the outcome is decided. kConflict => validation failed (transaction
  /// aborted); kUnavailable => this replica crashed mid-protocol (the
  /// driver runs in-doubt resolution elsewhere). `had_writes`, if
  /// non-null, reports whether a writeset was disseminated (false for the
  /// read-only fast path — such transactions exist only here and cannot
  /// be inquired about at other replicas).
  Status CommitTxn(const TxnHandle& txn, bool* had_writes = nullptr);

  /// Aborts a transaction that has not entered the commit protocol.
  Status RollbackTxn(const TxnHandle& txn);

  // ---- fail-over support (paper §5.4) ----

  /// Looks up the outcome of `gid`. If the outcome is not yet known, waits
  /// until either the writeset message arrives or the current view no
  /// longer contains `crashed_origin` — by uniform reliable delivery, one
  /// of the two must happen. When the outcome is kCommitted, additionally
  /// waits until the writeset is committed at *this* replica so the
  /// inquiring client will read its own writes here.
  TxnOutcome InquireOutcome(const GlobalTxnId& gid,
                            gcs::MemberId crashed_origin);

  // ---- fault injection ----

  /// Simulates the crash of this middleware/DB pair: leaves the group,
  /// fails all in-flight commits with kUnavailable, rejects future calls.
  void Crash() override;

  bool IsAlive() const override {
    return !crashed_.load(std::memory_order_acquire);
  }

  /// Graceful stop (test teardown). Not a crash: no view change blame.
  void Shutdown();

  // ---- online recovery (extension; paper §5.4 / conclusion) ----

  /// True when live (not crashed, not still recovering): the discovery
  /// service only hands clients replicas for which this holds.
  bool IsAcceptingClients() const override {
    return IsAlive() && !shutdown_.load(std::memory_order_acquire) &&
           accepting_.load(std::memory_order_acquire);
  }

  /// Catches this replica up while the rest of the cluster keeps
  /// committing ("online recovery", run by OnlineRecovery):
  ///  1. multicasts a recovery marker in total order;
  ///  2. the chosen donor snapshots its validation state exactly at the
  ///     marker and *streams* the payload (full-copy table dumps and/or
  ///     the writeset-log suffix after `from_tid`) in bounded chunks;
  ///  3. this replica applies chunks as they arrive, adopts the
  ///     validation state at the final chunk, drains the messages
  ///     buffered past the marker, and goes live.
  /// The transfer is resumable: if the donor crashes or stalls
  /// mid-stream, the request is re-multicast carrying a cursor (applied
  /// log prefix, finished tables) and any surviving replica takes over
  /// as donor without restarting from scratch. A `timeout` <= 0 selects
  /// options().recovery_timeout; either way the effective deadline
  /// scales up with the bytes received so large transfers are not cut
  /// short. Failure returns a retryable status (kUnavailable /
  /// kTimedOut) — never a hang — so callers can back off and re-enter.
  /// `from_tid` is the stable commit prefix of a restarting replica
  /// (StableCommitPrefix() of its previous incarnation), or 0 for a
  /// brand-new node whose schema has been created. Requires the replica
  /// to have been constructed with `start_recovering = true`.
  /// `allow_partial` (partial replication, whole-group outage): accept a
  /// donor that holds none/some of this replica's partitions — it serves
  /// bookkeeping (validation state + log) while this replica keeps its
  /// own rows for the unserved partitions. Only safe when this replica
  /// holds the longest stable prefix of its partition group, which the
  /// caller (cluster::Cluster::RestartReplica) establishes.
  Status Recover(uint64_t from_tid,
                 std::chrono::milliseconds timeout =
                     std::chrono::milliseconds(0),
                 bool allow_partial = false);

  /// Durable prefix a restarted incarnation can recover from: every
  /// validated tid <= this value has committed at this replica, and
  /// re-applying later writesets is idempotent.
  uint64_t StableCommitPrefix() const { return holes_.StablePrefix(); }

  /// Liveness/role summary for the /healthz endpoint.
  struct Health {
    std::string role;  ///< "live" | "recovering" | "shutdown" | "crashed"
    std::string mode;  ///< "srca-rep" | "srca-opt"
    gcs::MemberId member_id = gcs::kInvalidMember;
    uint64_t view_id = 0;
    size_t view_members = 0;
    uint64_t stable_prefix = 0;
    size_t tocommit_depth = 0;
    /// Partitions this replica holds; -1 under full replication (all).
    int64_t held_partitions = -1;
  };
  Health GetHealth() const;

  /// GetHealth() as a JSON object — the /healthz response body.
  std::string HealthJson() const;

  Stats stats() const;

  /// This replica's metrics registry: "mw.*" counters and the
  /// commit-path stage histograms ("mw.commit.stage.<stage>_us").
  obs::MetricsRegistry& metrics() { return registry_; }
  const obs::MetricsRegistry& metrics() const { return registry_; }

  /// This replica's black box: view changes, validation aborts (with
  /// the first conflicting key), tocommit high-water marks, crashes.
  /// Registered with obs::FlightRecorder::DumpAllText() for its
  /// lifetime.
  obs::FlightRecorder& flight_recorder() { return flight_; }
  const obs::FlightRecorder& flight_recorder() const { return flight_; }

  /// Validated transactions not yet committed at this replica (test and
  /// quiescence helper).
  size_t PendingQueueSize() const { return tocommit_queue_.size(); }

  /// Blocks until the tocommit queue drains (every validated writeset
  /// committed here), returning immediately if this replica crashed or
  /// shut down — its queue will never drain. Condition-variable based;
  /// see cluster::Cluster::Quiesce().
  void WaitForQueueDrain() {
    tocommit_queue_.WaitUntilEmpty([this] {
      return shutdown_.load(std::memory_order_acquire) || !IsAlive();
    });
  }

  /// Load metric for load-balanced discovery (paper conclusion:
  /// "load-balancing issues"): active local transactions plus the
  /// backlog of validated-but-uncommitted writesets.
  size_t CurrentLoad() const {
    std::lock_guard<std::mutex> lock(active_mu_);
    return active_txns_.size() + tocommit_queue_.size();
  }

  // ---- GroupListener (GCS delivery thread) ----
  void OnDeliver(const gcs::Message& message) override;
  void OnViewChange(const gcs::View& view) override;

 private:
  /// Result of global validation for a pending local commit.
  struct ValidationResult {
    enum class Kind { kValidated, kFailed, kCrashed } kind = Kind::kFailed;
    uint64_t tid = 0;
  };

  struct PendingLocal {
    storage::TransactionPtr db_txn;
    /// Shared with the committing client's TxnHandle so the delivery
    /// thread can close the multicast span and record validation time.
    std::shared_ptr<obs::TxnTrace> trace;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    ValidationResult result;
  };

  void RecordOutcome(const GlobalTxnId& gid, bool committed);

  // ---- RecoveryHost (the seam OnlineRecovery drives) ----
  bool IsShutdown() const override {
    return shutdown_.load(std::memory_order_acquire);
  }
  ValidationSnapshot SnapshotValidation() override;
  void AdoptValidation(Certifier::State state) override;
  void MarkLocallyCommitted(const GlobalTxnId& gid) override;
  void ProcessDelivered(const gcs::Message& message) override;
  void GoLive() override;

  /// Steps II/III trigger for one delivered writeset message.
  void ProcessWriteSet(const gcs::Message& message);

  /// Executes a replicated DDL statement at its total-order position.
  void ProcessDdl(const gcs::Message& message);

  /// Client-side DDL protocol: multicast + wait for local execution.
  Status ReplicateDdl(const std::string& sql);

  /// Dispatches every queue entry that became eligible (Adjustment 2).
  void ScheduleAppliers();

  /// Applies + commits one remote writeset, retrying on deadlock.
  void ApplyRemote(ToCommitEntry entry);

  engine::Database* const db_;
  gcs::Group* const group_;
  const ReplicaOptions options_;
  // Atomic: written once by Start() after Join() returns, but read by
  // the delivery thread (OnFrame/OnViewChange) from the moment Join()
  // spawns it.
  std::atomic<gcs::MemberId> member_id_{gcs::kInvalidMember};

  std::atomic<bool> crashed_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> accepting_{true};
  std::atomic<uint64_t> next_local_seq_{0};

  // Fig. 4 state. wsmutex_ protects certifier_ and serializes
  // validation (steps I.2.c-f and II); its contention is accounted as
  // "mw.lock.wsindex".
  std::mutex wsmutex_;
  obs::LockStats wsmutex_stats_;
  Certifier certifier_;

  ToCommitQueue tocommit_queue_;
  HoleTracker holes_;
  /// Remote-apply worker pool; entries handed to it are pairwise
  /// non-conflicting by the ToCommitQueue's dispatch rule, so
  /// hole_tracker ordering is the only visibility constraint.
  std::unique_ptr<ApplyPipeline> pipeline_;
  /// Remote applies currently inside ApplyRemote, sampled into the
  /// kApplyParallelism stage histogram at each apply start.
  std::atomic<int64_t> applies_inflight_{0};

  std::mutex pending_mu_;
  std::unordered_map<GlobalTxnId, std::shared_ptr<PendingLocal>,
                     GlobalTxnIdHash>
      pending_;

  struct PendingDdl {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status outcome;
  };
  std::mutex pending_ddl_mu_;
  std::unordered_map<GlobalTxnId, std::shared_ptr<PendingDdl>,
                     GlobalTxnIdHash>
      pending_ddl_;

  mutable std::mutex active_mu_;
  std::unordered_set<GlobalTxnId, GlobalTxnIdHash> active_txns_;

  struct OutcomeEntry {
    bool committed = false;
    bool locally_committed = false;
  };
  mutable std::mutex outcomes_mu_;
  std::condition_variable outcomes_cv_;
  std::unordered_map<GlobalTxnId, OutcomeEntry, GlobalTxnIdHash> outcomes_;
  gcs::View view_;

  // Observability: counters and stage histograms live in registry_;
  // the pointers below are resolved once in the constructor and are the
  // only handles the hot path touches (lock-free recording).
  obs::MetricsRegistry registry_;
  obs::StageHistograms stage_hists_;
  obs::Counter* c_committed_ = nullptr;
  obs::Counter* c_empty_ws_commits_ = nullptr;
  obs::Counter* c_local_val_aborts_ = nullptr;
  obs::Counter* c_global_val_aborts_ = nullptr;
  obs::Counter* c_remote_discards_ = nullptr;
  obs::Counter* c_apply_retries_ = nullptr;
  obs::Gauge* g_tocommit_depth_ = nullptr;
  obs::Gauge* g_ws_list_size_ = nullptr;
  obs::Gauge* g_holes_outstanding_ = nullptr;
  obs::Gauge* g_clock_offset_ns_ = nullptr;
  // Partial replication ("mw.partial.*"): header-only certifications
  // committed without a payload, sub-writeset applies at partially-held
  // replicas, commit attempts rejected because this replica holds none
  // of the writeset's partitions, payloads the GCS stripped on our
  // behalf, and the number of partitions this replica holds.
  obs::Counter* c_partial_header_commits_ = nullptr;
  obs::Counter* c_partial_filtered_applies_ = nullptr;
  obs::Counter* c_partial_misroutes_ = nullptr;
  obs::Counter* c_partial_stripped_sends_ = nullptr;
  obs::Gauge* g_partial_held_ = nullptr;

  /// Per-replica black box (see flight_recorder()).
  obs::FlightRecorder flight_{1024};
  /// High-water mark of the tocommit queue depth; crossings are recorded
  /// as kQueueHighWater flight events (doubling steps only, so a deep
  /// backlog does not flood the ring).
  std::atomic<uint64_t> queue_high_water_{0};
  /// Minimum observed (local arrival - origin send) over all traced
  /// remote writesets: the NTP-style lower bound used as this replica's
  /// clock-offset estimate for kDeliverySkew. INT64_MAX until the first
  /// traced delivery.
  std::atomic<int64_t> clock_offset_ns_{
      std::numeric_limits<int64_t>::max()};

  /// Writeset log, state transfer and delivery buffer (online
  /// recovery). Declared last: destroyed first, joining its streamer
  /// threads while everything they use is still alive.
  OnlineRecovery recovery_;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_REPLICA_MW_H_
