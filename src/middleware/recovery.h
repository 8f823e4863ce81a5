#ifndef SIREP_MIDDLEWARE_RECOVERY_H_
#define SIREP_MIDDLEWARE_RECOVERY_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "gcs/group.h"
#include "middleware/certifier.h"
#include "middleware/global_txn_id.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace sirep::middleware {

struct ReplicaOptions;

/// Applies the SIREP_RECOVERY_CHUNK_ROWS / SIREP_RECOVERY_BUFFER_HWM
/// environment overrides (see ReplicaOptions) once at construction.
ReplicaOptions ResolveRecoveryEnv(ReplicaOptions options);

/// The replica operations the recovery protocol drives: the whole seam
/// between OnlineRecovery and the replica it runs inside
/// (SrcaRepReplica). The protocol never touches validation state,
/// outcomes or client admission any other way.
class RecoveryHost {
 public:
  /// Validation state at the caller's position in the total order.
  struct ValidationSnapshot {
    Certifier::State certifier;
    /// Every validated tid <= this has committed here.
    uint64_t stable_prefix = 0;
  };

  virtual gcs::MemberId member_id() const = 0;
  virtual bool IsAlive() const = 0;
  virtual bool IsAcceptingClients() const = 0;
  virtual bool IsShutdown() const = 0;
  virtual void Crash() = 0;

  /// Donor side, on the delivery thread at the recovery marker.
  virtual ValidationSnapshot SnapshotValidation() = 0;
  /// Recoverer cut-over: adopt the donor's validation state and the
  /// committed prefix (every tid up to `last_validated` is applied here).
  virtual void AdoptValidation(Certifier::State state) = 0;
  /// A replayed log entry committed here (fail-over inquiries see it).
  virtual void MarkLocallyCommitted(const GlobalTxnId& gid) = 0;
  /// Validates a delivered writeset or DDL message: live deliveries,
  /// and those buffered past the marker once recovery caught up.
  virtual void ProcessDelivered(const gcs::Message& message) = 0;
  /// Recovery complete: accept clients and publish the partition slot.
  virtual void GoLive() = 0;

 protected:
  ~RecoveryHost() = default;
};

/// Online recovery (extension; paper §5.4 / conclusion): the writeset
/// log every replica keeps for donors, the donor side of a state
/// transfer, and the recoverer side with its delivery buffer. See
/// SrcaRepReplica::Recover() for the protocol and DESIGN.md §7.8 for
/// the proof sketches.
class OnlineRecovery {
 public:
  /// One validated writeset or replicated DDL in the donor log.
  struct LogEntry {
    uint64_t tid = 0;
    GlobalTxnId gid;
    /// Null for DDL entries *and* for header-only entries a partial
    /// replica validated without holding the payload's partitions.
    std::shared_ptr<const storage::WriteSet> ws;
    std::string ddl;  ///< set for DDL entries
    /// Partitions written (partial replication). No digests: a recoverer
    /// adopts the donor's certifier snapshot instead.
    uint64_t partition_mask = 0;
  };

  /// `options` must outlive this object (it is the host's own copy).
  /// With options.start_recovering, deliveries buffer from the start.
  OnlineRecovery(RecoveryHost* host, engine::Database* db, gcs::Group* group,
                 const ReplicaOptions& options,
                 obs::MetricsRegistry* registry, obs::FlightRecorder* flight);
  ~OnlineRecovery();

  OnlineRecovery(const OnlineRecovery&) = delete;
  OnlineRecovery& operator=(const OnlineRecovery&) = delete;

  /// Appends one validated entry to the donor log, trimming it to
  /// ws_log_capacity (a no-op at capacity 0). Called in tid order under
  /// the host's validation lock.
  void LogValidated(LogEntry entry);

  /// Delivery-thread hook, run before validation. True when the message
  /// was consumed here: a recovery marker (donated or fenced), or a
  /// writeset/DDL held back while this replica recovers.
  bool OnDeliver(const gcs::Message& message);

  /// The recoverer side; see SrcaRepReplica::Recover().
  Status Recover(uint64_t from_tid, std::chrono::milliseconds timeout,
                 bool allow_partial);

  /// Releases a Recover() waiting on its marker fence (crash/shutdown).
  void Wake();

  /// Joins finished and in-flight donor streamer threads.
  void JoinStreamers();

 private:
  /// Resume point of a chunked state transfer, multicast back to the
  /// group when the recoverer re-requests after a donor fault so the
  /// next donor continues instead of restarting. Covers both transfer
  /// phases: `applied_tid` for log replay, `tables_done` +
  /// `full_copy_base` for an in-progress full copy. Resume granularity
  /// for the copy is a whole table — row positions within a table are
  /// donor-snapshot-specific and not comparable across donors, finished
  /// tables are (idempotent full-row writesets reconcile the rest).
  struct RecoveryCursor {
    uint64_t applied_tid = 0;  ///< every log tid <= this is applied here
    bool full_copy_started = false;
    uint64_t full_copy_base = 0;  ///< stable prefix of the copy's donor
    std::vector<std::string> tables_done;  ///< fully received + swept
  };

  /// One bounded unit of the recovery stream, tagged with the transfer
  /// id so a chunk from an abandoned attempt is discarded instead of
  /// corrupting the next one. At most one section (meta / table rows /
  /// log entries) is populated per chunk.
  struct RecoveryChunk {
    Status status;  ///< non-OK chunk aborts this donation
    uint64_t transfer_id = 0;
    bool final_chunk = false;  ///< transfer complete after this chunk

    // Meta section (first chunk of every donation): the validation state
    // snapshotted at the marker, and the shape of what follows.
    bool has_meta = false;
    Certifier::State validation;
    /// Partitions whose rows this donation actually carries (~0 when the
    /// donor covers everything the requester asked for). Rows outside it
    /// come from log bookkeeping only; the requester must not delete-sweep
    /// them.
    uint64_t served_mask = ~0ull;
    bool full_copy = false;  ///< table dumps follow before the log
    /// The cursor's partial copy is unusable (this donor's log does not
    /// reach its base): recoverer must drop tables_done and start over.
    bool full_copy_restart = false;
    uint64_t full_copy_base = 0;

    // Table-rows section (full copy only).
    std::string table;
    sql::Schema schema;
    bool table_begin = false;     ///< first chunk of this table
    bool table_complete = false;  ///< last chunk: run the delete-sweep
    std::vector<sql::Row> rows;

    // Log-suffix section.
    std::vector<LogEntry> log;

    size_t approx_bytes = 0;  ///< payload estimate (metrics + deadline)
  };

  /// Bounded chunk queue between the donor's streamer thread and the
  /// recoverer. Like the request it rides the in-process stash, so it
  /// works on every transport (all replicas share the process).
  struct RecoveryChannel {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<RecoveryChunk> chunks;
    size_t capacity = 4;     ///< producer backpressure bound
    bool closed = false;     ///< donor finished, refused, or died
    bool abandoned = false;  ///< recoverer moved on; streamer must quit
  };
  struct RecoveryRequest {
    gcs::MemberId requester = gcs::kInvalidMember;
    gcs::MemberId donor = gcs::kInvalidMember;
    uint64_t from_tid = 0;
    uint64_t transfer_id = 0;
    /// Partitions the requester needs rows for (its held mask; 0 = all).
    /// A donor that holds none of them refuses; one that holds a subset
    /// serves it only when `allow_partial` (whole-group-outage
    /// bookkeeping recovery — the requester keeps its own rows).
    uint64_t needed_mask = 0;
    bool allow_partial = false;
    RecoveryCursor cursor;
    std::shared_ptr<RecoveryChannel> channel;
  };

  /// Donor-side donation plan, snapshotted at the marker point; a
  /// streamer thread materializes it into chunks off the delivery
  /// thread (the dump transaction pins the marker-consistent MVCC
  /// snapshot, so lazy table scans still observe marker state).
  struct DonorPlan {
    /// The stream's first chunk; its served_mask filters the table dumps.
    RecoveryChunk meta;
    std::vector<LogEntry> log_suffix;
    std::vector<std::string> tables;  ///< tables still to dump
    storage::TransactionPtr dump_txn;
    std::shared_ptr<RecoveryChannel> channel;
  };

  /// Recoverer-side transfer state surviving donor switches.
  struct RecoveryProgress {
    RecoveryCursor cursor;
    RecoveryChunk meta;  ///< the current donor's (has_meta once received)
    /// Log entries received so far, keyed by tid (identical across
    /// donors by the total order, so accumulating over switches is
    /// safe); becomes the adopted donor log.
    std::map<uint64_t, LogEntry> adopted_log;
    // Import state of the table currently streaming in.
    bool table_active = false;
    std::string table;
    std::set<sql::Key> leftover_keys;  ///< local keys the dump lacks so far
  };

  /// Donor/requester handling of a recovery marker (delivery thread).
  void HandleRecoveryRequest(const gcs::Message& message);

  /// Ends a donation with an error chunk. Error chunks bypass the
  /// capacity bound (at most one extra entry) so a refusal or a failing
  /// scan always reaches the recoverer.
  static void FailStream(RecoveryChannel& channel, uint64_t transfer_id,
                         Status status);

  /// Donor streamer-thread body: materializes `plan` into bounded
  /// chunks on the channel, honoring backpressure, abandonment, and the
  /// mw.recovery.* failpoints.
  void StreamRecoveryChunks(std::shared_ptr<DonorPlan> plan);

  /// Recoverer side: applies one received chunk (meta adoption, table
  /// rows as idempotent upserts + delete-sweep, log-suffix replay) and
  /// advances the cursor.
  Status ApplyRecoveryChunk(const RecoveryChunk& chunk,
                            RecoveryProgress* progress);

  /// Replays one donated log entry (writeset or DDL) into the local
  /// database; idempotent against what any previous incarnation or
  /// donor already applied.
  Status ApplyRecoveryLogEntry(const LogEntry& entry);

  /// Phase 3 of Recover(): drains the post-marker buffer through the
  /// host's validation and flips delivery to live.
  void DrainBufferAndGoLive();

  RecoveryHost* const host_;
  engine::Database* const db_;
  gcs::Group* const group_;
  const ReplicaOptions& options_;
  obs::FlightRecorder* const flight_;

  /// Validated entries retained for donation (paper §5.4: "the
  /// middleware probably has to log writesets"), oldest first.
  std::mutex log_mu_;
  std::deque<LogEntry> ws_log_;

  // Recovery buffering: while kBuffering, delivered writesets after the
  // marker are queued here and replayed by Recover()'s thread; the flip
  // to kLive happens under buffer_mu_ once the buffer drains. The fence
  // only arms for the marker of the *current* transfer attempt
  // (current_transfer_id_) — a marker from an abandoned attempt
  // delivered late must not re-arm it, or pre-marker messages of the
  // live attempt would be double-validated after adoption. When the
  // buffer crosses the high-water mark while spills are enabled, it is
  // dropped wholesale (fence cleared, buffer_spilled_ set) and the
  // recoverer re-anchors the transfer at a fresh marker.
  enum class DeliveryMode { kLive, kBuffering };
  std::mutex buffer_mu_;
  std::condition_variable buffer_cv_;
  DeliveryMode delivery_mode_ = DeliveryMode::kLive;
  bool fence_seen_ = false;
  uint64_t current_transfer_id_ = 0;
  bool buffer_spilled_ = false;
  bool spill_enabled_ = true;
  /// Effective high-water mark of buffered_. Seeded from
  /// options().recovery_buffer_high_water at each Recover() entry and
  /// doubled on every spill, so re-anchoring converges even when live
  /// deliveries outpace the transfer (escalating backpressure).
  size_t buffer_hwm_ = 1;
  std::vector<gcs::Message> buffered_;

  /// Transfer-id generator (recoverer side; unique per member via the
  /// member-id high bits).
  std::atomic<uint64_t> transfer_seq_{0};

  /// Donor streamer threads, joined on shutdown/destruction.
  std::mutex streamers_mu_;
  std::vector<std::thread> streamers_;

  // "mw.recovery.*": donor side (chunks/bytes sent), recoverer side
  // (chunks/bytes received, retries, donor switches, buffer spills, live
  // buffered-message depth).
  obs::Counter* const c_chunks_sent_;
  obs::Counter* const c_bytes_sent_;
  obs::Counter* const c_chunks_received_;
  obs::Counter* const c_bytes_received_;
  obs::Counter* const c_retries_;
  obs::Counter* const c_donor_switches_;
  obs::Counter* const c_buffer_spills_;
  obs::Gauge* const g_buffered_msgs_;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_RECOVERY_H_
