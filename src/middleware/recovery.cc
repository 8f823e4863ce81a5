#include "middleware/recovery.h"

#include <algorithm>
#include <cstdlib>

#include "common/failpoint.h"
#include "common/logging.h"
#include "middleware/messages.h"
#include "middleware/replica_mw.h"

namespace sirep::middleware {

namespace {

constexpr char kRecoveryRequestType[] = "recovery_request";

/// Deadline-scaling floor: the effective recovery deadline grows by the
/// time the received bytes would take at this (very conservative) rate,
/// so a transfer is never killed merely for being large.
constexpr uint64_t kRecoveryMinBytesPerMs = 512;

/// `fallback` when the variable is unset, empty or not a number.
size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  char* end = nullptr;
  const unsigned long long parsed =
      value == nullptr ? 0 : std::strtoull(value, &end, 10);
  return end == value ? fallback : static_cast<size_t>(parsed);
}

}  // namespace

ReplicaOptions ResolveRecoveryEnv(ReplicaOptions options) {
  options.recovery_chunk_rows = std::max<size_t>(
      1, EnvSize("SIREP_RECOVERY_CHUNK_ROWS", options.recovery_chunk_rows));
  options.recovery_buffer_high_water = std::max<size_t>(
      1, EnvSize("SIREP_RECOVERY_BUFFER_HWM",
                 options.recovery_buffer_high_water));
  return options;
}

OnlineRecovery::OnlineRecovery(RecoveryHost* host, engine::Database* db,
                               gcs::Group* group,
                               const ReplicaOptions& options,
                               obs::MetricsRegistry* registry,
                               obs::FlightRecorder* flight)
    : host_(host),
      db_(db),
      group_(group),
      options_(options),
      flight_(flight),
      c_chunks_sent_(registry->GetCounter("mw.recovery.chunks_sent")),
      c_bytes_sent_(registry->GetCounter("mw.recovery.bytes_sent")),
      c_chunks_received_(registry->GetCounter("mw.recovery.chunks_received")),
      c_bytes_received_(registry->GetCounter("mw.recovery.bytes_received")),
      c_retries_(registry->GetCounter("mw.recovery.retries")),
      c_donor_switches_(registry->GetCounter("mw.recovery.donor_switches")),
      c_buffer_spills_(registry->GetCounter("mw.recovery.buffer_spills")),
      g_buffered_msgs_(registry->GetGauge("mw.recovery.buffered_msgs")) {
  if (options_.start_recovering) delivery_mode_ = DeliveryMode::kBuffering;
}

OnlineRecovery::~OnlineRecovery() { JoinStreamers(); }

void OnlineRecovery::LogValidated(LogEntry entry) {
  if (options_.ws_log_capacity == 0) return;
  std::lock_guard<std::mutex> lock(log_mu_);
  ws_log_.push_back(std::move(entry));
  while (ws_log_.size() > options_.ws_log_capacity) ws_log_.pop_front();
}

bool OnlineRecovery::OnDeliver(const gcs::Message& message) {
  if (message.type == kRecoveryRequestType) {
    HandleRecoveryRequest(message);
    return true;
  }
  if (message.type != kWriteSetMessageType &&
      message.type != kDdlMessageType) {
    return false;
  }
  std::lock_guard<std::mutex> lock(buffer_mu_);
  if (delivery_mode_ != DeliveryMode::kBuffering) return false;
  // Before our own recovery marker the donor's stream covers the
  // message; after it, we replay it ourselves once caught up.
  if (!fence_seen_) return true;
  buffered_.push_back(message);
  const size_t depth = buffered_.size();
  g_buffered_msgs_->Set(static_cast<int64_t>(depth));
  if (spill_enabled_ && depth >= buffer_hwm_) {
    // Backpressure: instead of growing without bound under heavy live
    // traffic, drop the buffer and the fence wholesale. The recoverer
    // observes buffer_spilled_ and re-anchors at a fresh marker whose
    // donation covers everything dropped here — nothing is lost, only
    // the transfer tail is repeated. Each spill doubles the allowance
    // for the next attempt: under sustained delivery pressure a fixed
    // mark could spill every re-anchor forever, so the bound escalates
    // until one transfer outruns the live stream (memory stays bounded
    // — the mark at most doubles per attempt, and attempts are capped).
    buffered_.clear();
    fence_seen_ = false;
    buffer_spilled_ = true;
    buffer_hwm_ *= 2;
    c_buffer_spills_->Increment();
    g_buffered_msgs_->Set(0);
    flight_->Record(obs::FlightEventType::kQueueHighWater, host_->member_id(),
                    depth, buffer_hwm_, "mw.recovery.buffer");
    flight_->Record(obs::FlightEventType::kRecovery, host_->member_id(),
                    current_transfer_id_, depth, "buffer_spill");
    buffer_cv_.notify_all();
  }
  return true;
}

void OnlineRecovery::Wake() {
  // No lock: Crash() may run on a thread draining the buffer under
  // buffer_mu_. The waiter re-checks liveness at its deadline anyway.
  buffer_cv_.notify_all();
}

void OnlineRecovery::HandleRecoveryRequest(const gcs::Message& message) {
  const auto* req = message.As<RecoveryRequest>();
  const gcs::MemberId self = host_->member_id();
  if (req->requester == self) {
    // Our own marker: everything delivered from here on is ours to
    // replay; everything before is covered by the donor's stream. Only
    // the current attempt's marker arms the fence — a marker from an
    // abandoned attempt delivered late must not, or pre-marker messages
    // of the live attempt would be double-validated after adoption.
    std::lock_guard<std::mutex> lock(buffer_mu_);
    if (req->transfer_id == current_transfer_id_) {
      fence_seen_ = true;
      buffer_cv_.notify_all();
    }
    return;
  }
  if (req->donor != self || req->channel == nullptr) return;

  const auto refuse = [&](Status status) {
    FailStream(*req->channel, req->transfer_id, std::move(status));
  };
  if (!host_->IsAcceptingClients()) {
    // A replica that is itself recovering (or shutting down) has stale
    // state and must not donate.
    refuse(Status::Unavailable("chosen donor is not live"));
    return;
  }
  if (options_.ws_log_capacity == 0) {
    refuse(Status::NotSupported("this replica keeps no writeset log"));
    return;
  }
  // Partial replication: a donor can only re-seed rows it holds. When it
  // does not cover everything the requester needs, it refuses — unless
  // the requester explicitly accepts a partial (bookkeeping-only)
  // donation, which cluster::Cluster only authorizes for the
  // longest-prefix member of a whole-down group (its own rows are
  // already complete for the unserved partitions).
  uint64_t served_mask = ~uint64_t{0};
  if (options_.partition_map != nullptr &&
      options_.partition_map->partial()) {
    const cluster::PartitionMap& map = *options_.partition_map;
    const uint64_t donor_held = map.HeldMask(options_.partition_slot);
    const uint64_t needed =
        req->needed_mask != 0
            ? req->needed_mask
            : cluster::PartitionMap::FullMask(map.num_partitions());
    if ((needed & ~donor_held) != 0 && !req->allow_partial) {
      refuse(Status::Unavailable(
          "chosen donor does not hold the requester's partitions"));
      return;
    }
    served_mask = donor_held & needed;
  }

  // Donor side: snapshot the donation plan exactly at the marker point
  // of the total order (we are on the delivery thread, so every earlier
  // message has been fully validated and nothing validates or logs
  // concurrently). Chunk materialization happens on a streamer thread;
  // the dump transaction pins the marker-consistent MVCC snapshot, so
  // its lazy table scans still observe marker state.
  RecoveryHost::ValidationSnapshot validation = host_->SnapshotValidation();
  auto plan = std::make_shared<DonorPlan>();
  plan->channel = req->channel;
  RecoveryChunk& meta = plan->meta;
  meta.transfer_id = req->transfer_id;
  meta.has_meta = true;
  meta.served_mask = served_mask;
  meta.validation = std::move(validation.certifier);
  meta.approx_bytes = 64 + meta.validation.window.size() * 128;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    // The tid floor our log must reach back to. While the requester has
    // a full copy in flight we must keep serving that copy's base: its
    // finished tables are consistent only against that base, whoever
    // dumped them.
    const uint64_t floor =
        req->cursor.full_copy_started
            ? req->cursor.full_copy_base
            : std::max(req->from_tid, req->cursor.applied_tid);
    // An empty log covers nothing: it "reaches" a tid only when there is
    // nothing after that tid to send at all. (A bootstrapped replica has
    // lastvalidated > 0 with an empty log, so an `empty ==
    // reaches-everything` shortcut would silently skip the suffix and
    // diverge the requester.)
    const auto log_reaches = [&](uint64_t tid) {
      return ws_log_.empty() ? tid >= meta.validation.last_validated
                             : tid + 1 >= ws_log_.front().tid;
    };
    const bool reaches = log_reaches(floor);
    if (reaches && req->cursor.full_copy_started) {
      // Resume the previous donor's copy: same base, remaining tables;
      // idempotent full-row replay of (base, now] reconciles whatever
      // the earlier snapshot and ours disagree on.
      meta.full_copy = true;
      meta.full_copy_base = req->cursor.full_copy_base;
    } else if (!reaches) {
      // The log no longer reaches back to the requester's floor: fall
      // back to a fresh full-state transfer (the paper's "complete
      // database copy", done online at the marker). The copy includes
      // every commit up to our stable prefix; the log tail covers the
      // validated-but-uncommitted remainder (idempotent to re-apply).
      if (!log_reaches(validation.stable_prefix)) {
        refuse(Status::Internal(
            "writeset log smaller than the commit pipeline; increase "
            "ws_log_capacity"));
        return;
      }
      meta.full_copy = true;
      meta.full_copy_restart = req->cursor.full_copy_started;
      meta.full_copy_base = validation.stable_prefix;
    }
    // Otherwise incremental catch-up: the log suffix alone suffices.
    const uint64_t log_floor = meta.full_copy ? meta.full_copy_base : floor;
    for (const auto& entry : ws_log_) {
      if (entry.tid > log_floor) plan->log_suffix.push_back(entry);
    }
  }
  if (meta.full_copy) {
    std::set<std::string> done(req->cursor.tables_done.begin(),
                               req->cursor.tables_done.end());
    if (meta.full_copy_restart) done.clear();
    for (const auto& table : db_->engine().TableNames()) {
      if (done.count(table) == 0) plan->tables.push_back(table);
    }
    plan->dump_txn = db_->Begin();
  }
  flight_->Record(obs::FlightEventType::kRecovery, self, req->transfer_id,
                  req->requester, "donate");
  {
    std::lock_guard<std::mutex> lock(streamers_mu_);
    if (host_->IsShutdown()) {
      if (plan->dump_txn != nullptr) db_->Abort(plan->dump_txn);
      refuse(Status::Unavailable("donor shutting down"));
      return;
    }
    streamers_.emplace_back(
        [this, plan] { StreamRecoveryChunks(std::move(plan)); });
  }
}

void OnlineRecovery::FailStream(RecoveryChannel& channel,
                                uint64_t transfer_id, Status status) {
  RecoveryChunk chunk;
  chunk.status = std::move(status);
  chunk.transfer_id = transfer_id;
  {
    std::lock_guard<std::mutex> lock(channel.mu);
    channel.chunks.push_back(std::move(chunk));
    channel.closed = true;
  }
  channel.cv.notify_all();
}

void OnlineRecovery::StreamRecoveryChunks(std::shared_ptr<DonorPlan> plan) {
  const auto channel = plan->channel;
  const uint64_t transfer_id = plan->meta.transfer_id;
  const uint64_t served_mask = plan->meta.served_mask;
  // Abort the dump snapshot whichever way this thread exits.
  struct DumpGuard {
    engine::Database* db;
    storage::TransactionPtr txn;
    ~DumpGuard() {
      if (txn != nullptr) db->Abort(txn);
    }
  } dump_guard{db_, plan->dump_txn};

  const auto close = [&] {
    {
      std::lock_guard<std::mutex> lock(channel->mu);
      channel->closed = true;
    }
    channel->cv.notify_all();
  };
  bool silent_stop = false;
  // Pushes one chunk, honoring the queue bound and the recoverer's
  // abandonment; returning false stops the stream.
  const auto send = [&](RecoveryChunk chunk) -> bool {
    // "mw.recovery.stall" stretches the inter-chunk gap (delay-only
    // hook); "mw.recovery.chunk_drop" loses this chunk and everything
    // after it *without* closing the channel, so the recoverer must
    // detect the stall through its per-chunk deadline.
    SIREP_FAILPOINT_HIT("mw.recovery.stall");
    if (SIREP_FAILPOINT_HIT("mw.recovery.chunk_drop").fired) {
      silent_stop = true;
      return false;
    }
    chunk.transfer_id = transfer_id;
    const size_t bytes = chunk.approx_bytes;
    {
      std::unique_lock<std::mutex> lock(channel->mu);
      while (channel->chunks.size() >= channel->capacity &&
             !channel->abandoned) {
        if (host_->IsShutdown() || !host_->IsAlive()) return false;
        channel->cv.wait_for(lock, std::chrono::milliseconds(50));
      }
      if (channel->abandoned) return false;
      channel->chunks.push_back(std::move(chunk));
    }
    channel->cv.notify_all();
    c_chunks_sent_->Increment();
    c_bytes_sent_->Add(bytes);
    // Crash *after* the chunk is out: the recoverer observes a genuine
    // partial transfer and must fail over to another donor.
    if (SIREP_FAILPOINT_HIT("mw.recovery.donor_crash_mid_transfer").fired) {
      close();
      host_->Crash();
      silent_stop = true;  // channel already closed
      return false;
    }
    return true;
  };

  bool ok = send(std::move(plan->meta));
  // Table dumps (full copy), one table at a time: streamer memory is
  // bounded by the largest table, not the whole database.
  const cluster::PartitionMap* const pmap = options_.partition_map.get();
  // Partial donation: dump only the rows of the served partitions. The
  // donor's rows for other partitions are stale non-held copies and
  // must never be presented as authoritative.
  const bool filter_rows = served_mask != ~uint64_t{0} && pmap != nullptr;
  for (size_t t = 0; ok && t < plan->tables.size(); ++t) {
    const std::string& table = plan->tables[t];
    storage::MvccTable* mvcc = db_->engine().GetTable(table);
    if (mvcc == nullptr) continue;
    const sql::Schema schema = mvcc->schema();
    std::vector<sql::Row> rows;
    Status scan = db_->engine().Scan(
        plan->dump_txn, table,
        [&](const sql::Key& key, const sql::Row& row) {
          if (filter_rows) {
            const size_t partition = pmap->PartitionOf({table, key});
            if (((served_mask >> partition) & 1) == 0) return;
          }
          rows.push_back(row);
        });
    if (!scan.ok()) {
      FailStream(*channel, transfer_id, scan);
      ok = false;
      break;
    }
    size_t offset = 0;
    bool first = true;
    do {
      const size_t n =
          std::min(options_.recovery_chunk_rows, rows.size() - offset);
      RecoveryChunk chunk;
      chunk.table = table;
      chunk.schema = schema;
      chunk.table_begin = first;
      chunk.table_complete = offset + n == rows.size();
      chunk.rows.assign(rows.begin() + static_cast<long>(offset),
                        rows.begin() + static_cast<long>(offset + n));
      chunk.approx_bytes = 32 + chunk.rows.size() * 64;
      first = false;
      offset += n;
      ok = send(std::move(chunk));
    } while (ok && offset < rows.size());
  }
  // Log suffix.
  for (size_t offset = 0; ok && offset < plan->log_suffix.size();
       offset += options_.recovery_chunk_rows) {
    const size_t n = std::min(options_.recovery_chunk_rows,
                              plan->log_suffix.size() - offset);
    RecoveryChunk chunk;
    chunk.log.assign(plan->log_suffix.begin() + static_cast<long>(offset),
                     plan->log_suffix.begin() + static_cast<long>(offset + n));
    chunk.approx_bytes = chunk.log.size() * 160;
    ok = send(std::move(chunk));
  }
  if (ok) {
    RecoveryChunk fin;
    fin.final_chunk = true;
    ok = send(std::move(fin));
  }
  if (!silent_stop) close();
}

Status OnlineRecovery::ApplyRecoveryLogEntry(const LogEntry& entry) {
  if (!entry.ddl.empty()) {
    // Replicated DDL at this position. AlreadyExists is fine (a
    // restarted replica's schema survived the crash, or an earlier
    // donor's chunks already shipped it).
    auto r = db_->ExecuteAutoCommit(entry.ddl);
    if (!r.ok() && r.status().code() != StatusCode::kAlreadyExists) {
      return Status::Internal("recovery DDL replay failed: " +
                              r.status().ToString());
    }
    return Status::OK();
  }
  // A null writeset on a non-DDL entry is a header-only certification
  // the donor itself never held rows for: replaying it is pure
  // bookkeeping (the outcome record below), exactly as it was at every
  // non-holder when the message was live.
  std::shared_ptr<const storage::WriteSet> to_apply = entry.ws;
  const cluster::PartitionMap* const pmap = options_.partition_map.get();
  if (to_apply != nullptr && pmap != nullptr && pmap->partial() &&
      entry.partition_mask != 0) {
    // Replay only our held sub-writeset, mirroring the live apply
    // decision — a full-payload entry in a donor's log may span
    // partitions this replica does not hold.
    const uint64_t held = pmap->HeldMask(options_.partition_slot);
    if ((entry.partition_mask & held) == 0) {
      to_apply = nullptr;
    } else if ((entry.partition_mask & ~held) != 0) {
      to_apply = pmap->HeldSubset(*to_apply, held);
      if (to_apply->empty()) to_apply = nullptr;
    }
  }
  while (to_apply != nullptr) {
    auto txn = db_->Begin();
    Status st = db_->ApplyWriteSet(txn, *to_apply);
    if (st.ok()) st = db_->Commit(txn);
    if (st.ok()) break;
    db_->Abort(txn);
    if (!st.IsTransactionFailure()) {
      return Status::Internal("recovery replay failed at tid " +
                              std::to_string(entry.tid) + ": " +
                              st.ToString());
    }
  }
  host_->MarkLocallyCommitted(entry.gid);
  return Status::OK();
}

Status OnlineRecovery::ApplyRecoveryChunk(const RecoveryChunk& chunk,
                                          RecoveryProgress* progress) {
  if (chunk.has_meta) {
    progress->meta = chunk;
    if (chunk.full_copy) {
      if (chunk.full_copy_restart ||
          (progress->cursor.full_copy_started &&
           progress->cursor.full_copy_base != chunk.full_copy_base)) {
        // This donor could not resume the previous copy: its dump uses
        // a new base, so partially transferred tables and adopted log
        // entries against the old base are discarded. The database
        // rows themselves need no undo — the new dump plus the
        // delete-sweep overwrites them.
        progress->cursor.tables_done.clear();
        progress->adopted_log.clear();
      }
      progress->cursor.full_copy_started = true;
      progress->cursor.full_copy_base = chunk.full_copy_base;
    }
    progress->table_active = false;
    return Status::OK();
  }
  if (chunk.final_chunk) return Status::OK();

  if (!chunk.table.empty()) {
    // Full-copy table rows: overwrite every dumped row; at
    // table_complete delete everything local the donor no longer has.
    storage::MvccTable* table = db_->engine().GetTable(chunk.table);
    if (chunk.table_begin) {
      if (table == nullptr) {
        // The table was created via replicated DDL we never saw: create
        // it from the shipped schema.
        SIREP_RETURN_IF_ERROR(
            db_->engine().CreateTable(chunk.table, chunk.schema));
        table = db_->engine().GetTable(chunk.table);
      }
      progress->table_active = true;
      progress->table = chunk.table;
      progress->leftover_keys.clear();
      auto view_txn = db_->Begin();
      Status scan = db_->engine().Scan(
          view_txn, chunk.table,
          [&](const sql::Key& key, const sql::Row&) {
            progress->leftover_keys.insert(key);
          });
      db_->Abort(view_txn);
      if (!scan.ok()) return scan;
    }
    if (table == nullptr || !progress->table_active ||
        progress->table != chunk.table) {
      return Status::Internal("recovery table chunk out of order for '" +
                              chunk.table + "'");
    }
    storage::WriteSet sync;
    for (const auto& row : chunk.rows) {
      const sql::Key key = table->schema().KeyOf(row);
      progress->leftover_keys.erase(key);
      sync.Record({chunk.table, key}, storage::WriteOp::kUpdate, row);
    }
    if (chunk.table_complete) {
      // Delete-sweep, restricted to the partitions this donation served:
      // local rows of unserved partitions were deliberately absent from
      // the dump, and non-held rows (kept stale by design — the
      // misroute-abort guard depends on them existing) must survive
      // every recovery untouched.
      const cluster::PartitionMap* const pmap =
          options_.partition_map.get();
      const uint64_t served_mask = progress->meta.served_mask;
      const bool filter_sweep = served_mask != ~uint64_t{0};
      for (const auto& key : progress->leftover_keys) {
        if (filter_sweep) {
          if (pmap == nullptr) continue;  // cannot attribute: keep the row
          const size_t partition = pmap->PartitionOf({chunk.table, key});
          if (((served_mask >> partition) & 1) == 0) continue;
        }
        sync.Record({chunk.table, key}, storage::WriteOp::kDelete, {});
      }
    }
    if (!sync.empty()) {
      auto txn = db_->Begin();
      Status st = db_->ApplyWriteSet(txn, sync);
      if (st.ok()) st = db_->Commit(txn);
      if (!st.ok()) {
        db_->Abort(txn);
        return Status::Internal("full-copy import failed for table '" +
                                chunk.table + "': " + st.ToString());
      }
    }
    if (chunk.table_complete) {
      progress->table_active = false;
      progress->leftover_keys.clear();
      progress->cursor.tables_done.push_back(chunk.table);
    }
    return Status::OK();
  }

  // Log-suffix entries: apply the ones we have not applied yet (nobody
  // else touches this DB — no clients, no appliers — and re-applying
  // writesets a previous incarnation committed is idempotent), record
  // all of them for donor-log adoption.
  for (const auto& entry : chunk.log) {
    if (entry.tid > progress->cursor.applied_tid) {
      SIREP_RETURN_IF_ERROR(ApplyRecoveryLogEntry(entry));
      progress->cursor.applied_tid = entry.tid;
    }
    progress->adopted_log[entry.tid] = entry;
  }
  return Status::OK();
}

Status OnlineRecovery::Recover(uint64_t from_tid,
                               std::chrono::milliseconds timeout,
                               bool allow_partial) {
  if (!host_->IsAlive()) return Status::Unavailable("replica crashed");
  {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    if (delivery_mode_ != DeliveryMode::kBuffering) {
      return Status::InvalidArgument(
          "Recover() requires start_recovering = true");
    }
    buffer_hwm_ = options_.recovery_buffer_high_water;
  }
  if (timeout.count() <= 0) timeout = options_.recovery_timeout;
  const gcs::MemberId self = host_->member_id();
  // Liveness check between protocol steps: a crashed or shutting-down
  // replica gives up with a retryable status.
  const auto stopped = [&]() -> Status {
    if (!host_->IsAlive()) return Status::Unavailable("replica crashed");
    if (host_->IsShutdown()) {
      return Status::Unavailable("replica shutting down");
    }
    return Status::OK();
  };

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  uint64_t total_bytes = 0;
  // The effective deadline stretches with the bytes received: a
  // transfer still making progress is never killed for being large.
  const auto deadline = [&] {
    return start + timeout +
           std::chrono::milliseconds(total_bytes / kRecoveryMinBytesPerMs);
  };

  RecoveryProgress progress;
  progress.cursor.applied_tid = from_tid;

  // Deterministic per-replica jitter for the retry backoff (xorshift;
  // recovery runs on one thread, no shared RNG needed).
  uint64_t jitter_state = 0x9e3779b97f4a7c15ull ^
                          (static_cast<uint64_t>(self) << 32) ^
                          (from_tid + 1);
  const auto next_jitter = [&](uint64_t bound_ms) -> uint64_t {
    jitter_state ^= jitter_state << 13;
    jitter_state ^= jitter_state >> 7;
    jitter_state ^= jitter_state << 17;
    return bound_ms == 0 ? 0 : jitter_state % bound_ms;
  };

  Status last_error =
      Status::Unavailable("no donor available for recovery");
  size_t donor_idx = 0;
  std::chrono::milliseconds backoff(5);
  gcs::MemberId prev_donor = gcs::kInvalidMember;
  bool prev_donor_started = false;

  for (size_t attempt = 0; attempt < options_.recovery_max_attempts;
       ++attempt) {
    SIREP_RETURN_IF_ERROR(stopped());
    if (attempt > 0) {
      c_retries_->Increment();
      std::this_thread::sleep_for(
          backoff +
          std::chrono::milliseconds(
              next_jitter(static_cast<uint64_t>(backoff.count()))));
      backoff = std::min(backoff * 2, std::chrono::milliseconds(200));
      if (Clock::now() > deadline()) {
        return Status::TimedOut(
            "recovery deadline exceeded after " + std::to_string(attempt) +
            " attempts; last error: " + last_error.ToString());
      }
    }

    // Donor election: rotate over the other live members of the
    // current view; the index only advances on a donor fault, so a
    // buffer-spill re-anchor keeps its (healthy) donor. Under partial
    // replication, members covering our held partitions (our group
    // peers) come first; non-covering members are candidates only when
    // the caller authorized a partial (bookkeeping-only) donation.
    const cluster::PartitionMap* const pmap = options_.partition_map.get();
    const uint64_t needed_mask =
        (pmap != nullptr && pmap->partial())
            ? pmap->HeldMask(options_.partition_slot)
            : 0;
    std::vector<uint32_t> covering;
    if (needed_mask != 0) covering = pmap->CoveringMembers(needed_mask);
    const auto covers = [&](gcs::MemberId member) {
      return needed_mask == 0 || std::find(covering.begin(), covering.end(),
                                           member) != covering.end();
    };
    std::vector<gcs::MemberId> candidates;
    for (gcs::MemberId member : group_->CurrentView().members) {
      if (member != self && group_->IsAlive(member) &&
          (allow_partial || covers(member))) {
        candidates.push_back(member);
      }
    }
    std::stable_partition(candidates.begin(), candidates.end(), covers);
    if (candidates.empty()) {
      last_error = Status::Unavailable(
          needed_mask != 0
              ? "no live donor covers this replica's partitions"
              : "no donor available for recovery");
      continue;
    }
    const gcs::MemberId donor = candidates[donor_idx % candidates.size()];
    const uint64_t transfer_id =
        (static_cast<uint64_t>(self) + 1) << 32 |
        (transfer_seq_.fetch_add(1, std::memory_order_relaxed) + 1);

    // Arm the fence for this attempt only: marker, buffer, and spill
    // state of any abandoned attempt are dead from here on. The
    // high-water mark is NOT reset — spills escalate it across attempts
    // (see OnDeliver) so re-anchoring converges under sustained load.
    {
      std::lock_guard<std::mutex> lock(buffer_mu_);
      fence_seen_ = false;
      buffered_.clear();
      buffer_spilled_ = false;
      spill_enabled_ = true;
      current_transfer_id_ = transfer_id;
      g_buffered_msgs_->Set(0);
    }

    auto channel = std::make_shared<RecoveryChannel>();
    SIREP_RETURN_IF_ERROR(group_->Multicast(
        self, kRecoveryRequestType,
        std::make_shared<const RecoveryRequest>(RecoveryRequest{
            .requester = self,
            .donor = donor,
            .from_tid = from_tid,
            .transfer_id = transfer_id,
            .needed_mask = needed_mask,
            .allow_partial = allow_partial,
            .cursor = progress.cursor,
            .channel = channel})));
    if (prev_donor != gcs::kInvalidMember && donor != prev_donor &&
        prev_donor_started) {
      c_donor_switches_->Increment();
      flight_->Record(obs::FlightEventType::kRecovery, self, transfer_id,
                      donor, "donor_switch");
    } else {
      flight_->Record(obs::FlightEventType::kRecovery, self, transfer_id,
                      donor, "request");
    }
    prev_donor = donor;
    prev_donor_started = false;

    bool donor_fault = false;
    bool transfer_done = false;
    bool re_anchor = false;
    auto last_chunk_time = Clock::now();
    while (!transfer_done && !donor_fault && !re_anchor) {
      RecoveryChunk chunk;
      bool got = false;
      bool closed = false;
      {
        std::unique_lock<std::mutex> lock(channel->mu);
        channel->cv.wait_for(lock, std::chrono::milliseconds(25), [&] {
          return !channel->chunks.empty() || channel->closed;
        });
        if (!channel->chunks.empty()) {
          chunk = std::move(channel->chunks.front());
          channel->chunks.pop_front();
          got = true;
        } else {
          closed = channel->closed;
        }
      }
      if (got) channel->cv.notify_all();  // free a producer slot
      if (!got) {
        SIREP_RETURN_IF_ERROR(stopped());
        const auto now = Clock::now();
        if (closed) {
          last_error = Status::Unavailable("donor closed mid-transfer");
          donor_fault = true;
        } else if (!group_->IsAlive(donor)) {
          // View-change fast path: no need to wait out the chunk
          // deadline when the group already expelled the donor.
          last_error = Status::Unavailable("donor crashed mid-transfer");
          donor_fault = true;
        } else if (now - last_chunk_time >
                   options_.recovery_chunk_timeout) {
          last_error = Status::TimedOut("donor stalled mid-transfer");
          donor_fault = true;
        } else if (now > deadline()) {
          return Status::TimedOut("recovery deadline exceeded");
        }
        continue;
      }
      last_chunk_time = Clock::now();
      if (chunk.transfer_id != transfer_id) continue;  // stale attempt
      if (!chunk.status.ok()) {
        last_error = chunk.status;
        const StatusCode code = chunk.status.code();
        if (code != StatusCode::kUnavailable &&
            code != StatusCode::kNotSupported &&
            code != StatusCode::kTimedOut) {
          return chunk.status;  // hard error: config or replay failure
        }
        donor_fault = true;
        continue;
      }
      prev_donor_started = true;
      total_bytes += chunk.approx_bytes;
      c_chunks_received_->Increment();
      c_bytes_received_->Add(static_cast<uint64_t>(chunk.approx_bytes));
      SIREP_RETURN_IF_ERROR(ApplyRecoveryChunk(chunk, &progress));
      // A buffer spill invalidated this marker: re-anchor at a fresh
      // one. The cursor keeps everything already applied, so the retry
      // transfers only the tail.
      {
        std::lock_guard<std::mutex> lock(buffer_mu_);
        if (buffer_spilled_) {
          last_error =
              Status::Unavailable("recovery buffer spilled; re-anchoring");
          re_anchor = true;
          continue;
        }
      }
      if (chunk.final_chunk) {
        if (!progress.meta.has_meta) {
          last_error = Status::Unavailable("donor stream missing meta");
          donor_fault = true;
          continue;
        }
        transfer_done = true;
      }
    }
    if (!transfer_done) {
      // Tell a still-running streamer to quit, then rotate donors on a
      // fault (a re-anchor keeps the same, healthy donor).
      {
        std::lock_guard<std::mutex> lock(channel->mu);
        channel->abandoned = true;
      }
      channel->cv.notify_all();
      if (donor_fault) ++donor_idx;
      continue;
    }

    // Final chunk received. Wait for our own marker: the donor
    // snapshotted at its delivery of the request, and our delivery
    // thread may still be catching up to that position in the total
    // order — adopting before the fence is armed would double-validate
    // the pre-marker messages it is about to buffer. Then atomically
    // confirm no spill raced the transfer tail and disable further
    // spills for the drain.
    bool fence_ok = false;
    {
      std::unique_lock<std::mutex> lock(buffer_mu_);
      buffer_cv_.wait_until(lock, deadline(), [&] {
        return fence_seen_ || buffer_spilled_ || host_->IsShutdown() ||
               !host_->IsAlive();
      });
      if (buffer_spilled_) {
        last_error =
            Status::Unavailable("recovery buffer spilled; re-anchoring");
      } else if (fence_seen_) {
        spill_enabled_ = false;
        fence_ok = true;
      }
    }
    SIREP_RETURN_IF_ERROR(stopped());
    if (!fence_ok) {
      if (Clock::now() > deadline()) {
        return Status::TimedOut("recovery marker never delivered");
      }
      continue;  // spilled: re-anchor with the same donor
    }

    const uint64_t lastvalidated = progress.meta.validation.last_validated;
    SIREP_ILOG << "replica " << self << " recovered via transfer "
               << transfer_id << ": " << progress.adopted_log.size()
               << " log entries, " << progress.cursor.tables_done.size()
               << " tables copied, resuming validation at tid "
               << lastvalidated;

    // Phase 2: adopt the donor's validation state so our future
    // decisions match every other replica's, and teach the hole
    // tracker the committed prefix so a later restart of *this*
    // replica recovers incrementally instead of forcing a full copy.
    host_->AdoptValidation(std::move(progress.meta.validation));
    {
      std::lock_guard<std::mutex> lock(log_mu_);
      ws_log_.clear();
    }
    for (auto& [tid, entry] : progress.adopted_log) {
      LogValidated(std::move(entry));
    }
    flight_->Record(obs::FlightEventType::kRecovery, self, transfer_id,
                    lastvalidated, "cutover");

    DrainBufferAndGoLive();
    flight_->Record(obs::FlightEventType::kRecovery, self, transfer_id,
                    lastvalidated, "complete");
    SIREP_ILOG << "replica " << self << " recovery complete";
    return Status::OK();
  }
  // Attempts exhausted: by construction last_error is retryable
  // (kUnavailable or kTimedOut) — the caller can back off and re-enter.
  return last_error;
}

void OnlineRecovery::DrainBufferAndGoLive() {
  // Drain the buffered post-marker messages through normal validation.
  // First a few passes without blocking delivery (bulk of the backlog);
  // then a final pass holding buffer_mu_, during which the delivery
  // thread briefly blocks — that makes the flip to live atomic and
  // bounds the drain even under heavy concurrent traffic.
  for (int pass = 0; pass < 16; ++pass) {
    std::vector<gcs::Message> batch;
    {
      std::lock_guard<std::mutex> lock(buffer_mu_);
      if (buffered_.size() < 64) break;
      batch.swap(buffered_);
    }
    for (const auto& message : batch) host_->ProcessDelivered(message);
  }
  {
    std::unique_lock<std::mutex> lock(buffer_mu_);
    while (!buffered_.empty()) {
      std::vector<gcs::Message> batch;
      batch.swap(buffered_);
      // Intentionally processed under buffer_mu_: new deliveries wait.
      for (const auto& message : batch) host_->ProcessDelivered(message);
    }
    delivery_mode_ = DeliveryMode::kLive;
    g_buffered_msgs_->Set(0);
  }
  host_->GoLive();
}

void OnlineRecovery::JoinStreamers() {
  std::vector<std::thread> streamers;
  {
    std::lock_guard<std::mutex> lock(streamers_mu_);
    streamers.swap(streamers_);
  }
  for (auto& streamer : streamers) {
    if (streamer.joinable()) streamer.join();
  }
}

}  // namespace sirep::middleware
