#ifndef SIREP_MIDDLEWARE_TOCOMMIT_QUEUE_H_
#define SIREP_MIDDLEWARE_TOCOMMIT_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "middleware/global_txn_id.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "storage/write_set.h"

namespace sirep::middleware {

/// One entry of a replica's `tocommit_queue`: a validated transaction
/// waiting to be applied (if remote) and committed at this replica.
struct ToCommitEntry {
  uint64_t tid = 0;  ///< global validation id
  GlobalTxnId gid;
  bool local = false;  ///< local at this replica?
  std::shared_ptr<const storage::WriteSet> ws;
  bool dispatched = false;     ///< already handed to an applier (internal)
  bool gate_deferred = false;  ///< hole gate deferral already counted
  /// Delivery time at this replica (MonotonicNanos), for remote-apply lag.
  uint64_t delivered_ns = 0;
  /// Origin-tagged distributed trace for remote entries (null when the
  /// origin sent no TraceContext); the applier records its apply/commit
  /// spans into it and flushes it at commit.
  std::shared_ptr<obs::TxnTrace> trace;
};

/// The per-replica `tocommit_queue` of the paper (Fig. 1 II / Fig. 4 III),
/// with the conflict queries the three algorithm variants need:
///
///  * SRCA applies strictly in order (front of queue);
///  * Adjustment 1 validates a finishing local transaction against the
///    *remote* entries still queued (ConflictsWithRemote);
///  * Adjustment 2 dispatches any entry with no conflicting predecessor
///    still in the queue (TakeDispatchableRemotes).
///
/// Internally the queue is indexed by tuple so every operation is
/// O(writeset size), not O(queue length): each touched tuple keeps a
/// FIFO of the entries writing it, an entry is dispatchable exactly when
/// it is at the front of *all* its tuples' FIFOs, and a per-entry
/// blocker count tracks how many FIFOs it is not yet front of. The
/// naive formulation (scan all earlier entries per candidate, re-run on
/// every delivery) was O(n^2) per delivery and livelocked recovery:
/// under a hot-key write workload the backlog on the recovering
/// replica's peers grew faster than the quadratic scans could drain it.
///
/// Thread-safe.
class ToCommitQueue {
 public:
  void Append(ToCommitEntry entry) {
    auto lock = obs::AcquireProfiled(mu_, lock_stats_);
    const uint64_t seq = next_seq_++;
    seq_of_tid_[entry.tid] = seq;
    Node& node = entries_.emplace(seq, Node{std::move(entry), 0}).first->second;
    if (node.entry.ws != nullptr) {
      for (const auto& we : node.entry.ws->entries()) {
        auto& fifo = tuple_queues_[we.tuple];
        fifo.push_back(seq);
        if (fifo.size() > 1) ++node.blockers;
        if (!node.entry.local) ++remote_pending_[we.tuple];
      }
    }
    if (Dispatchable(node)) ready_.push_back(seq);
  }

  /// Local validation (Adjustment 1 / Fig. 4 I.2.d): does `ws` intersect
  /// the writeset of any *remote* transaction still queued?
  bool ConflictsWithRemote(const storage::WriteSet& ws) const {
    auto lock = obs::AcquireProfiled(mu_, lock_stats_);
    for (const auto& we : ws.entries()) {
      if (remote_pending_.count(we.tuple) > 0) return true;
    }
    return false;
  }

  /// Marks and returns the queued, not-yet-dispatched entries that have no
  /// conflicting entry ordered before them (Adjustment 2's eligibility
  /// rule) and whose hole gate is open (Adjustment 3; `gate_open` may be
  /// null to skip gating). Local entries are committed by the client
  /// thread and are dispatched there, so this only returns remote
  /// entries. `deferred_by_gate`, if non-null, counts entries newly held
  /// back by the gate (for the holes statistics).
  std::vector<ToCommitEntry> TakeDispatchableRemotes(
      const std::function<bool(uint64_t tid)>& gate_open = nullptr,
      size_t* deferred_by_gate = nullptr) {
    auto lock = obs::AcquireProfiled(mu_, lock_stats_);
    std::sort(ready_.begin(), ready_.end());
    std::vector<ToCommitEntry> taken;
    std::vector<uint64_t> retained;
    for (uint64_t seq : ready_) {
      auto it = entries_.find(seq);
      if (it == entries_.end()) continue;  // removed while ready
      ToCommitEntry& entry = it->second.entry;
      if (entry.dispatched) continue;
      if (gate_open != nullptr && !gate_open(entry.tid)) {
        if (!entry.gate_deferred) {
          entry.gate_deferred = true;
          if (deferred_by_gate != nullptr) ++*deferred_by_gate;
        }
        retained.push_back(seq);
        continue;
      }
      entry.dispatched = true;
      taken.push_back(entry);
    }
    ready_ = std::move(retained);
    return taken;
  }

  /// Removes a committed (or discarded) transaction. Successors that
  /// reach the front of all their tuple FIFOs become dispatchable.
  void Remove(uint64_t tid) {
    auto lock = obs::AcquireProfiled(mu_, lock_stats_);
    auto sit = seq_of_tid_.find(tid);
    if (sit == seq_of_tid_.end()) return;
    const uint64_t seq = sit->second;
    seq_of_tid_.erase(sit);
    auto it = entries_.find(seq);
    Node node = std::move(it->second);
    entries_.erase(it);
    if (node.entry.ws == nullptr) return;
    for (const auto& we : node.entry.ws->entries()) {
      auto qit = tuple_queues_.find(we.tuple);
      auto& fifo = qit->second;
      if (fifo.front() == seq) {
        fifo.pop_front();
        // The new front (if any) loses one blocker; removal from the
        // middle leaves everyone's frontness unchanged.
        if (!fifo.empty()) {
          Node& successor = entries_.at(fifo.front());
          if (--successor.blockers == 0 && Dispatchable(successor)) {
            ready_.push_back(fifo.front());
          }
        }
      } else {
        fifo.erase(std::find(fifo.begin(), fifo.end(), seq));
      }
      if (fifo.empty()) tuple_queues_.erase(qit);
      if (!node.entry.local) {
        auto rit = remote_pending_.find(we.tuple);
        if (--rit->second == 0) remote_pending_.erase(rit);
      }
    }
    if (entries_.empty()) empty_cv_.notify_all();
  }

  /// Blocks until the queue is empty or `giveup()` returns true (e.g.
  /// the replica crashed and the queue will never drain). The predicate
  /// is re-checked whenever the queue empties or Poke() fires — no
  /// polling.
  void WaitUntilEmpty(const std::function<bool()>& giveup) {
    std::unique_lock<std::mutex> lock(mu_);
    empty_cv_.wait(lock, [&] {
      return entries_.empty() || (giveup != nullptr && giveup());
    });
  }

  /// Contention accounting for the queue mutex on its hottest entry
  /// points. Set once at replica construction, before any transaction.
  void SetLockStats(const obs::LockStats& stats) { lock_stats_ = stats; }

  /// Wakes WaitUntilEmpty() waiters to re-evaluate their giveup
  /// predicate (call on crash/shutdown).
  void Poke() {
    std::lock_guard<std::mutex> lock(mu_);
    empty_cv_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  struct Node {
    ToCommitEntry entry;
    /// Number of this entry's tuples whose FIFO it is not yet front of.
    size_t blockers = 0;
  };

  static bool Dispatchable(const Node& node) {
    return node.blockers == 0 && !node.entry.local && !node.entry.dispatched;
  }

  mutable std::mutex mu_;
  obs::LockStats lock_stats_;
  std::condition_variable empty_cv_;
  uint64_t next_seq_ = 0;
  /// Entries in arrival (= validation) order, keyed by insertion seq.
  std::map<uint64_t, Node> entries_;
  std::unordered_map<uint64_t, uint64_t> seq_of_tid_;
  /// Per-tuple FIFO of the seqs of queued entries writing that tuple.
  std::unordered_map<storage::TupleId, std::deque<uint64_t>,
                     storage::TupleIdHash>
      tuple_queues_;
  /// Per-tuple count of queued *remote* entries writing it.
  std::unordered_map<storage::TupleId, size_t, storage::TupleIdHash>
      remote_pending_;
  /// Seqs of entries with blockers == 0, remote, not yet dispatched.
  std::vector<uint64_t> ready_;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_TOCOMMIT_QUEUE_H_
