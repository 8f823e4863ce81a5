#ifndef SIREP_MIDDLEWARE_CERTIFIER_H_
#define SIREP_MIDDLEWARE_CERTIFIER_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/partition_map.h"
#include "storage/write_set.h"

namespace sirep::middleware {

/// The paper's Fig. 4 step II as one value type: validates each
/// delivered writeset, in total order, against the writesets validated
/// after its `cert`, and on success assigns it the next tid. Every
/// replica runs the same Certify() calls in the same order, so all reach
/// the same verdicts. No mutex, threads, I/O or metrics: the caller
/// serializes access (`wsmutex_`, as in the paper's pseudo-code).
///
/// The insight: validation of Ti only asks "does any Tj with tid >
/// Ti.cert write a tuple Ti writes?". Appends are tid-monotone, so the
/// per-tuple *last* writer tid answers that exactly — if the newest
/// writer of a tuple is <= cert, every older writer is too. That turns
/// WsList's O(window-suffix x writeset) scan into O(writeset) hash
/// lookups; a window deque mirrors WsList's sliding window.
///
/// **Why digests, not tuples.** Under partial replication a non-holder
/// receives only the 64-bit FNV-1a digest of each written tuple
/// (cluster::PartitionMap::TupleDigest), never the tuple itself. Keying
/// on digests lets holders (which hash their full tuples) and
/// non-holders (which replay shipped digests) run the *same* rule over
/// the *same* keys — the cluster-wide verdict identity that 1-copy-SI
/// certification requires. A digest collision between distinct tuples
/// can only manufacture a conflict that is not there, i.e. a spurious
/// abort — always safe under SI, and vanishingly rare at 64 bits.
///
/// Decision-equivalence with WsList plus the underrun rule (relied on by
/// recovery and by the cross-replica determinism argument) is checked by
/// CertifierTest's differential suites in middleware_unit_test.
class Certifier {
 public:
  /// A validated tid and the digests of the tuples it wrote.
  struct Entry {
    uint64_t tid = 0;
    std::vector<uint64_t> digests;
  };

  /// The whole validation state. Recovery ships it verbatim so the
  /// recovering replica's verdicts match the donor's bit for bit.
  struct State {
    uint64_t last_validated = 0;
    std::vector<Entry> window;
  };

  /// Abort reason when the cert predates the retained window.
  static constexpr size_t kUnderrun = std::numeric_limits<size_t>::max();

  /// Certify()'s outcome: the assigned tid, or 0 and the abort reason
  /// (index of the first conflicting digest, or kUnderrun).
  struct Verdict {
    uint64_t tid = 0;
    size_t conflict = 0;
    bool committed() const { return tid != 0; }
  };

  explicit Certifier(size_t max_entries = 65536) : max_entries_(max_entries) {}

  /// Per-tuple digests in writeset order (the list a header-only frame
  /// carries for the same writeset).
  static std::vector<uint64_t> DigestsOf(const storage::WriteSet& ws) {
    std::vector<uint64_t> digests;
    digests.reserve(ws.entries().size());
    for (const auto& we : ws.entries()) {
      digests.push_back(cluster::PartitionMap::TupleDigest(we.tuple));
    }
    return digests;
  }

  /// Fig. 4 II.2: aborts if some tid > `cert` wrote one of `digests`, or
  /// if `cert` predates the retained window (it cannot be checked
  /// exactly, so it aborts conservatively; all replicas share the window
  /// size and delivery order, so they all abort identically). Otherwise
  /// assigns the next tid and appends the entry.
  Verdict Certify(uint64_t cert, std::vector<uint64_t> digests) {
    if (cert + 1 < MinRetainedTid()) return {0, kUnderrun};
    for (size_t i = 0; i < digests.size(); ++i) {
      auto it = last_writer_.find(digests[i]);
      if (it != last_writer_.end() && it->second > cert) return {0, i};
    }
    const uint64_t tid = ++last_validated_;
    Append(Entry{tid, std::move(digests)});
    return {tid, 0};
  }

  /// A replicated DDL statement's tid slot: it takes a position in the
  /// validation order but writes no tuples, so the window is untouched.
  uint64_t AssignDdlTid() { return ++last_validated_; }

  /// Highest tid assigned so far: the `cert` a local commit sends.
  uint64_t last_validated() const { return last_validated_; }

  /// Oldest retained tid; 0 for an empty window, which never underruns.
  uint64_t MinRetainedTid() const {
    return window_.empty() ? 0 : window_.front().tid;
  }

  size_t size() const { return window_.size(); }

  State Snapshot() const {
    return State{last_validated_, {window_.begin(), window_.end()}};
  }

  /// Replaces the current state with `state`. Re-appending entry by
  /// entry re-runs the normal prune, so a snapshot wider than this
  /// certifier's own window converges to the same retained suffix (and
  /// the same MinRetainedTid) a live replica would hold.
  void Load(State state) {
    window_.clear();
    last_writer_.clear();
    for (Entry& entry : state.window) Append(std::move(entry));
    last_validated_ = state.last_validated;
  }

 private:
  void Append(Entry entry) {
    for (const uint64_t d : entry.digests) last_writer_[d] = entry.tid;
    window_.push_back(std::move(entry));
    while (window_.size() > max_entries_) {
      const Entry& evicted = window_.front();
      for (const uint64_t digest : evicted.digests) {
        auto it = last_writer_.find(digest);
        // Only drop the map entry if no younger entry in the window
        // overwrote it; a stale smaller tid can never be present because
        // appends are tid-monotone.
        if (it != last_writer_.end() && it->second == evicted.tid) {
          last_writer_.erase(it);
        }
      }
      window_.pop_front();
    }
  }

  size_t max_entries_;
  uint64_t last_validated_ = 0;
  /// digest -> tid of the newest retained entry that wrote it.
  std::unordered_map<uint64_t, uint64_t> last_writer_;
  /// Retained entries in tid order.
  std::deque<Entry> window_;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_CERTIFIER_H_
