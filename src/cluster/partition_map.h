#ifndef SIREP_CLUSTER_PARTITION_MAP_H_
#define SIREP_CLUSTER_PARTITION_MAP_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "storage/types.h"
#include "storage/write_set.h"

namespace sirep::cluster {

/// Hash partitioning of the keyspace over (table, primary key), with each
/// partition owned by a *replica group* — a disjoint subset of
/// `replication_factor` cluster slots. The map is the single source of
/// truth for three different layers:
///
///  * the middleware tags every writeset with the bitmask of partitions
///    it touches (`MaskOf`) and refuses to execute transactions whose
///    partitions it does not hold (`HoldsAll`);
///  * the GCS sender strips payloads from members that hold none of a
///    writeset's partitions (`StripMembers`) — those members certify
///    against the digest header alone;
///  * recovery elects donors that cover the requester's held partitions
///    (`CoveringMembers`), which under the group model is exactly the
///    requester's group peers.
///
/// **Group model.** Slots are divided into `num_groups =
/// max(1, num_slots / replication_factor)` contiguous groups (the last
/// group absorbs any remainder), and partition `p` is owned by every
/// slot of group `p % num_groups`. Disjoint groups make every group
/// peer a *fully covering* recovery donor — the alternative (rotating
/// overlapped holder sets) leaves no single replica able to re-seed a
/// restarted holder, which is the genuine-partial-replication recovery
/// trap. The cost is that a cross-group transaction has no replica
/// holding all its data and must be routed partition-wise by the
/// client; cross-partition transactions *within* a group commit
/// normally (the executing replica holds everything it read).
///
/// **Digest space.** A tuple's partition is derived from a 64-bit
/// FNV-1a digest of table + 0x1f + key, the same digest the header-only
/// certification path ships instead of row images — so holders
/// (hashing full tuples) and non-holders (hashing nothing, replaying
/// shipped digests) reach bit-identical conflict verdicts.
///
/// Partition count is capped at 64 so a partition set is a plain
/// `uint64_t` mask. `epoch` is bumped by every `Resize` so in-flight
/// messages tagged under an older layout are detectable.
///
/// The slot->member directory (`BindSlot`) models the membership view a
/// deployment would keep in its configuration service; here all
/// replicas share the one in-process map object. Members bind their
/// slot only once live (a recovering incarnation stays unbound and so
/// keeps receiving full payloads until its catch-up completes).
///
/// Thread-safe; the hot read paths (`partial`, layout queries) are
/// lock-free on immutable-after-construction state except during
/// `Resize`, which swaps the layout under the directory mutex.
class PartitionMap {
 public:
  static constexpr size_t kMaxPartitions = 64;
  /// Member ids beyond the mask width can never be stripped (they
  /// always receive full payloads) — safe, merely unoptimized.
  static constexpr uint32_t kMaxStrippableMember = 63;

  PartitionMap(size_t num_slots, size_t num_partitions,
               size_t replication_factor)
      : num_slots_(std::max<size_t>(num_slots, 1)) {
    Layout l;
    l.partitions =
        std::min(std::max<size_t>(num_partitions, 1), kMaxPartitions);
    l.rf = replication_factor;
    l.groups = GroupsFor(num_slots_, replication_factor);
    StoreLayout(l);
  }

  /// Builds a map from `SIREP_PARTITIONS` / `SIREP_REPLICATION_FACTOR`,
  /// or returns null when neither is set (full replication, no map).
  static std::shared_ptr<PartitionMap> FromEnv(size_t num_slots) {
    const uint64_t partitions = EnvU64("SIREP_PARTITIONS", 0);
    const uint64_t rf = EnvU64("SIREP_REPLICATION_FACTOR", 0);
    if (partitions == 0 && rf == 0) return nullptr;
    return std::make_shared<PartitionMap>(
        num_slots, partitions == 0 ? size_t{16} : partitions, rf);
  }

  /// FNV-1a 64 over table bytes, a 0x1f separator, then the printable
  /// key — deterministic across replicas and processes (never uses
  /// std::hash, whose value is implementation-defined).
  static uint64_t TupleDigest(const storage::TupleId& tuple) {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const std::string& s) {
      for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
      }
    };
    mix(tuple.table);
    h ^= 0x1f;
    h *= 1099511628211ull;
    mix(tuple.key.ToString());
    return h;
  }

  size_t num_slots() const { return num_slots_; }
  size_t num_partitions() const { return LoadLayout().partitions; }
  size_t replication_factor() const { return LoadLayout().rf; }
  size_t num_groups() const { return LoadLayout().groups; }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// True when payload routing is actually selective: more than one
  /// group exists. rf == 0 or rf >= num_slots degenerates to full
  /// replication and every partial-path branch is skipped.
  bool partial() const { return LoadLayout().groups > 1; }

  size_t PartitionOfDigest(uint64_t digest) const {
    return digest % LoadLayout().partitions;
  }
  size_t PartitionOf(const storage::TupleId& tuple) const {
    return PartitionOfDigest(TupleDigest(tuple));
  }

  size_t GroupOfPartition(size_t partition) const {
    return partition % LoadLayout().groups;
  }
  /// Contiguous groups of rf slots; the last group absorbs the
  /// remainder when num_slots % rf != 0. Slots beyond num_slots (added
  /// after the map was laid out) belong to no group and hold everything
  /// — see HeldMask.
  size_t GroupOfSlot(size_t slot) const {
    const Layout l = LoadLayout();
    if (l.rf == 0) return 0;
    return std::min(slot / l.rf, l.groups - 1);
  }

  /// Bitmask of the partitions `slot` holds. Slots outside the laid-out
  /// range (AddReplica beyond the founding set) hold the full mask:
  /// they are never payload-stripped, and recovery refuses them under
  /// partial replication (no covering donor exists) — elastic scale-out
  /// of the partition layout itself is future work.
  uint64_t HeldMask(size_t slot) const {
    const Layout l = LoadLayout();
    if (l.groups <= 1 || slot >= num_slots_) return FullMask(l.partitions);
    const size_t group = GroupOfSlot(slot);
    uint64_t mask = 0;
    for (size_t p = 0; p < l.partitions; ++p) {
      if (p % l.groups == group) mask |= uint64_t{1} << p;
    }
    return mask;
  }

  bool Holds(size_t slot, size_t partition) const {
    return (HeldMask(slot) >> partition) & 1;
  }
  bool HoldsAll(size_t slot, uint64_t partition_mask) const {
    return (partition_mask & ~HeldMask(slot)) == 0;
  }
  bool HoldsAny(size_t slot, uint64_t partition_mask) const {
    return (partition_mask & HeldMask(slot)) != 0;
  }

  /// Partition mask of a writeset; optionally also emits the per-entry
  /// digests in writeset order — the exact list a header-only frame
  /// ships, and the list every replica feeds its validation index.
  uint64_t MaskOf(const storage::WriteSet& ws,
                  std::vector<uint64_t>* digests = nullptr) const {
    uint64_t mask = 0;
    if (digests != nullptr) digests->reserve(ws.entries().size());
    for (const auto& entry : ws.entries()) {
      const uint64_t digest = TupleDigest(entry.tuple);
      mask |= uint64_t{1} << PartitionOfDigest(digest);
      if (digests != nullptr) digests->push_back(digest);
    }
    return mask;
  }

  /// The entries of `ws` that fall in `held_mask`'s partitions: the
  /// sub-writeset a replica holding only some of a writeset's
  /// partitions applies (live and in recovery replay alike).
  std::shared_ptr<const storage::WriteSet> HeldSubset(
      const storage::WriteSet& ws, uint64_t held_mask) const {
    auto subset = std::make_shared<storage::WriteSet>();
    for (const auto& entry : ws.entries()) {
      if ((held_mask >> PartitionOf(entry.tuple)) & 1) {
        subset->Record(entry.tuple, entry.op, entry.after);
      }
    }
    return subset;
  }

  /// Re-partitions the keyspace and bumps the epoch. Masks computed
  /// under the old layout stay detectable via the epoch carried in
  /// every writeset message; receivers treat a mismatched epoch
  /// conservatively (full-payload semantics where possible).
  void Resize(size_t new_partitions) {
    std::lock_guard<std::mutex> lock(mu_);
    Layout l = LoadLayout();
    l.partitions = std::min(std::max<size_t>(new_partitions, 1),
                            kMaxPartitions);
    StoreLayout(l);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  // --- slot <-> member directory -------------------------------------

  /// Publishes `member` as the live incarnation of `slot`, replacing
  /// any previous binding of either side. Call only once the member is
  /// live (recovered): senders start stripping payloads the moment a
  /// binding exists.
  void BindSlot(size_t slot, uint32_t member) {
    std::lock_guard<std::mutex> lock(mu_);
    auto old = slot_to_member_.find(slot);
    if (old != slot_to_member_.end()) member_to_slot_.erase(old->second);
    slot_to_member_[slot] = member;
    member_to_slot_[member] = slot;
  }

  /// Retracts a dead incarnation's binding (crash/shutdown). A stale
  /// binding is harmless — stripping payloads from a dead member wastes
  /// nothing — but retracting keeps CoveringMembers accurate.
  void UnbindMember(uint32_t member) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = member_to_slot_.find(member);
    if (it == member_to_slot_.end()) return;
    auto sit = slot_to_member_.find(it->second);
    if (sit != slot_to_member_.end() && sit->second == member) {
      slot_to_member_.erase(sit);
    }
    member_to_slot_.erase(it);
  }

  std::optional<size_t> SlotOfMember(uint32_t member) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = member_to_slot_.find(member);
    if (it == member_to_slot_.end()) return std::nullopt;
    return it->second;
  }

  std::optional<uint32_t> MemberOfSlot(size_t slot) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slot_to_member_.find(slot);
    if (it == slot_to_member_.end()) return std::nullopt;
    return it->second;
  }

  /// Member-id bitmask of the *bound* members that hold none of
  /// `partition_mask` — the set a sender may safely ship the header-only
  /// variant to. Unbound members (joiners mid-recovery, fresh
  /// incarnations) are never stripped: an unknown member defaults to
  /// the full payload. Member ids > 63 are likewise never stripped.
  uint64_t StripMembers(uint64_t partition_mask) const {
    if (!partial() || partition_mask == 0) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t strip = 0;
    for (const auto& [slot, member] : slot_to_member_) {
      if (member > kMaxStrippableMember) continue;
      if ((HeldMask(slot) & partition_mask) == 0) {
        strip |= uint64_t{1} << member;
      }
    }
    return strip;
  }

  /// Bound members whose held set covers `needed_mask` entirely —
  /// under the group model, the group peers of whoever needs
  /// `needed_mask`. Recovery prefers these as donors.
  std::vector<uint32_t> CoveringMembers(uint64_t needed_mask) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<uint32_t> covering;
    for (const auto& [slot, member] : slot_to_member_) {
      if ((needed_mask & ~HeldMask(slot)) == 0) covering.push_back(member);
    }
    return covering;
  }

  static uint64_t FullMask(size_t partitions) {
    return partitions >= 64 ? ~uint64_t{0}
                            : (uint64_t{1} << partitions) - 1;
  }

 private:
  struct Layout {
    size_t partitions = 1;
    size_t rf = 0;
    size_t groups = 1;
  };

  static size_t GroupsFor(size_t num_slots, size_t rf) {
    if (rf == 0 || rf >= num_slots) return 1;
    return std::max<size_t>(num_slots / rf, 1);
  }

  static uint64_t EnvU64(const char* name, uint64_t fallback) {
    const char* value = std::getenv(name);
    if (value == nullptr || *value == '\0') return fallback;
    return std::strtoull(value, nullptr, 10);
  }

  // The layout is three small integers; pack them into one atomic word
  // so readers never lock. partitions/groups <= 64, rf <= slots.
  Layout LoadLayout() const {
    const uint64_t packed = packed_layout_.load(std::memory_order_acquire);
    Layout l;
    l.partitions = packed & 0xffff;
    l.rf = (packed >> 16) & 0xffff;
    l.groups = (packed >> 32) & 0xffff;
    return l;
  }
  void StoreLayout(const Layout& l) {
    packed_layout_.store((uint64_t{l.groups} << 32) |
                             (uint64_t{l.rf & 0xffff} << 16) | l.partitions,
                         std::memory_order_release);
  }

  const size_t num_slots_;
  std::atomic<uint64_t> packed_layout_{(uint64_t{1} << 32) | 1};
  std::atomic<uint64_t> epoch_{1};

  mutable std::mutex mu_;
  std::unordered_map<size_t, uint32_t> slot_to_member_;
  std::unordered_map<uint32_t, size_t> member_to_slot_;
};

}  // namespace sirep::cluster

#endif  // SIREP_CLUSTER_PARTITION_MAP_H_
