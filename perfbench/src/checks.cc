#include "checks.h"

#include <sstream>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Describe(const TableDigest& d) {
  std::ostringstream os;
  os << d.table << "{rows=" << d.rows << " sum=" << d.sum_v
     << " checksum=" << d.checksum << "}";
  return os.str();
}

}  // namespace

sirep::Result<DbDigest> DigestDatabase(
    sirep::engine::Database* db, const std::vector<std::string>& tables) {
  DbDigest out;
  auto txn = db->Begin();
  for (const auto& table : tables) {
    TableDigest d;
    d.table = table;
    auto agg = db->Execute(txn, "SELECT COUNT(*), SUM(v) FROM " + table);
    if (!agg.ok()) {
      db->Abort(txn);
      return agg.status();
    }
    const auto& row = agg.value().rows.at(0);
    d.rows = row.at(0).AsInt();
    d.sum_v = row.at(1).is_null() ? 0 : row.at(1).AsInt();
    auto scan = db->Execute(txn, "SELECT k, v, pad FROM " + table);
    if (!scan.ok()) {
      db->Abort(txn);
      return scan.status();
    }
    int64_t scanned_sum = 0;
    for (const auto& r : scan.value().rows) {
      const auto k = static_cast<uint64_t>(r.at(0).AsInt());
      const auto v = static_cast<uint64_t>(r.at(1).AsInt());
      d.checksum += Mix(Mix(k) ^ (v * 0x9e3779b97f4a7c15ull) ^
                        HashString(r.at(2).AsString()));
      scanned_sum += r.at(1).AsInt();
    }
    if (static_cast<int64_t>(scan.value().rows.size()) != d.rows ||
        scanned_sum != d.sum_v) {
      db->Abort(txn);
      return sirep::Status::Internal(
          "table " + table + ": aggregate disagrees with its own scan");
    }
    out.push_back(d);
  }
  SIREP_RETURN_IF_ERROR(db->Commit(txn));
  return out;
}

int64_t TotalSum(const DbDigest& digest) {
  int64_t sum = 0;
  for (const auto& d : digest) sum += d.sum_v;
  return sum;
}

std::string CheckReplicasAgree(const std::vector<DbDigest>& replicas) {
  for (size_t i = 1; i < replicas.size(); ++i) {
    if (replicas[i].size() != replicas[0].size()) {
      return "replica " + std::to_string(i) + " holds a different table set";
    }
    for (size_t t = 0; t < replicas[0].size(); ++t) {
      if (!(replicas[i][t] == replicas[0][t])) {
        return "replica " + std::to_string(i) + " diverges: " +
               Describe(replicas[i][t]) + " vs replica 0 " +
               Describe(replicas[0][t]);
      }
    }
  }
  return "";
}

std::string CheckIncrements(int64_t sum_before, int64_t sum_after,
                            const Tally& total) {
  const int64_t growth = sum_after - sum_before;
  const auto lo = static_cast<int64_t>(total.committed_increments);
  const auto hi = lo + static_cast<int64_t>(total.lost_increments);
  if (growth < lo || growth > hi) {
    std::ostringstream os;
    os << "SUM(v) grew by " << growth << ", but committed transactions made "
       << lo << " increments and lost ones at most "
       << total.lost_increments << " more";
    return os.str();
  }
  return "";
}

std::string CheckDatabases(const std::vector<sirep::engine::Database*>& dbs,
                           const std::vector<std::string>& tables,
                           int64_t sum_before, const Tally& total) {
  std::vector<DbDigest> digests;
  for (size_t i = 0; i < dbs.size(); ++i) {
    auto digest = DigestDatabase(dbs[i], tables);
    if (!digest.ok()) {
      return "replica " + std::to_string(i) +
             " unreadable: " + digest.status().ToString();
    }
    digests.push_back(std::move(digest.value()));
  }
  std::string err = CheckReplicasAgree(digests);
  if (err.empty() && !digests.empty()) {
    err = CheckIncrements(sum_before, TotalSum(digests[0]), total);
  }
  return err;
}

}  // namespace perfbench
