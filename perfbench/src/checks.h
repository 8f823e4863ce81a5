#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "measure.h"

namespace perfbench {

/// One table's committed contents, summarized.
struct TableDigest {
  std::string table;
  int64_t rows = 0;      ///< SELECT COUNT(*)
  int64_t sum_v = 0;     ///< SELECT SUM(v)
  uint64_t checksum = 0; ///< order-independent hash of every (k, v, pad)
  bool operator==(const TableDigest& other) const = default;
};
using DbDigest = std::vector<TableDigest>;

/// Reads `tables` through `db` in one snapshot.
sirep::Result<DbDigest> DigestDatabase(sirep::engine::Database* db,
                                       const std::vector<std::string>& tables);

int64_t TotalSum(const DbDigest& digest);

/// Empty when every digest equals the first; else what differs.
std::string CheckReplicasAgree(const std::vector<DbDigest>& replicas);

/// The increment invariant: SUM(v) grew by the committed increments,
/// plus at most the increments of transactions lost in doubt. Empty when
/// it holds; else what differs.
std::string CheckIncrements(int64_t sum_before, int64_t sum_after,
                            const Tally& total);

/// Digests every database, then runs both checks above against
/// `sum_before` (the digest taken after loading). Empty when all hold.
std::string CheckDatabases(const std::vector<sirep::engine::Database*>& dbs,
                           const std::vector<std::string>& tables,
                           int64_t sum_before, const Tally& total);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
