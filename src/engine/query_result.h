#ifndef SIREP_ENGINE_QUERY_RESULT_H_
#define SIREP_ENGINE_QUERY_RESULT_H_

#include <string>
#include <vector>

#include "sql/value.h"

namespace sirep::engine {

/// Result of executing one statement: column names + rows for SELECT,
/// rows_affected for DML, both empty for DDL/transaction control.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<sql::Row> rows;
  int64_t rows_affected = 0;

  bool empty() const { return rows.empty(); }
  size_t NumRows() const { return rows.size(); }

  std::string ToString() const;
};

}  // namespace sirep::engine

#endif  // SIREP_ENGINE_QUERY_RESULT_H_
