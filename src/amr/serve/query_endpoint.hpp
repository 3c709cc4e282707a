// The serve results endpoint: a sql-ish string surface over the
// telemetry Query engine, so a client can interrogate a finished job's
// tables without linking the library.
//
//   select * from comm where step >= 10 order by rank limit 5
//   select sum(dur_ns) as total, p95(dur_ns) from phases
//       where phase == 1 group by step, rank order by total desc
//
// Grammar (keywords lowercase, one statement per line):
//   select <*| agg[, agg...]> from <phases|comm|blocks|placement>
//       [where <col> <op> <number> [and ...]]
//       [group by <col>[, col...]]
//       [order by <col> [desc]] [limit <n>]
//   agg := count | sum|mean|min|max|stddev|p50|p95|p99 ( <col> ) [as <name>]
//   op  := == | != | < | <= | > | >=
//
// Aggregates require `group by` (the engine's GroupedQuery shape);
// `select *` materializes filtered rows. Output is Table::format() —
// deterministic, so query responses take part in the serve byte-identity
// contract like job reports do.
#pragma once

#include <string>

#include "amr/telemetry/table.hpp"

namespace amr::serve {

/// Tables of one finished job, borrowed for the duration of a query.
struct JobTables {
  const Table* phases = nullptr;
  const Table* comm = nullptr;
  const Table* blocks = nullptr;
  /// Never read: kept for ledger/ until a benchmark PR drops it.
  const Table* shards = nullptr;
  const Table* placement = nullptr;
};

/// Execute `text` against the job's tables. On success returns "" and
/// appends the rendered result table to `out`; on failure returns the
/// error message and leaves `out` untouched.
std::string run_table_query(const JobTables& tables, const std::string& text,
                            std::string& out);

}  // namespace amr::serve
