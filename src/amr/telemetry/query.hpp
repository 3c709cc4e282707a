// Relational query engine over telemetry tables.
//
// The SQL-over-ClickHouse analogue of the paper's final analysis workflow
// (§IV-C): filter / group-by / aggregate, "grouped by timestep and sorted
// by rank" (Lesson 4). Queries materialize row selections eagerly and
// produce new Tables, so chains compose without lifetime traps. A scan
// decodes the columns it touches one stored chunk at a time, never a
// whole column.
//
//   Table by_rank = Query(phases)
//       .filter_i64("phase", [](auto p) { return p == 1; })
//       .group_by({"step", "rank"})
//       .agg({{"dur_ns", Agg::kSum, "comm_ns"}})
//       .run();
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "amr/telemetry/table.hpp"

namespace amr {

enum class Agg : std::uint8_t {
  kCount,
  kSum,
  kMean,
  kMin,
  kMax,
  kStddev,
  kP50,
  kP95,
  kP99,
};

const char* to_string(Agg agg);

struct AggSpec {
  std::string column;   ///< source column (ignored for kCount)
  Agg agg;
  std::string as;       ///< output column name
};

class GroupedQuery;

class Query {
 public:
  explicit Query(const Table& table);

  /// Keep rows whose i64 cell satisfies the predicate.
  Query& filter_i64(std::string_view col,
                    const std::function<bool(std::int64_t)>& pred);
  /// Keep rows whose numeric cell (any type) satisfies the predicate.
  Query& filter(std::string_view col,
                const std::function<bool(double)>& pred);

  /// Group by i64 key columns; aggregate with agg().
  GroupedQuery group_by(std::vector<std::string> keys);

  /// Materialize the current selection (all columns, filtered rows).
  Table run() const;

  /// Sort the current selection by a column (stable, ascending unless
  /// `descending`).
  Query& sort_by(std::string_view col, bool descending = false);

  /// Keep the first n rows of the current selection.
  Query& limit(std::size_t n);

  /// Selected values of one column, as doubles (in selection order).
  std::vector<double> values(std::string_view col) const;

  std::size_t count() const { return rows_.size(); }

 private:
  friend class GroupedQuery;
  const Table& table_;
  std::vector<std::size_t> rows_;
  /// rows_ is ascending (no sort_by has permuted it): scans then decode
  /// each chunk of each column they touch once.
  bool ascending_ = true;
};

class GroupedQuery {
 public:
  /// Aggregate each group. Output schema: the i64 key columns, then one
  /// f64 column per AggSpec. Groups are emitted in order of first
  /// appearance (deterministic).
  Table agg(std::vector<AggSpec> specs) const;

 private:
  friend class Query;
  GroupedQuery(const Query& query, std::vector<std::string> keys);
  const Query& query_;
  std::vector<std::string> keys_;
};

/// Inner equi-join of two tables on shared i64 key columns (hash join,
/// right side built). Output schema: keys, then the remaining left
/// columns, then the remaining right columns (right names prefixed with
/// `right_prefix` on collision). Rows emit in left order; multiple right
/// matches multiply (deterministically, in right-row order).
Table join(const Table& left, const Table& right,
           const std::vector<std::string>& keys,
           const std::string& right_prefix = "r_");

}  // namespace amr
