#include "amr/telemetry/query.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <type_traits>
#include <unordered_map>

#include "amr/common/check.hpp"
#include "amr/common/rng.hpp"
#include "amr/common/stats.hpp"

namespace amr {
namespace {

/// Reads one column along a scan. Over ascending rows it decodes each
/// sealed chunk it touches once. The raw tail needs no decoding, and a
/// permuted selection (after sort_by) would decode a chunk again on
/// every switch, so both read cells in O(1) instead.
template <typename T>
class ColumnCursor {
 public:
  ColumnCursor(const Table& table, std::size_t col, bool ascending)
      : table_(table), col_(col), ascending_(ascending),
        sealed_rows_(table.column(col).chunks.size() * Table::kChunkRows) {}

  T operator()(std::size_t row) {
    if (row >= sealed_rows_ || !ascending_) {
      if constexpr (std::is_same_v<T, std::int64_t>)
        return table_.ivalue(col_, row);
      else
        return table_.value(col_, row);
    }
    const std::size_t chunk = row / Table::kChunkRows;
    if (chunk != loaded_) {
      if (!buf_) buf_ = std::make_unique_for_overwrite<T[]>(Table::kChunkRows);
      table_.decode(col_, chunk, buf_.get());
      loaded_ = chunk;
    }
    return buf_[row % Table::kChunkRows];
  }

 private:
  const Table& table_;
  std::size_t col_;
  bool ascending_;
  std::size_t sealed_rows_;
  std::size_t loaded_ = static_cast<std::size_t>(-1);
  std::unique_ptr<T[]> buf_;
};

/// Reads whole rows (the given columns, each as its own type) along a
/// scan, one cursor per column.
class RowReader {
 public:
  RowReader(const Table& table, std::span<const std::size_t> cols,
            bool ascending) {
    for (const std::size_t c : cols) {
      const bool is_int = table.col_type(c) == ColType::kI64;
      slots_.push_back(is_int ? ints_.size() : doubles_.size());
      is_int_.push_back(is_int);
      if (is_int)
        ints_.emplace_back(table, c, ascending);
      else
        doubles_.emplace_back(table, c, ascending);
    }
  }

  /// Write row `row`'s cells into cells[at], cells[at + 1], ...
  void read(std::size_t row, std::vector<CellValue>& cells, std::size_t at) {
    for (std::size_t i = 0; i < slots_.size(); ++i)
      cells[at + i] = is_int_[i] ? CellValue(ints_[slots_[i]](row))
                                 : CellValue(doubles_[slots_[i]](row));
  }

 private:
  std::vector<ColumnCursor<std::int64_t>> ints_;
  std::vector<ColumnCursor<double>> doubles_;
  std::vector<std::size_t> slots_;
  std::vector<bool> is_int_;
};

}  // namespace

const char* to_string(Agg agg) {
  switch (agg) {
    case Agg::kCount: return "count";
    case Agg::kSum: return "sum";
    case Agg::kMean: return "mean";
    case Agg::kMin: return "min";
    case Agg::kMax: return "max";
    case Agg::kStddev: return "stddev";
    case Agg::kP50: return "p50";
    case Agg::kP95: return "p95";
    case Agg::kP99: return "p99";
  }
  return "?";
}

Query::Query(const Table& table) : table_(table) {
  rows_.resize(table.num_rows());
  for (std::size_t r = 0; r < rows_.size(); ++r) rows_[r] = r;
}

Query& Query::filter_i64(std::string_view col,
                         const std::function<bool(std::int64_t)>& pred) {
  const std::int32_t idx = table_.col_index(col);
  AMR_CHECK_MSG(idx >= 0, "filter: no such column");
  ColumnCursor<std::int64_t> cells(table_, static_cast<std::size_t>(idx),
                                   ascending_);
  std::vector<std::size_t> kept;
  kept.reserve(rows_.size());
  for (const std::size_t r : rows_)
    if (pred(cells(r))) kept.push_back(r);
  rows_ = std::move(kept);
  return *this;
}

Query& Query::filter(std::string_view col,
                     const std::function<bool(double)>& pred) {
  const std::int32_t idx = table_.col_index(col);
  AMR_CHECK_MSG(idx >= 0, "filter: no such column");
  ColumnCursor<double> cells(table_, static_cast<std::size_t>(idx),
                             ascending_);
  std::vector<std::size_t> kept;
  kept.reserve(rows_.size());
  for (const std::size_t r : rows_)
    if (pred(cells(r))) kept.push_back(r);
  rows_ = std::move(kept);
  return *this;
}

Query& Query::sort_by(std::string_view col, bool descending) {
  AMR_CHECK_MSG(table_.col_index(col) >= 0, "sort_by: no such column");
  // The keys are read in one scan; sorting positions by them orders the
  // rows exactly as a stable sort of the rows by their cells would.
  const std::vector<double> keys = values(col);
  std::vector<std::size_t> order(rows_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return descending ? keys[a] > keys[b]
                                       : keys[a] < keys[b];
                   });
  std::vector<std::size_t> sorted(rows_.size());
  for (std::size_t i = 0; i < order.size(); ++i) sorted[i] = rows_[order[i]];
  rows_ = std::move(sorted);
  ascending_ = std::is_sorted(rows_.begin(), rows_.end());
  return *this;
}

Query& Query::limit(std::size_t n) {
  if (rows_.size() > n) rows_.resize(n);
  return *this;
}

std::vector<double> Query::values(std::string_view col) const {
  const std::int32_t idx = table_.col_index(col);
  AMR_CHECK_MSG(idx >= 0, "values: no such column");
  ColumnCursor<double> cells(table_, static_cast<std::size_t>(idx),
                             ascending_);
  std::vector<double> out;
  out.reserve(rows_.size());
  for (const std::size_t r : rows_) out.push_back(cells(r));
  return out;
}

Table Query::run() const {
  Table out(table_.name() + "#filtered", table_.schema());
  std::vector<std::size_t> cols(table_.num_cols());
  std::iota(cols.begin(), cols.end(), std::size_t{0});
  RowReader cells(table_, cols, ascending_);
  std::vector<CellValue> row(table_.num_cols());
  for (const std::size_t r : rows_) {
    cells.read(r, row, 0);
    out.append_row(row);
  }
  return out;
}

GroupedQuery Query::group_by(std::vector<std::string> keys) {
  return GroupedQuery(*this, std::move(keys));
}

GroupedQuery::GroupedQuery(const Query& query,
                           std::vector<std::string> keys)
    : query_(query), keys_(std::move(keys)) {
  AMR_CHECK_MSG(!keys_.empty(), "group_by needs at least one key");
}

Table GroupedQuery::agg(std::vector<AggSpec> specs) const {
  const Table& src = query_.table_;
  std::vector<std::size_t> key_cols;
  for (const auto& k : keys_) {
    const std::int32_t idx = src.col_index(k);
    AMR_CHECK_MSG(idx >= 0, "group_by: no such column");
    AMR_CHECK_MSG(src.col_type(static_cast<std::size_t>(idx)) ==
                      ColType::kI64,
                  "group_by keys must be i64 columns");
    key_cols.push_back(static_cast<std::size_t>(idx));
  }
  std::vector<std::size_t> val_cols;
  for (const auto& s : specs) {
    if (s.agg == Agg::kCount) {
      val_cols.push_back(0);  // unused
      continue;
    }
    const std::int32_t idx = src.col_index(s.column);
    AMR_CHECK_MSG(idx >= 0, "agg: no such column");
    val_cols.push_back(static_cast<std::size_t>(idx));
  }

  // Group rows by key tuple; deterministic first-appearance order.
  struct Group {
    std::vector<std::int64_t> key;
    std::vector<std::vector<double>> values;  // one per spec
  };
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  std::vector<Group> groups;

  const bool ascending = query_.ascending_;
  std::vector<ColumnCursor<std::int64_t>> key_cells;
  for (const std::size_t c : key_cols)
    key_cells.emplace_back(src, c, ascending);
  std::vector<ColumnCursor<double>> val_cells;
  for (std::size_t s = 0; s < specs.size(); ++s)
    val_cells.emplace_back(src, val_cols[s], ascending);

  for (const std::size_t r : query_.rows_) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::vector<std::int64_t> key;
    key.reserve(key_cols.size());
    for (auto& cells : key_cells) {
      const std::int64_t v = cells(r);
      key.push_back(v);
      h = hash64(h ^ static_cast<std::uint64_t>(v));
    }
    Group* group = nullptr;
    for (const std::size_t gi : buckets[h]) {
      if (groups[gi].key == key) {
        group = &groups[gi];
        break;
      }
    }
    if (group == nullptr) {
      buckets[h].push_back(groups.size());
      groups.push_back(Group{std::move(key), {}});
      group = &groups.back();
      group->values.resize(specs.size());
    }
    for (std::size_t s = 0; s < specs.size(); ++s) {
      if (specs[s].agg == Agg::kCount)
        continue;  // derived from any column's size; track via first spec
      group->values[s].push_back(val_cells[s](r));
    }
    // kCount groups still need a size; reuse a 1-element push.
    for (std::size_t s = 0; s < specs.size(); ++s)
      if (specs[s].agg == Agg::kCount) group->values[s].push_back(1.0);
  }

  std::vector<ColumnDef> defs;
  for (const auto& k : keys_) defs.push_back({k, ColType::kI64});
  for (const auto& s : specs) defs.push_back({s.as, ColType::kF64});
  Table out(src.name() + "#agg", std::move(defs));

  std::vector<CellValue> row(keys_.size() + specs.size());
  for (const auto& g : groups) {
    for (std::size_t k = 0; k < g.key.size(); ++k) row[k] = g.key[k];
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const auto& vals = g.values[s];
      double v = 0.0;
      switch (specs[s].agg) {
        case Agg::kCount: v = static_cast<double>(vals.size()); break;
        case Agg::kSum: {
          for (const double x : vals) v += x;
          break;
        }
        case Agg::kMean: v = mean(vals); break;
        case Agg::kMin:
          v = vals.empty() ? 0.0
                           : *std::min_element(vals.begin(), vals.end());
          break;
        case Agg::kMax:
          v = vals.empty() ? 0.0
                           : *std::max_element(vals.begin(), vals.end());
          break;
        case Agg::kStddev: v = stddev(vals); break;
        case Agg::kP50: v = percentile(vals, 0.50); break;
        case Agg::kP95: v = percentile(vals, 0.95); break;
        case Agg::kP99: v = percentile(vals, 0.99); break;
      }
      row[keys_.size() + s] = v;
    }
    out.append_row(row);
  }
  return out;
}


Table join(const Table& left, const Table& right,
           const std::vector<std::string>& keys,
           const std::string& right_prefix) {
  AMR_CHECK_MSG(!keys.empty(), "join needs at least one key column");
  std::vector<std::size_t> lkeys;
  std::vector<std::size_t> rkeys;
  for (const auto& k : keys) {
    const std::int32_t li = left.col_index(k);
    const std::int32_t ri = right.col_index(k);
    AMR_CHECK_MSG(li >= 0 && ri >= 0, "join key missing from a side");
    AMR_CHECK_MSG(left.col_type(static_cast<std::size_t>(li)) ==
                          ColType::kI64 &&
                      right.col_type(static_cast<std::size_t>(ri)) ==
                          ColType::kI64,
                  "join keys must be i64 columns");
    lkeys.push_back(static_cast<std::size_t>(li));
    rkeys.push_back(static_cast<std::size_t>(ri));
  }
  auto is_key = [&](const std::vector<std::size_t>& cols,
                    std::size_t c) {
    return std::find(cols.begin(), cols.end(), c) != cols.end();
  };

  // Output schema: keys, left payload, right payload.
  std::vector<ColumnDef> defs;
  for (const auto& k : keys) defs.push_back({k, ColType::kI64});
  std::vector<std::size_t> lpayload;
  for (std::size_t c = 0; c < left.num_cols(); ++c) {
    if (is_key(lkeys, c)) continue;
    defs.push_back(left.schema()[c]);
    lpayload.push_back(c);
  }
  std::vector<std::size_t> rpayload;
  for (std::size_t c = 0; c < right.num_cols(); ++c) {
    if (is_key(rkeys, c)) continue;
    ColumnDef def = right.schema()[c];
    for (const auto& existing : defs)
      if (existing.name == def.name) {
        def.name = right_prefix + def.name;
        break;
      }
    defs.push_back(std::move(def));
    rpayload.push_back(c);
  }
  Table out(left.name() + "*" + right.name(), std::move(defs));

  // Build the hash side (right).
  auto key_hash = [](std::span<const std::int64_t> key) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::int64_t v : key)
      h = hash64(h ^ static_cast<std::uint64_t>(v));
    return h;
  };
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  std::vector<std::vector<std::int64_t>> rkey_rows(right.num_rows());
  {
    std::vector<ColumnCursor<std::int64_t>> key_cells;
    for (const std::size_t c : rkeys) key_cells.emplace_back(right, c, true);
    for (std::size_t r = 0; r < right.num_rows(); ++r) {
      auto& key = rkey_rows[r];
      key.reserve(rkeys.size());
      for (auto& cells : key_cells) key.push_back(cells(r));
      buckets[key_hash(key)].push_back(r);
    }
  }

  // Left rows are scanned in order; right payload rows are visited in
  // bucket order, so they are read cell by cell.
  std::vector<ColumnCursor<std::int64_t>> lkey_cells;
  for (const std::size_t c : lkeys) lkey_cells.emplace_back(left, c, true);
  RowReader lcells(left, lpayload, true);
  RowReader rcells(right, rpayload, false);
  std::vector<CellValue> row(out.num_cols());
  std::vector<std::int64_t> lkey(lkeys.size());
  for (std::size_t lr = 0; lr < left.num_rows(); ++lr) {
    for (std::size_t i = 0; i < lkeys.size(); ++i) lkey[i] = lkey_cells[i](lr);
    const auto it = buckets.find(key_hash(lkey));
    if (it == buckets.end()) continue;
    for (const std::size_t rr : it->second) {
      if (rkey_rows[rr] != lkey) continue;
      std::size_t at = 0;
      for (const std::int64_t v : lkey) row[at++] = v;
      lcells.read(lr, row, at);
      rcells.read(rr, row, at + lpayload.size());
      out.append_row(row);
    }
  }
  return out;
}

}  // namespace amr
