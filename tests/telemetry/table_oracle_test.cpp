// Table against a raw-vector reference model: every read path (cells,
// whole columns, Query scans) must return exactly the appended values,
// and every sealed chunk must carry the frame-of-reference header its
// rows imply, across chunk boundaries, extreme ranges and special
// doubles.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "amr/common/rng.hpp"
#include "amr/telemetry/query.hpp"
#include "amr/telemetry/table.hpp"

namespace amr {
namespace {

constexpr std::size_t kChunk = Table::kChunkRows;
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

// Columns: key (small range, the group/join key), flat (constant: width
// 0), wide (INT64_MIN and INT64_MAX in every chunk: width 64), mixed
// (a different width per chunk, negative values), x (f64 with NaN, -0.0
// and infinities).
const std::vector<ColumnDef> kSchema = {{"key", ColType::kI64},
                                        {"flat", ColType::kI64},
                                        {"wide", ColType::kI64},
                                        {"mixed", ColType::kI64},
                                        {"x", ColType::kF64}};

struct Row {
  std::int64_t key, flat, wide, mixed;
  double x;
};

Row make_row(std::size_t r, Rng& rng) {
  const std::size_t chunk = r / kChunk;
  Row row{};
  row.key = static_cast<std::int64_t>(rng.next() % 7);
  row.flat = 42;
  const std::uint64_t pick = rng.next() % 4;
  row.wide = r % kChunk == 0   ? kMin
             : r % kChunk == 1 ? kMax
             : pick == 0       ? kMin
             : pick == 1       ? kMax
                               : static_cast<std::int64_t>(rng.next());
  const unsigned width = static_cast<unsigned>((chunk * 13) % 63);
  const std::uint64_t span =
      width == 0 ? 1 : (std::uint64_t{1} << width);
  row.mixed = -1000000007 + static_cast<std::int64_t>(rng.next() % span);
  switch (rng.next() % 6) {
    case 0: row.x = std::numeric_limits<double>::quiet_NaN(); break;
    case 1: row.x = -0.0; break;
    case 2: row.x = std::numeric_limits<double>::infinity(); break;
    default: row.x = rng.uniform() * 1e9 - 5e8; break;
  }
  return row;
}

/// The reference model: rows as appended.
struct Reference {
  std::vector<Row> rows;

  std::int64_t i64(std::size_t col, std::size_t r) const {
    const Row& row = rows[r];
    switch (col) {
      case 0: return row.key;
      case 1: return row.flat;
      case 2: return row.wide;
      default: return row.mixed;
    }
  }
  double value(std::size_t col, std::size_t r) const {
    return col == 4 ? rows[r].x : static_cast<double>(i64(col, r));
  }
};

void append(Table& t, Reference& ref, std::size_t n, Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    const Row row = make_row(ref.rows.size(), rng);
    ref.rows.push_back(row);
    t.append(row.key, row.flat, row.wide, row.mixed, row.x);
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every sealed chunk's header is the frame of reference of its rows.
void expect_chunks_match(const Table& t, const Reference& ref) {
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    const Table::Column& col = t.column(c);
    ASSERT_EQ(col.chunks.size(), ref.rows.size() / kChunk);
    ASSERT_EQ(col.tail.size(), ref.rows.size() % kChunk);
    for (std::size_t k = 0; k < col.chunks.size(); ++k) {
      const Table::Chunk& ch = col.chunks[k];
      if (c == 4) {
        EXPECT_EQ(unsigned{ch.width}, 64u) << "f64 chunk " << k;
        continue;
      }
      std::int64_t lo = kMax;
      std::int64_t hi = kMin;
      for (std::size_t r = k * kChunk; r < (k + 1) * kChunk; ++r) {
        lo = std::min(lo, ref.i64(c, r));
        hi = std::max(hi, ref.i64(c, r));
      }
      const auto want = static_cast<unsigned>(std::bit_width(
          static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo)));
      EXPECT_EQ(ch.base, lo) << "col " << c << " chunk " << k;
      EXPECT_EQ(ch.max, hi) << "col " << c << " chunk " << k;
      EXPECT_EQ(unsigned{ch.width}, want) << "col " << c << " chunk " << k;
      EXPECT_EQ(ch.words.size(), want * Table::kWordsPerBit)
          << "col " << c << " chunk " << k;
    }
  }
}

void expect_table_matches(const Table& t, const Reference& ref) {
  ASSERT_EQ(t.num_rows(), ref.rows.size());
  expect_chunks_match(t, ref);
  for (std::size_t c = 0; c < 4; ++c) {
    const std::vector<std::int64_t> col = t.i64(c);
    ASSERT_EQ(col.size(), ref.rows.size());
    for (std::size_t r = 0; r < ref.rows.size(); ++r) {
      ASSERT_EQ(col[r], ref.i64(c, r)) << "i64() col " << c << " row " << r;
      ASSERT_EQ(t.ivalue(c, r), ref.i64(c, r)) << "col " << c << " row " << r;
      ASSERT_EQ(t.value(c, r), ref.value(c, r)) << "col " << c << " row " << r;
    }
  }
  const std::vector<double> xs = t.f64("x");
  ASSERT_EQ(xs.size(), ref.rows.size());
  for (std::size_t r = 0; r < ref.rows.size(); ++r) {
    ASSERT_EQ(bits(xs[r]), bits(ref.rows[r].x)) << "f64() row " << r;
    ASSERT_EQ(bits(t.value(4, r)), bits(ref.rows[r].x)) << "row " << r;
  }
}

void expect_queries_match(const Table& t, const Reference& ref) {
  const std::size_t n = ref.rows.size();

  // run() of everything: every cell, bit for bit.
  const Table all = Query(t).run();
  ASSERT_EQ(all.num_rows(), n);
  for (std::size_t c = 0; c < 5; ++c)
    for (std::size_t r = 0; r < n; ++r)
      ASSERT_EQ(bits(all.value(c, r)), bits(ref.value(c, r)))
          << "run() col " << c << " row " << r;

  // filter_i64 + filter + values.
  Query q(t);
  q.filter_i64("key", [](std::int64_t k) { return k != 3; })
      .filter("mixed", [](double v) { return v < -999999000.0; });
  std::vector<double> want;
  for (std::size_t r = 0; r < n; ++r)
    if (ref.rows[r].key != 3 && static_cast<double>(ref.rows[r].mixed) <
                                    -999999000.0)
      want.push_back(static_cast<double>(ref.rows[r].wide));
  const std::vector<double> got = q.values("wide");
  ASSERT_EQ(got, want);
  EXPECT_EQ(q.count(), want.size());

  // group_by + agg against a naive fold, in first-appearance order.
  const Table agg = Query(t).group_by({"key"}).agg(
      {{"", Agg::kCount, "n"},
       {"mixed", Agg::kSum, "sum"},
       {"wide", Agg::kMin, "lo"},
       {"flat", Agg::kMax, "hi"}});
  std::vector<std::int64_t> order;
  std::map<std::int64_t, std::vector<double>> sums;
  std::map<std::int64_t, double> lo;
  for (std::size_t r = 0; r < n; ++r) {
    const Row& row = ref.rows[r];
    if (!sums.count(row.key)) {
      order.push_back(row.key);
      lo[row.key] = static_cast<double>(row.wide);
    }
    sums[row.key].push_back(static_cast<double>(row.mixed));
    lo[row.key] = std::min(lo[row.key], static_cast<double>(row.wide));
  }
  ASSERT_EQ(agg.num_rows(), order.size());
  for (std::size_t g = 0; g < order.size(); ++g) {
    const std::int64_t key = order[g];
    double sum = 0.0;
    for (const double v : sums[key]) sum += v;
    EXPECT_EQ(agg.ivalue(0, g), key);
    EXPECT_EQ(agg.value(1, g), static_cast<double>(sums[key].size()));
    EXPECT_EQ(bits(agg.value(2, g)), bits(sum));
    EXPECT_EQ(agg.value(3, g), lo[key]);
    EXPECT_EQ(agg.value(4, g), 42.0);
  }

  // sort_by (stable, descending) + limit + run over a permuted selection.
  Query sorted(t);
  sorted.sort_by("key", /*descending=*/true).limit(n / 2 + 1);
  std::vector<std::size_t> idx(n);
  for (std::size_t r = 0; r < n; ++r) idx[r] = r;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return ref.rows[a].key > ref.rows[b].key;
  });
  idx.resize(std::min(n, n / 2 + 1));
  const Table top = sorted.run();
  ASSERT_EQ(top.num_rows(), idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i)
    for (std::size_t c = 0; c < 5; ++c)
      ASSERT_EQ(bits(top.value(c, i)), bits(ref.value(c, idx[i])))
          << "sorted row " << i << " col " << c;

  // join on key against a small dimension table.
  Table dim("dim", {{"key", ColType::kI64}, {"label", ColType::kI64}});
  for (std::int64_t k = 0; k < 7; k += 2) dim.append(k, 100 + k);
  const Table joined = join(t, dim, {"key"});
  std::size_t at = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (ref.rows[r].key % 2 != 0) continue;
    ASSERT_LT(at, joined.num_rows());
    EXPECT_EQ(joined.ivalue(0, at), ref.rows[r].key);
    EXPECT_EQ(joined.ivalue(3, at), ref.rows[r].mixed);
    EXPECT_EQ(bits(joined.value(4, at)), bits(ref.rows[r].x));
    EXPECT_EQ(joined.ivalue(5, at), 100 + ref.rows[r].key);
    ++at;
  }
  EXPECT_EQ(at, joined.num_rows());
}

class TableOracle : public testing::TestWithParam<std::size_t> {};

TEST_P(TableOracle, EveryReadMatchesTheReference) {
  Rng rng(GetParam() + 1);
  Table t("oracle", kSchema);
  Reference ref;
  append(t, ref, GetParam(), rng);
  expect_table_matches(t, ref);
  expect_queries_match(t, ref);

  // A copy reads the same, and owns its storage.
  Table copy = t;
  t.clear();
  expect_table_matches(copy, ref);
  expect_queries_match(copy, ref);

  // clear() drops every row and all storage; appends start over.
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.bytes_used(), 0u);
  Reference fresh;
  append(t, fresh, GetParam(), rng);
  expect_table_matches(t, fresh);
}

TEST_P(TableOracle, AppendAfterRestoreEncodesLikeOneTable) {
  Rng rng(GetParam() + 7);
  Table whole("oracle", kSchema);
  Reference ref;
  append(whole, ref, GetParam(), rng);

  // Restore the stored columns into a new table, then append past the
  // next chunk boundary on both.
  std::vector<Table::Column> stored;
  for (std::size_t c = 0; c < whole.num_cols(); ++c)
    stored.push_back(whole.column(c));
  Table restored("oracle", kSchema);
  ASSERT_EQ(restored.load(whole.num_rows(), std::move(stored)), "");
  Reference extended = ref;
  append(restored, extended, kChunk + 3, rng);
  for (std::size_t r = ref.rows.size(); r < extended.rows.size(); ++r) {
    const Row& row = extended.rows[r];
    whole.append(row.key, row.flat, row.wide, row.mixed, row.x);
  }
  expect_table_matches(restored, extended);
  for (std::size_t c = 0; c < whole.num_cols(); ++c) {
    const Table::Column& a = whole.column(c);
    const Table::Column& b = restored.column(c);
    ASSERT_EQ(a.chunks.size(), b.chunks.size());
    for (std::size_t k = 0; k < a.chunks.size(); ++k) {
      EXPECT_EQ(a.chunks[k].base, b.chunks[k].base);
      EXPECT_EQ(a.chunks[k].max, b.chunks[k].max);
      EXPECT_EQ(a.chunks[k].width, b.chunks[k].width);
      EXPECT_EQ(a.chunks[k].words, b.chunks[k].words);
    }
    EXPECT_EQ(a.tail, b.tail);
  }
}

INSTANTIATE_TEST_SUITE_P(RowCounts, TableOracle,
                         testing::Values(0, 1, kChunk - 1, kChunk,
                                         kChunk + 1, 3 * kChunk + 5));

TEST(TableStorage, LoadRefusesInconsistentChunks) {
  Table t("t", {{"v", ColType::kI64}});
  for (std::int64_t r = 0; r < static_cast<std::int64_t>(kChunk) + 2; ++r)
    t.append(r % 5);
  auto stored = [&] { return std::vector<Table::Column>{t.column(0)}; };
  Table into("t", {{"v", ColType::kI64}});
  ASSERT_EQ(into.load(t.num_rows(), stored()), "");

  std::vector<Table::Column> wide = stored();
  wide[0].chunks[0].width = 65;
  wide[0].chunks[0].words.resize(65 * Table::kWordsPerBit);
  EXPECT_NE(into.load(t.num_rows(), wide).find("width 65 exceeds 64"),
            std::string::npos);
  std::vector<Table::Column> off = stored();
  off[0].chunks[0].width += 1;
  off[0].chunks[0].words.resize(off[0].chunks[0].width * Table::kWordsPerBit);
  EXPECT_NE(into.load(t.num_rows(), off).find("does not match its range"),
            std::string::npos);
  std::vector<Table::Column> shorter = stored();
  shorter[0].chunks[0].words.pop_back();
  EXPECT_NE(into.load(t.num_rows(), shorter).find("payload"),
            std::string::npos);
  EXPECT_NE(into.load(t.num_rows() + 1, stored()).find("row count"),
            std::string::npos);
  // A refused load leaves the table as it was.
  EXPECT_EQ(into.num_rows(), t.num_rows());
  EXPECT_EQ(into.i64("v"), t.i64("v"));
}

}  // namespace
}  // namespace amr
