// In-memory columnar table.
//
// The paper's analysis workflow converged on "structured schemas, binary
// formats, and relational queries" (§IV-C) after outgrowing trace files
// and CSV+pandas. Table is the core of that pipeline: a named, typed,
// append-only columnar store that the query engine (query.hpp) and the
// binary file format (binary_io.hpp) operate on.
//
// Storage (DESIGN.md "Telemetry storage"): every column is a run of
// sealed kChunkRows-row chunks plus a raw tail. A sealed i64 chunk is
// frame-of-reference bit-packed: its minimum, its maximum and
// bit_width(max - min) bits per row. f64 chunks stay raw doubles,
// bit-exact. Chunk boundaries sit at fixed row multiples, so the stored
// bytes depend only on the logical rows.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace amr {

enum class ColType : std::uint8_t { kI64 = 0, kF64 = 1 };

struct ColumnDef {
  std::string name;
  ColType type;
};

/// A cell value for row-wise appends. Integers are accepted into f64
/// columns (exact up to 2^53); doubles never silently truncate to i64.
using CellValue = std::variant<std::int64_t, double>;

class Table {
 public:
  /// Rows per sealed chunk. A multiple of 64, so a chunk of width w
  /// packs into exactly w * kChunkRows / 64 words.
  static constexpr std::size_t kChunkRows = 4096;
  static constexpr std::size_t kWordsPerBit = kChunkRows / 64;

  /// One sealed chunk of one column.
  struct Chunk {
    std::int64_t base = 0;   ///< i64: the chunk's minimum; f64: 0
    std::int64_t max = 0;    ///< i64: the chunk's maximum; f64: 0
    std::uint8_t width = 0;  ///< i64: bit_width(max - base); f64: 64
    /// width * kWordsPerBit words: row i's value - base in bits
    /// [i * width, (i + 1) * width), or the raw doubles of an f64 chunk.
    std::vector<std::uint64_t> words;
  };

  /// One column as stored: its sealed chunks, then the rows past the
  /// last chunk boundary as raw bits (two's complement or IEEE-754).
  struct Column {
    std::vector<Chunk> chunks;
    std::vector<std::uint64_t> tail;
  };

  Table() = default;
  Table(std::string name, std::vector<ColumnDef> defs);

  const std::string& name() const { return name_; }
  std::size_t num_rows() const { return rows_; }
  std::size_t num_cols() const { return defs_.size(); }
  const std::vector<ColumnDef>& schema() const { return defs_; }

  /// Column index by name; -1 if absent.
  std::int32_t col_index(std::string_view name) const;
  ColType col_type(std::size_t col) const { return defs_[col].type; }

  /// Append one row; cells must match the schema arity and types.
  void append_row(std::initializer_list<CellValue> cells);
  void append_row(std::span<const CellValue> cells);

  /// Append one row without a per-cell variant: one argument per column
  /// in schema order, std::int64_t for i64 columns and double for f64
  /// ones (an std::int64_t into an f64 column converts, as in
  /// append_row).
  template <typename... Cells>
  void append(Cells... cells) {
    static_assert(((std::is_same_v<Cells, std::int64_t> ||
                    std::is_same_v<Cells, double>) && ...),
                  "cells are std::int64_t or double");
    check_arity(sizeof...(Cells));
    std::size_t col = 0;
    (put(col++, cells), ...);
    end_row();
  }

  /// Typed whole-column copies, decoded (column must have that type).
  std::vector<std::int64_t> i64(std::string_view col) const;
  std::vector<double> f64(std::string_view col) const;
  std::vector<std::int64_t> i64(std::size_t col) const;
  std::vector<double> f64(std::size_t col) const;

  /// Generic numeric read of any cell as double; O(1).
  double value(std::size_t col, std::size_t row) const;
  /// Generic integer read (i64 column required); O(1).
  std::int64_t ivalue(std::size_t col, std::size_t row) const;

  /// Chunks a scan visits: the sealed ones, plus the tail when it holds
  /// rows. Chunk k covers rows [k * kChunkRows, ...).
  std::size_t num_chunks() const {
    return (rows_ + kChunkRows - 1) / kChunkRows;
  }
  /// Decode chunk `chunk` of a column into `out` (room for kChunkRows
  /// values); returns its row count. The std::int64_t overload needs an
  /// i64 column; the double one reads any column as doubles.
  std::size_t decode(std::size_t col, std::size_t chunk,
                     std::int64_t* out) const;
  std::size_t decode(std::size_t col, std::size_t chunk, double* out) const;

  /// Column min/max as doubles (the "embedded statistics" of columnar
  /// formats, used by binary_io). i64 columns read sealed chunks' headers
  /// only. 0/0 for empty tables.
  void column_stats(std::size_t col, double& min, double& max) const;

  /// A column's storage, as snapshots and the binary file write it.
  const Column& column(std::size_t col) const { return cols_[col]; }

  /// Replace all rows with stored columns (one per schema column).
  /// Returns an empty string on success. Otherwise the table is unchanged
  /// and the message names the first inconsistency: a width over 64 or
  /// not matching its chunk's range, a payload of the wrong word count,
  /// or chunk and tail counts that do not add up to `rows`.
  std::string load(std::uint64_t rows, std::vector<Column> cols);

  /// Drop all rows; schema and name are kept, storage is released.
  void clear();

  /// Heap bytes held by the column storage: encoded chunks plus the
  /// tails' capacity.
  std::size_t bytes_used() const;

  /// Render the first `max_rows` rows as an aligned text grid.
  std::string format(std::size_t max_rows = 20) const;

 private:
  std::size_t checked_col(std::string_view name, ColType type) const;
  void check_arity(std::size_t cells) const;
  void put(std::size_t col, std::int64_t v);
  void put(std::size_t col, double v);
  void end_row() {
    if (++rows_ % kChunkRows == 0) seal();
  }
  void seal();
  std::uint64_t bits(std::size_t col, std::size_t row) const;

  std::string name_;
  std::vector<ColumnDef> defs_;
  std::vector<Column> cols_;  // parallel to defs_
  std::size_t rows_ = 0;
};

}  // namespace amr
