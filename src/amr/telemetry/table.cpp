#include "amr/telemetry/table.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "amr/common/check.hpp"

namespace amr {
namespace {

std::uint64_t to_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double to_double(std::uint64_t b) { return std::bit_cast<double>(b); }

/// Row i of a packed chunk, before adding the base.
std::uint64_t unpack(const std::uint64_t* words, unsigned width,
                     std::size_t i) {
  if (width == 0) return 0;
  const std::size_t bit = i * width;
  const unsigned shift = bit & 63;
  std::uint64_t v = words[bit >> 6] >> shift;
  if (shift + width > 64) v |= words[(bit >> 6) + 1] << (64 - shift);
  return width == 64 ? v : v & ((std::uint64_t{1} << width) - 1);
}

unsigned range_width(std::int64_t min, std::int64_t max) {
  return static_cast<unsigned>(std::bit_width(
      static_cast<std::uint64_t>(max) - static_cast<std::uint64_t>(min)));
}

Table::Chunk pack_i64(const std::vector<std::uint64_t>& raw) {
  Table::Chunk ch;
  const auto [lo, hi] = std::minmax_element(
      raw.begin(), raw.end(), [](std::uint64_t a, std::uint64_t b) {
        return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
      });
  ch.base = static_cast<std::int64_t>(*lo);
  ch.max = static_cast<std::int64_t>(*hi);
  const unsigned width = range_width(ch.base, ch.max);
  ch.width = static_cast<std::uint8_t>(width);
  if (width == 0) return ch;
  ch.words.assign(width * Table::kWordsPerBit, 0);
  const auto base = static_cast<std::uint64_t>(ch.base);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::uint64_t v = raw[i] - base;
    const std::size_t bit = i * width;
    const unsigned shift = bit & 63;
    ch.words[bit >> 6] |= v << shift;
    if (shift + width > 64) ch.words[(bit >> 6) + 1] |= v >> (64 - shift);
  }
  return ch;
}

/// Chunk `chunk` of an i64 column (the tail when it is past the sealed
/// ones), converted to T.
template <typename T>
std::size_t decode_ints(const Table::Column& c, std::size_t chunk, T* out) {
  if (chunk == c.chunks.size()) {
    for (std::size_t i = 0; i < c.tail.size(); ++i)
      out[i] = static_cast<T>(static_cast<std::int64_t>(c.tail[i]));
    return c.tail.size();
  }
  const Table::Chunk& ch = c.chunks[chunk];
  const auto base = static_cast<std::uint64_t>(ch.base);
  for (std::size_t i = 0; i < Table::kChunkRows; ++i)
    out[i] = static_cast<T>(static_cast<std::int64_t>(
        base + unpack(ch.words.data(), ch.width, i)));
  return Table::kChunkRows;
}

}  // namespace

Table::Table(std::string name, std::vector<ColumnDef> defs)
    : name_(std::move(name)), defs_(std::move(defs)), cols_(defs_.size()) {
  AMR_CHECK_MSG(!defs_.empty(), "table needs at least one column");
  for (std::size_t i = 0; i < defs_.size(); ++i)
    for (std::size_t j = i + 1; j < defs_.size(); ++j)
      AMR_CHECK_MSG(defs_[i].name != defs_[j].name,
                    "duplicate column name");
}

std::int32_t Table::col_index(std::string_view name) const {
  for (std::size_t i = 0; i < defs_.size(); ++i)
    if (defs_[i].name == name) return static_cast<std::int32_t>(i);
  return -1;
}

void Table::check_arity(std::size_t cells) const {
  AMR_CHECK_MSG(cells == defs_.size(), "row arity mismatch");
}

void Table::put(std::size_t col, std::int64_t v) {
  cols_[col].tail.push_back(defs_[col].type == ColType::kI64
                                ? static_cast<std::uint64_t>(v)
                                : to_bits(static_cast<double>(v)));
}

void Table::put(std::size_t col, double v) {
  AMR_CHECK_MSG(defs_[col].type == ColType::kF64,
                "double value into i64 column");
  cols_[col].tail.push_back(to_bits(v));
}

void Table::append_row(std::initializer_list<CellValue> cells) {
  append_row(std::span<const CellValue>(cells.begin(), cells.size()));
}

void Table::append_row(std::span<const CellValue> cells) {
  check_arity(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c)
    std::visit([&](auto v) { put(c, v); }, cells[c]);
  end_row();
}

void Table::seal() {
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    Column& col = cols_[c];
    if (defs_[c].type == ColType::kI64) {
      col.chunks.push_back(pack_i64(col.tail));
    } else {
      Chunk ch;
      ch.width = 64;
      ch.words = col.tail;
      col.chunks.push_back(std::move(ch));
    }
    col.tail.clear();
  }
}

std::size_t Table::checked_col(std::string_view name, ColType type) const {
  const std::int32_t idx = col_index(name);
  AMR_CHECK_MSG(idx >= 0, "no such column");
  AMR_CHECK_MSG(defs_[static_cast<std::size_t>(idx)].type == type,
                "column type mismatch");
  return static_cast<std::size_t>(idx);
}

std::vector<std::int64_t> Table::i64(std::string_view col) const {
  return i64(checked_col(col, ColType::kI64));
}

std::vector<double> Table::f64(std::string_view col) const {
  return f64(checked_col(col, ColType::kF64));
}

std::vector<std::int64_t> Table::i64(std::size_t col) const {
  AMR_CHECK_MSG(defs_[col].type == ColType::kI64, "column type mismatch");
  std::vector<std::int64_t> out(rows_);
  for (std::size_t k = 0; k < num_chunks(); ++k)
    decode(col, k, out.data() + k * kChunkRows);
  return out;
}

std::vector<double> Table::f64(std::size_t col) const {
  AMR_CHECK_MSG(defs_[col].type == ColType::kF64, "column type mismatch");
  std::vector<double> out(rows_);
  for (std::size_t k = 0; k < num_chunks(); ++k)
    decode(col, k, out.data() + k * kChunkRows);
  return out;
}

std::uint64_t Table::bits(std::size_t col, std::size_t row) const {
  AMR_CHECK(col < defs_.size() && row < rows_);
  const Column& c = cols_[col];
  const std::size_t k = row / kChunkRows;
  if (k == c.chunks.size()) return c.tail[row % kChunkRows];
  const Chunk& ch = c.chunks[k];
  return static_cast<std::uint64_t>(ch.base) +
         unpack(ch.words.data(), ch.width, row % kChunkRows);
}

double Table::value(std::size_t col, std::size_t row) const {
  const std::uint64_t b = bits(col, row);
  return defs_[col].type == ColType::kI64
             ? static_cast<double>(static_cast<std::int64_t>(b))
             : to_double(b);
}

std::int64_t Table::ivalue(std::size_t col, std::size_t row) const {
  AMR_CHECK(col < defs_.size() && defs_[col].type == ColType::kI64);
  return static_cast<std::int64_t>(bits(col, row));
}

std::size_t Table::decode(std::size_t col, std::size_t chunk,
                          std::int64_t* out) const {
  AMR_CHECK(col < defs_.size() && defs_[col].type == ColType::kI64 &&
            chunk < num_chunks());
  return decode_ints(cols_[col], chunk, out);
}

std::size_t Table::decode(std::size_t col, std::size_t chunk,
                          double* out) const {
  AMR_CHECK(col < defs_.size() && chunk < num_chunks());
  const Column& c = cols_[col];
  if (defs_[col].type == ColType::kI64) return decode_ints(c, chunk, out);
  const std::vector<std::uint64_t>& raw =
      chunk == c.chunks.size() ? c.tail : c.chunks[chunk].words;
  for (std::size_t i = 0; i < raw.size(); ++i) out[i] = to_double(raw[i]);
  return raw.size();
}

std::string Table::load(std::uint64_t rows, std::vector<Column> cols) {
  if (cols.size() != defs_.size()) return "column count does not match";
  for (std::size_t c = 0; c < cols.size(); ++c) {
    const Column& col = cols[c];
    const std::string where = "column '" + defs_[c].name + "' ";
    if (col.chunks.size() != rows / kChunkRows ||
        col.tail.size() != rows % kChunkRows)
      return where + "chunk and tail counts do not match the row count";
    const bool ints = defs_[c].type == ColType::kI64;
    for (std::size_t k = 0; k < col.chunks.size(); ++k) {
      const Chunk& ch = col.chunks[k];
      const std::string at = where + "chunk " + std::to_string(k) + ": ";
      if (ch.width > 64)
        return at + "width " + std::to_string(ch.width) + " exceeds 64";
      if (ints ? ch.max < ch.base || ch.width != range_width(ch.base, ch.max)
               : ch.width != 64 || ch.base != 0 || ch.max != 0)
        return at + "width " + std::to_string(ch.width) +
               " does not match its range";
      if (ch.words.size() != ch.width * kWordsPerBit)
        return at + "payload of " + std::to_string(ch.words.size()) +
               " words, not " + std::to_string(ch.width * kWordsPerBit);
    }
  }
  cols_ = std::move(cols);
  rows_ = static_cast<std::size_t>(rows);
  return "";
}

void Table::clear() {
  for (auto& c : cols_) c = Column{};
  rows_ = 0;
}

std::size_t Table::bytes_used() const {
  std::size_t bytes = 0;
  for (const Column& c : cols_) {
    bytes += c.chunks.capacity() * sizeof(Chunk) +
             c.tail.capacity() * sizeof(std::uint64_t);
    for (const Chunk& ch : c.chunks)
      bytes += ch.words.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

void Table::column_stats(std::size_t col, double& min, double& max) const {
  min = 0.0;
  max = 0.0;
  if (rows_ == 0) return;
  min = value(col, 0);
  max = min;
  const Column& c = cols_[col];
  std::size_t from = 1;
  if (defs_[col].type == ColType::kI64) {
    // Sealed chunks carry their range; only the tail is scanned.
    for (const Chunk& ch : c.chunks) {
      min = std::min(min, static_cast<double>(ch.base));
      max = std::max(max, static_cast<double>(ch.max));
    }
    from = std::max(from, c.chunks.size() * kChunkRows);
  }
  for (std::size_t r = from; r < rows_; ++r) {
    const double v = value(col, r);
    min = std::min(min, v);
    max = std::max(max, v);
  }
}

std::string Table::format(std::size_t max_rows) const {
  std::string out = "table " + name_ + " (" + std::to_string(rows_) +
                    " rows)\n";
  for (const auto& def : defs_) {
    out += def.name;
    out += '\t';
  }
  out += '\n';
  char buf[64];
  const std::size_t limit = std::min(rows_, max_rows);
  for (std::size_t r = 0; r < limit; ++r) {
    for (std::size_t c = 0; c < defs_.size(); ++c) {
      if (defs_[c].type == ColType::kI64)
        std::snprintf(buf, sizeof(buf), "%lld\t",
                      static_cast<long long>(ivalue(c, r)));
      else
        std::snprintf(buf, sizeof(buf), "%.6g\t", value(c, r));
      out += buf;
    }
    out += '\n';
  }
  if (limit < rows_) out += "...\n";
  return out;
}

}  // namespace amr
