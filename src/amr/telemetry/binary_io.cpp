#include "amr/telemetry/binary_io.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "amr/common/check.hpp"

namespace amr {
namespace {

constexpr char kMagic[4] = {'A', 'M', 'R', 'T'};
constexpr std::uint32_t kVersion = 2;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool write_pod(std::FILE* f, const T& v) {
  return std::fwrite(&v, sizeof(T), 1, f) == 1;
}

template <typename T>
void read_pod(std::FILE* f, T& v) {
  if (std::fread(&v, sizeof(T), 1, f) != 1)
    throw std::runtime_error("telemetry file truncated");
}

bool write_string(std::FILE* f, const std::string& s) {
  const auto len = static_cast<std::uint32_t>(s.size());
  return write_pod(f, len) &&
         (len == 0 || std::fwrite(s.data(), 1, len, f) == len);
}

std::string read_string(std::FILE* f) {
  std::uint32_t len = 0;
  read_pod(f, len);
  if (len > (1u << 20)) throw std::runtime_error("absurd string length");
  std::string s(len, '\0');
  if (len > 0 && std::fread(s.data(), 1, len, f) != len)
    throw std::runtime_error("telemetry file truncated");
  return s;
}

bool write_words(std::FILE* f, const std::vector<std::uint64_t>& words) {
  return write_pod(f, std::uint64_t{words.size()}) &&
         (words.empty() ||
          std::fwrite(words.data(), 8, words.size(), f) == words.size());
}

/// A u64 word count, at most `limit`, then that many words.
std::vector<std::uint64_t> read_words(std::FILE* f, std::size_t limit) {
  std::uint64_t n = 0;
  read_pod(f, n);
  if (n > limit)
    throw std::runtime_error("telemetry file: word count " +
                             std::to_string(n) + " exceeds " +
                             std::to_string(limit));
  std::vector<std::uint64_t> words(static_cast<std::size_t>(n));
  if (n > 0 && std::fread(words.data(), 8, words.size(), f) != words.size())
    throw std::runtime_error("telemetry file truncated");
  return words;
}

void read_header(std::FILE* f, std::string& name, std::uint32_t& ncols,
                 std::uint64_t& nrows) {
  char magic[4];
  if (std::fread(magic, 1, 4, f) != 4 ||
      std::memcmp(magic, kMagic, 4) != 0)
    throw std::runtime_error("not an AMRT telemetry file");
  std::uint32_t version = 0;
  read_pod(f, version);
  if (version != kVersion)
    throw std::runtime_error("unsupported telemetry file version");
  name = read_string(f);
  read_pod(f, ncols);
  read_pod(f, nrows);
  if (ncols == 0 || ncols > 4096)
    throw std::runtime_error("bad column count");
}

}  // namespace

bool write_table(const Table& table, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  if (std::fwrite(kMagic, 1, 4, f.get()) != 4) return false;
  if (!write_pod(f.get(), kVersion)) return false;
  if (!write_string(f.get(), table.name())) return false;
  const auto ncols = static_cast<std::uint32_t>(table.num_cols());
  const auto nrows = static_cast<std::uint64_t>(table.num_rows());
  if (!write_pod(f.get(), ncols) || !write_pod(f.get(), nrows))
    return false;
  for (std::size_t c = 0; c < table.num_cols(); ++c) {
    if (!write_string(f.get(), table.schema()[c].name)) return false;
    const auto type = static_cast<std::uint8_t>(table.col_type(c));
    double min = 0.0;
    double max = 0.0;
    table.column_stats(c, min, max);
    if (!write_pod(f.get(), type) || !write_pod(f.get(), min) ||
        !write_pod(f.get(), max))
      return false;
  }
  for (std::size_t c = 0; c < table.num_cols(); ++c) {
    const Table::Column& col = table.column(c);
    if (!write_pod(f.get(), std::uint64_t{col.chunks.size()})) return false;
    for (const Table::Chunk& ch : col.chunks)
      if (!write_pod(f.get(), ch.base) || !write_pod(f.get(), ch.max) ||
          !write_pod(f.get(), ch.width) || !write_words(f.get(), ch.words))
        return false;
    if (!write_words(f.get(), col.tail)) return false;
  }
  return true;
}

Table read_table(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("cannot open telemetry file: " + path);
  std::string name;
  std::uint32_t ncols = 0;
  std::uint64_t nrows = 0;
  read_header(f.get(), name, ncols, nrows);

  std::vector<ColumnDef> defs;
  defs.reserve(ncols);
  for (std::uint32_t c = 0; c < ncols; ++c) {
    ColumnDef def;
    def.name = read_string(f.get());
    std::uint8_t type = 0;
    read_pod(f.get(), type);
    if (type > 1) throw std::runtime_error("bad column type");
    def.type = static_cast<ColType>(type);
    double min_unused = 0.0;
    double max_unused = 0.0;
    read_pod(f.get(), min_unused);
    read_pod(f.get(), max_unused);
    defs.push_back(std::move(def));
  }

  Table table(name, defs);
  std::vector<Table::Column> cols(ncols);
  for (Table::Column& col : cols) {
    std::uint64_t nchunks = 0;
    read_pod(f.get(), nchunks);
    if (nchunks != nrows / Table::kChunkRows)
      throw std::runtime_error("telemetry file: chunk count " +
                               std::to_string(nchunks) +
                               " does not match the row count");
    for (std::uint64_t k = 0; k < nchunks; ++k) {
      Table::Chunk ch;
      read_pod(f.get(), ch.base);
      read_pod(f.get(), ch.max);
      read_pod(f.get(), ch.width);
      ch.words = read_words(f.get(), Table::kChunkRows);
      col.chunks.push_back(std::move(ch));
    }
    col.tail = read_words(f.get(), Table::kChunkRows - 1);
  }
  const std::string err = table.load(nrows, std::move(cols));
  if (!err.empty()) throw std::runtime_error("telemetry file: " + err);
  return table;
}

std::vector<ColumnStats> read_table_stats(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("cannot open telemetry file: " + path);
  std::string name;
  std::uint32_t ncols = 0;
  std::uint64_t nrows = 0;
  read_header(f.get(), name, ncols, nrows);
  std::vector<ColumnStats> out;
  out.reserve(ncols);
  for (std::uint32_t c = 0; c < ncols; ++c) {
    ColumnStats s;
    s.name = read_string(f.get());
    std::uint8_t type = 0;
    read_pod(f.get(), type);
    if (type > 1) throw std::runtime_error("bad column type");
    s.type = static_cast<ColType>(type);
    read_pod(f.get(), s.min);
    read_pod(f.get(), s.max);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace amr
