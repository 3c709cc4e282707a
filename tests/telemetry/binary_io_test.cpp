#include "amr/telemetry/binary_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

namespace amr {
namespace {

class BinaryIoTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("amrt_test_" + std::to_string(::getpid()) + ".bin"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

Table sample_table() {
  Table t("phases", {{"step", ColType::kI64},
                     {"rank", ColType::kI64},
                     {"dur", ColType::kF64}});
  for (std::int64_t s = 0; s < 10; ++s)
    for (std::int64_t r = 0; r < 4; ++r)
      t.append_row({s, r, static_cast<double>(s * 10 + r) / 3.0});
  return t;
}

TEST_F(BinaryIoTest, RoundTripPreservesEverything) {
  const Table original = sample_table();
  ASSERT_TRUE(write_table(original, path_));
  const Table loaded = read_table(path_);
  EXPECT_EQ(loaded.name(), original.name());
  ASSERT_EQ(loaded.num_rows(), original.num_rows());
  ASSERT_EQ(loaded.num_cols(), original.num_cols());
  for (std::size_t c = 0; c < original.num_cols(); ++c) {
    EXPECT_EQ(loaded.schema()[c].name, original.schema()[c].name);
    EXPECT_EQ(loaded.schema()[c].type, original.schema()[c].type);
    for (std::size_t r = 0; r < original.num_rows(); ++r)
      EXPECT_EQ(loaded.value(c, r), original.value(c, r));
  }
}

TEST_F(BinaryIoTest, EmptyTableRoundTrips) {
  const Table empty("empty", {{"x", ColType::kF64}});
  ASSERT_TRUE(write_table(empty, path_));
  const Table loaded = read_table(path_);
  EXPECT_EQ(loaded.num_rows(), 0u);
  EXPECT_EQ(loaded.name(), "empty");
}

TEST_F(BinaryIoTest, StatsReadableWithoutDataScan) {
  ASSERT_TRUE(write_table(sample_table(), path_));
  const auto stats = read_table_stats(path_);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].name, "step");
  EXPECT_DOUBLE_EQ(stats[0].min, 0.0);
  EXPECT_DOUBLE_EQ(stats[0].max, 9.0);
  EXPECT_EQ(stats[2].type, ColType::kF64);
  EXPECT_DOUBLE_EQ(stats[2].max, 93.0 / 3.0);
}

TEST_F(BinaryIoTest, RejectsGarbageFile) {
  FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a telemetry file at all", f);
  std::fclose(f);
  EXPECT_THROW(read_table(path_), std::runtime_error);
}

TEST_F(BinaryIoTest, RejectsTruncatedFile) {
  ASSERT_TRUE(write_table(sample_table(), path_));
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size / 2);
  EXPECT_THROW(read_table(path_), std::runtime_error);
}

TEST_F(BinaryIoTest, MissingFileThrows) {
  EXPECT_THROW(read_table("/nonexistent/nowhere.bin"),
               std::runtime_error);
}

TEST_F(BinaryIoTest, ZeroRowMultiColumnRoundTrips) {
  // A run that never recorded telemetry still snapshots its (empty)
  // tables; schema and stats must survive with zero rows.
  const Table empty("phases", {{"step", ColType::kI64},
                               {"rank", ColType::kI64},
                               {"dur", ColType::kF64}});
  ASSERT_TRUE(write_table(empty, path_));
  const Table loaded = read_table(path_);
  EXPECT_EQ(loaded.num_rows(), 0u);
  ASSERT_EQ(loaded.num_cols(), 3u);
  EXPECT_EQ(loaded.schema()[2].name, "dur");
  EXPECT_EQ(loaded.schema()[2].type, ColType::kF64);
  const auto stats = read_table_stats(path_);
  ASSERT_EQ(stats.size(), 3u);
}

TEST_F(BinaryIoTest, EmptyStringNamesRoundTrip) {
  // Zero-length table and column names are valid (length-prefixed
  // strings, not NUL-terminated): nothing may misparse the empty case.
  Table anon("", {{"", ColType::kI64}, {"x", ColType::kF64}});
  anon.append_row({std::int64_t{7}, 2.5});
  ASSERT_TRUE(write_table(anon, path_));
  const Table loaded = read_table(path_);
  EXPECT_EQ(loaded.name(), "");
  ASSERT_EQ(loaded.num_cols(), 2u);
  EXPECT_EQ(loaded.schema()[0].name, "");
  ASSERT_EQ(loaded.num_rows(), 1u);
  EXPECT_EQ(loaded.ivalue(0, 0), 7);
  EXPECT_EQ(loaded.value(1, 0), 2.5);
}

/// Two sealed chunks (a constant column and a 3-bit one) plus a tail.
Table chunked_table() {
  Table t("chunked", {{"flat", ColType::kI64}, {"small", ColType::kI64}});
  const auto rows = static_cast<std::int64_t>(2 * Table::kChunkRows + 5);
  for (std::int64_t r = 0; r < rows; ++r) t.append(std::int64_t{9}, r % 7);
  return t;
}

TEST_F(BinaryIoTest, EveryTruncationFailsCleanly) {
  // Cutting the file at any byte must throw the clean "truncated"
  // diagnostic from read_table, never crash or return partial data.
  for (const Table& t : {sample_table(), chunked_table()}) {
    ASSERT_TRUE(write_table(t, path_));
    const Table whole = read_table(path_);
    ASSERT_EQ(whole.num_rows(), t.num_rows());
    EXPECT_EQ(whole.i64(0), t.i64(0));
    const auto size =
        static_cast<std::uintmax_t>(std::filesystem::file_size(path_));
    for (std::uintmax_t len = 0; len < size; ++len) {
      std::filesystem::resize_file(path_, len);
      EXPECT_THROW(read_table(path_), std::runtime_error)
          << t.name() << ": truncation to " << len << " bytes was accepted";
      // Restore for the next iteration's shorter cut.
      ASSERT_TRUE(write_table(t, path_));
    }
  }
}

/// A hand-built version-2 file of one i64 column "v": `nchunks` chunks
/// of the given width (base 0, max the width's largest value) with
/// `nwords` zero words each, then `ntail` raw rows.
std::string one_column_file(std::uint64_t nrows, std::uint64_t nchunks,
                            std::uint8_t width, std::uint64_t nwords,
                            std::uint64_t ntail) {
  std::string b = "AMRT";
  auto pod = [&](auto v) {
    b.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  auto str = [&](const std::string& s) {
    pod(static_cast<std::uint32_t>(s.size()));
    b += s;
  };
  pod(std::uint32_t{2});
  str("t");
  pod(std::uint32_t{1});
  pod(nrows);
  str("v");
  pod(std::uint8_t{0});
  pod(0.0);
  pod(0.0);
  pod(nchunks);
  for (std::uint64_t k = 0; k < nchunks; ++k) {
    pod(std::int64_t{0});
    pod(width >= 63 ? std::numeric_limits<std::int64_t>::max()
                    : (std::int64_t{1} << width) - 1);
    pod(width);
    pod(nwords);
    // An absurd count gets a short payload: the reader must refuse the
    // count before it allocates.
    b.append(std::min<std::uint64_t>(nwords, 8192) * 8, '\0');
  }
  pod(ntail);
  b.append(ntail * 8, '\0');
  return b;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_error(const std::string& path) {
  try {
    read_table(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(BinaryIoTest, MalformedChunksAreRefusedByName) {
  constexpr std::uint64_t kRows = Table::kChunkRows + 5;
  write_bytes(path_, one_column_file(kRows, 1, 3, 192, 5));
  const Table ok = read_table(path_);  // the well-formed baseline
  EXPECT_EQ(ok.num_rows(), kRows);
  EXPECT_EQ(ok.ivalue(0, 0), 0);

  write_bytes(path_, one_column_file(kRows, 1, 65, 4096, 5));
  EXPECT_NE(read_error(path_).find("width 65 exceeds 64"),
            std::string::npos);
  write_bytes(path_, one_column_file(kRows, 1, 3, 191, 5));
  EXPECT_NE(read_error(path_).find("payload of 191 words, not 192"),
            std::string::npos);
  write_bytes(path_, one_column_file(kRows, 2, 3, 192, 5));
  EXPECT_NE(read_error(path_).find("chunk count 2"), std::string::npos);
  write_bytes(path_, one_column_file(kRows, 1, 3, 192, 4));
  EXPECT_NE(read_error(path_).find("row count"), std::string::npos);
  write_bytes(path_, one_column_file(kRows, 1, 3, 1u << 30, 5));
  EXPECT_NE(read_error(path_).find("word count"), std::string::npos);
}

TEST_F(BinaryIoTest, StatsComeFromChunkHeaders) {
  Table t("t", {{"v", ColType::kI64}});
  for (std::int64_t r = 0; r < static_cast<std::int64_t>(Table::kChunkRows);
       ++r)
    t.append(r == 17 ? std::int64_t{-5} : r);
  t.append(std::int64_t{1} << 40);  // in the tail
  ASSERT_TRUE(write_table(t, path_));
  const auto stats = read_table_stats(path_);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].min, -5.0);
  EXPECT_EQ(stats[0].max, static_cast<double>(std::int64_t{1} << 40));
}

}  // namespace
}  // namespace amr
