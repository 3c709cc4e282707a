#include "amr/io/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace amr::io {
namespace {

std::vector<std::uint8_t> sample_snapshot() {
  SnapshotWriter w;
  w.begin_section("scalars");
  w.field(std::uint8_t{0xab});
  w.field(std::uint32_t{0xdeadbeefu});
  w.field(std::uint64_t{0x0123456789abcdefull});
  w.field(std::int32_t{-7});
  w.field(std::int64_t{-1234567890123ll});
  w.field(true);
  w.field(false);
  w.field(0.1);  // not exactly representable: must round-trip bit-exact
  w.end_section();
  w.begin_section("strings");
  w.field("hello");
  w.field(std::string());
  w.end_section();
  w.begin_section("vectors");
  w.field(std::vector<std::int64_t>{1, -2, 3});
  w.field(std::vector<double>{});
  w.end_section();
  return w.finish();
}

/// Read one field of type T.
template <typename T>
T get(SnapshotReader& r) {
  T v{};
  r.field(v);
  return v;
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  SnapshotReader r(sample_snapshot());
  r.begin_section("scalars");
  EXPECT_EQ(get<std::uint8_t>(r), 0xab);
  EXPECT_EQ(get<std::uint32_t>(r), 0xdeadbeefu);
  EXPECT_EQ(get<std::uint64_t>(r), 0x0123456789abcdefull);
  EXPECT_EQ(get<std::int32_t>(r), -7);
  EXPECT_EQ(get<std::int64_t>(r), -1234567890123ll);
  EXPECT_TRUE(get<bool>(r));
  EXPECT_FALSE(get<bool>(r));
  EXPECT_EQ(get<double>(r), 0.1);
  r.end_section();
  r.begin_section("strings");
  EXPECT_EQ(get<std::string>(r), "hello");
  EXPECT_EQ(get<std::string>(r), "");
  r.end_section();
  r.begin_section("vectors");
  EXPECT_EQ(get<std::vector<std::int64_t>>(r),
            (std::vector<std::int64_t>{1, -2, 3}));
  EXPECT_TRUE(get<std::vector<double>>(r).empty());
  r.end_section();
  EXPECT_EQ(r.peek_section(), "");
}

TEST(SnapshotTest, UnknownSectionsCanBeSkipped) {
  // Forward compatibility: a reader consumes the sections it knows and
  // skips the rest by name.
  SnapshotReader r(sample_snapshot());
  EXPECT_EQ(r.peek_section(), "scalars");
  r.skip_section();
  EXPECT_EQ(r.peek_section(), "strings");
  r.skip_section();
  r.begin_section("vectors");
  EXPECT_EQ(get<std::vector<std::int64_t>>(r).size(), 3u);
  get<std::vector<double>>(r);
  r.end_section();
}

TEST(SnapshotTest, WrongSectionNameThrows) {
  SnapshotReader r(sample_snapshot());
  EXPECT_THROW(r.begin_section("nope"), SnapshotError);
}

TEST(SnapshotTest, PartiallyReadSectionThrowsOnEnd) {
  SnapshotReader r(sample_snapshot());
  r.begin_section("scalars");
  get<std::uint8_t>(r);
  EXPECT_THROW(r.end_section(), SnapshotError);
}

TEST(SnapshotTest, EveryTruncationFailsCleanly) {
  const std::vector<std::uint8_t> full = sample_snapshot();
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::vector<std::uint8_t> cut(full.begin(),
                                  full.begin() + static_cast<long>(len));
    EXPECT_THROW(SnapshotReader r(std::move(cut)), SnapshotError)
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(SnapshotTest, EveryBitFlipIsDetected) {
  // Flipping any byte must be caught at construction (magic, version,
  // size, checksum) or at read time (bounds checks) — never silently
  // accepted as the original data.
  const std::vector<std::uint8_t> full = sample_snapshot();
  for (std::size_t at = 0; at < full.size(); ++at) {
    std::vector<std::uint8_t> bad = full;
    bad[at] ^= 0x40;
    EXPECT_THROW(SnapshotReader r(std::move(bad)), SnapshotError)
        << "bit flip at byte " << at << " was accepted";
  }
}

TEST(SnapshotTest, GarbageFileThrows) {
  EXPECT_THROW(SnapshotReader r(std::vector<std::uint8_t>{'n', 'o'}),
               SnapshotError);
  EXPECT_THROW(SnapshotReader r("/nonexistent/dir/snap.amrs"),
               SnapshotError);
}

TEST(SnapshotTest, OversizedVectorCountThrows) {
  // A corrupted element count must hit the bounds check, not allocate:
  // a vector's u64 count and a field list's u32 count alike.
  SnapshotWriter w;
  w.begin_section("v");
  w.field(std::uint64_t{~0ull});  // vector count with no bytes behind it
  w.end_section();
  w.begin_section("c");
  w.field(std::uint32_t{~0u});
  w.end_section();
  SnapshotReader r(w.finish());
  r.begin_section("v");
  EXPECT_THROW(get<std::vector<std::int64_t>>(r), SnapshotError);
  SnapshotReader rc(w.finish());
  rc.skip_section();
  rc.begin_section("c");
  std::vector<std::int64_t> items;
  EXPECT_THROW(rc.count(items), SnapshotError);
}

/// A field list, walked by SnapshotWriter with a const Sample and by
/// SnapshotReader with a mutable one.
struct Sample {
  bool flag = false;
  double xs[3] = {0.0, 0.0, 0.0};
  std::string name;
  std::vector<std::int16_t> values;
  std::vector<std::int32_t> counted;
};

template <class Ar, class S>
void sample_fields(Ar& ar, S& s, std::uint32_t version) {
  ar.begin_section("sample");
  ar.expect(version, "sample version");
  ar.field(s.flag);
  ar.field(s.xs);
  ar.field(s.name);
  ar.field(s.values);
  ar.count(s.counted);
  for (auto& c : s.counted) ar.field(c);
  ar.end_section();
}

TEST(SnapshotTest, FieldListRestoresWhatItSaved) {
  const Sample saved{true, {0.5, -1.0, 3.25}, "ring", {7, -8}, {4, 5, 6}};
  SnapshotWriter w;
  sample_fields(w, saved, 3);
  const std::vector<std::uint8_t> bytes = w.finish();

  SnapshotReader r(bytes);
  Sample got;
  sample_fields(r, got, 3);
  EXPECT_EQ(got.flag, saved.flag);
  EXPECT_EQ(std::vector<double>(got.xs, got.xs + 3),
            std::vector<double>(saved.xs, saved.xs + 3));
  EXPECT_EQ(got.name, saved.name);
  EXPECT_EQ(got.values, saved.values);
  EXPECT_EQ(got.counted, saved.counted);

  // expect() refuses a different value, naming the entry.
  SnapshotReader other(bytes);
  try {
    sample_fields(other, got, 4);
    FAIL() << "a mismatched expect() was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "snapshot: config mismatch on sample version ("),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace amr::io
