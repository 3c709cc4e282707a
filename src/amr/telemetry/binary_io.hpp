// Binary columnar file format for telemetry tables.
//
// The paper's pipeline moved from CSV to "custom binary formats for
// efficiency" and cites Parquet-style embedded statistics as the right
// foundation (§IV-C, Lesson 4). This is that format, minimally: a typed
// columnar layout with per-column min/max statistics in the header, so
// readers can prune files without scanning data.
//
// The columns are stored as the Table holds them (table.hpp): sealed
// 4096-row chunks, frame-of-reference bit-packed for i64 columns, then
// the raw tail. The header's i64 min/max come from the chunk headers.
//
// Layout (little-endian), version 2:
//   magic "AMRT", u32 version
//   u32 name_len, name bytes
//   u32 ncols, u64 nrows
//   per column: u32 name_len, name bytes, u8 type, f64 min, f64 max
//   per column:
//     u64 nchunks (nrows / 4096), then per chunk:
//       i64 base, i64 max, u8 width, u64 nwords (width * 64),
//       nwords * u64 packed words (f64 chunks: width 64, raw doubles)
//     u64 ntail (nrows % 4096), ntail * u64 raw values
// Version 1 (one raw 8-byte value per cell) is refused.
#pragma once

#include <string>

#include "amr/telemetry/table.hpp"

namespace amr {

/// Serialize a table. Returns false on I/O failure.
bool write_table(const Table& table, const std::string& path);

/// Deserialize; throws std::runtime_error on malformed input, naming
/// the first inconsistency (bad width, payload size or chunk count,
/// truncation).
Table read_table(const std::string& path);

/// Read only the per-column statistics (no data scan).
struct ColumnStats {
  std::string name;
  ColType type;
  double min = 0.0;
  double max = 0.0;
};
std::vector<ColumnStats> read_table_stats(const std::string& path);

}  // namespace amr
