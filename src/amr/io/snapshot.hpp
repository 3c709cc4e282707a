// Versioned binary snapshot framing for checkpoint/restart.
//
// A snapshot is a sequence of named, length-prefixed sections inside a
// checksummed envelope — the same little-endian length-prefixed framing
// style as telemetry/binary_io, generalized so every subsystem's state
// (mesh, DES clock, RNG streams, telemetry tables, trace ring) can be
// packed into one file and restored field-for-field.
//
// File layout (little-endian):
//   magic "AMRS", u32 format version
//   u64 payload_size, payload bytes (the concatenated sections)
//   u64 FNV-1a checksum of the payload
//
// Section layout (inside the payload):
//   u32 name_len, name bytes, u64 body_len, body bytes
//
// Compatibility rule: the format version gates the whole file (a reader
// rejects versions it does not know); within a version, readers consume
// sections in written order and may skip sections they do not recognize
// (SnapshotReader::peek_section + skip_section), so new sections can be
// appended without breaking older readers of the same version.
//
// Every read is bounds- and checksum-checked: a truncated or bit-flipped
// file fails with a SnapshotError diagnostic, never undefined behaviour.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace amr::io {

/// Raised on any malformed, truncated, or corrupt snapshot input.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
};

// Format version history — every bump through v5 added a *config
// fingerprint* axis (fields write_meta/check_meta in sim_state.cpp
// diff to refuse a restore under a different simulation mode) plus the
// sections/fields that mode needs to resume byte-identically:
//
// v1: the base format. Fingerprint: cluster shape (nranks,
//     ranks_per_node, root grid), seed, execution mode, task ordering,
//     flux correction, telemetry/trace switches, the incremental-plans
//     switch, workload name, and the full fault schedule. Sections: meta,
//     state (step, placement, plan-cache key, active faults), DES
//     clock, RNG streams, fabric, telemetry tables, trace ring.
// v2: the message-aggregation flag in the config fingerprint,
//     msgs_coalesced / bytes_packed in the report section,
//     packed-transfer fabric counters, and two added comm-table columns.
// v3: a parallel-DES bit in the config fingerprint, per-node fabric
//     RNG/stats in the fabric section in that mode, and the collector's
//     fourth table (per-partition epoch counters).
// v4: adaptive-comm axes (comm_adaptive, send_priority, the packing
//     threshold) in the config fingerprint and last_straggler in the
//     state section.
// v5: placement-engine axes (auto_cplx, the incremental-placement bit,
//     the auto-X budget) in the config fingerprint, the "tuner" section
//     (auto-X tuner state + epoch accumulators), and the collector's
//     fifth (placement) table.
// v6: the first bump that removes axes: the message-aggregation flag
//     (now a second spelling of comm_adaptive, resolved by
//     job_config()) and the incremental-plans switch (the plan cache is
//     the only step pipeline) leave the config fingerprint. Sections are
//     unchanged.
// v7: fabric section stores per-node idle count + busy free times (and
//     each node's last shm post time) instead of every slot's free time.
// v8: the parallel DES is gone: its v3 fingerprint bit, the fabric
//     section's per-node tail and the collector's fourth table leave
//     the format.
// v9: the collector section stores each telemetry column as its sealed
//     4096-row chunks (base, max, width, bit-packed words; raw doubles
//     for f64) plus the raw tail, instead of one raw 8-byte value per
//     cell.
// v10: the incremental-placement bit leaves the config fingerprint (CPLX
//     placements take one path, so the bit encoded no answer). Sections
//     are unchanged.
// v11: four axes leave the config fingerprint: the packing threshold
//     (packing is on or off with comm_adaptive), the auto-X budget (the
//     paper's 50 ms), the telemetry-driven-costs switch (always on) and
//     the per-block telemetry switch (never on); the collector section
//     loses its block-records flag.
//
// Version-bump checklist — the compile-time-checkable moral equivalent
// of a static_assert, since the fingerprint is data, not types. When a
// new SimulationConfig field changes simulated results, you MUST:
//   1. bump kSnapshotFormatVersion and append a history line above;
//   2. write the axis in write_meta() and require() it in check_meta()
//      (sim/sim_state.cpp) so mismatched restores are refused with a
//      diagnostic naming the axis;
//   3. serialize any new runtime state the axis introduces (its own
//      section, or appended to an existing one — readers of the same
//      version skip unknown sections, so appending a *section* is
//      compatible; appending fields to an existing section is not);
//   4. extend tests/sim/checkpoint_test.cpp round-trip coverage and the
//      mismatched-restore refusal case, and run the checkpoint_ /
//      comm_adaptive_ / placement_tuning_ / serve_determinism
//      ctest scripts — serve eviction spills reuse this exact format, so
//      a missed axis shows up as multiplexed-vs-standalone stdout drift;
//   5. never reuse or renumber an existing version: old spills and
//      checkpoints must keep failing loudly, not misparse.
// Counters that are scheduling artifacts rather than simulation state
// (e.g. plan-cache share_hits) must NOT be serialized — see
// StepPipelineStats.
inline constexpr std::uint32_t kSnapshotFormatVersion = 11;

/// Builds a snapshot payload in memory, then writes the enveloped file.
class SnapshotWriter {
 public:
  /// Open a named section; all subsequent writes land in its body until
  /// end_section(). Sections cannot nest.
  void begin_section(std::string_view name);
  void end_section();

  void u8(std::uint8_t v) { pod(v); }
  void u32(std::uint32_t v) { pod(v); }
  void u64(std::uint64_t v) { pod(v); }
  void i32(std::int32_t v) { pod(v); }
  void i64(std::int64_t v) { pod(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  /// Doubles round-trip bit-exactly (raw IEEE-754 image).
  void f64(double v) { pod(v); }

  void str(std::string_view s);

  /// u64 element count followed by the raw bytes of a trivially copyable
  /// element vector.
  template <typename T>
  void vec_pod(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    append(v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  void vec_pod(const std::vector<T>& v) {
    vec_pod(std::span<const T>(v));
  }

  /// Finish (no section may be open) and write the enveloped file.
  /// Returns false on I/O failure.
  bool write_file(const std::string& path);

  /// The enveloped bytes (magic/version/size/payload/checksum) without
  /// touching the filesystem — for in-memory round-trip tests.
  std::vector<std::uint8_t> finish();

 private:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&v, sizeof(T));
  }
  void append(const void* data, std::size_t n);

  std::vector<std::uint8_t> payload_;
  std::size_t section_body_at_ = 0;  ///< offset of the open body_len field
  bool in_section_ = false;
};

/// Validates the envelope (magic, version, size, checksum) up front, then
/// hands out bounds-checked reads section by section.
class SnapshotReader {
 public:
  /// Read and validate a snapshot file. Throws SnapshotError with a
  /// diagnostic on any problem (missing file, bad magic, truncation,
  /// checksum mismatch, unsupported version).
  explicit SnapshotReader(const std::string& path);
  /// Same, over in-memory enveloped bytes.
  explicit SnapshotReader(std::vector<std::uint8_t> bytes);

  /// Name of the next section, or empty once the payload is exhausted.
  std::string peek_section();
  /// Enter the next section; it must carry exactly this name.
  void begin_section(std::string_view name);
  /// Leave the current section; throws if its body was not fully read.
  void end_section();
  /// Skip the next section wholesale (forward compatibility).
  void skip_section();

  std::uint8_t u8() { return pod<std::uint8_t>(); }
  std::uint32_t u32() { return pod<std::uint32_t>(); }
  std::uint64_t u64() { return pod<std::uint64_t>(); }
  std::int32_t i32() { return pod<std::int32_t>(); }
  std::int64_t i64() { return pod<std::int64_t>(); }
  bool b() { return u8() != 0; }
  double f64() { return pod<double>(); }

  std::string str();

  template <typename T>
  std::vector<T> vec_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = u64();
    check_available(n, sizeof(T));
    std::vector<T> out(static_cast<std::size_t>(n));
    take(out.data(), static_cast<std::size_t>(n) * sizeof(T));
    return out;
  }

 private:
  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    take(&v, sizeof(T));
    return v;
  }
  void validate_envelope();
  void take(void* out, std::size_t n);
  void check_available(std::uint64_t count, std::size_t elem_size) const;
  [[noreturn]] void fail(const std::string& why) const;

  std::vector<std::uint8_t> bytes_;
  std::size_t at_ = 0;          ///< cursor within payload
  std::size_t payload_end_ = 0;
  std::size_t section_end_ = 0;
  bool in_section_ = false;
};

/// FNV-1a 64-bit hash (the envelope checksum).
std::uint64_t fnv1a64(const void* data, std::size_t n);

}  // namespace amr::io
