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

#include <concepts>
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
// fingerprint* axis (an `expect` entry of the meta field list in
// sim_state.cpp, which refuses a restore under a different simulation
// mode) plus the sections/fields that mode needs to resume
// byte-identically:
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
// v12: the workload's parameters join the config fingerprint after its
//     name: every SedovParams field (total_steps included, so a Sedov
//     restore keeps its step count) and every CoolingParams field.
//     Sections are unchanged.
//
// Version-bump checklist — the compile-time-checkable moral equivalent
// of a static_assert, since the fingerprint is data, not types. When a
// new SimulationConfig field changes simulated results, you MUST:
//   1. bump kSnapshotFormatVersion and append a history line above;
//   2. add the axis as one `expect(value, "name")` line to the meta
//      field list (meta_section() in sim/sim_state.cpp; a workload
//      parameter goes in its workload's list there): the writer
//      stores it, and the reader refuses a mismatched restore with a
//      diagnostic naming the axis;
//   3. serialize any new runtime state the axis introduces (its own
//      section, or appended to an existing one — readers of the same
//      version skip unknown sections, so appending a *section* is
//      compatible; appending fields to an existing section is not);
//   4. if a job option sets the field, that option is an answer option:
//      its job_fields() row (sim/sim_driver.cpp) declares
//      JobEffect::kAnswer with the entry named in step 2, and
//      JobFields.EachRowChangesWhatItDeclares then refuses a changed
//      restore by that name — write no refusal row by hand (a field no
//      job option sets takes a row in
//      CheckpointTest.EveryFingerprintAxisIsRefusedByName). Extend
//      tests/sim/checkpoint_test.cpp round-trip coverage, and run the
//      checkpoint_ / comm_adaptive_ / placement_tuning_ /
//      serve_determinism ctest scripts — serve eviction spills reuse
//      this exact format, so a missed axis shows up as
//      multiplexed-vs-standalone stdout drift;
//   5. never reuse or renumber an existing version: old spills and
//      checkpoints must keep failing loudly, not misparse.
// Counters that are scheduling artifacts rather than simulation state
// (e.g. plan-cache share_hits) must NOT be serialized — see
// StepPipelineStats.
inline constexpr std::uint32_t kSnapshotFormatVersion = 12;

// Field lists. Each section is one function template over the archive
// (sim/sim_state.cpp): SnapshotWriter walks it on save and
// SnapshotReader walks the same list on restore, so the field order is
// written down once. Both archives share this vocabulary:
//   field(x)              save: write x; restore: read into x
//   expect(value, name)   save: write value; restore: refuse a
//                         different value, naming the entry
//   count(vec)            a u32 element count; restore resizes vec
//   kReading              false on save, true on restore
// field(x) encodes by type: bool as one byte, a string as its u32 length
// and bytes, a vector of trivially copyable elements as its u64 count
// and raw bytes, a C array element by element, and a RawField raw.

/// What field() stores raw. A struct is listed member by member, so no
/// padding byte reaches the file; a bool is one byte, 0 or 1.
template <typename T>
concept RawField = (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) ||
                   std::is_enum_v<T>;

// size_t fields (counts, sizes) are u64 in the file.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));

/// Builds a snapshot payload in memory, then writes the enveloped file.
class SnapshotWriter {
 public:
  /// Open a named section; all subsequent writes land in its body until
  /// end_section(). Sections cannot nest.
  void begin_section(std::string_view name);
  void end_section();

  static constexpr bool kReading = false;
  // A template, so a pointer (a string literal) never converts to bool.
  template <std::same_as<bool> B>
  void field(B v) { pod(std::uint8_t{v}); }
  /// A string: its u32 length, then its bytes.
  void field(std::string_view s);
  /// Doubles round-trip bit-exactly (raw IEEE-754 image).
  template <RawField T>
  void field(T v) { pod(v); }
  /// A u64 element count, then the elements' raw bytes.
  template <typename T>
  void field(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    pod(static_cast<std::uint64_t>(v.size()));
    append(v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  void field(const std::vector<T>& v) { field(std::span<const T>(v)); }
  template <typename T, std::size_t N>
    requires(!std::is_same_v<T, char>)  // a string literal is a string
  void field(const T (&a)[N]) {
    for (const T& e : a) field(e);
  }
  template <typename T>
  void expect(const T& value, std::string_view /*name*/) { field(value); }
  template <typename C>
  void count(const C& c) { pod(static_cast<std::uint32_t>(c.size())); }

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

  static constexpr bool kReading = true;
  void field(bool& v) { v = pod<std::uint8_t>() != 0; }
  void field(std::string& s) { s = str(); }
  template <RawField T>
  void field(T& v) { v = pod<T>(); }
  /// A corrupt element count fails the bounds check, never allocates.
  template <typename T>
  void field(std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = pod<std::uint64_t>();
    check_available(n, sizeof(T));
    v.resize(static_cast<std::size_t>(n));
    take(v.data(), v.size() * sizeof(T));
  }
  template <typename T, std::size_t N>
  void field(T (&a)[N]) {
    for (T& e : a) field(e);
  }
  /// Throws SnapshotError naming `name` if the stored value differs.
  template <typename T>
  void expect(const T& value, std::string_view name) {
    T stored{};
    field(stored);
    if (!(stored == value))
      throw SnapshotError("snapshot: config mismatch on " +
                          std::string(name) +
                          " (restore requires the run configuration that "
                          "produced the checkpoint)");
  }
  /// Every element reads at least one byte, so a corrupt count runs into
  /// the section's end instead of allocating.
  template <typename T>
  void count(std::vector<T>& v) {
    const auto n = pod<std::uint32_t>();
    check_available(n, 1);
    v.resize(n);
  }

 private:
  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    take(&v, sizeof(T));
    return v;
  }
  std::string str();
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
