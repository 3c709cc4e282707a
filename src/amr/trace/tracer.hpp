// Event-level tracing (paper §IV: the observability layer that aggregate
// profiles could not provide).
//
// The Collector records per-(step, rank) aggregates; the Tracer records
// what happens *inside* a step: which rank stalled, on which message, in
// which order tasks drained. Events are stamped in simulated DES time and
// stored in a bounded ring buffer (drop-oldest, with a dropped-event
// counter) so tracing stays safe on big sweeps. Two exporters consume the
// buffer: chrome_export.hpp writes Perfetto/chrome://tracing JSON, and
// trace_tables.hpp converts the event stream into telemetry Tables so the
// Query engine, detectors, and triggers can analyze event-level data.
//
// Recording is a no-op per category unless the category bit is enabled;
// instrumented layers hold a `Tracer*` that is null when tracing is off,
// so the disabled-path cost is a single pointer test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "amr/common/time.hpp"

namespace amr {

/// What an event describes. Categories map 1:1 onto the Chrome "cat"
/// field and the i64 `cat` column of the table export.
enum class TraceCat : std::uint8_t {
  kStep = 0,      ///< whole-step spans on the driver track
  kCompute = 1,   ///< block kernel spans
  kPack = 2,      ///< ghost pack/unpack/local-copy spans
  kSend = 3,      ///< isend request spans (post -> sender release)
  kRecvWait = 4,  ///< MPI_Waitall-on-recvs stalls
  kSendWait = 5,  ///< MPI_Waitall-on-sends stalls
  kSync = 6,      ///< blocking collective spans
  kRebalance = 7, ///< placement + migration spans
  kMsg = 8,       ///< P2P message flow arrows (send -> delivery)
  kFault = 9,     ///< fault-injection transitions
  kFabric = 10,   ///< fabric pathologies: ACK recovery, queue occupancy
  kDes = 11,      ///< raw DES dispatch (very high volume; off by default)
  kCritPath = 12, ///< modeled critical-path overlay
  kCount_         // sentinel
};

const char* to_string(TraceCat cat);

constexpr std::uint32_t trace_bit(TraceCat cat) {
  return 1u << static_cast<unsigned>(cat);
}

inline constexpr std::uint32_t kAllTraceCategories =
    (1u << static_cast<unsigned>(TraceCat::kCount_)) - 1;
/// Default mask: everything except per-event DES dispatch, which records
/// one instant per engine event and drowns out the rest.
inline constexpr std::uint32_t kDefaultTraceCategories =
    kAllTraceCategories & ~trace_bit(TraceCat::kDes);

enum class TraceEventType : std::uint8_t {
  kComplete = 0,   ///< span whose duration was known at record time
  kBegin = 1,      ///< open span (waits: the end time is not yet known)
  kEnd = 2,
  kInstant = 3,
  kCounter = 4,    ///< value in `a`
  kFlowBegin = 5,  ///< flow arrow origin; pair id in `id`
  kFlowEnd = 6,    ///< flow arrow target
};

/// One recorded event. `name` must be a string literal (the tracer stores
/// the pointer, not a copy). `a`/`b` are event-defined payloads: bytes,
/// peer ranks, counter values — the exporters carry them through.
struct TraceEvent {
  TimeNs ts = 0;
  TimeNs dur = 0;          ///< kComplete only
  std::uint64_t id = 0;    ///< flow pair id
  std::int64_t a = 0;
  std::int64_t b = 0;
  const char* name = "";
  std::int32_t track = 0;  ///< rank id, or a special track (see Tracer)
  TraceEventType type = TraceEventType::kInstant;
  TraceCat cat = TraceCat::kStep;
};

struct TraceConfig {
  /// Ring-buffer capacity in events; the oldest events are dropped (and
  /// counted) once it fills. ~56 bytes/event.
  std::size_t capacity = 1u << 18;
  /// Rank -> node mapping for the Chrome export's process grouping.
  std::int32_t ranks_per_node = 16;
  std::uint32_t categories = kDefaultTraceCategories;
};

class Tracer {
 public:
  /// Track ids >= 0 are ranks. Negative ids are auxiliary tracks:
  static constexpr std::int32_t kTrackSim = -1;   ///< driver (step spans)
  static constexpr std::int32_t kTrackCrit = -2;  ///< critical-path overlay
  /// Per-node fabric track (NIC/queue counters, ACK events).
  static constexpr std::int32_t fabric_track(std::int32_t node) {
    return -3 - node;
  }
  /// Inverse of fabric_track; -1 if `track` is not a fabric track.
  static constexpr std::int32_t fabric_track_node(std::int32_t track) {
    return track <= -3 ? -3 - track : -1;
  }

  explicit Tracer(TraceConfig config = {});

  const TraceConfig& config() const { return config_; }
  bool wants(TraceCat cat) const {
    return (config_.categories & trace_bit(cat)) != 0;
  }

  /// Span with a duration known at record time (DES task dispatch knows
  /// both endpoints up front).
  void complete(std::int32_t track, TraceCat cat, const char* name,
                TimeNs ts, TimeNs dur, std::int64_t a = 0,
                std::int64_t b = 0);
  /// Open/close a span whose end is discovered later (waits, stalls).
  void begin(std::int32_t track, TraceCat cat, const char* name, TimeNs ts,
             std::int64_t a = 0, std::int64_t b = 0);
  void end(std::int32_t track, TraceCat cat, const char* name, TimeNs ts,
           std::int64_t a = 0, std::int64_t b = 0);
  void instant(std::int32_t track, TraceCat cat, const char* name,
               TimeNs ts, std::int64_t a = 0, std::int64_t b = 0);
  void counter(std::int32_t track, TraceCat cat, const char* name,
               TimeNs ts, std::int64_t value);
  /// Start a flow arrow (P2P message); returns the pair id to hand to
  /// flow_end (0 when the category is disabled).
  std::uint64_t flow_begin(std::int32_t track, TraceCat cat,
                           const char* name, TimeNs ts, std::int64_t a = 0,
                           std::int64_t b = 0);
  void flow_end(std::int32_t track, TraceCat cat, const char* name,
                TimeNs ts, std::uint64_t id, std::int64_t a = 0,
                std::int64_t b = 0);

  std::size_t size() const { return size_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t next_flow_id() const { return next_flow_id_; }
  void clear();

  /// Restore a checkpointed event stream: replaces the buffer contents
  /// and counters. Event names are copied into an arena owned by this
  /// tracer (checkpointed events must not dangle on the original string
  /// literals of another process), so callers may pass transient strings.
  void restore(std::span<const TraceEvent> events, std::uint64_t dropped,
               std::uint64_t recorded, std::uint64_t next_flow_id);

  /// Stable owned copy of `name` (deduplicated); used by restore() and
  /// available to exporters that rebuild events from serialized form.
  const char* intern(std::string_view name);

  /// Visit buffered events oldest-first (recording order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i)
      fn(ring_[(begin_ + i) % ring_.size()]);
  }

  /// Buffered events oldest-first, copied out.
  std::vector<TraceEvent> snapshot() const;

 private:
  void push(const TraceEvent& ev);

  TraceConfig config_;
  std::vector<TraceEvent> ring_;
  std::size_t begin_ = 0;  ///< index of the oldest event
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t next_flow_id_ = 1;
  /// Owned storage for restored event names (node-stable container: the
  /// const char* handed out must survive rehash/growth).
  std::set<std::string, std::less<>> interned_names_;
};

}  // namespace amr
