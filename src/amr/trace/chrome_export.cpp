#include "amr/trace/chrome_export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace amr {
namespace {

/// Synthetic pid for the driver/critical-path tracks (real nodes are
/// numbered from 0, so any large value is collision-free in practice).
constexpr std::int64_t kSimPid = 1'000'000;
/// tid offset for per-node fabric tracks (ranks use their own id).
constexpr std::int64_t kFabricTidBase = 2'000'000;

struct TrackIds {
  std::int64_t pid;
  std::int64_t tid;
};

TrackIds map_track(std::int32_t track, std::int32_t ranks_per_node) {
  if (track >= 0) return {track / ranks_per_node, track};
  if (track == Tracer::kTrackSim) return {kSimPid, 0};
  if (track == Tracer::kTrackCrit) return {kSimPid, 1};
  const std::int32_t node = Tracer::fabric_track_node(track);
  return {node, kFabricTidBase + node};
}

/// One JSON event awaiting emission, in sortable form.
struct Emit {
  TimeNs ts;
  char ph;  // B E i C s f
  const TraceEvent* ev;
};

void append_ts(std::string& out, TimeNs ns) {
  char buf[48];
  // Chrome ts is microseconds; keep ns as fractional digits.
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

void append_event(std::string& out, const Emit& e,
                  std::int32_t ranks_per_node) {
  const TraceEvent& ev = *e.ev;
  const TrackIds ids = map_track(ev.track, ranks_per_node);
  out += "{\"name\":\"";
  out += ev.name;
  out += "\",\"cat\":\"";
  out += to_string(ev.cat);
  out += "\",\"ph\":\"";
  out += e.ph;
  out += "\",\"ts\":";
  append_ts(out, e.ts);
  out += ",\"pid\":";
  append_i64(out, ids.pid);
  out += ",\"tid\":";
  append_i64(out, ids.tid);
  switch (e.ph) {
    case 'i':
      out += ",\"s\":\"t\"";
      break;
    case 's':
    case 'f':
      out += ",\"id\":";
      append_i64(out, static_cast<std::int64_t>(ev.id));
      if (e.ph == 'f') out += ",\"bp\":\"e\"";
      break;
    default:
      break;
  }
  if (e.ph == 'C') {
    out += ",\"args\":{\"value\":";
    append_i64(out, ev.a);
    out += "}}";
    return;
  }
  out += ",\"args\":{\"a\":";
  append_i64(out, ev.a);
  out += ",\"b\":";
  append_i64(out, ev.b);
  out += "}}";
}

void append_metadata(std::string& out, const char* what, std::int64_t pid,
                     std::int64_t tid, bool with_tid,
                     const std::string& name) {
  out += "{\"name\":\"";
  out += what;
  out += "\",\"ph\":\"M\",\"pid\":";
  append_i64(out, pid);
  if (with_tid) {
    out += ",\"tid\":";
    append_i64(out, tid);
  }
  out += ",\"args\":{\"name\":\"";
  out += name;
  out += "\"}},\n";
}

}  // namespace

std::string chrome_trace_json(const Tracer& tracer) {
  const std::int32_t rpn = tracer.config().ranks_per_node;

  // Materialize emission records: complete spans expand to B/E pairs;
  // everything else maps 1:1. The buffer is recorded in event-dispatch
  // order, not timestamp order (complete spans are stamped at their
  // start), so sort stably by ts — stability keeps record order for
  // ties, which preserves E-before-B at shared boundaries.
  const std::vector<TraceEvent> events = tracer.snapshot();
  std::vector<Emit> emits;
  emits.reserve(events.size() + events.size() / 4);
  for (const TraceEvent& ev : events) {
    switch (ev.type) {
      case TraceEventType::kComplete:
        emits.push_back(Emit{ev.ts, 'B', &ev});
        emits.push_back(Emit{ev.ts + ev.dur, 'E', &ev});
        break;
      case TraceEventType::kBegin:
        emits.push_back(Emit{ev.ts, 'B', &ev});
        break;
      case TraceEventType::kEnd:
        emits.push_back(Emit{ev.ts, 'E', &ev});
        break;
      case TraceEventType::kInstant:
        emits.push_back(Emit{ev.ts, 'i', &ev});
        break;
      case TraceEventType::kCounter:
        emits.push_back(Emit{ev.ts, 'C', &ev});
        break;
      case TraceEventType::kFlowBegin:
        emits.push_back(Emit{ev.ts, 's', &ev});
        break;
      case TraceEventType::kFlowEnd:
        emits.push_back(Emit{ev.ts, 'f', &ev});
        break;
    }
  }
  std::stable_sort(emits.begin(), emits.end(),
                   [](const Emit& a, const Emit& b) { return a.ts < b.ts; });

  // Ring-buffer drops can orphan span ends and flow targets; filter so
  // the output always has matched B/E pairs and paired flows.
  std::unordered_map<std::int32_t, std::int64_t> depth;  // per track
  std::unordered_set<std::uint64_t> open_flows;
  const TimeNs last_ts = emits.empty() ? 0 : emits.back().ts;
  std::vector<const Emit*> kept;
  kept.reserve(emits.size());
  for (const Emit& e : emits) {
    if (e.ph == 'B') ++depth[e.ev->track];
    if (e.ph == 'E') {
      auto it = depth.find(e.ev->track);
      if (it == depth.end() || it->second == 0) continue;  // orphan end
      --it->second;
    }
    if (e.ph == 's') open_flows.insert(e.ev->id);
    if (e.ph == 'f' && !open_flows.contains(e.ev->id))
      continue;  // flow origin was dropped
    kept.push_back(&e);
  }

  // Track/process metadata for every (pid, tid) that appears.
  std::set<std::int64_t> pids;
  std::map<std::pair<std::int64_t, std::int64_t>, std::int32_t> tids;
  for (const Emit* e : kept) {
    const TrackIds ids = map_track(e->ev->track, rpn);
    pids.insert(ids.pid);
    tids.emplace(std::make_pair(ids.pid, ids.tid), e->ev->track);
  }

  std::string out = "{\"traceEvents\":[\n";
  for (const std::int64_t pid : pids) {
    append_metadata(out, "process_name", pid, 0, false,
                    pid == kSimPid ? "sim"
                                   : "node" + std::to_string(pid));
  }
  for (const auto& [key, track] : tids) {
    std::string name;
    if (track >= 0)
      name = "rank " + std::to_string(track);
    else if (track == Tracer::kTrackSim)
      name = "steps";
    else if (track == Tracer::kTrackCrit)
      name = "critical-path";
    else
      name = "fabric";
    append_metadata(out, "thread_name", key.first, key.second, true, name);
  }

  // Spans still open at the buffer edge get a closing E at the final
  // timestamp so the stream stays balanced.
  std::unordered_map<std::int32_t, std::vector<const Emit*>> open_spans;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const Emit* e = kept[i];
    if (e->ph == 'B') open_spans[e->ev->track].push_back(e);
    if (e->ph == 'E') open_spans[e->ev->track].pop_back();
    append_event(out, *e, rpn);
    out += ",\n";
  }
  for (const auto& [track, stack] : open_spans) {
    (void)track;
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      Emit closer{last_ts, 'E', (*it)->ev};
      append_event(out, closer, rpn);
      out += ",\n";
    }
  }
  // Strip the trailing comma (metadata guarantees at least one entry
  // whenever any event exists; an empty trace has no comma to strip).
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "],\n\"displayTimeUnit\":\"ns\",\n\"otherData\":{"
         "\"dropped_events\":";
  append_i64(out, static_cast<std::int64_t>(tracer.dropped()));
  out += ",\"recorded_events\":";
  append_i64(out, static_cast<std::int64_t>(tracer.recorded()));
  out += "}}\n";
  return out;
}

bool write_chrome_trace(const Tracer& tracer, const std::string& path) {
  const std::string json = chrome_trace_json(tracer);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok && written != json.size()) std::fclose(f);
  return ok;
}

}  // namespace amr
