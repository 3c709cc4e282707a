// ledger_bench: runs one ledger workload on one seed, checks its
// simulated answers, and prints its metrics.
//
//   ledger_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--answers FILE] [--spans FILE] [--work-dir DIR]
//                [--record]
//
// --trace 0 prints the end-to-end metrics, measured with nothing traced.
// --trace 1 prints the per-layer metrics from a warm-up pass, a pass with
// the benchmark's spans on (written to --spans), an untraced pass (the
// base of the span overhead) and the workload's traced-run extras.
// --record runs one pass, prints its answer text to stderr and the
// digest line that belongs in the answers file to stdout. Otherwise the
// last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace ledger {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string answers;
  std::string spans;
  std::string work_dir = ".";
  bool record = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--record") {
      a.record = true;
      continue;
    }
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value);
      } else if (key == "--answers") {
        a.answers = value;
      } else if (key == "--spans") {
        a.spans = value;
      } else if (key == "--work-dir") {
        a.work_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && have_seed &&
         (a.record || (a.seconds > 0 && (a.trace == 0 || a.trace == 1)));
}

/// Host-drift diagnostic: a fixed CPU-bound loop, timed in CPU and in
/// wall ms. Never an end-to-end metric, never used to normalise; it tells
/// host drift apart from a code change.
struct Calib {
  double cpu_ms = 0.0;
  double wall_ms = 0.0;
};

Calib calibrate() {
  const std::int64_t t0 = now_ns();
  const double c0 = cpu_now_ms();
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    asm volatile("" : "+r"(x));
  }
  return {cpu_now_ms() - c0, static_cast<double>(now_ns() - t0) / 1e6};
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// "workload seed digest" lines; '#' starts a comment.
std::map<std::string, std::string> load_answers(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, s, d;
    if (ls >> w >> s >> d) out[w + " " + s] = d;
  }
  return out;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count and base, printed for people
  bool reported = true;  ///< false: printed for people, not in the JSON
};

void print_result(const std::vector<Metric>& metrics, const OpCount& ops,
                  bool correct) {
  std::vector<const Metric*> reported;
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %-9s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str(),
                m.reported ? "" : " [diagnostic]");
    if (m.reported) reported.push_back(&m);
  }
  std::printf("  %-28s %14.6g %-9s (%lld failed of %lld attempted)\n",
              "failed_ratio", ops.failed_ratio(), "fraction",
              static_cast<long long>(ops.failed),
              static_cast<long long>(ops.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(ops.attempted),
              static_cast<long long>(ops.failed));
  for (std::size_t i = 0; i < reported.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", reported[i]->name.c_str(),
                reported[i]->value, reported[i]->unit.c_str());
  std::printf("}}\n");
}

std::string samples_note(const Percentile& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(n=%zu, %zu beyond)", p.samples, p.beyond);
  return buf;
}

std::string note(const char* fmt, double a, double b = 0.0) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

/// Compare every pass's answer with the recorded one (when the seed has
/// a record) and with the first pass; a mismatching pass fails all of
/// its operations. Returns a one-line account.
std::string check_answers(std::vector<Pass*> passes, const std::string& want,
                          OpCount& ops) {
  int mismatched = 0;
  const std::string first = digest(passes.front()->answer);
  for (Pass* p : passes) {
    const std::string d = digest(p->answer);
    const bool ok = want.empty() ? d == first : d == want;
    if (!ok) {
      ++mismatched;
      p->ops.failed = p->ops.attempted;
    }
    ops.merge(p->ops);
  }
  std::string out = "answers: " + std::to_string(passes.size()) +
                    " pass(es), digest " + first + ", ";
  out += want.empty() ? "no record for this seed (checked passes agree)"
                      : "recorded " + want;
  out += mismatched == 0 ? ": match"
                         : ": " + std::to_string(mismatched) + " MISMATCH";
  return out;
}

void add_span_table(const SpanRecorder& rec) {
  const std::vector<Span>& spans = rec.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [count, ns] = by_name[spans[i].name];
    ++count;
    ns += self[i];
  }
  std::printf("  span self time (traced run):\n");
  for (const auto& [name, cn] : by_name)
    std::printf("    %-20s %6lld spans %12.3f ms\n", name.c_str(),
                static_cast<long long>(cn.first),
                static_cast<double>(cn.second) / 1e6);
}

/// Self time of every span in the subtree of the timed root ("horizon"
/// or "session"), in ms: what the spans account for of the timed pass.
double timed_self_ms(const SpanRecorder& rec) {
  const std::vector<Span>& spans = rec.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  double ns = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::int64_t root = static_cast<std::int64_t>(i);
    while (spans[static_cast<std::size_t>(root)].parent >= 0)
      root = spans[static_cast<std::size_t>(root)].parent;
    const std::string& rn = spans[static_cast<std::size_t>(root)].name;
    if (rn == "horizon" || rn == "session") ns += static_cast<double>(self[i]);
  }
  return ns / 1e6;
}

std::vector<Metric> layer_metrics(const Pass& u, const Layers& l,
                                  const std::vector<Setup>& setups,
                                  const Calib& calib, double span_overhead,
                                  double span_self_ratio) {
  std::vector<double> construct, begin;
  for (const Setup& s : setups) {
    construct.push_back(s.construct_ms);
    begin.push_back(s.begin_ms);
  }
  const Percentile step50 = percentile(u.step_ms, 0.5);
  const Percentile step90 = percentile(u.step_ms, 0.9);
  const Percentile pl50 = percentile(u.placement_ms, 0.5);
  const Percentile pl75 = percentile(u.placement_ms, 0.75);
  const Percentile q50 = percentile(l.query_ms, 0.5);
  const Percentile q90 = percentile(l.query_ms, 0.9);
  const auto n = [](std::int64_t v) { return static_cast<double>(v); };
  const double transfers = n(l.msgs_local + l.msgs_remote);
  const std::string setups_note =
      "(median of " + std::to_string(setups.size()) + " set-ups)";
  return {
      {"host.calib_ms", calib.cpu_ms, "ms", "(diagnostic only)"},
      {"host.calib_wall_ms", calib.wall_ms, "ms", "(diagnostic only)"},
      {"sim.construct_ms", median(construct), "ms", setups_note},
      {"sim.begin_ms", median(begin), "ms", setups_note},
      {"sim.step_ms_p50", step50.value, "ms", samples_note(step50)},
      {"sim.step_ms_p90", step90.value, "ms", samples_note(step90)},
      {"placement.calls", n(l.placement_calls), "count", ""},
      {"placement.wall_ms_total", l.placement_ms_total, "ms", ""},
      {"placement.wall_ms_p50", pl50.value, "ms", samples_note(pl50)},
      {"placement.wall_ms_p75", pl75.value, "ms", samples_note(pl75)},
      {"placement.wall_share", ratio(l.placement_ms_total, u.run_ms),
       "fraction", note("(of %.1f wall ms timed)", u.run_ms)},
      {"placement.blocks_migrated", n(l.blocks_migrated), "count", ""},
      {"placement.budget_violations", n(l.budget_violations), "count", ""},
      {"placement.chunk_reuse_ratio",
       ratio(n(l.chunks_reused), n(l.chunks_total)), "fraction",
       note("(of %.0f chunks)", n(l.chunks_total))},
      {"tuner.candidates_mean",
       ratio(l.candidates_sum, n(l.placement_rows)), "count",
       note("(over %.0f epochs)", n(l.placement_rows))},
      {"tuner.err_ewma_final", l.err_ewma_final, "fraction", ""},
      {"exec.plan_hits", n(l.plan_hits), "count", ""},
      {"exec.plan_misses", n(l.plan_misses), "count", ""},
      {"exec.plan_hit_ratio",
       ratio(n(l.plan_hits), n(l.plan_hits + l.plan_misses)), "fraction",
       note("(of %.0f steps)", n(l.plan_hits + l.plan_misses))},
      {"exec.plan_share_hits", n(l.plan_share_hits), "count", ""},
      {"simmpi.msgs", n(l.msgs_local + l.msgs_remote + l.msgs_memcpy),
       "count", "(local + remote + memcpy)"},
      {"simmpi.remote_share", ratio(n(l.msgs_remote), transfers), "fraction",
       note("(of %.0f transfers)", transfers)},
      {"simmpi.msgs_coalesced", n(l.msgs_coalesced), "count", ""},
      {"simmpi.pack_ratio", ratio(n(l.msgs_coalesced), n(l.logical_msgs())),
       "fraction", note("(of %.0f logical msgs)", n(l.logical_msgs()))},
      {"net.bytes_remote", n(l.bytes_remote), "bytes", ""},
      {"simmpi.cpu_ns_per_msg",
       ratio(u.run_cpu_ms * 1e6, n(l.logical_msgs())), "ns",
       "(timed CPU ns / logical msgs)"},
      {"telemetry.rows", n(l.telemetry_rows), "count", ""},
      {"telemetry.mb", n(l.telemetry_bytes) / (1 << 20), "MiB", ""},
      {"telemetry.query_ms_p50", q50.value, "ms", samples_note(q50)},
      {"telemetry.query_ms_p90", q90.value, "ms", samples_note(q90)},
      {"telemetry.query_errors", n(l.query_errors), "count", ""},
      {"io.save_ms", l.io_save_ms, "ms", ""},
      {"io.restore_ms", l.io_restore_ms, "ms", ""},
      {"io.snapshot_mb", l.io_snapshot_mb, "MiB", ""},
      {"serve.slices", n(l.serve_slices), "count", ""},
      {"serve.evictions", n(l.serve_evictions), "count", ""},
      {"serve.restores", n(l.serve_restores), "count", ""},
      {"serve.share_hit_ratio", ratio(n(l.store_hits), n(l.store_lookups)),
       "fraction", note("(of %.0f store lookups)", n(l.store_lookups))},
      {"serve.store_hits", n(l.store_hits), "count", ""},
      {"trace.events", n(l.trace_events), "count", ""},
      {"trace.dropped", n(l.trace_dropped), "count", ""},
      {"trace.overhead_ratio", l.trace_overhead_ratio, "ratio",
       "(library-traced / untraced pass, CPU)"},
      {"mesh.blocks_initial", n(l.blocks_initial), "count", ""},
      {"mesh.blocks_final", n(l.blocks_final), "count", ""},
      {"bench.span_overhead_ratio", span_overhead, "ratio",
       "(span-traced / untraced pass, CPU)"},
      {"bench.span_self_ratio", span_self_ratio, "ratio",
       "(timed spans' self time / untraced pass, wall)"},
  };
}

int run(const Args& a) {
  std::unique_ptr<Bench> bench = make_bench(a.workload, a.seed, a.work_dir);
  if (!bench) {
    std::fprintf(stderr, "ledger_bench: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }
  const std::string key = a.workload + " " + std::to_string(a.seed);
  if (a.record) {
    Pass p = bench->pass(nullptr);
    if (p.ops.failed != 0) {
      std::fprintf(stderr, "ledger_bench: pass failed; nothing recorded\n");
      return 1;
    }
    std::fputs(p.answer.c_str(), stderr);
    std::printf("%s %s\n", key.c_str(), digest(p.answer).c_str());
    return 0;
  }
  const std::string want =
      a.answers.empty() ? "" : load_answers(a.answers)[key];

  std::printf("ledger: workload=%s seed=%llu seconds=%g trace=%d "
              "hw_threads=%u\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace, std::thread::hardware_concurrency());
  const Calib calib0 = calibrate();

  // Set-ups are spread between the passes so that one host burst cannot
  // cover all of them.
  std::vector<Setup> setups;
  std::vector<double> setup_ms;
  const auto run_pass = [&](SpanRecorder* spans) {
    for (int i = 0; i < bench->setup_reps(); ++i) {
      setups.push_back(bench->setup_once());
      setup_ms.push_back(setups.back().total_ms);
    }
    return bench->pass(spans);
  };

  OpCount ops;
  std::vector<Metric> metrics;
  std::string account;
  if (a.trace == 0) {
    // At least three passes, so that a median over passes rejects a host
    // burst that hits one of them.
    std::vector<Pass> passes;
    double rss_first_pass = 0.0;
    const std::int64_t t0 = now_ns();
    do {
      passes.push_back(run_pass(nullptr));
      if (passes.size() == 1) rss_first_pass = peak_rss_mb();
    } while (passes.size() < 3 ||
             static_cast<double>(now_ns() - t0) / 1e9 < a.seconds);
    std::vector<Pass*> ptrs;
    std::vector<double> cpu_ms, wall_ms;
    std::vector<std::vector<double>> placements;
    for (Pass& p : passes) {
      ptrs.push_back(&p);
      cpu_ms.push_back(p.run_cpu_ms);
      wall_ms.push_back(p.run_ms);
      placements.push_back(p.placement_ms);
    }
    account = check_answers(ptrs, want, ops);
    std::printf("  passes (CPU ms / wall ms):");
    for (const Pass& p : passes)
      std::printf(" %.0f/%.0f", p.run_cpu_ms, p.run_ms);
    std::printf("\n");
    const double steps = static_cast<double>(passes.front().steps);
    const std::vector<double> placement_ms = elementwise_median(placements);
    const Percentile p50 = percentile(placement_ms, 0.5);
    const Percentile p75 = percentile(placement_ms, 0.75);
    const std::string of_passes =
        " of " + std::to_string(passes.size()) + " passes";
    const double cpu = median(cpu_ms);
    const double wall = median(wall_ms);
    metrics = {
        {"setup_s", median(setup_ms) / 1e3, "s",
         "(CPU, median of " + std::to_string(setup_ms.size()) + " set-ups)"},
        {"steps_per_cpu_s", ratio(steps, cpu / 1e3), "1/s",
         note("(%.0f steps / %.1f CPU ms: median", steps, cpu) + of_passes +
             ")"},
        {"peak_rss_mb", rss_first_pass, "MiB",
         "(VmHWM through the first pass)"},
        {"steps_per_s", ratio(steps, wall / 1e3), "1/s",
         note("(%.0f steps / %.1f wall ms: median", steps, wall) +
             of_passes + ")",
         false},
        {"placement_ms_p50", p50.value, "ms",
         samples_note(p50) + ", wall, median per call" + of_passes, false},
        {"placement_ms_p75", p75.value, "ms",
         samples_note(p75) + ", wall, median per call" + of_passes, false},
    };
  } else {
    // The first pass warms the allocator and caches; the traced pass is
    // compared with the untraced pass that follows it.
    Pass warm = run_pass(nullptr);
    SpanRecorder rec;
    Pass traced = run_pass(&rec);
    Pass untraced = run_pass(nullptr);
    Layers layers = untraced.layers;
    OpCount extra_ops;
    bench->extras(untraced, &rec, layers, extra_ops);
    account = check_answers({&warm, &traced, &untraced}, want, ops);
    ops.merge(extra_ops);
    if (!a.spans.empty() && !rec.write_json(a.spans))
      std::fprintf(stderr, "ledger_bench: cannot write spans to %s\n",
                   a.spans.c_str());
    add_span_table(rec);
    metrics = layer_metrics(untraced, layers, setups, calib0,
                            ratio(traced.run_cpu_ms, untraced.run_cpu_ms),
                            ratio(timed_self_ms(rec), untraced.run_ms));
  }
  const Calib calib1 = calibrate();
  std::printf("  %s\n", account.c_str());
  std::printf("  host.calib_ms CPU start %.3f end %.3f, wall start %.3f end "
              "%.3f (diagnostic only)\n",
              calib0.cpu_ms, calib1.cpu_ms, calib0.wall_ms, calib1.wall_ms);
  const bool correct = ops.failed == 0 && ops.attempted > 0;
  print_result(metrics, ops, correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  ledger::Args args;
  if (!ledger::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: ledger_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--answers FILE] [--spans FILE] "
                 "[--work-dir DIR] [--record]\n");
    return 2;
  }
  try {
    return ledger::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger_bench: %s\n", e.what());
    return 1;
  }
}
