// Adaptive-communication benchmark: the Fig-6-style three-way exhibit
// of packing x overlap x send priority on the Sedov workload with the
// CPLX policy.
//
// The single-axis choices each leave time on the table: packed BSP
// coalesces every pair but the receiver still waits for the full
// exchange; plain overlap unblocks dependent blocks early but pays the
// per-message launch cost for every small send. Packing
// (--comm-adaptive) decides per (src,dst) pair from the modeled policy;
// under overlap the step runs two-stage with fused per-peer buffers
// (aggregates launch from stage-1 completions and pay no serial
// pack/unpack), and critical-path send priority runs the blocks
// feeding the predicted straggler first. Three sections:
//   1. steps/sec in SIMULATED time at paper scales for the five modes
//      {bsp, bsp+adaptive, overlap, overlap+adaptive,
//      overlap+adaptive+priority}, with coalescing counters and an
//      in-bench acceptance check at 2048 ranks: the adaptive overlap
//      modes must beat both the best packed-BSP run and plain overlap;
//   2. modeled-policy parity: per scale, the modeled policy must reach
//      >= 98% of the best hand-picked global --pack-threshold setting
//      (sweep over fixed bytes/msg points);
//   3. determinism: two identical adaptive runs produce identical
//      reports.
//
// The mesh runs denser than one block per rank (--blocks-per-rank,
// default 4): packing needs same-destination sends, which only exist
// when a rank holds several blocks.
//
// The headline metric is simulated steps/s (steps / report
// wall_seconds): host ms is printed for reference but the simulated
// schedule is what the modes change. Stdout includes host wall-clock
// values and is NOT byte-stable; the --json=FILE record (one object per
// line, appended) is the tracked artifact (BENCH_comm_adaptive.json).
//
// Flags: --steps=N (default 20) --quick --blocks-per-rank=N (default 4)
//        --ranks=N (single scale instead of the ladder) --json=FILE
#include "bench_util.hpp"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "amr/placement/registry.hpp"
#include "amr/sim/simulation.hpp"
#include "amr/workloads/sedov.hpp"

namespace {

using namespace amr;
using namespace amr::bench;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Mode {
  const char* name;
  ExecutionMode execution;
  bool adaptive;
  bool priority;
};

constexpr Mode kModes[] = {
    {"bsp", ExecutionMode::kBsp, false, false},
    {"bsp+adaptive", ExecutionMode::kBsp, true, false},
    {"overlap", ExecutionMode::kOverlap, false, false},
    {"overlap+adaptive", ExecutionMode::kOverlap, true, false},
    {"overlap+adaptive+priority", ExecutionMode::kOverlap, true, true},
};

struct ModeResult {
  double host_ms = 0.0;
  RunReport report;
  double steps_per_s = 0.0;  ///< simulated: steps / wall_seconds
};

SimulationConfig mode_config(std::int32_t ranks, std::int64_t steps,
                             std::int64_t blocks_per_rank,
                             const Mode& mode,
                             std::int64_t pack_threshold) {
  SimulationConfig cfg = base_sim_config(ranks, steps);
  cfg.root_grid =
      grid_for_ranks(static_cast<std::int64_t>(ranks) * blocks_per_rank);
  cfg.execution = mode.execution;
  // Overlap has no flux path; keep BSP identical so the exhibit
  // compares schedules, not message sets.
  cfg.include_flux_correction = false;
  cfg.comm_adaptive = mode.adaptive;
  cfg.comm_pack_threshold = pack_threshold;
  cfg.send_priority = mode.priority;
  return cfg;
}

ModeResult run_mode(std::int32_t ranks, std::int64_t steps,
                    std::int64_t blocks_per_rank, const Mode& mode,
                    std::int64_t pack_threshold = -1) {
  SimulationConfig cfg =
      mode_config(ranks, steps, blocks_per_rank, mode, pack_threshold);
  SedovParams sp;
  sp.total_steps = steps;
  sp.max_level = 1;
  SedovWorkload sedov(sp);
  const PolicyPtr policy = make_policy("cpl50");
  Simulation sim(cfg, sedov, *policy);
  ModeResult r;
  const double t0 = now_ms();
  r.report = sim.run();
  r.host_ms = now_ms() - t0;
  r.steps_per_s = r.report.wall_seconds > 0
                      ? static_cast<double>(steps) / r.report.wall_seconds
                      : 0.0;
  return r;
}

bool reports_match(const RunReport& a, const RunReport& b) {
  return a.wall_seconds == b.wall_seconds &&
         a.phases.compute == b.phases.compute &&
         a.phases.comm == b.phases.comm && a.phases.sync == b.phases.sync &&
         a.msgs_local == b.msgs_local && a.msgs_remote == b.msgs_remote &&
         a.msgs_coalesced == b.msgs_coalesced &&
         a.bytes_packed == b.bytes_packed &&
         a.final_blocks == b.final_blocks;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::int64_t steps = flags.get_int("steps", flags.quick() ? 10 : 20);
  const std::int64_t blocks_per_rank = flags.get_int("blocks-per-rank", 4);
  const std::int64_t only_ranks = flags.get_int("ranks", 0);
  const std::string json = flags.json_path();
  flags.done();

  const std::vector<std::int32_t> scales =
      only_ranks > 0
          ? std::vector<std::int32_t>{static_cast<std::int32_t>(only_ranks)}
          : flags.quick() ? std::vector<std::int32_t>{64}
                          : std::vector<std::int32_t>{512, 2048, 4096};
  constexpr std::size_t kNumModes = std::size(kModes);
  bool all_ok = true;

  print_header(
      "sedov simulated steps/s: packing x overlap x send priority");
  // results[scale][mode]
  std::vector<std::vector<ModeResult>> results;
  for (const std::int32_t ranks : scales) {
    std::vector<ModeResult> row;
    for (const Mode& mode : kModes)
      row.push_back(run_mode(ranks, steps, blocks_per_rank, mode));
    std::printf("%5d ranks x %lld steps:\n", ranks,
                static_cast<long long>(steps));
    for (std::size_t m = 0; m < kNumModes; ++m) {
      const ModeResult& r = row[m];
      const std::int64_t transfers =
          r.report.msgs_local + r.report.msgs_remote;
      std::printf(
          "  %-26s %8.4f s sim (%7.1f steps/s)  host %7.1f ms  "
          "transfers %7lld  coalesced %7lld\n",
          kModes[m].name, r.report.wall_seconds, r.steps_per_s, r.host_ms,
          static_cast<long long>(transfers),
          static_cast<long long>(r.report.msgs_coalesced));
    }
    // Acceptance check (2048 ranks, the paper's headline scale): the
    // adaptive overlap modes must beat both single-axis baselines.
    if (ranks == 2048) {
      const double best_adaptive =
          std::max(row[3].steps_per_s, row[4].steps_per_s);
      const double best_fixed =
          std::max(row[1].steps_per_s, row[2].steps_per_s);
      const bool wins = best_adaptive > best_fixed;
      std::printf(
          "  => adaptive overlap %.1f steps/s vs best fixed mode %.1f: "
          "%s\n",
          best_adaptive, best_fixed, wins ? "WIN" : "LOSS");
      all_ok = all_ok && wins;
    }
    results.push_back(std::move(row));
  }

  print_header(
      "modeled policy vs hand-picked global --pack-threshold");
  // Global sweep points in mean bytes/message: never-pack, the small
  // payloads (vertex/edge/flux), between-edge-and-face, face, pack-all.
  const std::vector<std::int64_t> sweep = {0,    512,   2560,  5120,
                                           10240, 20480, 1 << 30};
  std::vector<double> parity_ratio;
  std::vector<std::vector<double>> sweep_sps(scales.size());
  for (std::size_t s = 0; s < scales.size(); ++s) {
    const std::int32_t ranks = scales[s];
    double best_global = 0.0;
    std::int64_t best_threshold = -1;
    for (const std::int64_t t : sweep) {
      const ModeResult r =
          run_mode(ranks, steps, blocks_per_rank, kModes[3], t);
      sweep_sps[s].push_back(r.steps_per_s);
      std::printf("%5d ranks, global threshold %10lld B/msg: %7.1f "
                  "steps/s  (transfers %lld)\n",
                  ranks, static_cast<long long>(t), r.steps_per_s,
                  static_cast<long long>(r.report.msgs_local +
                                         r.report.msgs_remote));
      if (r.steps_per_s > best_global) {
        best_global = r.steps_per_s;
        best_threshold = t;
      }
    }
    const double modeled = results[s][3].steps_per_s;
    const double ratio = best_global > 0 ? modeled / best_global : 1.0;
    parity_ratio.push_back(ratio);
    const bool parity = ratio >= 0.98;
    std::printf(
        "%5d ranks: modeled %7.1f steps/s  best global %7.1f "
        "(threshold %lld B/msg)  ratio %.3f  %s\n",
        ranks, modeled, best_global,
        static_cast<long long>(best_threshold), ratio,
        parity ? "parity" : "BELOW PARITY");
    all_ok = all_ok && parity;
  }

  print_header("determinism: identical adaptive runs, identical reports");
  const std::int32_t det_ranks = scales.front();
  const ModeResult d1 =
      run_mode(det_ranks, steps, blocks_per_rank, kModes[4]);
  const ModeResult d2 =
      run_mode(det_ranks, steps, blocks_per_rank, kModes[4]);
  const bool deterministic = reports_match(d1.report, d2.report);
  std::printf("  %d ranks, overlap+adaptive+priority twice: %s\n",
              det_ranks, deterministic ? "identical" : "DIVERGED");
  all_ok = all_ok && deterministic;

  if (!json.empty()) {
    std::FILE* f = json == "-" ? stdout : std::fopen(json.c_str(), "a");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"bench\":\"comm_adaptive\",\"steps\":%lld,"
                   "\"blocks_per_rank\":%lld,\"scales\":[",
                   static_cast<long long>(steps),
                   static_cast<long long>(blocks_per_rank));
      for (std::size_t s = 0; s < scales.size(); ++s) {
        std::fprintf(f, "%s{\"ranks\":%d,\"modes\":[", s == 0 ? "" : ",",
                     scales[s]);
        for (std::size_t m = 0; m < kNumModes; ++m) {
          const ModeResult& r = results[s][m];
          std::fprintf(
              f,
              "%s{\"mode\":\"%s\",\"sim_wall_s\":%.6f,"
              "\"steps_per_s\":%.2f,\"host_ms\":%.1f,"
              "\"transfers\":%lld,\"msgs_coalesced\":%lld,"
              "\"bytes_packed\":%lld}",
              m == 0 ? "" : ",", kModes[m].name, r.report.wall_seconds,
              r.steps_per_s, r.host_ms,
              static_cast<long long>(r.report.msgs_local +
                                     r.report.msgs_remote),
              static_cast<long long>(r.report.msgs_coalesced),
              static_cast<long long>(r.report.bytes_packed));
        }
        std::fprintf(f, "],\"threshold_sweep\":[");
        for (std::size_t t = 0; t < sweep.size(); ++t)
          std::fprintf(f, "%s{\"bytes_per_msg\":%lld,\"steps_per_s\":%.2f}",
                       t == 0 ? "" : ",",
                       static_cast<long long>(sweep[t]),
                       sweep_sps[s][t]);
        std::fprintf(f, "],\"modeled_vs_best_global\":%.4f}",
                     parity_ratio[s]);
      }
      std::fprintf(f, "],\"deterministic\":%s,\"all_ok\":%s}\n",
                   deterministic ? "true" : "false",
                   all_ok ? "true" : "false");
      if (f != stdout) std::fclose(f);
    }
  }
  return all_ok ? 0 : 1;
}
