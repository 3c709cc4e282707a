// Sharded-DES scaling benchmark: full Sedov steps/s vs cores, 2K-16K
// simulated ranks.
//
// For each rank scale the same end-to-end Sedov run (mesh adaptation,
// placement, BSP execution on the simulated cluster) executes once on
// the legacy sequential engine (--des-shards=0) and once per shard
// count in {1, 2, 4, 8}; shard counts clamp to the node count and the
// worker pool clamps to the host's cores, so `cores` records what
// actually ran concurrently. Every sharded run's simulated results must
// be field-identical to the shards=1 run (the determinism contract;
// ctest par_des_determinism diffs full stdout separately) — the bench
// exits nonzero on any mismatch. The sequential run is reported as its
// own mode: it draws per-fabric rather than per-node RNG jitter, so its
// simulated answer is legitimately different and is never diffed
// against the sharded series.
//
// Stdout includes host wall-clock values and is NOT byte-stable. The
// --json=FILE record (one object per invocation, appended) is what
// BENCH_par_des.json tracks across commits; every point carries its
// mode ("sequential" or "sharded"), shard count, and core count.
//
// Flags: --steps=N (default 12) --trials=N (default 3)
//        --max-ranks=N (default 16384) --quick --json=FILE
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
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

struct Point {
  std::int32_t ranks = 0;
  std::int32_t shards = 0;  ///< 0 = sequential engine
  std::int32_t cores = 1;   ///< workers that actually ran concurrently
  double best_ms = 1e30;
  double steps_per_s = 0.0;
  RunReport report;
};

/// Best-of-`trials` full Sedov run at `ranks` with `shards` DES shards.
Point run_point(std::int32_t ranks, std::int32_t shards,
                std::int64_t steps, int trials) {
  Point p;
  p.ranks = ranks;
  p.shards = shards;
  const std::int32_t nodes = std::max(1, ranks / 16);
  p.cores = shards <= 0
                ? 1
                : std::min({shards, nodes, ThreadPool::hardware_jobs()});
  for (int t = 0; t < trials; ++t) {
    SimulationConfig cfg = base_sim_config(ranks, steps);
    cfg.des_shards = shards;
    SedovParams sp;
    sp.total_steps = steps;
    sp.max_level = 1;
    SedovWorkload sedov(sp);
    const PolicyPtr policy = make_policy("cpl50");
    Simulation sim(cfg, sedov, *policy);
    const double t0 = now_ms();
    RunReport report = sim.run();
    const double ms = now_ms() - t0;
    if (ms < p.best_ms) {
      p.best_ms = ms;
      p.report = std::move(report);
    }
  }
  p.steps_per_s = static_cast<double>(steps) / (p.best_ms / 1000.0);
  return p;
}

/// Simulated results every sharded run must agree on regardless of
/// shard count.
bool reports_match(const RunReport& a, const RunReport& b) {
  return a.wall_seconds == b.wall_seconds &&
         a.phases.compute == b.phases.compute &&
         a.phases.comm == b.phases.comm && a.phases.sync == b.phases.sync &&
         a.phases.rebalance == b.phases.rebalance &&
         a.lb_invocations == b.lb_invocations &&
         a.final_blocks == b.final_blocks &&
         a.msgs_local == b.msgs_local && a.msgs_remote == b.msgs_remote &&
         a.blocks_migrated == b.blocks_migrated;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::int64_t steps =
      flags.get_int("steps", flags.quick() ? 6 : 12);
  const int trials =
      static_cast<int>(flags.get_int("trials", flags.quick() ? 1 : 3));
  const std::int64_t max_ranks =
      flags.get_int("max-ranks", flags.quick() ? 256 : 16384);
  const std::string json = flags.json_path();
  flags.done();

  std::vector<std::int32_t> scales;
  for (std::int64_t r = flags.quick() ? 128 : 2048; r <= max_ranks; r *= 2)
    scales.push_back(static_cast<std::int32_t>(r));
  const std::vector<std::int32_t> shard_counts{0, 1, 2, 4, 8};
  const int hw = ThreadPool::hardware_jobs();

  print_header("sharded DES: full Sedov steps/s vs cores");
  std::printf("(best of %d trials x %lld steps; host has %d core%s — "
              "`cores` is what each point actually used)\n",
              trials, static_cast<long long>(steps), hw,
              hw == 1 ? "" : "s");

  std::vector<Point> points;
  bool all_identical = true;
  for (const std::int32_t ranks : scales) {
    std::printf("\n%6d ranks:\n", ranks);
    std::size_t base = points.size();  // shards=1 index for this scale
    for (const std::int32_t shards : shard_counts) {
      if (shards == 1) base = points.size();
      points.push_back(run_point(ranks, shards, steps, trials));
      const Point& p = points.back();
      std::string check = "     -";
      double speedup = 0.0;
      if (p.shards >= 1) {
        const bool same = reports_match(p.report, points[base].report);
        all_identical = all_identical && same;
        check = same ? "   yes" : "    NO";
        speedup = p.best_ms > 0 ? points[base].best_ms / p.best_ms : 0.0;
      }
      std::printf("  %s shards=%d cores=%d %9.1f ms  %7.2f steps/s"
                  "  speedup %5.2fx  identical:%s\n",
                  p.shards == 0 ? "sequential" : "   sharded", p.shards,
                  p.cores, p.best_ms, p.steps_per_s, speedup,
                  check.c_str());
    }
  }
  std::printf("\nsharded results identical across shard counts: %s\n",
              all_identical ? "yes" : "NO");

  if (!json.empty()) {
    std::FILE* f = json == "-" ? stdout : std::fopen(json.c_str(), "a");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"bench\":\"par_des\",\"steps\":%lld,\"trials\":%d,"
                   "\"hw_cores\":%d,\"identical\":%s,\"points\":[",
                   static_cast<long long>(steps), trials, hw,
                   all_identical ? "true" : "false");
      for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        std::fprintf(f,
                     "%s{\"ranks\":%d,\"mode\":\"%s\",\"shards\":%d,"
                     "\"cores\":%d,\"wall_ms\":%.1f,"
                     "\"steps_per_s\":%.2f}",
                     i == 0 ? "" : ",", p.ranks,
                     p.shards == 0 ? "sequential" : "sharded", p.shards,
                     p.cores, p.best_ms, p.steps_per_s);
      }
      std::fprintf(f, "]}\n");
      if (f != stdout) std::fclose(f);
    }
  }
  return all_identical ? 0 : 1;
}
