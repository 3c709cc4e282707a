// Auto-X tuning benchmark (BENCH_placement_tuning.json).
//
// Two sections:
//   1. auto-X quality on Sedov: simulated step time under every fixed X
//      vs --auto-cplx, and the gap between auto and the best hand-picked
//      candidate (the paper hand-tunes X per scale; the tuner should
//      land within a few percent without being told);
//   2. the same sweep on the cooling-flow workload (higher sustained
//      variability — a different best X than Sedov's, which is the
//      point of tuning online).
//
// Numbers land in the --json=FILE record (one JSON object per line,
// appended) so BENCH_placement_tuning.json tracks the trajectory across
// commits. Every number is simulated seconds, so stdout is byte-stable.
//
// Flags: --steps=N (default 120) --quick --json=FILE
#include "bench_util.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "amr/placement/registry.hpp"
#include "amr/sim/simulation.hpp"
#include "amr/workloads/cooling.hpp"
#include "amr/workloads/sedov.hpp"

namespace {

using namespace amr;
using namespace amr::bench;

struct QualityRow {
  std::string workload;
  std::vector<double> fixed_s;  ///< simulated seconds per fixed X
  double auto_s = 0.0;
  double best_fixed_s = 0.0;
  double gap_pct = 0.0;  ///< (auto - best fixed) / best fixed, percent
};

constexpr const char* kFixedPolicies[] = {"cpl0", "cpl25", "cpl50",
                                          "cpl75", "cpl100"};

QualityRow bench_quality(const char* workload, std::int32_t ranks,
                         std::int64_t steps) {
  QualityRow row;
  row.workload = workload;
  auto run = [&](const char* policy, bool auto_cplx) {
    SimulationConfig cfg = base_sim_config(ranks, steps);
    cfg.auto_cplx = auto_cplx;
    // Redistribute on measured imbalance (identical for fixed and auto
    // runs): workloads whose mesh never regrids would otherwise place
    // exactly once, before any cost telemetry exists — nothing for a
    // fixed X to exploit or the tuner to learn from.
    cfg.trigger.kind = RebalanceTriggerKind::kImbalance;
    const PolicyPtr pol = make_policy(policy);
    if (std::strcmp(workload, "cooling") == 0) {
      CoolingParams cp;
      cp.clump_boost = 8.0;
      CoolingWorkload w(cp);
      Simulation sim(cfg, w, *pol);
      return sim.run().wall_seconds;
    }
    SedovParams sp;
    sp.total_steps = steps;
    sp.max_level = 1;
    SedovWorkload w(sp);
    Simulation sim(cfg, w, *pol);
    return sim.run().wall_seconds;
  };
  row.best_fixed_s = 1e30;
  for (const char* policy : kFixedPolicies) {
    const double s = run(policy, false);
    row.fixed_s.push_back(s);
    row.best_fixed_s = std::min(row.best_fixed_s, s);
  }
  row.auto_s = run("cpl50", true);
  row.gap_pct = (row.auto_s - row.best_fixed_s) / row.best_fixed_s * 100.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::int64_t steps = flags.get_int("steps", flags.quick() ? 12 : 120);
  const std::string json = flags.json_path();
  flags.done();

  print_header("auto-X quality: simulated step time vs hand-picked X");
  const auto ranks =
      static_cast<std::int32_t>(flags.quick() ? 64 : 128);
  std::vector<QualityRow> quality;
  for (const char* workload : {"sedov", "cooling"}) {
    const QualityRow row = bench_quality(workload, ranks, steps);
    quality.push_back(row);
    std::printf("%-8s fixed X:", workload);
    for (std::size_t i = 0; i < row.fixed_s.size(); ++i)
      std::printf("  %s %.3fs", kFixedPolicies[i], row.fixed_s[i]);
    std::printf("\n         auto-cplx %.3fs  best fixed %.3fs  "
                "gap %+.2f%%\n",
                row.auto_s, row.best_fixed_s, row.gap_pct);
  }

  if (!json.empty()) {
    std::FILE* f = json == "-" ? stdout : std::fopen(json.c_str(), "a");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"bench\":\"placement_tuning\",\"steps\":%lld,"
                   "\"quality\":[",
                   static_cast<long long>(steps));
      for (std::size_t i = 0; i < quality.size(); ++i) {
        const QualityRow& q = quality[i];
        std::fprintf(f, "%s{\"workload\":\"%s\",", i == 0 ? "" : ",",
                     q.workload.c_str());
        for (std::size_t j = 0; j < q.fixed_s.size(); ++j)
          std::fprintf(f, "\"%s_s\":%.4f,", kFixedPolicies[j],
                       q.fixed_s[j]);
        std::fprintf(f,
                     "\"auto_s\":%.4f,\"best_fixed_s\":%.4f,"
                     "\"auto_gap_pct\":%.2f}",
                     q.auto_s, q.best_fixed_s, q.gap_pct);
      }
      std::fprintf(f, "]}\n");
      if (f != stdout) std::fclose(f);
    }
  }
  return 0;
}
