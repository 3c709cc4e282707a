// Placement engine + auto-X tuning benchmark (the ISSUE's exhibit:
// BENCH_placement_tuning.json).
//
// Three sections:
//   1. per-regrid-epoch placement cost at scale: the full CplxPolicy
//      rebuild vs the incremental engine (chunk memo + parallel solves)
//      over a synthetic regrid sequence whose cost drift is localized —
//      the remap-carried-costs regime the delta path is built for. An
//      in-bench guard asserts the two placements stay byte-identical
//      (full stdout diffing is ctest placement_tuning_determinism's
//      job);
//   2. auto-X quality on Sedov: simulated step time under every fixed X
//      vs --auto-cplx, and the gap between auto and the best hand-picked
//      candidate (the paper hand-tunes X per scale; the tuner should
//      land within a few percent without being told);
//   3. the same sweep on the cooling-flow workload (higher sustained
//      variability — a different best X than Sedov's, which is the
//      point of tuning online).
//
// Numbers land in the --json=FILE record (one JSON object per line,
// appended) so BENCH_placement_tuning.json tracks the trajectory across
// commits. Stdout includes wall-clock values and is NOT byte-stable.
//
// Flags: --epochs=N (default 60) --steps=N (default 120) --trials=N
//        (default 3) --quick --json=FILE
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "amr/common/rng.hpp"
#include "amr/par/thread_pool.hpp"
#include "amr/placement/engine.hpp"
#include "amr/placement/registry.hpp"
#include "amr/sim/simulation.hpp"
#include "amr/workloads/cooling.hpp"
#include "amr/workloads/sedov.hpp"

namespace {

using namespace amr;
using namespace amr::bench;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Regrid-like cost sequence: most epochs drift a localized span (the
/// remap-carried regime), some insert/remove blocks, some carry the
/// vector unchanged.
std::vector<std::vector<double>> make_epoch_costs(std::size_t nblocks,
                                                  int epochs,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> out;
  std::vector<double> costs(nblocks);
  for (auto& c : costs) c = rng.exponential(1.0);
  out.push_back(costs);
  for (int e = 1; e < epochs; ++e) {
    const double kind = rng.uniform();
    if (kind < 0.15) {  // refine: insert a few blocks
      const auto at = static_cast<std::size_t>(
          rng.uniform() * static_cast<double>(costs.size()));
      costs.insert(costs.begin() + static_cast<std::ptrdiff_t>(at),
                   {rng.exponential(1.0), rng.exponential(1.0)});
    } else if (kind < 0.25 && costs.size() > 64) {  // coarsen
      const auto at = static_cast<std::size_t>(
          rng.uniform() * static_cast<double>(costs.size() - 8));
      costs.erase(costs.begin() + static_cast<std::ptrdiff_t>(at),
                  costs.begin() + static_cast<std::ptrdiff_t>(at + 8));
    } else if (kind < 0.85) {  // localized cost drift
      const auto at = static_cast<std::size_t>(
          rng.uniform() * static_cast<double>(costs.size()));
      const std::size_t span = std::min<std::size_t>(32, costs.size() - at);
      for (std::size_t i = at; i < at + span; ++i)
        costs[i] = rng.exponential(1.0);
    }  // else: unchanged (pure remap-carried epoch)
    out.push_back(costs);
  }
  return out;
}

struct ScaleRow {
  std::int32_t ranks = 0;
  std::size_t blocks = 0;
  double full_ms_per_epoch = 0.0;
  double delta_ms_per_epoch = 0.0;
  std::int64_t chunks_reused = 0;
  std::int64_t chunks_total = 0;
  bool identical = true;
};

ScaleRow bench_scale(std::int32_t ranks, int epochs, int trials) {
  const std::size_t nblocks = static_cast<std::size_t>(ranks) * 8;
  const auto seq = make_epoch_costs(nblocks, epochs, 101);
  const CplxPolicy full(50.0);
  ScaleRow row;
  row.ranks = ranks;
  row.blocks = nblocks;

  std::vector<Placement> reference(seq.size());
  double best_full = 1e30;
  for (int t = 0; t < trials; ++t) {
    const double t0 = now_ms();
    for (std::size_t e = 0; e < seq.size(); ++e)
      reference[e] = full.place(seq[e], ranks);
    best_full = std::min(best_full, now_ms() - t0);
  }
  row.full_ms_per_epoch = best_full / static_cast<double>(seq.size());

  ThreadPool pool(std::min(ThreadPool::hardware_jobs(), 8));
  double best_delta = 1e30;
  for (int t = 0; t < trials; ++t) {
    PlacementEngine engine;  // fresh memo per trial: first epoch is cold
    engine.set_parallel(&pool);
    const double t0 = now_ms();
    for (std::size_t e = 0; e < seq.size(); ++e) {
      const Placement p = engine.place_cplx(
          seq[e], ranks, full.x_percent(), full.chunk_ranks(),
          static_cast<std::uint64_t>(e) + 1);
      if (p != reference[e]) row.identical = false;
    }
    best_delta = std::min(best_delta, now_ms() - t0);
    row.chunks_reused = engine.stats().chunks_reused;
    row.chunks_total = engine.stats().chunks_total;
  }
  row.delta_ms_per_epoch = best_delta / static_cast<double>(seq.size());
  return row;
}

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
    cfg.placement_incremental = auto_cplx;
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
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  const int epochs = static_cast<int>(
      flags.get_int_in("epochs", flags.quick() ? 12 : 60, 1, kIntMax));
  const std::int64_t steps = flags.get_int("steps", flags.quick() ? 12 : 120);
  const int trials = static_cast<int>(
      flags.get_int_in("trials", flags.quick() ? 1 : 3, 1, kIntMax));
  const std::string json = flags.json_path();
  flags.done();

  print_header("placement ms/regrid-epoch: full rebuild vs delta engine");
  const std::vector<std::int32_t> scales =
      flags.quick() ? std::vector<std::int32_t>{256}
                    : std::vector<std::int32_t>{1024, 4096, 8192};
  std::vector<ScaleRow> rows;
  bool all_identical = true;
  for (const std::int32_t ranks : scales) {
    const ScaleRow row = bench_scale(ranks, epochs, trials);
    rows.push_back(row);
    all_identical = all_identical && row.identical;
    std::printf(
        "%5d ranks (%6zu blocks) x %d epochs: full %8.3f ms/epoch  "
        "delta %8.3f ms/epoch  speedup %.2fx\n",
        row.ranks, row.blocks, epochs, row.full_ms_per_epoch,
        row.delta_ms_per_epoch,
        row.delta_ms_per_epoch > 0
            ? row.full_ms_per_epoch / row.delta_ms_per_epoch
            : 0.0);
    std::printf("        chunk memo: %lld reused / %lld total   "
                "placements identical: %s\n",
                static_cast<long long>(row.chunks_reused),
                static_cast<long long>(row.chunks_total),
                row.identical ? "yes" : "NO");
  }

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
                   "{\"bench\":\"placement_tuning\",\"epochs\":%d,"
                   "\"steps\":%lld,\"trials\":%d,\"scales\":[",
                   epochs, static_cast<long long>(steps), trials);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const ScaleRow& r = rows[i];
        std::fprintf(
            f,
            "%s{\"ranks\":%d,\"blocks\":%zu,\"full_ms_per_epoch\":%.3f,"
            "\"delta_ms_per_epoch\":%.3f,\"speedup\":%.3f,"
            "\"chunks_reused\":%lld,\"chunks_total\":%lld,"
            "\"identical\":%s}",
            i == 0 ? "" : ",", r.ranks, r.blocks, r.full_ms_per_epoch,
            r.delta_ms_per_epoch,
            r.delta_ms_per_epoch > 0
                ? r.full_ms_per_epoch / r.delta_ms_per_epoch
                : 0.0,
            static_cast<long long>(r.chunks_reused),
            static_cast<long long>(r.chunks_total),
            r.identical ? "true" : "false");
      }
      std::fprintf(f, "],\"quality\":[");
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
  return all_identical ? 0 : 1;
}
