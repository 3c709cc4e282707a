// §IV-D ablation: overlapping computation to hide wait stalls — and the
// locality tension it creates.
//
// "While multiple blocks on the same rank can provide independent work,
// this creates a counterintuitive tension: a strict locality-preserving
// placement may be detrimental, as all blocks on a rank could end up
// waiting for the same remote straggler, limiting opportunities for
// independent work."
//
// Setup: a two-stage step (stage-1 compute -> send fresh ghosts ->
// stage-2 compute gated on arrivals) on a frozen refined mesh with ~4
// blocks per rank and one straggler rank whose stage-1 kernels run 4x
// slow. Grid: {BSP, overlap} x {cpl0 (locality), cpl100 (scattered)}.
// Overlap helps when a rank's blocks depend on *different* remote ranks;
// under strict locality, neighbors of the straggler have all their
// blocks gated on it.
//
// Flags: --ranks=N (default 64) --rounds=N --quick
#include "bench_util.hpp"

#include "amr/common/stats.hpp"
#include "amr/exec/overlap.hpp"
#include "amr/mesh/generators.hpp"
#include "amr/placement/registry.hpp"
#include "amr/workloads/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace amr;
  using namespace amr::bench;
  const Flags flags(argc, argv);
  const auto ranks = static_cast<std::int32_t>(
      flags.get_int("ranks", flags.quick() ? 32 : 64));
  const auto rounds = static_cast<std::int32_t>(
      flags.get_int("rounds", flags.quick() ? 10 : 30));
  flags.done();

  // Mesh with ~4 blocks per rank.
  AmrMesh mesh(grid_for_ranks(ranks));
  Rng mesh_rng(3);
  grow_to_block_count(mesh, mesh_rng,
                      static_cast<std::size_t>(4 * ranks), 2);

  // Straggler: one rank's blocks are 4x slower in stage 1 (a fail-slow
  // node or a hot kernel region).
  const std::int32_t straggler = ranks / 2;

  auto run = [&](const std::string& policy_name, bool use_overlap) {
    Rng cost_rng(11);
    SyntheticCostParams cp;
    cp.clamp_max_ratio = 2.0;
    const auto base = synthetic_costs(mesh.size(),
                                      CostDistribution::kGaussian,
                                      cost_rng, cp);
    std::vector<double> place_costs = base;
    const PolicyPtr policy = make_policy(policy_name);
    const Placement placement = policy->place(place_costs, ranks);

    std::vector<TimeNs> costs(mesh.size());
    for (std::size_t b = 0; b < mesh.size(); ++b) {
      const double slow = placement[b] == straggler ? 4.0 : 1.0;
      costs[b] = static_cast<TimeNs>(base[b] * slow * 150e3);
    }

    const ClusterTopology topo(ranks, 16);
    Engine engine;
    FabricParams fp = FabricParams::tuned();
    fp.remote_jitter = 0;
    Fabric fabric(topo, fp, Rng(1));
    Comm comm(engine, fabric, ranks);

    RunningStats wall_ms;
    RunningStats idle_ms;
    if (use_overlap) {
      OverlapExecutor executor(engine, comm);
      const OverlapPlan work = build_overlap_plan(
          mesh, placement, costs, ranks, {}, /*pack=*/false, 0.5);
      for (std::int32_t round = 0; round < rounds; ++round) {
        const StepResult r =
            executor.execute(work, static_cast<std::uint64_t>(round));
        wall_ms.add(to_ms(r.wall_ns()));
        RunningStats idle;
        for (const auto& s : r.ranks) idle.add(to_ms(s.recv_wait_ns));
        idle_ms.add(idle.mean());
      }
    } else {
      StepExecutor executor(engine, comm);
      const auto work =
          two_stage_bsp_work(mesh, placement, costs, ranks, 0.5);
      for (std::int32_t round = 0; round < rounds; ++round) {
        const StepResult r =
            executor.execute(work, static_cast<std::uint64_t>(round));
        wall_ms.add(to_ms(r.wall_ns()));
        RunningStats idle;
        for (const auto& s : r.ranks) idle.add(to_ms(s.recv_wait_ns));
        idle_ms.add(idle.mean());
      }
    }
    return std::make_pair(wall_ms.mean(), idle_ms.mean());
  };

  print_header("SIV-D ablation: overlap execution x placement locality");
  std::printf("%-10s %-9s %12s %14s\n", "placement", "executor",
              "step ms", "mean idle ms");
  print_rule();
  double bsp_local = 0;
  double ovl_local = 0;
  double bsp_scattered = 0;
  double ovl_scattered = 0;
  for (const char* policy : {"cpl0", "cpl100"}) {
    for (const bool overlap : {false, true}) {
      const auto [wall, idle] = run(policy, overlap);
      std::printf("%-10s %-9s %12.3f %14.4f\n", policy,
                  overlap ? "overlap" : "bsp", wall, idle);
      if (std::string(policy) == "cpl0")
        (overlap ? ovl_local : bsp_local) = wall;
      else
        (overlap ? ovl_scattered : bsp_scattered) = wall;
      std::fflush(stdout);
    }
  }

  const double gain_local = 100.0 * (bsp_local - ovl_local) / bsp_local;
  const double gain_scattered =
      100.0 * (bsp_scattered - ovl_scattered) / bsp_scattered;
  std::printf("\noverlap gain: %.1f%% under locality-preserving cpl0, "
              "%.1f%% under scattered cpl100\n",
              gain_local, gain_scattered);
  std::printf(
      "\npaper tension reproduced when the scattered placement gains "
      "more: strict locality leaves the straggler's neighbors with no "
      "independent work (all their blocks wait on the same slow rank), "
      "while diverse neighbor sets let overlap hide the stall.\n");
  return 0;
}
