#include "amr/sim/exchange_bench.hpp"

#include "amr/common/check.hpp"
#include "amr/common/stats.hpp"
#include "amr/des/engine.hpp"
#include "amr/exec/step_executor.hpp"
#include "amr/topo/topology.hpp"

namespace amr {

ExchangeRoundsResult run_exchange_rounds(
    const AmrMesh& mesh, const Placement& placement,
    const ExchangeRoundsConfig& config) {
  AMR_CHECK(placement.size() == mesh.size());
  const ClusterTopology topo(config.nranks, config.ranks_per_node);
  Engine engine;
  Rng rng(config.seed);
  Fabric fabric(topo, config.fabric, rng.split(0xfab));
  Comm comm(engine, fabric, config.nranks);
  StepExecutor executor(engine, comm);

  ExchangeRoundsResult result;
  std::vector<RunningStats> rank_comm(
      static_cast<std::size_t>(config.nranks));

  // Base work: the exchange pattern is fixed; compute costs (if any) vary
  // per round via the callback.
  std::vector<TimeNs> costs(mesh.size(), 0);
  Rng cost_rng = rng.split(0xc05);
  BspPlan plan;
  BspBuildScratch scratch;

  const std::int32_t total_rounds = config.rounds + config.warmup_rounds;
  for (std::int32_t round = 0; round < total_rounds; ++round) {
    if (config.compute_cost) {
      for (std::size_t b = 0; b < mesh.size(); ++b)
        costs[b] = config.compute_cost(b, round, cost_rng);
    }
    build_bsp_plan(mesh, placement, costs, config.nranks, MessageSizeModel{},
                   /*include_flux=*/false, /*pack=*/false,
                   config.ordering, /*stage1_frac=*/0.0, plan, scratch);
    const StepResult step =
        executor.execute(plan, static_cast<std::uint64_t>(round));

    if (round < config.warmup_rounds) continue;
    const double latency_ms = to_ms(step.wall_ns());
    if (step.wall_ns() > config.outlier_cutoff) {
      // Fabric-level recovery behaviour unrelated to placement (§VI-C).
      ++result.rounds_discarded;
      continue;
    }
    result.round_latency_ms.push_back(latency_ms);
    std::vector<double> round_samples(step.ranks.size());
    std::vector<double> active_samples(step.ranks.size());
    for (std::size_t r = 0; r < step.ranks.size(); ++r) {
      const double comm_ms = to_ms(step.ranks[r].comm_ns());
      rank_comm[r].add(comm_ms);
      round_samples[r] = comm_ms;
      active_samples[r] =
          to_ms(step.ranks[r].pack_ns + step.ranks[r].send_wait_ns);
    }
    result.round_rank_comm_ms.push_back(std::move(round_samples));
    result.round_rank_active_ms.push_back(std::move(active_samples));
  }

  result.rank_comm_ms.reserve(rank_comm.size());
  result.rank_comm_cv.reserve(rank_comm.size());
  for (const auto& s : rank_comm) {
    result.rank_comm_ms.push_back(s.mean());
    result.rank_comm_cv.push_back(s.cv());
  }
  result.fabric_stats = fabric.stats();
  return result;
}

}  // namespace amr
