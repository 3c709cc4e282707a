#include "amr/placement/engine.hpp"

#include <algorithm>

#include "amr/par/thread_pool.hpp"
#include "amr/placement/chunked_cdp.hpp"

namespace amr {

void PlacementEngine::evaluate_candidates(
    std::span<const double> costs, std::int32_t nranks,
    std::span<const double> xs, std::int32_t chunk_ranks,
    const AmrMesh& mesh, const ClusterTopology& topo,
    const MessageSizeModel& sizes, std::vector<CandidateEval>& out) {
  const Placement base = chunked_cdp_split(costs, nranks, chunk_ranks, pool_);
  out.resize(xs.size());
  if (scratch_.size() < xs.size()) scratch_.resize(xs.size());
  // Materialize the mesh's lazily built neighbor table on this thread:
  // comm_metrics reads it from every worker, and the first call mutates.
  mesh.neighbor_lists();
  // The X-independent rebalance work runs once, on this thread, where
  // its sorts may use the pool (parallel_for is not reentrant, so the
  // per-X tails below stay sequential inside each task).
  double max_x = 0.0;
  for (const double x : xs) max_x = std::max(max_x, x);
  CplxPolicy::rebalance_prefix(costs, base, nranks, max_x, prefix_, pool_);
  const auto eval = [&](std::size_t i) {
    CandidateEval& ce = out[i];
    ce.x_percent = xs[i];
    CplxPolicy::rebalance_tail(costs, base, xs[i], prefix_, ce.placement,
                               scratch_[i]);
    const LoadMetrics lm = load_metrics(costs, ce.placement, nranks);
    ce.makespan = lm.makespan;
    ce.mean_load = lm.mean_load;
    ce.imbalance = lm.mean_load > 0.0 ? lm.imbalance : 1.0;
    const CommMetrics cm = comm_metrics(mesh, ce.placement, topo, sizes);
    ce.remote_share = cm.remote_fraction();
  };
  if (pool_ != nullptr && xs.size() > 1)
    pool_->parallel_for(xs.size(), eval);
  else
    for (std::size_t i = 0; i < xs.size(); ++i) eval(i);
}

}  // namespace amr
