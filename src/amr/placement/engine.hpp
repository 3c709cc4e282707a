// Parallel auto-X placement engine (DESIGN.md "Placement engine and
// auto-X tuning").
//
// Each regrid epoch, auto-X scores several candidate X values over one
// cost vector. The engine does that in three ways cheaper than running
// CplxPolicy once per X, with byte-identical placements (ctest
// placement_tuning_determinism and the fuzzes in
// tests/placement/engine_test.cpp hold it to that):
//
//   1. Pooled solves — the chunked-CDP base split, shared by every
//      candidate, solves its chunks concurrently on a borrowed amr::par
//      pool (chunked_cdp_split), and the per-candidate rebalance +
//      scoring passes run concurrently too. Results land in
//      index-addressed slots and every reduction scans those slots in
//      index order, so the output is independent of thread count and
//      interleaving.
//   2. Shared rebalance prefix — the candidate Xs of one epoch share
//      the rank loads, the balance guard, the rank order and the LPT
//      block order (built once, for the largest X); each X runs only
//      its tail, a filter of that order plus the LPT heap loop
//      (CplxPolicy::rebalance_prefix / rebalance_tail).
//   3. Scratch reuse — the prefix and one RebalanceScratch (targets,
//      block order, LPT 4-ary heap) per candidate slot survive across
//      epochs, keyed on the engine's lifetime rather than rebuilt per
//      invocation. Scratch carries capacity only, never decisions.
//
// The engine is run-scoped (one per SimRuntime), so nothing it holds can
// alias across serve tenants sharing the process.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "amr/placement/cplx.hpp"
#include "amr/placement/metrics.hpp"
#include "amr/placement/policy.hpp"

namespace amr {

class ThreadPool;

/// One candidate X's placement plus the features the auto-X tuner scores:
/// load balance under the estimated costs and the inter-node share of the
/// boundary-exchange messages the placement would induce.
struct CandidateEval {
  double x_percent = 0.0;
  double makespan = 0.0;
  double mean_load = 0.0;
  double imbalance = 1.0;     ///< makespan / mean load (1.0 = perfect)
  double remote_share = 0.0;  ///< inter-node fraction of MPI messages
  Placement placement;
};

class PlacementEngine {
 public:
  PlacementEngine() = default;
  PlacementEngine(const PlacementEngine&) = delete;
  PlacementEngine& operator=(const PlacementEngine&) = delete;

  /// Run chunk solves and candidate evaluations on `pool` (borrowed; null
  /// keeps the engine sequential). Output bytes never depend on the pool
  /// or its size.
  void set_parallel(ThreadPool* pool) { pool_ = pool; }

  /// Evaluate candidate X values concurrently over the shared base split
  /// and one shared rebalance prefix; each out[i].placement is
  /// byte-identical to CplxPolicy(xs[i], chunk_ranks).place(). out[i]
  /// corresponds to xs[i]; slot order is the reduction order.
  void evaluate_candidates(std::span<const double> costs,
                           std::int32_t nranks, std::span<const double> xs,
                           std::int32_t chunk_ranks, const AmrMesh& mesh,
                           const ClusterTopology& topo,
                           const MessageSizeModel& sizes,
                           std::vector<CandidateEval>& out);

 private:
  ThreadPool* pool_ = nullptr;
  RebalancePrefix prefix_;  ///< evaluate_candidates' shared prefix
  std::vector<RebalanceScratch> scratch_;  ///< one per candidate slot
};

}  // namespace amr
