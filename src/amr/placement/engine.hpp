// Incremental parallel placement engine (DESIGN.md "Placement engine and
// auto-X tuning").
//
// The regrid-epoch placement phase was the last serial hot path: every
// epoch re-ran the chunked-CDP prefix-sum DP over the full block range
// and rebuilt the LPT rank heap from scratch, even when most SFC
// segments' costs were remap-carried unchanged. This engine closes that
// gap four ways:
//
//   1. Delta placement — the canonical chunk boundaries are recomputed
//      with the exact scan ChunkedCdpPolicy uses (chunk_spans), then each
//      chunk's restricted-CDP solve is reused from the previous epoch
//      when its sub-cost vector is unchanged (full content comparison,
//      never just a hash). Every reused piece is an identical-input copy
//      of a pure function's output, so the incremental result is
//      byte-identical to a full rebuild by construction — ctest
//      placement_tuning_determinism and the fuzz test in
//      tests/placement/engine_test.cpp hold it to that.
//   2. Parallel evaluation — chunks that do need re-solving, and the
//      per-candidate-X rebalance + scoring passes, run concurrently on a
//      borrowed amr::par pool. Results land in index-addressed slots and
//      every reduction scans those slots in index order, so the output is
//      independent of thread count and interleaving.
//   3. Shared rebalance prefix — the candidate Xs of one epoch share
//      the rank loads, the balance guard, the rank order and the LPT
//      block order (built once, for the largest X); each X runs only
//      its tail, a filter of that order plus the LPT heap loop
//      (CplxPolicy::rebalance_prefix / rebalance_tail).
//   4. Scratch reuse — the prefix and one RebalanceScratch (targets,
//      block order, LPT 4-ary heap) per candidate slot survive across
//      epochs, keyed on the engine's lifetime rather than rebuilt per
//      invocation.
//
// The engine is run-scoped (one per SimRuntime): its memo is equivalent
// to keying the global CdpSplitCache on the run's placement epoch, but
// cannot alias across serve tenants sharing the process.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "amr/placement/chunked_cdp.hpp"
#include "amr/placement/cplx.hpp"
#include "amr/placement/metrics.hpp"
#include "amr/placement/policy.hpp"

namespace amr {

class ThreadPool;

/// Cumulative reuse counters — diagnostics for traces and the placement
/// telemetry table; never part of simulated results.
struct PlacementEngineStats {
  std::int64_t epochs = 0;         ///< base_split invocations
  std::int64_t chunks_total = 0;
  std::int64_t chunks_reused = 0;  ///< chunk solves served from the memo
  std::int64_t base_reused = 0;    ///< whole-base fast path (epoch token)
  std::int64_t placements_reused = 0;  ///< whole-placement memo hits
  std::int64_t candidates_evaluated = 0;
};

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

  /// Incremental CPLX placement: delta chunked-CDP base + LPT rebalance,
  /// byte-identical to CplxPolicy(x_percent, chunk_ranks).place().
  /// `cost_epoch` is an opaque input-identity token: when it matches the
  /// previous invocation (same mesh version and cost provenance) the
  /// whole base is reused without even the content comparison.
  Placement place_cplx(std::span<const double> costs, std::int32_t nranks,
                       double x_percent, std::int32_t chunk_ranks,
                       std::uint64_t cost_epoch);

  /// Evaluate candidate X values concurrently over the shared base split
  /// and one shared rebalance prefix; each out[i].placement is
  /// byte-identical to CplxPolicy(xs[i], chunk_ranks).place(). out[i]
  /// corresponds to xs[i]; slot order is the reduction order.
  void evaluate_candidates(std::span<const double> costs,
                           std::int32_t nranks, std::span<const double> xs,
                           std::int32_t chunk_ranks,
                           std::uint64_t cost_epoch, const AmrMesh& mesh,
                           const ClusterTopology& topo,
                           const MessageSizeModel& sizes,
                           std::vector<CandidateEval>& out);

  const PlacementEngineStats& stats() const { return stats_; }
  /// Chunk reuse of the most recent base_split (the telemetry row).
  std::int64_t last_chunks_total() const { return last_total_; }
  std::int64_t last_chunks_reused() const { return last_reused_; }

 private:
  /// Compute (or incrementally reuse) the chunked-CDP base split; the
  /// returned reference stays valid until the next engine call.
  const Placement& base_split(std::span<const double> costs,
                              std::int32_t nranks, std::int32_t chunk_ranks,
                              std::uint64_t cost_epoch);

  struct ChunkRecord {
    ChunkSpan span;
    std::vector<double> costs;  ///< sub-costs the solve was run on
    Placement local;            ///< chunk-local restricted-CDP assignment
  };

  ThreadPool* pool_ = nullptr;
  std::int32_t prev_nranks_ = -1;
  std::int32_t prev_chunk_ranks_ = -1;
  std::uint64_t prev_cost_epoch_ = 0;
  bool have_epoch_ = false;
  std::vector<ChunkRecord> chunks_;
  Placement base_;
  // Whole-placement memo: when every chunk was reused (cost content
  // unchanged) and the X matches, the previous rebalance output is the
  // answer — the remap-carried no-op-regrid epoch costs one comparison.
  Placement out_;
  double prev_x_ = -1.0;
  bool out_valid_ = false;
  RebalancePrefix prefix_;  ///< evaluate_candidates' shared prefix
  std::vector<RebalanceScratch> scratch_;  ///< one per candidate slot
  PlacementEngineStats stats_;
  std::int64_t last_total_ = 0;
  std::int64_t last_reused_ = 0;
};

}  // namespace amr
