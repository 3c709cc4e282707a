// CPLX: tunable hybrid placement (paper §V-D).
//
// Design principle: "it is easier to selectively break locality in a
// contiguous placement than to restore locality in an arbitrary one".
// CPLX starts from a (chunked) CDP placement, sorts ranks by load, selects
// the X% most-imbalanced ranks — drawn from BOTH ends of the sorted list,
// since rebalancing needs overloaded sources and underloaded destinations
// — and re-places exactly those ranks' blocks with LPT. X=0 is pure CDP
// (locality-preserving); X=100 is pure LPT (load-optimal).
#pragma once

#include "amr/placement/lpt.hpp"
#include "amr/placement/policy.hpp"

namespace amr {

class ThreadPool;

/// Packed (key, id) sort element: both rebalance sorts order by key
/// descending with ascending-id tie-break — a strict total order, so the
/// sorted sequence is unique and safe to produce in parallel.
struct RebalanceKey {
  double key;
  std::int32_t id;
};

/// The part of the rebalance step that every X shares: per-rank loads,
/// the balance guard, the rank order by load, and the LPT block order
/// over the targets of the largest X asked for. Targets grow
/// monotonically with X, and the block order is a strict total order, so
/// each smaller X's LPT order is the subsequence of `blocks` whose rank
/// it selects. Buffers keep their capacity across rebuilds.
struct RebalancePrefix {
  /// One entry of the LPT block order: the block, and the smallest
  /// selected-rank count whose targets include that block's rank.
  struct Entry {
    std::int32_t block;
    std::int32_t select_k;
  };
  std::vector<double> loads;
  std::vector<RebalanceKey> keys;       ///< sort buffer
  std::vector<std::int32_t> select_k;  ///< per rank, as Entry::select_k
  std::vector<Entry> blocks;           ///< LPT order, largest X's targets
  std::int32_t max_selected = 0;       ///< largest X's selected count
  bool rebalance = false;  ///< false: every X returns the base unchanged
};

/// Reusable storage for one X's rebalance tail — its targets, its LPT
/// block order and the LPT heap — plus the prefix rebalance_into builds
/// for itself. Carries capacity only, never decisions: results are
/// identical with a fresh or a reused scratch (the incremental engine
/// keeps one per candidate slot alive across regrid epochs).
struct RebalanceScratch {
  RebalancePrefix prefix;
  std::vector<std::int32_t> targets;
  std::vector<std::int32_t> order;
  LptScratch lpt;
};

class CplxPolicy final : public PlacementPolicy {
 public:
  /// @param x_percent  share of ranks rebalanced by LPT, 0..100.
  /// @param chunk_ranks  chunk width of the underlying chunked CDP.
  explicit CplxPolicy(double x_percent, std::int32_t chunk_ranks = 512);

  std::string name() const override;
  Placement place(std::span<const double> costs,
                  std::int32_t nranks) const override;

  double x_percent() const { return x_percent_; }
  std::int32_t chunk_ranks() const { return chunk_ranks_; }

  /// Below this imbalance (makespan / mean load), the LPT pass is skipped:
  /// the contiguous placement is already balanced and breaking locality
  /// would cost communication for nothing (uniform default costs, truly
  /// flat profiles). Anything beyond this static floor is deliberately
  /// NOT guarded: whether the locality cost pays off is an empirical,
  /// workload-specific question (paper Lesson 5) answered by choosing X,
  /// not by a hidden heuristic.
  static constexpr double kRebalanceFloor = 1.05;

  /// The LPT rebalance step on its own: given any placement, rebalance the
  /// X% most over/under-loaded ranks. Exposed for tests and ablations.
  static Placement rebalance(std::span<const double> costs,
                             const Placement& base, std::int32_t nranks,
                             double x_percent);

  /// Same step through caller-owned output and scratch (identical result;
  /// the incremental engine's per-candidate path, which reuses both
  /// across regrid epochs instead of reallocating): rebalance_prefix for
  /// this one X, then rebalance_tail. A non-null `pool` runs the
  /// rank-order and block-order sorts in parallel; both are strict total
  /// orders, so the output bytes never depend on the pool.
  static void rebalance_into(std::span<const double> costs,
                             const Placement& base, std::int32_t nranks,
                             double x_percent, Placement& out,
                             RebalanceScratch& scratch,
                             ThreadPool* pool = nullptr);

  /// The X-independent work of the rebalance step, built once for every
  /// X up to `max_x_percent`.
  static void rebalance_prefix(std::span<const double> costs,
                               const Placement& base, std::int32_t nranks,
                               double max_x_percent, RebalancePrefix& prefix,
                               ThreadPool* pool = nullptr);

  /// One X's rebalance over a prefix built from the same (costs, base,
  /// nranks) with max_x_percent >= x_percent: picks the targets, filters
  /// the prefix's block order to them and runs the LPT assignment.
  /// Sequential and touches only `out` and `scratch`, so tails of one
  /// prefix may run concurrently.
  static void rebalance_tail(std::span<const double> costs,
                             const Placement& base, double x_percent,
                             const RebalancePrefix& prefix, Placement& out,
                             RebalanceScratch& scratch);

 private:
  double x_percent_;
  std::int32_t chunk_ranks_;
};

}  // namespace amr
