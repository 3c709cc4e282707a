// LPT (Longest-Processing-Time-first) placement (paper §V-B).
//
// Classical greedy makespan minimization: sort blocks by cost descending,
// assign each to the currently least-loaded rank. Guarantees makespan
// <= 4/3 · OPT (Graham 1969) and, per the paper, matches a commercial ILP
// solver in practice. Ignores communication locality entirely.
#pragma once

#include "amr/common/dary_heap.hpp"
#include "amr/placement/policy.hpp"

namespace amr {

/// Reusable storage for assign_subset: the block-ordering vector and the
/// 4-ary load heap keep their capacity across invocations, so a caller
/// that places every regrid epoch allocates nothing once they have grown.
/// The auto-X engine keeps one per candidate slot (inside its
/// RebalanceScratch) across epochs.
struct LptScratch {
  std::vector<std::int32_t> order;
  TopUpdateMinHeap<4> loads;
};

class LptPolicy final : public PlacementPolicy {
 public:
  std::string name() const override { return "lpt"; }
  Placement place(std::span<const double> costs,
                  std::int32_t nranks) const override;

  /// LPT over a subset: assign `block_ids` (costs given by `costs`) to the
  /// ranks listed in `target_ranks`, writing into `placement`. Starting
  /// loads are zero for the targets. Shared with CPLX's rebalance step.
  static void assign_subset(std::span<const double> costs,
                            std::span<const std::int32_t> block_ids,
                            std::span<const std::int32_t> target_ranks,
                            Placement& placement);

  /// Same assignment through caller-owned scratch (identical output; the
  /// scratch only carries allocation capacity, never decisions).
  static void assign_subset(std::span<const double> costs,
                            std::span<const std::int32_t> block_ids,
                            std::span<const std::int32_t> target_ranks,
                            Placement& placement, LptScratch& scratch);

  /// The greedy heap loop alone: `sorted_blocks` must already be in LPT
  /// order (cost descending, block id ascending on ties). Split out so
  /// the placement engine can produce that order with a parallel sort —
  /// the order is a unique total order, so the assignment is identical
  /// however it was sorted.
  static void assign_sorted(std::span<const double> costs,
                            std::span<const std::int32_t> sorted_blocks,
                            std::span<const std::int32_t> target_ranks,
                            Placement& placement, LptScratch& scratch);
};

}  // namespace amr
