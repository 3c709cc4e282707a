// Versioned cache of per-rank step-work plans.
//
// Between regrids and rebalances the mesh topology and the placement are
// frozen, so the boundary-exchange structure — neighbor pairs, message
// sizes, local/remote classification, flux-correction messages, receive
// counts — is identical from step to step; only the per-block compute
// durations change (workload jitter, fault inflation). Rebuilding the
// whole plan every step makes that invariant expensive: neighbor
// collection plus plan construction dominates small-step wall-clock.
//
// ExchangePlanCache keys the built plan on (mesh version, placement
// version). A hit re-patches only the compute costs — every other byte
// of the plan is reused — so executing from a cached plan is
// bit-identical to building it fresh: both builders fill costs through
// the same function the patch re-applies (set_bsp_costs for the flat
// BspPlan's compute tasks and per-rank compute sums, set_block_cost for
// overlap blocks). A BSP hit leaves the plan's serial alone, so the
// executor's per-plan counters stay valid. Any regrid or rebalance bumps
// a version and the next step misses once, and a miss of either shape
// rebuilds the plan inside the previous plan's flat arrays, with the
// builder's scratch owned here too, so the old and new plan never
// coexist and a rebuild allocates nothing once the arrays have grown to
// the run's size. Both builders' scratch grows with ranks and blocks
// (the overlap builder's with its busiest rank's messages too), never
// with the step's message count, so the plans themselves are the
// cache's large holders (bytes()). The cache is the only step pipeline;
// the from-scratch build functions are its test oracle
// (tests/exec/plan_cache_test.cpp).
//
// One cache instance serves one run: nranks, the message-size model, and
// the flux-correction flag must not change across calls (the key does
// not include them).
//
// Under the serve scheduler many runs execute side by side, and
// identical-fingerprint tenants rebuild identical plans on every regrid
// epoch. set_shared_store() attaches a cross-tenant SharedPlanStore that
// the version-key miss path consults (content-keyed, so cross-tenant
// version skew cannot alias) and publishes to. A store hit still counts
// as a local miss — the version key did change — but is also counted in
// share_hits, and its bytes are patched exactly like a private hit.
#pragma once

#include <cstdint>
#include <span>

#include "amr/exec/overlap.hpp"
#include "amr/exec/work.hpp"

namespace amr {

class SharedPlanStore;

class ExchangePlanCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    /// Of the misses, how many were filled from the shared store instead
    /// of built. Not serialized into snapshots: who built a plan is a
    /// scheduling artifact, not simulation state.
    std::int64_t share_hits = 0;
  };

  /// BSP plan for (mesh, placement). `placement_version` must change
  /// whenever the placement vector does — and, under auto-X, is
  /// deliberately NOT bumped when a redistribution reproduces the
  /// identical placement under an unchanged mesh numbering (the plan-key
  /// skip in sim/simulation.cpp), so such epochs keep hitting. On a hit
  /// only compute costs are refreshed from `block_costs`. `pack` and
  /// `ordering` are part of the cache key: a change misses once and
  /// rebuilds rather than serving a plan with different pack decisions
  /// (send lists and expected counts differ) or a different task layout.
  const BspPlan& step_work(
      const AmrMesh& mesh, const Placement& placement,
      std::uint64_t placement_version, std::span<const TimeNs> block_costs,
      std::int32_t nranks, const MessageSizeModel& sizes, bool include_flux,
      bool pack = false, TaskOrdering ordering = TaskOrdering::kSendFirst);

  /// Overlap-mode analogue of step_work. `stage1_frac > 0` builds the
  /// two-stage rendering (ghost-producing stage-1 compute, sends and
  /// incremental aggregates on stage-1 completion, arrival-gated
  /// stage-2); it is a cache-key axis, and hits re-apply the same
  /// stage split when patching compute durations.
  const OverlapPlan& overlap_work(
      const AmrMesh& mesh, const Placement& placement,
      std::uint64_t placement_version, std::span<const TimeNs> block_costs,
      std::int32_t nranks, const MessageSizeModel& sizes, bool pack = false,
      double stage1_frac = 0.0);

  const Stats& stats() const { return stats_; }

  /// Heap bytes held (capacity, not size): both plans and both builders'
  /// scratch.
  std::size_t bytes() const {
    return bsp_.bytes() + bsp_scratch_.bytes() + overlap_.bytes() +
           overlap_scratch_.bytes();
  }

  /// Drop the cached plans (the next call rebuilds).
  void invalidate() { have_bsp_ = have_overlap_ = false; }

  /// Attach (or detach, with nullptr) a cross-tenant store consulted on
  /// version-key misses. Borrowed; must outlive the cache or be detached
  /// first.
  void set_shared_store(SharedPlanStore* store) { shared_ = store; }

 private:
  bool fresh(std::uint64_t mesh_version, std::uint64_t placement_version,
             bool have) const {
    return have && mesh_version_ == mesh_version &&
           placement_version_ == placement_version;
  }

  void patch_overlap(std::span<const TimeNs> block_costs,
                     double stage1_frac);

  SharedPlanStore* shared_ = nullptr;
  std::uint64_t mesh_version_ = 0;
  std::uint64_t placement_version_ = 0;
  bool pack_ = false;  ///< shape of the cached plan (either mode)
  double overlap_frac_ = 0.0;  ///< stage split of the cached overlap plan
  bool have_bsp_ = false;
  bool have_overlap_ = false;
  BspPlan bsp_;
  BspBuildScratch bsp_scratch_;
  OverlapPlan overlap_;
  OverlapBuildScratch overlap_scratch_;
  Stats stats_;
};

}  // namespace amr
