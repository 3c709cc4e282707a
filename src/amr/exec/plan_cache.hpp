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
// version). A hit re-patches only the compute durations — every other
// byte of the plan is reused — so executing from a cached plan is
// bit-identical to building it fresh: build_step_work/build_overlap_work
// emit computes in block order with duration = block_costs[block], which
// is exactly what the patch loop re-applies. Any regrid or rebalance
// bumps a version and the next step misses once; a BSP miss rebuilds the
// plan inside the previous plan's storage (build_step_work's in-place
// overload), so the per-rank vectors keep their capacity and the old
// and new plan never coexist. The cache is the only step pipeline; the
// from-scratch build functions are its test oracle
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
  /// whenever the placement vector does — and, under the placement-engine
  /// modes, is deliberately NOT bumped when a redistribution reproduces
  /// the identical placement under an unchanged mesh numbering (the
  /// incremental path's no-op-rebalance fast path in sim/simulation.cpp),
  /// so such epochs keep hitting. On a hit only compute durations
  /// are refreshed from `block_costs`. `packing` is part of the cache
  /// key: a threshold change misses once and rebuilds rather than
  /// serving a plan with different pack decisions (send lists and
  /// expected counts differ).
  std::span<const RankStepWork> step_work(
      const AmrMesh& mesh, const Placement& placement,
      std::uint64_t placement_version, std::span<const TimeNs> block_costs,
      std::int32_t nranks, const MessageSizeModel& sizes, bool include_flux,
      const PackingPolicy& packing = PackingPolicy::none());

  /// Overlap-mode analogue of step_work. `stage1_frac > 0` builds the
  /// two-stage rendering (ghost-producing stage-1 compute, sends and
  /// incremental aggregates on stage-1 completion, arrival-gated
  /// stage-2); it is a cache-key axis, and hits re-apply the same
  /// stage split when patching compute durations.
  std::span<const OverlapRankWork> overlap_work(
      const AmrMesh& mesh, const Placement& placement,
      std::uint64_t placement_version, std::span<const TimeNs> block_costs,
      std::int32_t nranks, const MessageSizeModel& sizes,
      const PackingPolicy& packing = PackingPolicy::none(),
      double stage1_frac = 0.0);

  const Stats& stats() const { return stats_; }

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

  void patch_bsp(std::span<const TimeNs> block_costs);
  void patch_overlap(std::span<const TimeNs> block_costs,
                     double stage1_frac);

  SharedPlanStore* shared_ = nullptr;
  std::uint64_t mesh_version_ = 0;
  std::uint64_t placement_version_ = 0;
  PackingPolicy packing_;  ///< shape of the cached plan (either mode)
  double overlap_frac_ = 0.0;  ///< stage split of the cached overlap plan
  bool have_bsp_ = false;
  bool have_overlap_ = false;
  std::vector<RankStepWork> bsp_;
  std::vector<OverlapRankWork> overlap_;
  Stats stats_;
};

}  // namespace amr
