#include "amr/exec/plan_cache.hpp"

#include "amr/exec/shared_plan_store.hpp"

namespace amr {

namespace {

SharedPlanStore::Key make_key(bool overlap, const AmrMesh& mesh,
                              const Placement& placement,
                              std::int32_t nranks,
                              const MessageSizeModel& sizes,
                              bool include_flux, double stage1_frac,
                              const PackingPolicy& packing) {
  SharedPlanStore::Key key;
  key.overlap = overlap;
  key.nranks = nranks;
  key.include_flux = include_flux;
  key.stage1_frac = stage1_frac;
  key.sizes = sizes;
  key.packing = packing;
  const auto blocks = mesh.blocks();
  key.blocks.assign(blocks.begin(), blocks.end());
  key.placement = placement;
  return key;
}

}  // namespace

void ExchangePlanCache::patch_bsp(std::span<const TimeNs> block_costs) {
  for (auto& rank : bsp_) {
    for (auto& c : rank.computes)
      c.duration = block_costs[static_cast<std::size_t>(c.block)];
    for (auto& c : rank.computes_after_wait)
      c.duration = block_costs[static_cast<std::size_t>(c.block)];
  }
}

void ExchangePlanCache::patch_overlap(std::span<const TimeNs> block_costs,
                                      double stage1_frac) {
  for (auto& rank : overlap_) {
    for (auto& b : rank.blocks) {
      const TimeNs cost = block_costs[static_cast<std::size_t>(b.block)];
      if (stage1_frac > 0.0) {
        // Same split math as build_two_stage_work, so a patched hit is
        // bit-identical to a fresh build.
        const auto stage1 =
            static_cast<TimeNs>(static_cast<double>(cost) * stage1_frac);
        b.compute = stage1;
        b.stage2_compute = cost - stage1;
      } else {
        b.compute = cost;
      }
    }
  }
}

std::span<const RankStepWork> ExchangePlanCache::step_work(
    const AmrMesh& mesh, const Placement& placement,
    std::uint64_t placement_version, std::span<const TimeNs> block_costs,
    std::int32_t nranks, const MessageSizeModel& sizes, bool include_flux,
    const PackingPolicy& packing) {
  if (fresh(mesh.version(), placement_version, have_bsp_) &&
      packing_ == packing) {
    ++stats_.hits;
    patch_bsp(block_costs);
    return bsp_;
  }
  ++stats_.misses;
  if (shared_ != nullptr) {
    auto key = make_key(/*overlap=*/false, mesh, placement, nranks, sizes,
                        include_flux, /*stage1_frac=*/0.0, packing);
    if (shared_->lookup_bsp(key, bsp_)) {
      // The store holds the publisher's durations; re-patching makes the
      // plan byte-identical to one built fresh against block_costs.
      ++stats_.share_hits;
      patch_bsp(block_costs);
    } else {
      build_step_work(mesh, placement, block_costs, nranks, sizes,
                      include_flux, packing, bsp_);
      shared_->publish_bsp(std::move(key), bsp_);
    }
  } else {
    build_step_work(mesh, placement, block_costs, nranks, sizes,
                    include_flux, packing, bsp_);
  }
  packing_ = packing;
  have_bsp_ = true;
  // A key change invalidates both shapes; only the requested one is
  // rebuilt, the other stays stale and must not be served.
  have_overlap_ = false;
  mesh_version_ = mesh.version();
  placement_version_ = placement_version;
  return bsp_;
}

std::span<const OverlapRankWork> ExchangePlanCache::overlap_work(
    const AmrMesh& mesh, const Placement& placement,
    std::uint64_t placement_version, std::span<const TimeNs> block_costs,
    std::int32_t nranks, const MessageSizeModel& sizes,
    const PackingPolicy& packing, double stage1_frac) {
  if (fresh(mesh.version(), placement_version, have_overlap_) &&
      packing_ == packing && overlap_frac_ == stage1_frac) {
    ++stats_.hits;
    patch_overlap(block_costs, stage1_frac);
    return overlap_;
  }
  ++stats_.misses;
  if (shared_ != nullptr) {
    auto key = make_key(/*overlap=*/true, mesh, placement, nranks, sizes,
                        /*include_flux=*/false, stage1_frac, packing);
    if (shared_->lookup_overlap(key, overlap_)) {
      ++stats_.share_hits;
      patch_overlap(block_costs, stage1_frac);
    } else {
      overlap_ = stage1_frac > 0.0
                     ? build_two_stage_work(mesh, placement, block_costs,
                                            nranks, stage1_frac, sizes,
                                            packing)
                     : build_overlap_work(mesh, placement, block_costs,
                                          nranks, sizes, packing);
      shared_->publish_overlap(std::move(key), overlap_);
    }
  } else {
    overlap_ = stage1_frac > 0.0
                   ? build_two_stage_work(mesh, placement, block_costs,
                                          nranks, stage1_frac, sizes, packing)
                   : build_overlap_work(mesh, placement, block_costs, nranks,
                                        sizes, packing);
  }
  packing_ = packing;
  overlap_frac_ = stage1_frac;
  have_overlap_ = true;
  have_bsp_ = false;
  mesh_version_ = mesh.version();
  placement_version_ = placement_version;
  return overlap_;
}

}  // namespace amr
