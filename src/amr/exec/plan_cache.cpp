#include "amr/exec/plan_cache.hpp"

#include "amr/exec/shared_plan_store.hpp"

namespace amr {

namespace {

SharedPlanStore::Key make_key(bool overlap, const AmrMesh& mesh,
                              const Placement& placement,
                              std::int32_t nranks,
                              const MessageSizeModel& sizes,
                              bool include_flux, double stage1_frac,
                              bool pack, TaskOrdering ordering) {
  SharedPlanStore::Key key;
  key.overlap = overlap;
  key.ordering = ordering;
  key.nranks = nranks;
  key.include_flux = include_flux;
  key.stage1_frac = stage1_frac;
  key.sizes = sizes;
  key.pack = pack;
  const auto blocks = mesh.blocks();
  key.blocks.assign(blocks.begin(), blocks.end());
  key.placement = placement;
  return key;
}

}  // namespace

void ExchangePlanCache::patch_overlap(std::span<const TimeNs> block_costs,
                                      double stage1_frac) {
  for (OverlapBlock& b : overlap_.blocks)
    set_block_cost(b, block_costs[static_cast<std::size_t>(b.block)],
                   stage1_frac);
}

const BspPlan& ExchangePlanCache::step_work(
    const AmrMesh& mesh, const Placement& placement,
    std::uint64_t placement_version, std::span<const TimeNs> block_costs,
    std::int32_t nranks, const MessageSizeModel& sizes, bool include_flux,
    bool pack, TaskOrdering ordering) {
  if (fresh(mesh.version(), placement_version, have_bsp_) && pack_ == pack &&
      bsp_.ordering == ordering) {
    ++stats_.hits;
    set_bsp_costs(bsp_, block_costs);
    return bsp_;
  }
  ++stats_.misses;
  const auto build = [&] {
    build_bsp_plan(mesh, placement, block_costs, nranks, sizes, include_flux,
                   pack, ordering, /*stage1_frac=*/0.0, bsp_,
                   bsp_scratch_);
  };
  if (shared_ != nullptr) {
    auto key = make_key(/*overlap=*/false, mesh, placement, nranks, sizes,
                        include_flux, /*stage1_frac=*/0.0, pack, ordering);
    if (shared_->lookup_bsp(key, bsp_)) {
      // The store holds the publisher's costs; re-patching makes the
      // plan byte-identical to one built fresh against block_costs.
      ++stats_.share_hits;
      set_bsp_costs(bsp_, block_costs);
    } else {
      build();
      shared_->publish_bsp(std::move(key), bsp_);
    }
  } else {
    build();
  }
  pack_ = pack;
  have_bsp_ = true;
  // A key change invalidates both shapes; only the requested one is
  // rebuilt, the other stays stale and must not be served.
  have_overlap_ = false;
  mesh_version_ = mesh.version();
  placement_version_ = placement_version;
  return bsp_;
}

const OverlapPlan& ExchangePlanCache::overlap_work(
    const AmrMesh& mesh, const Placement& placement,
    std::uint64_t placement_version, std::span<const TimeNs> block_costs,
    std::int32_t nranks, const MessageSizeModel& sizes, bool pack,
    double stage1_frac) {
  if (fresh(mesh.version(), placement_version, have_overlap_) &&
      pack_ == pack && overlap_frac_ == stage1_frac) {
    ++stats_.hits;
    patch_overlap(block_costs, stage1_frac);
    return overlap_;
  }
  ++stats_.misses;
  if (shared_ != nullptr) {
    auto key = make_key(/*overlap=*/true, mesh, placement, nranks, sizes,
                        /*include_flux=*/false, stage1_frac, pack,
                        TaskOrdering::kSendFirst);
    if (shared_->lookup_overlap(key, overlap_)) {
      ++stats_.share_hits;
      patch_overlap(block_costs, stage1_frac);
    } else {
      build_overlap_plan(mesh, placement, block_costs, nranks, sizes, pack,
                         stage1_frac, overlap_, overlap_scratch_);
      shared_->publish_overlap(std::move(key), overlap_);
    }
  } else {
    build_overlap_plan(mesh, placement, block_costs, nranks, sizes, pack,
                       stage1_frac, overlap_, overlap_scratch_);
  }
  pack_ = pack;
  overlap_frac_ = stage1_frac;
  have_overlap_ = true;
  have_bsp_ = false;
  mesh_version_ = mesh.version();
  placement_version_ = placement_version;
  return overlap_;
}

}  // namespace amr
