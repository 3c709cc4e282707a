// ExchangePlanCache: a cache hit patched with new costs must be
// byte-equivalent to a from-scratch build, and any mesh or placement
// version change must miss exactly once. The cache is the simulation's
// only step pipeline, so the from-scratch build functions are its oracle here:
// a seeded regrid-sequence fuzz compares every call against them.
#include <gtest/gtest.h>

#include <vector>

#include "amr/common/rng.hpp"
#include "amr/exec/plan_cache.hpp"
#include "amr/exec/shared_plan_store.hpp"
#include "amr/placement/registry.hpp"
#include "amr/workloads/sedov.hpp"

namespace amr {
namespace {

bool same_msgs(const std::vector<OutMessage>& a,
               const std::vector<OutMessage>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].dst_rank != b[i].dst_rank || a[i].bytes != b[i].bytes ||
        a[i].src_block != b[i].src_block || a[i].msgs != b[i].msgs)
      return false;
  return true;
}

bool same_computes(const std::vector<BlockCompute>& a,
                   const std::vector<BlockCompute>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].block != b[i].block || a[i].duration != b[i].duration)
      return false;
  return true;
}

void expect_equal(std::span<const RankStepWork> got,
                  std::span<const RankStepWork> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    EXPECT_TRUE(same_computes(got[r].computes, want[r].computes)) << r;
    EXPECT_TRUE(same_computes(got[r].computes_after_wait,
                              want[r].computes_after_wait))
        << r;
    EXPECT_TRUE(same_msgs(got[r].sends, want[r].sends)) << r;
    EXPECT_EQ(got[r].local_copy_bytes, want[r].local_copy_bytes) << r;
    EXPECT_EQ(got[r].local_copy_msgs, want[r].local_copy_msgs) << r;
    EXPECT_EQ(got[r].expected_recvs, want[r].expected_recvs) << r;
    EXPECT_EQ(got[r].recv_bytes, want[r].recv_bytes) << r;
  }
}

void expect_equal(std::span<const OverlapRankWork> got,
                  std::span<const OverlapRankWork> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].blocks.size(), want[r].blocks.size()) << r;
    for (std::size_t b = 0; b < got[r].blocks.size(); ++b) {
      const BlockWork& g = got[r].blocks[b];
      const BlockWork& w = want[r].blocks[b];
      EXPECT_EQ(g.block, w.block);
      EXPECT_EQ(g.compute, w.compute);
      EXPECT_EQ(g.stage2_compute, w.stage2_compute);
      EXPECT_EQ(g.expected_recvs, w.expected_recvs);
      EXPECT_EQ(g.recv_bytes, w.recv_bytes);
      EXPECT_EQ(g.packed_recv_bytes, w.packed_recv_bytes);
      EXPECT_TRUE(same_msgs(g.sends, w.sends));
      EXPECT_EQ(g.send_dst_tags, w.send_dst_tags);
      EXPECT_EQ(g.packed_out, w.packed_out);
    }
    EXPECT_TRUE(same_msgs(got[r].sends, want[r].sends)) << r;
    EXPECT_EQ(got[r].send_dst_tags, want[r].send_dst_tags) << r;
    ASSERT_EQ(got[r].packed_sends.size(), want[r].packed_sends.size()) << r;
    for (std::size_t i = 0; i < got[r].packed_sends.size(); ++i) {
      const PackedSend& g = got[r].packed_sends[i];
      const PackedSend& w = want[r].packed_sends[i];
      EXPECT_TRUE(same_msgs({g.msg}, {w.msg})) << r;
      EXPECT_EQ(g.dst_tag, w.dst_tag) << r;
      EXPECT_EQ(g.contributors, w.contributors) << r;
    }
    ASSERT_EQ(got[r].agg_credits.size(), want[r].agg_credits.size()) << r;
    for (std::size_t i = 0; i < got[r].agg_credits.size(); ++i) {
      EXPECT_EQ(got[r].agg_credits[i].src_rank,
                want[r].agg_credits[i].src_rank);
      EXPECT_EQ(got[r].agg_credits[i].slot, want[r].agg_credits[i].slot);
      EXPECT_EQ(got[r].agg_credits[i].count, want[r].agg_credits[i].count);
    }
    EXPECT_EQ(got[r].stage1_order, want[r].stage1_order) << r;
    EXPECT_EQ(got[r].local_copy_bytes, want[r].local_copy_bytes) << r;
    EXPECT_EQ(got[r].local_copy_msgs, want[r].local_copy_msgs) << r;
    EXPECT_EQ(got[r].expected_recvs, want[r].expected_recvs) << r;
  }
}

Placement round_robin(std::size_t blocks, std::int32_t nranks) {
  Placement p(blocks);
  for (std::size_t b = 0; b < blocks; ++b)
    p[b] = static_cast<std::int32_t>(b) % nranks;
  return p;
}

std::vector<TimeNs> costs_for(std::size_t blocks, TimeNs base) {
  std::vector<TimeNs> costs(blocks);
  for (std::size_t b = 0; b < blocks; ++b)
    costs[b] = base + static_cast<TimeNs>(b);
  return costs;
}

TEST(PlanCache, HitPatchesCostsAndMatchesFreshBuild) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0});
  const std::int32_t nranks = 4;
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};

  ExchangePlanCache cache;
  const auto c1 = costs_for(mesh.size(), 100);
  (void)cache.step_work(mesh, p, 0, c1, nranks, sizes, true);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);

  // Same versions, new costs: hit, and the patched plan must equal what
  // a from-scratch build with those costs produces.
  const auto c2 = costs_for(mesh.size(), 5000);
  const auto got = cache.step_work(mesh, p, 0, c2, nranks, sizes, true);
  EXPECT_EQ(cache.stats().hits, 1);
  const auto want = build_step_work(mesh, p, c2, nranks, sizes, true);
  expect_equal(got, want);
}

TEST(PlanCache, MeshVersionChangeInvalidates) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  const std::int32_t nranks = 2;
  const MessageSizeModel sizes{};
  ExchangePlanCache cache;

  Placement p = round_robin(mesh.size(), nranks);
  (void)cache.step_work(mesh, p, 0, costs_for(mesh.size(), 10), nranks,
                        sizes, false);
  mesh.refine(std::vector<std::int32_t>{1});
  p = round_robin(mesh.size(), nranks);
  const auto c = costs_for(mesh.size(), 10);
  const auto got = cache.step_work(mesh, p, 0, c, nranks, sizes, false);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 0);
  expect_equal(got, build_step_work(mesh, p, c, nranks, sizes, false));
}

TEST(PlanCache, PlacementVersionChangeInvalidates) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  const std::int32_t nranks = 2;
  const MessageSizeModel sizes{};
  ExchangePlanCache cache;
  const auto c = costs_for(mesh.size(), 10);

  const Placement p1 = round_robin(mesh.size(), nranks);
  (void)cache.step_work(mesh, p1, 0, c, nranks, sizes, false);
  // New placement (reversed), new version: must rebuild from the new
  // placement, not patch the old plan.
  Placement p2 = p1;
  for (auto& r : p2) r = nranks - 1 - r;
  const auto got = cache.step_work(mesh, p2, 1, c, nranks, sizes, false);
  EXPECT_EQ(cache.stats().misses, 2);
  expect_equal(got, build_step_work(mesh, p2, c, nranks, sizes, false));
}

TEST(PlanCache, OverlapHitMatchesFreshBuild) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine(std::vector<std::int32_t>{3});
  const std::int32_t nranks = 4;
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};
  ExchangePlanCache cache;

  (void)cache.overlap_work(mesh, p, 0, costs_for(mesh.size(), 7), nranks,
                           sizes);
  const auto c2 = costs_for(mesh.size(), 999);
  const auto got = cache.overlap_work(mesh, p, 0, c2, nranks, sizes);
  EXPECT_EQ(cache.stats().hits, 1);
  expect_equal(got, build_overlap_work(mesh, p, c2, nranks, sizes));
}

TEST(PlanCache, ModeSwitchRebuildsInsteadOfServingStale) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  const std::int32_t nranks = 2;
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};
  const auto c = costs_for(mesh.size(), 10);
  ExchangePlanCache cache;

  (void)cache.step_work(mesh, p, 0, c, nranks, sizes, false);
  const auto ow = cache.overlap_work(mesh, p, 0, c, nranks, sizes);
  expect_equal(ow, build_overlap_work(mesh, p, c, nranks, sizes));
  const auto bw = cache.step_work(mesh, p, 0, c, nranks, sizes, false);
  expect_equal(bw, build_step_work(mesh, p, c, nranks, sizes, false));
  // Each switch is a miss: the cache keeps one shape at a time.
  EXPECT_EQ(cache.stats().misses, 3);
}

TEST(PlanCache, AggregateFlagIsPartOfTheKey) {
  // Aggregation (PackingPolicy::all, what --aggregate selects) changes
  // the plan shape (folded sends, per-peer expected counts), so a hit
  // must never serve a plan built under packing none, or the reverse —
  // even with identical mesh/placement versions.
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0});
  const std::int32_t nranks = 2;  // several blocks per rank: folds exist
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};
  const auto c = costs_for(mesh.size(), 10);
  const PackingPolicy none = PackingPolicy::none();
  const PackingPolicy all = PackingPolicy::all();
  ExchangePlanCache cache;

  (void)cache.step_work(mesh, p, 0, c, nranks, sizes, true, none);
  const auto packed = cache.step_work(mesh, p, 0, c, nranks, sizes, true,
                                      all);
  EXPECT_EQ(cache.stats().misses, 2);
  expect_equal(packed, build_step_work(mesh, p, c, nranks, sizes, true, all));
  // And back: the cache keeps one flavor at a time.
  const auto legacy =
      cache.step_work(mesh, p, 0, c, nranks, sizes, true, none);
  EXPECT_EQ(cache.stats().misses, 3);
  expect_equal(legacy, build_step_work(mesh, p, c, nranks, sizes, true));
  // A packed hit with patched costs still equals the fresh build.
  (void)cache.step_work(mesh, p, 0, c, nranks, sizes, true, all);
  const auto c2 = costs_for(mesh.size(), 777);
  const auto hit = cache.step_work(mesh, p, 0, c2, nranks, sizes, true, all);
  EXPECT_EQ(cache.stats().hits, 1);
  expect_equal(hit, build_step_work(mesh, p, c2, nranks, sizes, true, all));
}

TEST(PlanCache, PackingPolicyIsPartOfTheKey) {
  // A finite threshold changes which pairs fold, so switching the policy
  // (or its threshold) must rebuild — and identical policies must hit.
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0});
  const std::int32_t nranks = 2;
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};
  const auto c = costs_for(mesh.size(), 10);
  const PackingPolicy none = PackingPolicy::none();
  const PackingPolicy all = PackingPolicy::all();
  const PackingPolicy split{4000};
  ExchangePlanCache cache;

  // A finite threshold is its own key: miss, then hit, equal to fresh.
  (void)cache.step_work(mesh, p, 0, c, nranks, sizes, true, split);
  EXPECT_EQ(cache.stats().misses, 1);
  const auto split_hit = cache.step_work(mesh, p, 0, c, nranks, sizes, true,
                                         split);
  EXPECT_EQ(cache.stats().hits, 1);
  expect_equal(split_hit,
               build_step_work(mesh, p, c, nranks, sizes, true, split));
  // Different thresholds: miss.
  (void)cache.step_work(mesh, p, 0, c, nranks, sizes, true,
                        PackingPolicy{100});
  EXPECT_EQ(cache.stats().misses, 2);

  // The overlap shape keys on the policy too.
  (void)cache.overlap_work(mesh, p, 0, c, nranks, sizes, split);
  EXPECT_EQ(cache.stats().misses, 3);
  (void)cache.overlap_work(mesh, p, 0, c, nranks, sizes, split);
  EXPECT_EQ(cache.stats().hits, 2);
  (void)cache.overlap_work(mesh, p, 0, c, nranks, sizes, none);
  EXPECT_EQ(cache.stats().misses, 4);
  (void)cache.overlap_work(mesh, p, 0, c, nranks, sizes, all);
  EXPECT_EQ(cache.stats().misses, 5);
}

TEST(PlanCache, InPlaceRebuildsEqualFreshBuilds) {
  // Misses A -> B -> A rebuild the cached plan inside its own storage.
  // B packs every block contiguously onto the lower half of the ranks:
  // it empties the upper ranks and shrinks the others' send lists, and
  // the return to A refills them. Each rebuild must equal a build into
  // fresh storage — built locally, published to the shared store, or
  // copied out of it.
  AmrMesh mesh(RootGrid{4, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0, 5});  // flux along level jumps
  const std::int32_t nranks = 8;
  const MessageSizeModel sizes{};
  const Placement a = round_robin(mesh.size(), nranks);
  Placement b(mesh.size());
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::int32_t>(i * (nranks / 2) / b.size());
  const std::int64_t mid_threshold = (sizes.bytes(NeighborKind::kEdge) +
                                      sizes.bytes(NeighborKind::kFace)) /
                                     2;

  for (const PackingPolicy packing :
       {PackingPolicy::none(), PackingPolicy::all(),
        PackingPolicy{mid_threshold}}) {
    SCOPED_TRACE(packing.threshold);
    const Placement* steps[] = {&a, &b, &a};
    const auto costs_at = [&](std::size_t i) {
      return costs_for(mesh.size(), 10 + 100 * static_cast<TimeNs>(i));
    };
    std::vector<std::vector<RankStepWork>> want;
    for (std::size_t i = 0; i < 3; ++i)
      want.push_back(build_step_work(mesh, *steps[i], costs_at(i), nranks,
                                     sizes, true, packing));
    // The sequence exercises what it claims: B empties some ranks and
    // shrinks (without emptying) the send lists of others.
    bool emptied = false;
    bool shrunk = false;
    for (std::size_t r = 0; r < want[0].size(); ++r) {
      emptied |= !want[0][r].computes.empty() && want[1][r].computes.empty();
      shrunk |= !want[1][r].sends.empty() &&
                want[1][r].sends.size() < want[0][r].sends.size();
    }
    EXPECT_TRUE(emptied);
    EXPECT_TRUE(shrunk);

    SharedPlanStore store;
    ExchangePlanCache local;
    ExchangePlanCache publisher;
    ExchangePlanCache reader;
    publisher.set_shared_store(&store);
    reader.set_shared_store(&store);
    for (std::size_t i = 0; i < 3; ++i) {
      SCOPED_TRACE(i);
      const auto c = costs_at(i);
      const std::uint64_t version = i;
      expect_equal(local.step_work(mesh, *steps[i], version, c, nranks,
                                   sizes, true, packing),
                   want[i]);
      expect_equal(publisher.step_work(mesh, *steps[i], version, c, nranks,
                                       sizes, true, packing),
                   want[i]);
      expect_equal(reader.step_work(mesh, *steps[i], version, c, nranks,
                                    sizes, true, packing),
                   want[i]);
    }
    EXPECT_EQ(local.stats().misses, 3);
    // The publisher builds A and B and finds A in the store on return;
    // the reader finds every plan there.
    EXPECT_EQ(publisher.stats().share_hits, 1);
    EXPECT_EQ(reader.stats().share_hits, 3);
  }
}

/// One cache per (shape, packing) point, fed the same regrid sequence
/// the simulation feeds its own cache.
struct FuzzLane {
  enum class Shape { kBspFlux, kOverlapSingle, kOverlapTwoStage };
  Shape shape;
  PackingPolicy packing;
  ExchangePlanCache cache;
  std::int64_t packed_sends = 0;  ///< BSP transfers with msgs > 1
  std::int64_t eager_sends = 0;   ///< BSP transfers with msgs == 1
};

constexpr double kStageSplit = 0.8;

void run_lane(FuzzLane& lane, const AmrMesh& mesh, const Placement& p,
              std::uint64_t placement_version,
              std::span<const TimeNs> costs, std::int32_t nranks,
              const MessageSizeModel& sizes) {
  switch (lane.shape) {
    case FuzzLane::Shape::kBspFlux: {
      const auto got = lane.cache.step_work(mesh, p, placement_version,
                                            costs, nranks, sizes, true,
                                            lane.packing);
      const auto want = build_step_work(mesh, p, costs, nranks, sizes,
                                        true, lane.packing);
      expect_equal(got, want);
      for (const RankStepWork& w : want)
        for (const OutMessage& m : w.sends)
          ++(m.msgs > 1 ? lane.packed_sends : lane.eager_sends);
      break;
    }
    case FuzzLane::Shape::kOverlapSingle:
      expect_equal(lane.cache.overlap_work(mesh, p, placement_version,
                                           costs, nranks, sizes,
                                           lane.packing),
                   build_overlap_work(mesh, p, costs, nranks, sizes,
                                      lane.packing));
      break;
    case FuzzLane::Shape::kOverlapTwoStage:
      expect_equal(lane.cache.overlap_work(mesh, p, placement_version,
                                           costs, nranks, sizes,
                                           lane.packing, kStageSplit),
                   build_two_stage_work(mesh, p, costs, nranks, kStageSplit,
                                        sizes, lane.packing));
      break;
  }
}

TEST(PlanCache, SeededRegridSequencesMatchFreshBuilds) {
  // A Sedov mesh evolving over steps, re-placed by cpl25/cpl50 on every
  // regrid and on random rebalance steps, with new (sometimes
  // fault-inflated) costs every step. Some rebalances reproduce the
  // current placement under an unchanged mesh and keep the placement
  // version (the placement-engine no-bump case), so those steps hit.
  // Every call of every lane must equal the from-scratch build of the
  // same inputs, and hits must follow the version pair exactly.
  const MessageSizeModel sizes{};
  const std::int64_t mid_threshold = (sizes.bytes(NeighborKind::kEdge) +
                                      sizes.bytes(NeighborKind::kFace)) /
                                     2;
  const std::int32_t nranks = 8;
  const std::int32_t ranks_per_node = 4;
  const std::int64_t steps = 30;
  const PolicyPtr cpl25 = make_policy("cpl25");
  const PolicyPtr cpl50 = make_policy("cpl50");

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    SedovParams sp;
    sp.total_steps = steps;
    sp.check_period = 3;
    sp.max_level = 2;
    sp.seed = seed;
    SedovWorkload sedov(sp);
    AmrMesh mesh(RootGrid{4, 2, 2});

    std::vector<FuzzLane> lanes;
    for (const auto shape : {FuzzLane::Shape::kBspFlux,
                             FuzzLane::Shape::kOverlapSingle,
                             FuzzLane::Shape::kOverlapTwoStage})
      for (const PackingPolicy packing :
           {PackingPolicy::none(), PackingPolicy::all(),
            PackingPolicy{mid_threshold}})
        lanes.push_back(FuzzLane{shape, packing, {}, 0, 0});

    Placement placement;
    std::vector<double> last_est;
    const PlacementPolicy* last_policy = nullptr;
    std::uint64_t placement_version = 0;
    std::uint64_t placement_mesh_version = 0;
    std::uint64_t key_mesh = 0;
    std::uint64_t key_placement = 0;
    std::int64_t no_bump_rebalances = 0;
    std::int64_t predicted_hits = 0;
    std::vector<TimeNs> costs;

    for (std::int64_t step = 0; step < steps; ++step) {
      const bool changed = sedov.evolve(mesh, step);
      if (changed || placement.size() != mesh.size() || rng.chance(0.3)) {
        const bool same_mesh = mesh.version() == placement_mesh_version &&
                               last_policy != nullptr;
        Placement next;
        if (same_mesh && rng.chance(0.5)) {
          // Re-run the previous placement on the previous estimates:
          // an identical placement under an unchanged mesh.
          next = last_policy->place(last_est, nranks);
        } else {
          last_est.resize(mesh.size());
          for (std::size_t b = 0; b < mesh.size(); ++b)
            last_est[b] =
                static_cast<double>(sedov.block_cost(mesh, b, step));
          last_policy = rng.chance(0.5) ? cpl25.get() : cpl50.get();
          next = last_policy->place(last_est, nranks);
        }
        const bool reusable = mesh.version() == placement_mesh_version &&
                              next == placement;
        if (reusable) ++no_bump_rebalances;
        placement = std::move(next);
        if (!reusable) ++placement_version;
        placement_mesh_version = mesh.version();
      }

      // New costs every step; on some steps one node runs throttled.
      const std::int32_t slow_node =
          rng.chance(0.3) ? static_cast<std::int32_t>(rng.uniform_int(
                                nranks / ranks_per_node))
                          : -1;
      costs.resize(mesh.size());
      for (std::size_t b = 0; b < mesh.size(); ++b) {
        costs[b] = sedov.block_cost(mesh, b, step);
        if (placement[b] / ranks_per_node == slow_node) costs[b] *= 4;
      }

      if (step > 0 && key_mesh == mesh.version() &&
          key_placement == placement_version)
        ++predicted_hits;
      key_mesh = mesh.version();
      key_placement = placement_version;
      for (FuzzLane& lane : lanes)
        run_lane(lane, mesh, placement, placement_version, costs, nranks,
                 sizes);
    }

    EXPECT_GT(no_bump_rebalances, 0);
    for (const FuzzLane& lane : lanes) {
      EXPECT_EQ(lane.cache.stats().hits, predicted_hits);
      EXPECT_EQ(lane.cache.stats().hits + lane.cache.stats().misses, steps);
      EXPECT_GT(lane.cache.stats().hits, 0);
      EXPECT_GT(lane.cache.stats().misses, 1);
    }
    // The mid threshold genuinely splits traffic: packed and eager
    // transfers both occur in its BSP plans.
    EXPECT_GT(lanes[2].packed_sends, 0);
    EXPECT_GT(lanes[2].eager_sends, 0);
  }
}

}  // namespace
}  // namespace amr
