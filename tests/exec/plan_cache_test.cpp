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
#include "amr/exec/step_executor.hpp"
#include "amr/mesh/generators.hpp"
#include "amr/placement/registry.hpp"
#include "amr/workloads/sedov.hpp"
#include "overlap_oracle.hpp"

namespace amr {
namespace {

/// Every field of the flat BSP plan: per-rank ranges and counters, every
/// task, the expected counts, the ordering and the stage split.
void expect_equal(const BspPlan& got, const BspPlan& want) {
  ASSERT_EQ(got.nranks(), want.nranks());
  for (std::size_t r = 0; r < got.nranks(); ++r)
    EXPECT_EQ(got.ranks[r], want.ranks[r]) << r;
  ASSERT_EQ(got.tasks.size(), want.tasks.size());
  for (std::size_t i = 0; i < got.tasks.size(); ++i)
    EXPECT_EQ(got.tasks[i], want.tasks[i]) << i;
  EXPECT_EQ(got.expected_recvs, want.expected_recvs);
  EXPECT_EQ(got.ordering, want.ordering);
  EXPECT_EQ(got.stage1_frac, want.stage1_frac);
  EXPECT_TRUE(got == want);
}

/// Every field of every flat array: per-rank ranges and counts, block
/// slots (costs, gating, receive bytes, send and aggregate ranges), sends
/// (bytes, destination, logical count, dst_tag, contributors), credits,
/// the aggregates each block feeds, the stage-1 order and the expected
/// counts.
void expect_equal(const OverlapPlan& got, const OverlapPlan& want) {
  ASSERT_EQ(got.nranks(), want.nranks());
  for (std::size_t r = 0; r < got.nranks(); ++r)
    EXPECT_EQ(got.ranks[r], want.ranks[r]) << r;
  ASSERT_EQ(got.blocks.size(), want.blocks.size());
  for (std::size_t s = 0; s < got.blocks.size(); ++s)
    EXPECT_EQ(got.blocks[s], want.blocks[s]) << s;
  ASSERT_EQ(got.sends.size(), want.sends.size());
  for (std::size_t i = 0; i < got.sends.size(); ++i)
    EXPECT_EQ(got.sends[i], want.sends[i]) << i;
  ASSERT_EQ(got.credits.size(), want.credits.size());
  for (std::size_t i = 0; i < got.credits.size(); ++i)
    EXPECT_EQ(got.credits[i], want.credits[i]) << i;
  EXPECT_EQ(got.packed_out, want.packed_out);
  EXPECT_EQ(got.stage1_order, want.stage1_order);
  EXPECT_EQ(got.expected_recvs, want.expected_recvs);
  EXPECT_TRUE(got == want);
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
  const auto want = build_bsp_plan(mesh, p, c2, nranks, sizes, true);
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
  expect_equal(got, build_bsp_plan(mesh, p, c, nranks, sizes, false));
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
  expect_equal(got, build_bsp_plan(mesh, p2, c, nranks, sizes, false));
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
  expect_equal(got, build_overlap_plan(mesh, p, c2, nranks, sizes));
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
  expect_equal(ow, build_overlap_plan(mesh, p, c, nranks, sizes));
  const auto bw = cache.step_work(mesh, p, 0, c, nranks, sizes, false);
  expect_equal(bw, build_bsp_plan(mesh, p, c, nranks, sizes, false));
  // Each switch is a miss: the cache keeps one shape at a time.
  EXPECT_EQ(cache.stats().misses, 3);
}

TEST(PlanCache, AggregateFlagIsPartOfTheKey) {
  // Packing (what --comm-adaptive and --aggregate select) changes the
  // plan shape (folded sends, per-peer expected counts), so a hit must
  // never serve a plan built without packing, or the reverse — even
  // with identical mesh/placement versions.
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0});
  const std::int32_t nranks = 2;  // several blocks per rank: folds exist
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};
  const auto c = costs_for(mesh.size(), 10);
  const bool none = false;
  const bool all = true;
  ExchangePlanCache cache;

  (void)cache.step_work(mesh, p, 0, c, nranks, sizes, true, none);
  const auto packed = cache.step_work(mesh, p, 0, c, nranks, sizes, true,
                                      all);
  EXPECT_EQ(cache.stats().misses, 2);
  expect_equal(packed, build_bsp_plan(mesh, p, c, nranks, sizes, true, all));
  // And back: the cache keeps one flavor at a time.
  const auto legacy =
      cache.step_work(mesh, p, 0, c, nranks, sizes, true, none);
  EXPECT_EQ(cache.stats().misses, 3);
  expect_equal(legacy, build_bsp_plan(mesh, p, c, nranks, sizes, true));
  // A packed hit with patched costs still equals the fresh build.
  (void)cache.step_work(mesh, p, 0, c, nranks, sizes, true, all);
  const auto c2 = costs_for(mesh.size(), 777);
  const auto hit = cache.step_work(mesh, p, 0, c2, nranks, sizes, true, all);
  EXPECT_EQ(cache.stats().hits, 1);
  expect_equal(hit, build_bsp_plan(mesh, p, c2, nranks, sizes, true, all));
}

TEST(PlanCache, PackingIsPartOfTheOverlapKey) {
  // The overlap shape keys on packing too: switching it rebuilds, and
  // the same setting hits and equals the fresh build.
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0});
  const std::int32_t nranks = 2;
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};
  const auto c = costs_for(mesh.size(), 10);
  ExchangePlanCache cache;

  (void)cache.overlap_work(mesh, p, 0, c, nranks, sizes, /*pack=*/true);
  EXPECT_EQ(cache.stats().misses, 1);
  const auto c2 = costs_for(mesh.size(), 555);
  const auto hit = cache.overlap_work(mesh, p, 0, c2, nranks, sizes, true);
  EXPECT_EQ(cache.stats().hits, 1);
  expect_equal(hit, build_overlap_plan(mesh, p, c2, nranks, sizes, true));
  (void)cache.overlap_work(mesh, p, 0, c, nranks, sizes, /*pack=*/false);
  EXPECT_EQ(cache.stats().misses, 2);
  (void)cache.overlap_work(mesh, p, 0, c, nranks, sizes, /*pack=*/true);
  EXPECT_EQ(cache.stats().misses, 3);
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
  const std::int32_t nranks = 12;
  const MessageSizeModel sizes{};
  const Placement a = round_robin(mesh.size(), nranks);
  Placement b(mesh.size());
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::int32_t>(i * (nranks / 2) / b.size());

  for (const bool pack : {false, true}) {
    SCOPED_TRACE(pack);
    const Placement* steps[] = {&a, &b, &a};
    const auto costs_at = [&](std::size_t i) {
      return costs_for(mesh.size(), 10 + 100 * static_cast<TimeNs>(i));
    };
    std::vector<BspPlan> want;
    for (std::size_t i = 0; i < 3; ++i)
      want.push_back(build_bsp_plan(mesh, *steps[i], costs_at(i), nranks,
                                     sizes, true, pack));
    // The sequence exercises what it claims: B empties some ranks and
    // shrinks (without emptying) the send lists of others.
    bool emptied = false;
    bool shrunk = false;
    for (std::size_t r = 0; r < want[0].nranks(); ++r) {
      const BspRankPlan& ra = want[0].ranks[r];
      const BspRankPlan& rb = want[1].ranks[r];
      emptied |= !ra.computes.empty() && rb.computes.empty();
      shrunk |= !rb.sends.empty() && rb.sends.size() < ra.sends.size();
    }
    EXPECT_TRUE(emptied);
    EXPECT_TRUE(shrunk);
    // Packing folds A's multi-message pairs and leaves its single-message
    // pairs eager, so the packed plan is mixed.
    if (pack) {
      std::int64_t packed = 0;
      std::int64_t eager = 0;
      for (const BspTask& t : want[0].tasks)
        if (t.kind == BspTaskKind::kPackSend) ++(t.msgs > 1 ? packed : eager);
      EXPECT_GT(packed, 0);
      EXPECT_GT(eager, 0);
    }

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
                                   sizes, true, pack),
                   want[i]);
      expect_equal(publisher.step_work(mesh, *steps[i], version, c, nranks,
                                       sizes, true, pack),
                   want[i]);
      expect_equal(reader.step_work(mesh, *steps[i], version, c, nranks,
                                    sizes, true, pack),
                   want[i]);
      // The next step hits and patches the rebuilt plan in place.
      const auto c2 = costs_for(mesh.size(), 7 + 50 * static_cast<TimeNs>(i));
      const BspPlan want_hit =
          build_bsp_plan(mesh, *steps[i], c2, nranks, sizes, true, pack);
      for (ExchangePlanCache* cache : {&local, &publisher, &reader})
        expect_equal(cache->step_work(mesh, *steps[i], version, c2, nranks,
                                      sizes, true, pack),
                     want_hit);
    }
    EXPECT_EQ(local.stats().misses, 3);
    EXPECT_EQ(local.stats().hits, 3);
    // The publisher builds A and B and finds A in the store on return;
    // the reader finds every plan there.
    EXPECT_EQ(publisher.stats().share_hits, 1);
    EXPECT_EQ(reader.stats().share_hits, 3);
  }
}

TEST(PlanCache, InPlaceOverlapRebuildsEqualFreshBuilds) {
  // The overlap analogue: misses A -> B -> A rebuild the flat plan inside
  // its own arrays, single- and two-stage with and without packing. B
  // packs every block onto the lower half of the ranks, emptying the
  // upper ranks and shrinking the others' send runs; the return to A
  // regrows them. Each rebuild — local, published, or copied out of the
  // shared store — must equal a build into fresh storage in every field.
  AmrMesh mesh(RootGrid{4, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0, 5});
  const std::int32_t nranks = 12;
  const MessageSizeModel sizes{};
  const Placement a = round_robin(mesh.size(), nranks);
  Placement b(mesh.size());
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::int32_t>(i * (nranks / 2) / b.size());

  for (const double stage1_frac : {0.0, 0.8}) {
    for (const bool pack : {false, true}) {
      SCOPED_TRACE(std::to_string(stage1_frac) + (pack ? " pack" : ""));
      const Placement* steps[] = {&a, &b, &a};
      const auto costs_at = [&](std::size_t i) {
        return costs_for(mesh.size(), 10 + 100 * static_cast<TimeNs>(i));
      };
      std::vector<OverlapPlan> want;
      for (std::size_t i = 0; i < 3; ++i)
        want.push_back(build_overlap_plan(mesh, *steps[i], costs_at(i),
                                          nranks, sizes, pack,
                                          stage1_frac));
      bool emptied = false;
      bool shrunk = false;
      for (std::size_t r = 0; r < want[0].nranks(); ++r) {
        const OverlapRankPlan& ra = want[0].ranks[r];
        const OverlapRankPlan& rb = want[1].ranks[r];
        emptied |= !ra.blocks.empty() && rb.blocks.empty();
        shrunk |= !rb.sends().empty() && rb.sends().size() < ra.sends().size();
      }
      EXPECT_TRUE(emptied);
      EXPECT_TRUE(shrunk);
      // Aggregates, eager sends of single-message pairs, credits and
      // (two-stage) the stage-1 order are exercised wherever packing is
      // on.
      if (pack) {
        std::int64_t packed = 0;
        std::int64_t eager = 0;
        for (const OverlapSend& send : want[0].sends)
          ++(send.msgs > 1 ? packed : eager);
        EXPECT_GT(packed, 0);
        EXPECT_GT(eager, 0);
        EXPECT_FALSE(want[0].credits.empty());
        EXPECT_EQ(want[0].stage1_order.empty(), stage1_frac == 0.0);
        EXPECT_EQ(want[0].packed_out.empty(), stage1_frac == 0.0);
      }

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
        expect_equal(local.overlap_work(mesh, *steps[i], version, c, nranks,
                                        sizes, pack, stage1_frac),
                     want[i]);
        expect_equal(publisher.overlap_work(mesh, *steps[i], version, c,
                                            nranks, sizes, pack,
                                            stage1_frac),
                     want[i]);
        expect_equal(reader.overlap_work(mesh, *steps[i], version, c,
                                         nranks, sizes, pack,
                                         stage1_frac),
                     want[i]);
      }
      EXPECT_EQ(local.stats().misses, 3);
      EXPECT_EQ(publisher.stats().share_hits, 1);
      EXPECT_EQ(reader.stats().share_hits, 3);
    }
  }
}

/// One cache per (shape, packing) point, fed the same regrid sequence
/// the simulation feeds its own cache.
struct FuzzLane {
  enum class Shape { kBspFlux, kOverlapSingle, kOverlapTwoStage };
  Shape shape;
  bool pack = false;
  ExchangePlanCache cache;
  std::int64_t packed_sends = 0;  ///< BSP transfers with msgs > 1
  std::int64_t eager_sends = 0;   ///< BSP transfers with msgs == 1
  TaskOrdering ordering = TaskOrdering::kSendFirst;  ///< BSP layout
};

constexpr double kStageSplit = 0.8;

void run_lane(FuzzLane& lane, const AmrMesh& mesh, const Placement& p,
              std::uint64_t placement_version,
              std::span<const TimeNs> costs, std::int32_t nranks,
              const MessageSizeModel& sizes) {
  switch (lane.shape) {
    case FuzzLane::Shape::kBspFlux: {
      const BspPlan& got = lane.cache.step_work(
          mesh, p, placement_version, costs, nranks, sizes, true,
          lane.pack, lane.ordering);
      const BspPlan want = build_bsp_plan(mesh, p, costs, nranks, sizes,
                                          true, lane.pack, lane.ordering);
      expect_equal(got, want);
      for (std::size_t r = 0; r < want.nranks(); ++r)
        for (const BspTask& m : want.sends_of(r))
          ++(m.msgs > 1 ? lane.packed_sends : lane.eager_sends);
      break;
    }
    case FuzzLane::Shape::kOverlapSingle:
      expect_equal(lane.cache.overlap_work(mesh, p, placement_version,
                                           costs, nranks, sizes,
                                           lane.pack),
                   build_overlap_plan(mesh, p, costs, nranks, sizes,
                                      lane.pack));
      break;
    case FuzzLane::Shape::kOverlapTwoStage:
      expect_equal(lane.cache.overlap_work(mesh, p, placement_version,
                                           costs, nranks, sizes,
                                           lane.pack, kStageSplit),
                   build_overlap_plan(mesh, p, costs, nranks, sizes,
                                      lane.pack, kStageSplit));
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
  // same inputs, and hits must follow the version pair exactly. Two
  // compute-first BSP lanes share a store, so the second lane's plans
  // are all store copies patched with its costs.
  const MessageSizeModel sizes{};
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

    SharedPlanStore store;
    std::vector<FuzzLane> lanes;
    for (const auto shape : {FuzzLane::Shape::kBspFlux,
                             FuzzLane::Shape::kOverlapSingle,
                             FuzzLane::Shape::kOverlapTwoStage})
      for (const bool pack : {false, true})
        lanes.push_back(FuzzLane{shape, pack, {}, 0, 0});
    // Compute-first BSP lanes: one builds and publishes to a shared
    // store, the next reads every miss back out of it.
    for (int i = 0; i < 2; ++i) {
      lanes.push_back(FuzzLane{FuzzLane::Shape::kBspFlux,
                               /*pack=*/true, {}, 0, 0,
                               TaskOrdering::kComputeFirst});
      lanes.back().cache.set_shared_store(&store);
    }

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
    // Every miss of the reading lane came from the store.
    const FuzzLane& reader = lanes.back();
    EXPECT_EQ(reader.cache.stats().share_hits, reader.cache.stats().misses);
    // Packing leaves single-message pairs eager: packed and eager
    // transfers both occur in the packed BSP lane's plans.
    ASSERT_TRUE(lanes[1].pack);
    EXPECT_GT(lanes[1].packed_sends, 0);
    EXPECT_GT(lanes[1].eager_sends, 0);
  }
}

// What a BSP step holds per task on a 1024-rank Sedov mesh (the shape of
// Simulation.TelemetryFootprintPerRankStep): the flat plan, the
// executor's one-line runtimes and wait stats, its per-plan counters and
// send-priority scratch, per-rank records included, with critical-path
// send priority on. The nested per-rank vectors and per-step task copies
// this replaced held 59 bytes per task on this mesh (capacity, before
// per-allocation overhead).
TEST(PlanCache, BspPlanFootprintPerTask) {
  constexpr std::int32_t kRanks = 1024;
  SedovParams sp;
  sp.total_steps = 40;
  sp.max_level = 1;
  SedovWorkload sedov(sp);
  AmrMesh mesh(RootGrid{16, 8, 8});
  for (std::int64_t step = 0; step <= 20; ++step) sedov.evolve(mesh, step);
  std::vector<TimeNs> costs(mesh.size());
  std::vector<double> est(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b) {
    costs[b] = sedov.block_cost(mesh, b, 20);
    est[b] = static_cast<double>(costs[b]);
  }
  const Placement placement = make_policy("cpl50")->place(est, kRanks);

  ExchangePlanCache cache;
  const BspPlan& plan = cache.step_work(mesh, placement, 0, costs, kRanks,
                                        MessageSizeModel{}, true);
  const ClusterTopology topo(kRanks, 16);
  Engine engine;
  Fabric fabric(topo, FabricParams::tuned(), Rng(1));
  Comm comm(engine, fabric, kRanks);
  StepExecutor executor(engine, comm);
  for (std::uint64_t window = 0; window < 2; ++window)
    (void)executor.execute(plan, window, /*priority_rank=*/3);

  const double per_task =
      static_cast<double>(plan.bytes() + executor.bytes()) /
      static_cast<double>(plan.tasks.size());
  RecordProperty("bytes_per_task", std::to_string(per_task));
  EXPECT_GT(plan.tasks.size(), 40u * kRanks);  // a real exchange
  EXPECT_LE(per_task, 24.0);
}

// The builder that gathers one source rank's messages at a time equals
// the materialized-message builder it replaced (overlap_oracle.hpp) in
// every field, packing on and off, single- and two-stage, under CPLX 0
// and 100 and under random placements. One plan and one scratch serve
// every build, as in the cache, so state a build of another shape
// leaves behind would show.
TEST(PlanCache, OverlapBuilderMatchesMaterializedOracle) {
  constexpr std::int32_t kRanks = 48;
  AmrMesh mesh(RootGrid{4, 4, 4});
  Rng rng(5);
  refine_random(mesh, rng, 0.3, 2, 2);
  std::vector<TimeNs> costs(mesh.size());
  std::vector<double> est(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b) {
    costs[b] = us(10) + static_cast<TimeNs>(rng.uniform_int(40000));
    est[b] = static_cast<double>(costs[b]);
  }
  std::vector<Placement> placements = {
      make_policy("cpl0")->place(est, kRanks),
      make_policy("cpl100")->place(est, kRanks)};
  for (int i = 0; i < 3; ++i) {
    Placement p(mesh.size());
    for (auto& r : p) r = static_cast<std::int32_t>(rng.uniform_int(kRanks));
    placements.push_back(std::move(p));
  }
  const MessageSizeModel sizes;

  OverlapPlan plan;
  OverlapBuildScratch scratch;
  bool aggregates = false;
  bool shared_aggregates = false;
  for (std::size_t i = 0; i < placements.size(); ++i) {
    for (const double stage1_frac : {0.0, 0.6}) {
      for (const bool pack : {false, true}) {
        SCOPED_TRACE("placement " + std::to_string(i) + " stage1 " +
                     std::to_string(stage1_frac) + (pack ? " pack" : ""));
        build_overlap_plan(mesh, placements[i], costs, kRanks, sizes, pack,
                           stage1_frac, plan, scratch);
        expect_equal(plan, oracle::materialized_overlap_plan(
                               mesh, placements[i], costs, kRanks, sizes,
                               pack, stage1_frac));
        for (const OverlapSend& send : plan.sends) {
          aggregates |= send.msgs > 1;
          shared_aggregates |= send.contributors > 1;
        }
      }
    }
  }
  EXPECT_TRUE(aggregates);
  EXPECT_TRUE(shared_aggregates);
}

// The overlap builder's scratch grows with ranks, blocks and the busiest
// rank's messages, not with the step's message count: refining the mesh
// multiplies the cross-rank messages, and the scratch stays within a
// bound that has no term for their total.
TEST(PlanCache, OverlapScratchFootprint) {
  using Msg = OverlapBuildScratch::Msg;
  using Pair = OverlapBuildScratch::Pair;
  constexpr std::int32_t kRanks = 64;
  AmrMesh mesh(RootGrid{4, 4, 4});
  const MessageSizeModel sizes;
  OverlapPlan plan;
  OverlapBuildScratch scratch;
  std::size_t first_msgs = 0;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    const Placement placement = round_robin(mesh.size(), kRanks);
    const std::vector<TimeNs> costs = costs_for(mesh.size(), us(10));
    build_overlap_plan(mesh, placement, costs, kRanks, sizes, /*pack=*/true,
                       /*stage1_frac=*/0.5, plan, scratch);
    // Cross-rank logical messages, per source rank and in total.
    std::size_t total = 0;
    std::size_t busiest = 0;
    std::size_t busiest_blocks = 0;
    for (const OverlapRankPlan& rp : plan.ranks) {
      std::size_t msgs = 0;
      for (const OverlapSend& send : OverlapPlan::slice(plan.sends,
                                                        rp.sends()))
        msgs += static_cast<std::size_t>(send.msgs);
      total += msgs;
      busiest = std::max(busiest, msgs);
      busiest_blocks = std::max(busiest_blocks,
                                static_cast<std::size_t>(rp.blocks.size()));
    }
    // Per rank: a pair record, a touched entry and a fill cursor. Per
    // block: its slot and two credit markers. The stage-1 sort keys of
    // the busiest rank's blocks, and its messages. Twice that allows for
    // growth by doubling.
    const std::size_t bound =
        2 * (kRanks * (sizeof(Pair) + 2 * sizeof(std::int32_t)) +
             mesh.size() * 3 * sizeof(std::int32_t) +
             busiest_blocks * sizeof(std::int64_t) + busiest * sizeof(Msg));
    RecordProperty("scratch_bytes_round" + std::to_string(round),
                   std::to_string(scratch.bytes()));
    EXPECT_LE(scratch.bytes(), bound);
    // Materializing the step's messages alone would take several times
    // what the whole scratch holds.
    EXPECT_LT(4 * scratch.bytes(), total * sizeof(Msg));
    if (round == 0) {
      first_msgs = total;
      mesh.refine_all();
    } else {
      EXPECT_GE(total, 6 * first_msgs);  // the messages did multiply
    }
  }
}

// Each holder's byte count is the capacity of what it holds: a plan's
// flat arrays, and for the cache both plans and both builders' scratch,
// which a fresh build into fresh storage reproduces exactly.
TEST(PlanCache, BytesCountPlansAndScratch) {
  AmrMesh mesh(RootGrid{4, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0, 5});
  const std::int32_t nranks = 6;
  const Placement p = round_robin(mesh.size(), nranks);
  const auto costs = costs_for(mesh.size(), 50);
  const MessageSizeModel sizes;

  OverlapPlan plan;
  OverlapBuildScratch scratch;
  build_overlap_plan(mesh, p, costs, nranks, sizes, /*pack=*/true,
                     kStageSplit, plan, scratch);
  EXPECT_EQ(plan.bytes(),
            plan.ranks.capacity() * sizeof(OverlapRankPlan) +
                plan.blocks.capacity() * sizeof(OverlapBlock) +
                plan.sends.capacity() * sizeof(OverlapSend) +
                plan.credits.capacity() * sizeof(AggCredit) +
                (plan.packed_out.capacity() + plan.stage1_order.capacity() +
                 plan.expected_recvs.capacity()) *
                    sizeof(std::int32_t));
  EXPECT_GT(plan.bytes(), plan.sends.size() * sizeof(OverlapSend));
  EXPECT_EQ(scratch.bytes(),
            scratch.msgs.capacity() * sizeof(OverlapBuildScratch::Msg) +
                scratch.pairs.capacity() * sizeof(OverlapBuildScratch::Pair) +
                scratch.order_key.capacity() * sizeof(std::int64_t) +
                (scratch.slot_of_block.capacity() +
                 scratch.touched.capacity() + scratch.credit_src.capacity() +
                 scratch.credit_at.capacity() + scratch.cursor.capacity()) *
                    sizeof(std::int32_t));

  ExchangePlanCache cache;
  EXPECT_EQ(cache.bytes(), 0u);
  (void)cache.overlap_work(mesh, p, 0, costs, nranks, sizes, true,
                           kStageSplit);
  EXPECT_EQ(cache.bytes(), plan.bytes() + scratch.bytes());
  BspPlan bsp;
  BspBuildScratch bsp_scratch;
  build_bsp_plan(mesh, p, costs, nranks, sizes, true, false,
                 TaskOrdering::kSendFirst, 0.0, bsp, bsp_scratch);
  (void)cache.step_work(mesh, p, 1, costs, nranks, sizes, true);
  EXPECT_EQ(cache.bytes(), plan.bytes() + scratch.bytes() + bsp.bytes() +
                               bsp_scratch.bytes());
}

}  // namespace
}  // namespace amr
