// SharedPlanStore: a content-keyed hit must be the very plan the
// consumer would have built, any mode-matrix mismatch must isolate the
// tenants, and the FIFO capacity cap must evict oldest-published first.
// Then the ExchangePlanCache hookup: two version-keyed caches wired to
// one store share plans across tenants (share_hits), their shared hits
// are byte-identical to private from-scratch builds, and caches running
// a different execution mode never alias.
#include <gtest/gtest.h>

#include <vector>

#include "amr/exec/plan_cache.hpp"
#include "amr/exec/shared_plan_store.hpp"

namespace amr {
namespace {

void expect_equal(const BspPlan& got, const BspPlan& want) {
  ASSERT_EQ(got.nranks(), want.nranks());
  for (std::size_t r = 0; r < got.nranks(); ++r)
    EXPECT_EQ(got.ranks[r], want.ranks[r]) << r;
  EXPECT_TRUE(got.tasks == want.tasks);
  EXPECT_EQ(got.expected_recvs, want.expected_recvs);
  EXPECT_TRUE(got == want);
}

void expect_equal(const OverlapPlan& got, const OverlapPlan& want) {
  ASSERT_EQ(got.nranks(), want.nranks());
  for (std::size_t r = 0; r < got.nranks(); ++r)
    EXPECT_EQ(got.ranks[r], want.ranks[r]) << r;
  EXPECT_TRUE(got.blocks == want.blocks);
  EXPECT_TRUE(got.sends == want.sends);
  EXPECT_TRUE(got.credits == want.credits);
  EXPECT_EQ(got.expected_recvs, want.expected_recvs);
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

/// The content key a tenant running (mesh, p) would present — built
/// fresh each call, the way distinct tenants present distinct copies.
SharedPlanStore::Key key_for(const AmrMesh& mesh, const Placement& p,
                             std::int32_t nranks, bool overlap,
                             bool include_flux, double stage1_frac,
                             const MessageSizeModel& sizes, bool pack) {
  SharedPlanStore::Key k;
  k.overlap = overlap;
  k.nranks = nranks;
  k.include_flux = include_flux;
  k.stage1_frac = stage1_frac;
  k.sizes = sizes;
  k.pack = pack;
  k.blocks.assign(mesh.blocks().begin(), mesh.blocks().end());
  k.placement = p;
  return k;
}

TEST(SharedPlanStore, PublishedBspPlanRoundTrips) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0});
  const std::int32_t nranks = 4;
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};
  const auto c = costs_for(mesh.size(), 100);
  const auto plan = build_bsp_plan(mesh, p, c, nranks, sizes, true);

  SharedPlanStore store;
  BspPlan out;
  auto key = [&] {
    return key_for(mesh, p, nranks, false, true, 0.0, sizes,
                   /*pack=*/false);
  };
  EXPECT_FALSE(store.lookup_bsp(key(), out));
  store.publish_bsp(key(), plan);
  // A second tenant presents its own copy of the same content.
  ASSERT_TRUE(store.lookup_bsp(key(), out));
  expect_equal(out, plan);
  EXPECT_EQ(out.serial, plan.serial);  // same content, same identity
  EXPECT_EQ(store.stats().hits, 1);
  EXPECT_EQ(store.stats().misses, 1);
  EXPECT_EQ(store.stats().published, 1);
  EXPECT_EQ(store.size(), 1u);
}

TEST(SharedPlanStore, EveryKeyAxisIsolates) {
  // Flipping any single axis of the mode matrix must miss: a tenant
  // never receives a plan built under different inputs.
  AmrMesh mesh(RootGrid{2, 2, 2});
  const std::int32_t nranks = 4;
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};
  const auto plan = build_bsp_plan(mesh, p, costs_for(mesh.size(), 10),
                                    nranks, sizes, true);

  SharedPlanStore store;
  const auto base = [&] {
    return key_for(mesh, p, nranks, false, true, 0.0, sizes,
                   /*pack=*/false);
  };
  store.publish_bsp(base(), plan);
  BspPlan out;
  ASSERT_TRUE(store.lookup_bsp(base(), out));

  auto k = base();
  k.nranks = nranks * 2;
  EXPECT_FALSE(store.lookup_bsp(k, out));

  k = base();
  k.include_flux = false;
  EXPECT_FALSE(store.lookup_bsp(k, out));

  k = base();
  k.sizes.ghost = 3;
  EXPECT_FALSE(store.lookup_bsp(k, out));

  k = base();
  k.pack = true;
  EXPECT_FALSE(store.lookup_bsp(k, out));

  k = base();
  k.ordering = TaskOrdering::kComputeFirst;  // a different task layout
  EXPECT_FALSE(store.lookup_bsp(k, out));

  k = base();
  k.placement[0] = (k.placement[0] + 1) % nranks;
  EXPECT_FALSE(store.lookup_bsp(k, out));

  // A different mesh epoch (refined leaves) is a different key.
  AmrMesh fine(RootGrid{2, 2, 2});
  fine.refine(std::vector<std::int32_t>{0});
  const Placement pf = round_robin(fine.size(), nranks);
  EXPECT_FALSE(store.lookup_bsp(
      key_for(fine, pf, nranks, false, true, 0.0, sizes,
              /*pack=*/false),
      out));
}

TEST(SharedPlanStore, OverlapPlanRoundTripsAndKeysOnStageSplit) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine(std::vector<std::int32_t>{3});
  const std::int32_t nranks = 4;
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};
  const auto c = costs_for(mesh.size(), 7);
  const OverlapPlan plan = build_overlap_plan(mesh, p, c, nranks, sizes);

  SharedPlanStore store;
  const auto key = [&](double frac) {
    return key_for(mesh, p, nranks, true, false, frac, sizes,
                   /*pack=*/false);
  };
  store.publish_overlap(key(0.0), plan);
  OverlapPlan out;
  ASSERT_TRUE(store.lookup_overlap(key(0.0), out));
  expect_equal(out, plan);
  // The two-stage split is a key axis: a legacy plan must not serve a
  // two-stage consumer.
  EXPECT_FALSE(store.lookup_overlap(key(0.5), out));
}

TEST(SharedPlanStore, FifoEvictsOldestAtCapacity) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  const MessageSizeModel sizes{};
  SharedPlanStore store(2);
  BspPlan out;
  // Three distinct keys (by nranks), published in order.
  for (std::int32_t nranks = 2; nranks <= 8; nranks *= 2) {
    const Placement p = round_robin(mesh.size(), nranks);
    store.publish_bsp(key_for(mesh, p, nranks, false, true, 0.0, sizes,
                              /*pack=*/false),
                      build_bsp_plan(mesh, p, costs_for(mesh.size(), 1),
                                      nranks, sizes, true));
  }
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().evicted, 1);
  // Oldest (nranks=2) is gone; the newer two survive.
  EXPECT_FALSE(store.lookup_bsp(
      key_for(mesh, round_robin(mesh.size(), 2), 2, false, true, 0.0,
              sizes, /*pack=*/false),
      out));
  EXPECT_TRUE(store.lookup_bsp(
      key_for(mesh, round_robin(mesh.size(), 4), 4, false, true, 0.0,
              sizes, /*pack=*/false),
      out));
  EXPECT_TRUE(store.lookup_bsp(
      key_for(mesh, round_robin(mesh.size(), 8), 8, false, true, 0.0,
              sizes, /*pack=*/false),
      out));
}

TEST(SharedPlanStore, DuplicatePublishKeepsFirst) {
  // Two tenants can race to build the same epoch; the second insert is
  // a no-op (both plans are identical by construction anyway).
  AmrMesh mesh(RootGrid{2, 2, 2});
  const std::int32_t nranks = 2;
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};
  const auto plan = build_bsp_plan(mesh, p, costs_for(mesh.size(), 3),
                                    nranks, sizes, true);
  SharedPlanStore store;
  const auto key = [&] {
    return key_for(mesh, p, nranks, false, true, 0.0, sizes,
                   /*pack=*/false);
  };
  store.publish_bsp(key(), plan);
  store.publish_bsp(key(), plan);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().published, 1);
}

TEST(SharedPlanStore, IdenticalFingerprintCachesShare) {
  // The serve wiring: tenant A's cache builds and publishes; tenant B's
  // cache — identical content, its own version counters and costs —
  // fills its miss from the store, and the patched result is byte-
  // identical to the from-scratch build B would have done.
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0});
  const std::int32_t nranks = 4;
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};

  SharedPlanStore store;
  ExchangePlanCache a, b;
  a.set_shared_store(&store);
  b.set_shared_store(&store);

  const auto ca = costs_for(mesh.size(), 100);
  (void)a.step_work(mesh, p, 0, ca, nranks, sizes, true);
  EXPECT_EQ(a.stats().misses, 1);
  EXPECT_EQ(a.stats().share_hits, 0);
  EXPECT_EQ(store.stats().published, 1);

  const auto cb = costs_for(mesh.size(), 5000);
  const auto got = b.step_work(mesh, p, 0, cb, nranks, sizes, true);
  // Still a version-key miss (B's cache was empty), but filled from the
  // store rather than built.
  EXPECT_EQ(b.stats().misses, 1);
  EXPECT_EQ(b.stats().share_hits, 1);
  EXPECT_EQ(store.stats().hits, 1);
  expect_equal(got, build_bsp_plan(mesh, p, cb, nranks, sizes, true));

  // B's next step with fresh costs is a plain private hit: no store
  // traffic, same bytes as a fresh build.
  const auto cb2 = costs_for(mesh.size(), 777);
  const auto hit = b.step_work(mesh, p, 0, cb2, nranks, sizes, true);
  EXPECT_EQ(b.stats().hits, 1);
  EXPECT_EQ(store.stats().hits, 1);
  expect_equal(hit, build_bsp_plan(mesh, p, cb2, nranks, sizes, true));
}

TEST(SharedPlanStore, ModeMismatchNeverShares) {
  // A tenant running any different mode-matrix point must build its own
  // plan: packing on or off and the execution mode both key.
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0});
  const std::int32_t nranks = 2;
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};
  const auto c = costs_for(mesh.size(), 10);

  SharedPlanStore store;
  ExchangePlanCache legacy;
  legacy.set_shared_store(&store);
  (void)legacy.step_work(mesh, p, 0, c, nranks, sizes, true);
  ASSERT_EQ(store.stats().published, 1);

  ExchangePlanCache packed;
  packed.set_shared_store(&store);
  const auto got = packed.step_work(mesh, p, 0, c, nranks, sizes, true,
                                    /*pack=*/true);
  EXPECT_EQ(packed.stats().share_hits, 0);
  expect_equal(got, build_bsp_plan(mesh, p, c, nranks, sizes, true,
                                    /*pack=*/true));

  ExchangePlanCache overlap;
  overlap.set_shared_store(&store);
  const auto ow = overlap.overlap_work(mesh, p, 0, c, nranks, sizes);
  EXPECT_EQ(overlap.stats().share_hits, 0);
  expect_equal(ow, build_overlap_plan(mesh, p, c, nranks, sizes));

  // But a second packing tenant does share.
  ExchangePlanCache packed2;
  packed2.set_shared_store(&store);
  const auto got2 =
      packed2.step_work(mesh, p, 0, c, nranks, sizes, true, /*pack=*/true);
  EXPECT_EQ(packed2.stats().share_hits, 1);
  expect_equal(got2, build_bsp_plan(mesh, p, c, nranks, sizes, true,
                                     /*pack=*/true));
}

}  // namespace
}  // namespace amr
