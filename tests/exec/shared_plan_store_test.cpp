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
    EXPECT_TRUE(same_msgs(got[r].sends, want[r].sends)) << r;
    EXPECT_EQ(got[r].local_copy_bytes, want[r].local_copy_bytes) << r;
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
      EXPECT_EQ(g.expected_recvs, w.expected_recvs);
      EXPECT_TRUE(same_msgs(g.sends, w.sends));
    }
    EXPECT_TRUE(same_msgs(got[r].sends, want[r].sends)) << r;
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

/// The content key a tenant running (mesh, p) would present — built
/// fresh each call, the way distinct tenants present distinct copies.
SharedPlanStore::Key key_for(const AmrMesh& mesh, const Placement& p,
                             std::int32_t nranks, bool overlap,
                             bool include_flux, double stage1_frac,
                             const MessageSizeModel& sizes,
                             const PackingPolicy& packing) {
  SharedPlanStore::Key k;
  k.overlap = overlap;
  k.nranks = nranks;
  k.include_flux = include_flux;
  k.stage1_frac = stage1_frac;
  k.sizes = sizes;
  k.packing = packing;
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
  const auto plan = build_step_work(mesh, p, c, nranks, sizes, true);

  SharedPlanStore store;
  std::vector<RankStepWork> out;
  auto key = [&] {
    return key_for(mesh, p, nranks, false, true, 0.0, sizes,
                   PackingPolicy::none());
  };
  EXPECT_FALSE(store.lookup_bsp(key(), out));
  store.publish_bsp(key(), plan);
  // A second tenant presents its own copy of the same content.
  ASSERT_TRUE(store.lookup_bsp(key(), out));
  expect_equal(out, plan);
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
  const auto plan = build_step_work(mesh, p, costs_for(mesh.size(), 10),
                                    nranks, sizes, true);

  SharedPlanStore store;
  const auto base = [&] {
    return key_for(mesh, p, nranks, false, true, 0.0, sizes,
                   PackingPolicy::none());
  };
  store.publish_bsp(base(), plan);
  std::vector<RankStepWork> out;
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
  k.packing = PackingPolicy::all();
  EXPECT_FALSE(store.lookup_bsp(k, out));

  k = base();
  k.packing = PackingPolicy{4000};
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
              PackingPolicy::none()),
      out));
}

TEST(SharedPlanStore, OverlapPlanRoundTripsAndKeysOnStageSplit) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine(std::vector<std::int32_t>{3});
  const std::int32_t nranks = 4;
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};
  const auto c = costs_for(mesh.size(), 7);
  const auto plan = build_overlap_work(mesh, p, c, nranks, sizes);

  SharedPlanStore store;
  const auto key = [&](double frac) {
    return key_for(mesh, p, nranks, true, false, frac, sizes,
                   PackingPolicy::none());
  };
  store.publish_overlap(key(0.0), plan);
  std::vector<OverlapRankWork> out;
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
  std::vector<RankStepWork> out;
  // Three distinct keys (by nranks), published in order.
  for (std::int32_t nranks = 2; nranks <= 8; nranks *= 2) {
    const Placement p = round_robin(mesh.size(), nranks);
    store.publish_bsp(key_for(mesh, p, nranks, false, true, 0.0, sizes,
                              PackingPolicy::none()),
                      build_step_work(mesh, p, costs_for(mesh.size(), 1),
                                      nranks, sizes, true));
  }
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().evicted, 1);
  // Oldest (nranks=2) is gone; the newer two survive.
  EXPECT_FALSE(store.lookup_bsp(
      key_for(mesh, round_robin(mesh.size(), 2), 2, false, true, 0.0,
              sizes, PackingPolicy::none()),
      out));
  EXPECT_TRUE(store.lookup_bsp(
      key_for(mesh, round_robin(mesh.size(), 4), 4, false, true, 0.0,
              sizes, PackingPolicy::none()),
      out));
  EXPECT_TRUE(store.lookup_bsp(
      key_for(mesh, round_robin(mesh.size(), 8), 8, false, true, 0.0,
              sizes, PackingPolicy::none()),
      out));
}

TEST(SharedPlanStore, DuplicatePublishKeepsFirst) {
  // Two tenants can race to build the same epoch; the second insert is
  // a no-op (both plans are identical by construction anyway).
  AmrMesh mesh(RootGrid{2, 2, 2});
  const std::int32_t nranks = 2;
  const Placement p = round_robin(mesh.size(), nranks);
  const MessageSizeModel sizes{};
  const auto plan = build_step_work(mesh, p, costs_for(mesh.size(), 3),
                                    nranks, sizes, true);
  SharedPlanStore store;
  const auto key = [&] {
    return key_for(mesh, p, nranks, false, true, 0.0, sizes,
                   PackingPolicy::none());
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
  expect_equal(got, build_step_work(mesh, p, cb, nranks, sizes, true));

  // B's next step with fresh costs is a plain private hit: no store
  // traffic, same bytes as a fresh build.
  const auto cb2 = costs_for(mesh.size(), 777);
  const auto hit = b.step_work(mesh, p, 0, cb2, nranks, sizes, true);
  EXPECT_EQ(b.stats().hits, 1);
  EXPECT_EQ(store.stats().hits, 1);
  expect_equal(hit, build_step_work(mesh, p, cb2, nranks, sizes, true));
}

TEST(SharedPlanStore, ModeMismatchNeverShares) {
  // A tenant running any different mode-matrix point must build its own
  // plan: pack-none, pack-all, a finite threshold, and the execution
  // mode all key.
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
                                    PackingPolicy::all());
  EXPECT_EQ(packed.stats().share_hits, 0);
  expect_equal(got, build_step_work(mesh, p, c, nranks, sizes, true,
                                    PackingPolicy::all()));

  ExchangePlanCache adaptive;
  adaptive.set_shared_store(&store);
  const PackingPolicy split{4000};
  (void)adaptive.step_work(mesh, p, 0, c, nranks, sizes, true, split);
  EXPECT_EQ(adaptive.stats().share_hits, 0);

  ExchangePlanCache overlap;
  overlap.set_shared_store(&store);
  const auto ow = overlap.overlap_work(mesh, p, 0, c, nranks, sizes);
  EXPECT_EQ(overlap.stats().share_hits, 0);
  expect_equal(ow, build_overlap_work(mesh, p, c, nranks, sizes));

  // But a second adaptive tenant with the same thresholds does share.
  ExchangePlanCache adaptive2;
  adaptive2.set_shared_store(&store);
  const auto got2 =
      adaptive2.step_work(mesh, p, 0, c, nranks, sizes, true, split);
  EXPECT_EQ(adaptive2.stats().share_hits, 1);
  expect_equal(got2,
               build_step_work(mesh, p, c, nranks, sizes, true, split));
}

}  // namespace
}  // namespace amr
