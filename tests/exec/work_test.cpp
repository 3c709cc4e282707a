#include "amr/exec/work.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "bsp_oracle.hpp"

namespace amr {
namespace {

TEST(BuildStepWork, ComputeTasksFollowPlacement) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  const Placement placement{0, 0, 1, 1, 2, 2, 3, 3};
  const std::vector<TimeNs> costs(8, us(100));
  const BspPlan plan = build_bsp_plan(mesh, placement, costs, 4);
  ASSERT_EQ(plan.nranks(), 4u);
  for (std::size_t r = 0; r < 4; ++r)
    EXPECT_EQ(plan.computes_of(r).size(), 2u);
}

TEST(BuildStepWork, SendsMatchExpectedRecvs) {
  AmrMesh mesh(RootGrid{3, 3, 3});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 5);
  const std::vector<TimeNs> costs(mesh.size(), us(10));
  const BspPlan plan = build_bsp_plan(mesh, placement, costs, 5);

  std::vector<std::int64_t> incoming(5, 0);
  std::int64_t total_sends = 0;
  for (std::size_t r = 0; r < plan.nranks(); ++r) {
    for (const BspTask& s : plan.sends_of(r)) {
      ++incoming[static_cast<std::size_t>(s.dst)];
      ++total_sends;
    }
  }
  std::int64_t total_expected = 0;
  for (std::size_t r = 0; r < plan.nranks(); ++r) {
    EXPECT_EQ(incoming[r], plan.expected_recvs[r]);
    total_expected += plan.expected_recvs[r];
  }
  EXPECT_EQ(total_sends, total_expected);
}

TEST(BuildStepWork, SingleRankHasOnlyLocalCopies) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  const Placement placement(mesh.size(), 0);
  const std::vector<TimeNs> costs(mesh.size(), us(10));
  const BspPlan plan = build_bsp_plan(mesh, placement, costs, 1);
  EXPECT_TRUE(plan.sends_of(0).empty());
  EXPECT_EQ(plan.expected_recvs[0], 0);
  EXPECT_GT(plan.ranks[0].local_copy_msgs, 0);
  // 8 blocks x 7 neighbors each (2x2x2 fully adjacent) = 56 pairs.
  EXPECT_EQ(plan.ranks[0].local_copy_msgs, 56);
}

TEST(BuildStepWork, MessageBytesFollowNeighborKind) {
  AmrMesh mesh(RootGrid{2, 1, 1});
  const Placement placement{0, 1};
  const std::vector<TimeNs> costs(2, us(10));
  const MessageSizeModel sizes;
  const BspPlan plan = build_bsp_plan(mesh, placement, costs, 2, sizes);
  ASSERT_EQ(plan.sends_of(0).size(), 1u);
  EXPECT_EQ(plan.sends_of(0)[0].value, sizes.bytes(NeighborKind::kFace));
}

TEST(BuildStepWork, TotalComputeConservedAcrossPlacements) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  std::vector<TimeNs> costs(mesh.size());
  for (std::size_t b = 0; b < costs.size(); ++b)
    costs[b] = us(10.0 * (static_cast<double>(b) + 1));
  const Placement a{0, 0, 1, 1, 2, 2, 3, 3};
  const Placement b{3, 2, 1, 0, 3, 2, 1, 0};
  auto total = [&](const Placement& p) {
    TimeNs sum = 0;
    const BspPlan plan = build_bsp_plan(mesh, p, costs, 4);
    for (std::size_t r = 0; r < plan.nranks(); ++r)
      for (const BspTask& c : plan.computes_of(r)) sum += c.value;
    return sum;
  };
  EXPECT_EQ(total(a), total(b));
}

TEST(BuildStepWork, AggregateFoldsSendsPerDestination) {
  // 3x3x3 over 5 ranks: every rank holds several blocks, so most
  // (src,dst) pairs carry more than one boundary message. Aggregation
  // must fold them into one send per pair, conserve the logical message
  // count and byte volume, and keep expected counts per-peer.
  AmrMesh mesh(RootGrid{3, 3, 3});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 5);
  const std::vector<TimeNs> costs(mesh.size(), us(10));
  const MessageSizeModel sizes;
  const BspPlan legacy =
      build_bsp_plan(mesh, placement, costs, 5, sizes, false);
  const BspPlan agg = build_bsp_plan(mesh, placement, costs, 5, sizes, false,
                                     PackingPolicy::all());
  ASSERT_EQ(agg.nranks(), legacy.nranks());

  std::int64_t legacy_sends = 0;
  std::int64_t legacy_bytes = 0;
  for (std::size_t r = 0; r < legacy.nranks(); ++r) {
    legacy_sends += static_cast<std::int64_t>(legacy.sends_of(r).size());
    for (const BspTask& s : legacy.sends_of(r)) {
      legacy_bytes += s.value;
      EXPECT_EQ(s.msgs, 1);
    }
  }
  std::int64_t agg_sends = 0;
  std::int64_t agg_bytes = 0;
  std::int64_t agg_logical = 0;
  std::vector<std::int64_t> incoming(5, 0);
  for (std::size_t r = 0; r < agg.nranks(); ++r) {
    agg_sends += static_cast<std::int64_t>(agg.sends_of(r).size());
    std::vector<bool> dst_seen(5, false);
    for (const BspTask& s : agg.sends_of(r)) {
      agg_bytes += s.value;
      agg_logical += s.msgs;
      EXPECT_GE(s.msgs, 1);
      // One packed transfer per destination, at most.
      EXPECT_FALSE(dst_seen[static_cast<std::size_t>(s.dst)]);
      dst_seen[static_cast<std::size_t>(s.dst)] = true;
      ++incoming[static_cast<std::size_t>(s.dst)];
    }
    // Local copies and per-rank recv bytes are unaffected by packing.
    EXPECT_EQ(agg.ranks[r].local_copy_msgs, legacy.ranks[r].local_copy_msgs);
    EXPECT_EQ(agg.bytes_of(r, BspTaskKind::kLocalCopy),
              legacy.bytes_of(r, BspTaskKind::kLocalCopy));
    EXPECT_EQ(agg.bytes_of(r, BspTaskKind::kUnpack),
              legacy.bytes_of(r, BspTaskKind::kUnpack));
  }
  EXPECT_EQ(agg_logical, legacy_sends);
  EXPECT_EQ(agg_bytes, legacy_bytes);
  EXPECT_LT(agg_sends, legacy_sends);
  for (std::size_t r = 0; r < agg.nranks(); ++r)
    EXPECT_EQ(incoming[r], agg.expected_recvs[r]);
}

TEST(PackingPolicy, MeanPayloadThreshold) {
  // Mean bytes/message vs the threshold, independent of which ranks the
  // pair connects.
  const PackingPolicy p{1000};
  EXPECT_TRUE(p.active());
  EXPECT_FALSE(p.pack_all());
  // Single messages never pack regardless of size.
  EXPECT_FALSE(p.pack(100, 1));
  // Mean 500 <= 1000 packs; mean 2000 > 1000 stays eager; the boundary
  // (mean == threshold) packs.
  EXPECT_TRUE(p.pack(1000, 2));
  EXPECT_FALSE(p.pack(4000, 2));
  EXPECT_TRUE(p.pack(2000, 2));
  EXPECT_FALSE(PackingPolicy::none().active());
  EXPECT_FALSE(PackingPolicy::none().pack(2, 2));
  EXPECT_FALSE(PackingPolicy{0}.active());
  EXPECT_TRUE(PackingPolicy::all().active());
  EXPECT_TRUE(PackingPolicy::all().pack_all());
  EXPECT_TRUE(PackingPolicy::all().pack(std::int64_t{1} << 39, 2));
  EXPECT_FALSE(PackingPolicy::all().pack(std::int64_t{1} << 39, 1));
}

TEST(BuildStepWork, AdaptiveThresholdSplitsPairs) {
  // Threshold between the edge payload (small) and the face payload
  // (large): small-mean pairs pack, large-mean pairs stay eager, and
  // the logical message count and byte volume are conserved either way.
  AmrMesh mesh(RootGrid{3, 3, 3});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 5);
  const std::vector<TimeNs> costs(mesh.size(), us(10));
  const MessageSizeModel sizes;
  const BspPlan legacy =
      build_bsp_plan(mesh, placement, costs, 5, sizes, false);

  // Pick a threshold strictly between the smallest and largest per-pair
  // mean, so the split is guaranteed to separate real traffic.
  std::int64_t pair_msgs[5][5] = {};
  std::int64_t pair_bytes[5][5] = {};
  for (std::size_t r = 0; r < legacy.nranks(); ++r) {
    for (const BspTask& s : legacy.sends_of(r)) {
      ++pair_msgs[r][s.dst];
      pair_bytes[r][s.dst] += s.value;
    }
  }
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = 0;
  for (int s = 0; s < 5; ++s) {
    for (int d = 0; d < 5; ++d) {
      if (pair_msgs[s][d] < 2) continue;
      const std::int64_t mean = pair_bytes[s][d] / pair_msgs[s][d];
      lo = std::min(lo, mean);
      hi = std::max(hi, mean);
    }
  }
  ASSERT_LT(lo, hi);  // pair means genuinely differ on this mesh
  const std::int64_t mid = (lo + hi) / 2;
  const PackingPolicy policy{mid};
  const BspPlan adaptive =
      build_bsp_plan(mesh, placement, costs, 5, sizes, false, policy);

  std::int64_t legacy_sends = 0;
  std::int64_t legacy_bytes = 0;
  for (std::size_t r = 0; r < legacy.nranks(); ++r) {
    legacy_sends += static_cast<std::int64_t>(legacy.sends_of(r).size());
    for (const BspTask& s : legacy.sends_of(r)) legacy_bytes += s.value;
  }
  std::int64_t logical = 0;
  std::int64_t bytes = 0;
  std::int64_t packed = 0;
  std::int64_t eager = 0;
  std::vector<std::int64_t> incoming(5, 0);
  for (std::size_t r = 0; r < adaptive.nranks(); ++r) {
    for (const BspTask& s : adaptive.sends_of(r)) {
      logical += s.msgs;
      bytes += s.value;
      ++incoming[static_cast<std::size_t>(s.dst)];
      if (s.msgs > 1) {
        ++packed;
        // A packed pair's mean stayed at or below the threshold.
        EXPECT_LE(s.value, policy.threshold * s.msgs);
      } else {
        ++eager;
      }
    }
  }
  EXPECT_EQ(logical, legacy_sends);
  EXPECT_EQ(bytes, legacy_bytes);
  // The split is genuine: both kinds of traffic exist at this threshold.
  EXPECT_GT(packed, 0);
  EXPECT_GT(eager, 0);
  for (std::size_t r = 0; r < adaptive.nranks(); ++r)
    EXPECT_EQ(incoming[r], adaptive.expected_recvs[r]);
}

// The flat builder lays every rank's run out exactly as the nested
// builder plus the runtime's old per-step expansion did (the oracle in
// bsp_oracle.hpp): the two plans must be equal in every field — tasks,
// ranges, per-rank counters, expected counts — for both orderings,
// every packing shape, with and without flux, and for the two-stage
// rendering.
TEST(BuildBspPlan, TaskOrderMatchesNestedOracle) {
  AmrMesh mesh(RootGrid{4, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0, 5});  // flux along level jumps
  const std::int32_t nranks = 7;  // rank 6 holds no block
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>((b * 5 + b / 3) % 6);
  std::vector<TimeNs> costs(mesh.size());
  for (std::size_t b = 0; b < costs.size(); ++b)
    costs[b] = us(20) + static_cast<TimeNs>(b) * 997;
  const MessageSizeModel sizes;
  const PackingPolicy mid{(sizes.bytes(NeighborKind::kEdge) +
                           sizes.bytes(NeighborKind::kFace)) /
                          2};

  auto expect_same = [](const BspPlan& got, const BspPlan& want) {
    ASSERT_EQ(got.nranks(), want.nranks());
    for (std::size_t r = 0; r < got.nranks(); ++r) {
      const auto g = got.tasks_of(r);
      const auto w = want.tasks_of(r);
      EXPECT_TRUE(std::equal(g.begin(), g.end(), w.begin(), w.end()))
          << "rank " << r;
      EXPECT_EQ(got.ranks[r], want.ranks[r]) << "rank " << r;
    }
    EXPECT_EQ(got.expected_recvs, want.expected_recvs);
    EXPECT_TRUE(got == want);
  };

  bool copies = false;
  bool packed = false;
  bool eager = false;
  for (const TaskOrdering ordering :
       {TaskOrdering::kComputeFirst, TaskOrdering::kSendFirst}) {
    for (const PackingPolicy packing :
         {PackingPolicy::none(), PackingPolicy::all(), mid}) {
      for (const bool flux : {false, true}) {
        SCOPED_TRACE(std::string(to_string(ordering)) + " threshold " +
                     std::to_string(packing.threshold) +
                     (flux ? " flux" : ""));
        const BspPlan got = build_bsp_plan(mesh, placement, costs, nranks,
                                           sizes, flux, packing, ordering);
        expect_same(got, oracle::make_bsp_plan(
                             oracle::nested_work(mesh, placement, costs,
                                                 nranks, sizes, flux,
                                                 packing),
                             ordering));
        for (std::size_t r = 0; r < got.nranks(); ++r) {
          copies |= got.bytes_of(r, BspTaskKind::kLocalCopy) > 0;
          for (const BspTask& t : got.sends_of(r))
            (t.msgs > 1 ? packed : eager) = true;
        }
      }
    }
    SCOPED_TRACE(std::string(to_string(ordering)) + " two-stage");
    BspPlan want = oracle::make_bsp_plan(
        oracle::nested_two_stage(mesh, placement, costs, nranks, 0.3, sizes),
        ordering);
    want.stage1_frac = 0.3;
    expect_same(build_bsp_plan(mesh, placement, costs, nranks, sizes, false,
                               PackingPolicy::none(), ordering, 0.3),
                want);
  }
  // The mesh exercises what the layout has to place.
  EXPECT_TRUE(copies);
  EXPECT_TRUE(packed);
  EXPECT_TRUE(eager);
}

}  // namespace
}  // namespace amr
