#include "amr/exec/work.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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
                                     /*pack=*/true);
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

TEST(BuildStepWork, AdaptiveThresholdSplitsPairs) {
  // Packing's threshold is two messages: on a chunked placement some
  // (src,dst) pairs carry one boundary message and stay eager while the
  // rest pack, and the logical message count and byte volume are
  // conserved either way.
  AmrMesh mesh(RootGrid{4, 4, 4});
  const std::int32_t nranks = 16;
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b / 4);
  const std::vector<TimeNs> costs(mesh.size(), us(10));
  const MessageSizeModel sizes;
  const BspPlan legacy =
      build_bsp_plan(mesh, placement, costs, nranks, sizes, false);
  const BspPlan adaptive = build_bsp_plan(mesh, placement, costs, nranks,
                                          sizes, false, /*pack=*/true);

  std::vector<std::vector<std::int64_t>> pair_msgs(
      nranks, std::vector<std::int64_t>(nranks, 0));
  std::int64_t legacy_sends = 0;
  std::int64_t legacy_bytes = 0;
  for (std::size_t r = 0; r < legacy.nranks(); ++r) {
    legacy_sends += static_cast<std::int64_t>(legacy.sends_of(r).size());
    for (const BspTask& s : legacy.sends_of(r)) {
      legacy_bytes += s.value;
      ++pair_msgs[r][static_cast<std::size_t>(s.dst)];
    }
  }
  std::int64_t logical = 0;
  std::int64_t bytes = 0;
  std::int64_t packed = 0;
  std::int64_t eager = 0;
  std::vector<std::int64_t> incoming(nranks, 0);
  for (std::size_t r = 0; r < adaptive.nranks(); ++r) {
    for (const BspTask& s : adaptive.sends_of(r)) {
      logical += s.msgs;
      bytes += s.value;
      ++incoming[static_cast<std::size_t>(s.dst)];
      // A pair packs iff it carries two or more messages, all of them.
      const std::int64_t msgs = pair_msgs[r][static_cast<std::size_t>(s.dst)];
      EXPECT_EQ(s.msgs, msgs >= 2 ? msgs : 1);
      ++(s.msgs > 1 ? packed : eager);
    }
  }
  EXPECT_EQ(logical, legacy_sends);
  EXPECT_EQ(bytes, legacy_bytes);
  // The split is genuine: both kinds of traffic exist on this placement.
  EXPECT_GT(packed, 0);
  EXPECT_GT(eager, 0);
  for (std::size_t r = 0; r < adaptive.nranks(); ++r)
    EXPECT_EQ(incoming[r], adaptive.expected_recvs[r]);
}

// The flat builder lays every rank's run out exactly as the nested
// builder plus the runtime's old per-step expansion did (the oracle in
// bsp_oracle.hpp): the two plans must be equal in every field — tasks,
// ranges, per-rank counters, expected counts — for both orderings, with
// and without packing, with and without flux, and for the two-stage
// rendering.
TEST(BuildBspPlan, TaskOrderMatchesNestedOracle) {
  AmrMesh mesh(RootGrid{4, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0, 5});  // flux along level jumps
  const std::int32_t nranks = 11;  // rank 10 holds no block
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>((b * 5 + b / 3) % 10);
  std::vector<TimeNs> costs(mesh.size());
  for (std::size_t b = 0; b < costs.size(); ++b)
    costs[b] = us(20) + static_cast<TimeNs>(b) * 997;
  const MessageSizeModel sizes;

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
    for (const bool pack : {false, true}) {
      for (const bool flux : {false, true}) {
        SCOPED_TRACE(std::string(to_string(ordering)) +
                     (pack ? " packed" : "") + (flux ? " flux" : ""));
        const BspPlan got = build_bsp_plan(mesh, placement, costs, nranks,
                                           sizes, flux, pack, ordering);
        expect_same(got, oracle::make_bsp_plan(
                             oracle::nested_work(mesh, placement, costs,
                                                 nranks, sizes, flux, pack),
                             ordering));
        for (std::size_t r = 0; r < got.nranks(); ++r) {
          copies |= got.bytes_of(r, BspTaskKind::kLocalCopy) > 0;
          // The packed plans hold aggregates beside the eager sends of
          // single-message pairs.
          if (pack) {
            for (const BspTask& t : got.sends_of(r))
              (t.msgs > 1 ? packed : eager) = true;
          }
        }
      }
    }
    SCOPED_TRACE(std::string(to_string(ordering)) + " two-stage");
    BspPlan want = oracle::make_bsp_plan(
        oracle::nested_two_stage(mesh, placement, costs, nranks, 0.3, sizes),
        ordering);
    want.stage1_frac = 0.3;
    expect_same(build_bsp_plan(mesh, placement, costs, nranks, sizes, false,
                               /*pack=*/false, ordering, 0.3),
                want);
  }
  // The mesh exercises what the layout has to place.
  EXPECT_TRUE(copies);
  EXPECT_TRUE(packed);
  EXPECT_TRUE(eager);
}

}  // namespace
}  // namespace amr
