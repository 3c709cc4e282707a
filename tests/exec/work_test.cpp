#include "amr/exec/work.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

namespace amr {
namespace {

TEST(BuildStepWork, ComputeTasksFollowPlacement) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  const Placement placement{0, 0, 1, 1, 2, 2, 3, 3};
  const std::vector<TimeNs> costs(8, us(100));
  const auto work = build_step_work(mesh, placement, costs, 4);
  ASSERT_EQ(work.size(), 4u);
  for (const auto& w : work) EXPECT_EQ(w.computes.size(), 2u);
}

TEST(BuildStepWork, SendsMatchExpectedRecvs) {
  AmrMesh mesh(RootGrid{3, 3, 3});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 5);
  const std::vector<TimeNs> costs(mesh.size(), us(10));
  const auto work = build_step_work(mesh, placement, costs, 5);

  std::vector<std::int64_t> incoming(5, 0);
  std::int64_t total_sends = 0;
  for (const auto& w : work) {
    for (const auto& s : w.sends) {
      ++incoming[static_cast<std::size_t>(s.dst_rank)];
      ++total_sends;
    }
  }
  std::int64_t total_expected = 0;
  for (std::size_t r = 0; r < work.size(); ++r) {
    EXPECT_EQ(incoming[r], work[r].expected_recvs);
    total_expected += work[r].expected_recvs;
  }
  EXPECT_EQ(total_sends, total_expected);
}

TEST(BuildStepWork, SingleRankHasOnlyLocalCopies) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  const Placement placement(mesh.size(), 0);
  const std::vector<TimeNs> costs(mesh.size(), us(10));
  const auto work = build_step_work(mesh, placement, costs, 1);
  EXPECT_TRUE(work[0].sends.empty());
  EXPECT_EQ(work[0].expected_recvs, 0);
  EXPECT_GT(work[0].local_copy_msgs, 0);
  // 8 blocks x 7 neighbors each (2x2x2 fully adjacent) = 56 pairs.
  EXPECT_EQ(work[0].local_copy_msgs, 56);
}

TEST(BuildStepWork, MessageBytesFollowNeighborKind) {
  AmrMesh mesh(RootGrid{2, 1, 1});
  const Placement placement{0, 1};
  const std::vector<TimeNs> costs(2, us(10));
  const MessageSizeModel sizes;
  const auto work = build_step_work(mesh, placement, costs, 2, sizes);
  ASSERT_EQ(work[0].sends.size(), 1u);
  EXPECT_EQ(work[0].sends[0].bytes, sizes.bytes(NeighborKind::kFace));
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
    for (const auto& w : build_step_work(mesh, p, costs, 4))
      for (const auto& c : w.computes) sum += c.duration;
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
  const auto legacy =
      build_step_work(mesh, placement, costs, 5, sizes, false);
  const auto agg = build_step_work(mesh, placement, costs, 5, sizes, false,
                                   PackingPolicy::all());
  ASSERT_EQ(agg.size(), legacy.size());

  std::int64_t legacy_sends = 0;
  std::int64_t legacy_bytes = 0;
  for (const auto& w : legacy) {
    legacy_sends += static_cast<std::int64_t>(w.sends.size());
    for (const auto& s : w.sends) {
      legacy_bytes += s.bytes;
      EXPECT_EQ(s.msgs, 1);
    }
  }
  std::int64_t agg_sends = 0;
  std::int64_t agg_bytes = 0;
  std::int64_t agg_logical = 0;
  std::vector<std::int64_t> incoming(5, 0);
  for (std::size_t r = 0; r < agg.size(); ++r) {
    const auto& w = agg[r];
    agg_sends += static_cast<std::int64_t>(w.sends.size());
    std::vector<bool> dst_seen(5, false);
    for (const auto& s : w.sends) {
      agg_bytes += s.bytes;
      agg_logical += s.msgs;
      EXPECT_GE(s.msgs, 1);
      // One packed transfer per destination, at most.
      EXPECT_FALSE(dst_seen[static_cast<std::size_t>(s.dst_rank)]);
      dst_seen[static_cast<std::size_t>(s.dst_rank)] = true;
      ++incoming[static_cast<std::size_t>(s.dst_rank)];
    }
    // Local copies and per-rank recv bytes are unaffected by packing.
    EXPECT_EQ(w.local_copy_msgs, legacy[r].local_copy_msgs);
    EXPECT_EQ(w.local_copy_bytes, legacy[r].local_copy_bytes);
    EXPECT_EQ(w.recv_bytes, legacy[r].recv_bytes);
  }
  EXPECT_EQ(agg_logical, legacy_sends);
  EXPECT_EQ(agg_bytes, legacy_bytes);
  EXPECT_LT(agg_sends, legacy_sends);
  for (std::size_t r = 0; r < agg.size(); ++r)
    EXPECT_EQ(incoming[r], agg[r].expected_recvs);
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
  const auto legacy =
      build_step_work(mesh, placement, costs, 5, sizes, false);

  // Pick a threshold strictly between the smallest and largest per-pair
  // mean, so the split is guaranteed to separate real traffic.
  std::int64_t pair_msgs[5][5] = {};
  std::int64_t pair_bytes[5][5] = {};
  for (std::size_t r = 0; r < legacy.size(); ++r) {
    for (const auto& s : legacy[r].sends) {
      ++pair_msgs[r][s.dst_rank];
      pair_bytes[r][s.dst_rank] += s.bytes;
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
  const auto adaptive =
      build_step_work(mesh, placement, costs, 5, sizes, false, policy);

  std::int64_t legacy_sends = 0;
  std::int64_t legacy_bytes = 0;
  for (const auto& w : legacy) {
    legacy_sends += static_cast<std::int64_t>(w.sends.size());
    for (const auto& s : w.sends) legacy_bytes += s.bytes;
  }
  std::int64_t logical = 0;
  std::int64_t bytes = 0;
  std::int64_t packed = 0;
  std::int64_t eager = 0;
  std::vector<std::int64_t> incoming(5, 0);
  for (const auto& w : adaptive) {
    for (const auto& s : w.sends) {
      logical += s.msgs;
      bytes += s.bytes;
      ++incoming[static_cast<std::size_t>(s.dst_rank)];
      if (s.msgs > 1) {
        ++packed;
        // A packed pair's mean stayed at or below the threshold.
        EXPECT_LE(s.bytes, policy.threshold * s.msgs);
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
  for (std::size_t r = 0; r < adaptive.size(); ++r)
    EXPECT_EQ(incoming[r], adaptive[r].expected_recvs);
}

}  // namespace
}  // namespace amr
