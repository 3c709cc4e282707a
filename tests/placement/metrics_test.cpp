#include "amr/placement/metrics.hpp"

#include <gtest/gtest.h>

#include "amr/common/rng.hpp"
#include "amr/mesh/generators.hpp"
#include "amr/placement/baseline.hpp"
#include "amr/placement/lpt.hpp"

namespace amr {
namespace {

TEST(LoadMetrics, PerfectBalance) {
  const std::vector<double> costs{1, 1, 1, 1};
  const Placement p{0, 1, 2, 3};
  const LoadMetrics m = load_metrics(costs, p, 4);
  EXPECT_DOUBLE_EQ(m.makespan, 1.0);
  EXPECT_DOUBLE_EQ(m.imbalance, 1.0);
  EXPECT_DOUBLE_EQ(m.stddev, 0.0);
}

TEST(LoadMetrics, KnownImbalance) {
  const std::vector<double> costs{3, 1, 1, 1};
  const Placement p{0, 1, 2, 3};
  const LoadMetrics m = load_metrics(costs, p, 4);
  EXPECT_DOUBLE_EQ(m.makespan, 3.0);
  EXPECT_DOUBLE_EQ(m.mean_load, 1.5);
  EXPECT_DOUBLE_EQ(m.imbalance, 2.0);
}

TEST(MessageSizeModel, FaceLargerThanEdgeLargerThanVertex) {
  const MessageSizeModel m;
  EXPECT_GT(m.bytes(NeighborKind::kFace), m.bytes(NeighborKind::kEdge));
  EXPECT_GT(m.bytes(NeighborKind::kEdge), m.bytes(NeighborKind::kVertex));
}

TEST(MessageSizeModel, ScalesWithVariables) {
  MessageSizeModel m5;
  m5.nvars = 5;
  MessageSizeModel m10;
  m10.nvars = 10;
  EXPECT_EQ(2 * m5.bytes(NeighborKind::kFace),
            m10.bytes(NeighborKind::kFace));
}

TEST(CommMetrics, AllOnOneRankIsAllIntraRank) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  const Placement p(mesh.size(), 0);
  const ClusterTopology topo(4, 2);
  const CommMetrics m = comm_metrics(mesh, p, topo);
  EXPECT_GT(m.msgs_intra_rank, 0);
  EXPECT_EQ(m.msgs_intra_node, 0);
  EXPECT_EQ(m.msgs_inter_node, 0);
}

TEST(CommMetrics, SameNodeRanksUseShm) {
  AmrMesh mesh(RootGrid{2, 1, 1});
  // Two blocks on ranks 0 and 1, both on node 0.
  const Placement p{0, 1};
  const ClusterTopology topo(4, 2);
  const CommMetrics m = comm_metrics(mesh, p, topo);
  EXPECT_EQ(m.msgs_intra_rank, 0);
  EXPECT_EQ(m.msgs_intra_node, 2);  // directed both ways
  EXPECT_EQ(m.msgs_inter_node, 0);
}

TEST(CommMetrics, CrossNodeRanksUseFabric) {
  AmrMesh mesh(RootGrid{2, 1, 1});
  const Placement p{0, 2};  // node 0 and node 1
  const ClusterTopology topo(4, 2);
  const CommMetrics m = comm_metrics(mesh, p, topo);
  EXPECT_EQ(m.msgs_inter_node, 2);
  EXPECT_EQ(m.msgs_intra_node, 0);
  EXPECT_GT(m.bytes_inter_node, 0);
}

TEST(CommMetrics, RemoteFractionGrowsWhenLocalityBreaks) {
  AmrMesh mesh(RootGrid{4, 4, 4});
  const ClusterTopology topo(16, 4);
  const BaselinePolicy baseline;
  const std::vector<double> uniform(mesh.size(), 1.0);
  const Placement contiguous = baseline.place(uniform, 16);
  // Round-robin placement destroys locality.
  Placement scattered(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    scattered[b] = static_cast<std::int32_t>(b % 16);
  const CommMetrics local = comm_metrics(mesh, contiguous, topo);
  const CommMetrics remote = comm_metrics(mesh, scattered, topo);
  EXPECT_LT(local.remote_fraction(), remote.remote_fraction());
  EXPECT_GT(local.msgs_intra_rank, remote.msgs_intra_rank);
}

// The straightforward classifier: one same_node query and one byte
// lookup per directed edge. comm_metrics counts per (class, kind) over a
// block->node table instead; this is its oracle.
CommMetrics per_edge_comm_metrics(const AmrMesh& mesh, const Placement& p,
                                  const ClusterTopology& topo,
                                  const MessageSizeModel& sizes) {
  CommMetrics m;
  const auto& lists = mesh.neighbor_lists();
  for (std::size_t b = 0; b < lists.size(); ++b) {
    const std::int32_t src = p[b];
    for (const Neighbor& n : lists[b]) {
      const std::int32_t dst = p[static_cast<std::size_t>(n.index)];
      const std::int64_t bytes = sizes.bytes(n.kind);
      if (src == dst) {
        ++m.msgs_intra_rank;
        m.bytes_intra_rank += bytes;
      } else if (topo.same_node(src, dst)) {
        ++m.msgs_intra_node;
        m.bytes_intra_node += bytes;
      } else {
        ++m.msgs_inter_node;
        m.bytes_inter_node += bytes;
      }
    }
  }
  return m;
}

TEST(CommMetrics, MatchesPerEdgeClassifierOnRefinedMeshes) {
  // Multi-level meshes (levels differ across faces), 1/4/16 ranks per
  // node with a partly filled last node, and contiguous plus random
  // placements. Every field must match the per-edge oracle.
  MessageSizeModel wide;
  wide.cells = 8;
  wide.ghost = 3;
  wide.nvars = 7;
  CommMetrics seen;  // totals, to prove every class was exercised
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    AmrMesh mesh(RootGrid{4, 4, 2});
    Rng rng(seed);
    refine_random(mesh, rng, 0.3, 3, 2);
    bool level_jump = false;
    for (const Neighbor& n : mesh.neighbor_lists().entries())
      level_jump |= n.level_diff != 0;
    ASSERT_TRUE(level_jump) << "seed " << seed;

    for (const std::int32_t per_node : {1, 4, 16}) {
      for (const std::int32_t nranks : {37, 48}) {
        const ClusterTopology topo(nranks, per_node);
        Placement contiguous(mesh.size());
        Placement random(mesh.size());
        for (std::size_t b = 0; b < mesh.size(); ++b) {
          contiguous[b] = static_cast<std::int32_t>(
              b * static_cast<std::size_t>(nranks) / mesh.size());
          random[b] = static_cast<std::int32_t>(
              rng.uniform_int(static_cast<std::uint64_t>(nranks)));
        }
        for (const Placement* p : {&contiguous, &random}) {
          for (const MessageSizeModel& sizes : {MessageSizeModel{}, wide}) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " per_node " << per_node
                         << " nranks " << nranks << " random "
                         << (p == &random) << " cells " << sizes.cells);
            const CommMetrics got = comm_metrics(mesh, *p, topo, sizes);
            const CommMetrics want =
                per_edge_comm_metrics(mesh, *p, topo, sizes);
            EXPECT_EQ(got.msgs_intra_rank, want.msgs_intra_rank);
            EXPECT_EQ(got.msgs_intra_node, want.msgs_intra_node);
            EXPECT_EQ(got.msgs_inter_node, want.msgs_inter_node);
            EXPECT_EQ(got.bytes_intra_rank, want.bytes_intra_rank);
            EXPECT_EQ(got.bytes_intra_node, want.bytes_intra_node);
            EXPECT_EQ(got.bytes_inter_node, want.bytes_inter_node);
            seen.msgs_intra_rank += want.msgs_intra_rank;
            seen.msgs_intra_node += want.msgs_intra_node;
            seen.msgs_inter_node += want.msgs_inter_node;
          }
        }
      }
    }
  }
  EXPECT_GT(seen.msgs_intra_rank, 0);
  EXPECT_GT(seen.msgs_intra_node, 0);
  EXPECT_GT(seen.msgs_inter_node, 0);
}

TEST(ContiguityFraction, ExtremesAndMiddle) {
  EXPECT_DOUBLE_EQ(contiguity_fraction({0, 0, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(contiguity_fraction({0, 5, 1, 7}), 0.0);
  EXPECT_DOUBLE_EQ(contiguity_fraction({}), 1.0);
  EXPECT_DOUBLE_EQ(contiguity_fraction({3}), 1.0);
}

TEST(MovedBlocks, CountsDifferences) {
  EXPECT_EQ(moved_blocks({0, 1, 2}, {0, 1, 2}), 0);
  EXPECT_EQ(moved_blocks({0, 1, 2}, {0, 2, 1}), 2);
}

}  // namespace
}  // namespace amr
