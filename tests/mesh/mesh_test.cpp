#include "amr/mesh/mesh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "amr/common/rng.hpp"
#include "amr/mesh/generators.hpp"

namespace amr {
namespace {

TEST(AmrMesh, RootGridHasOneLeafPerRootBlock) {
  const AmrMesh mesh(RootGrid{4, 3, 2});
  EXPECT_EQ(mesh.size(), 24u);
  EXPECT_TRUE(mesh.check_balance());
  EXPECT_TRUE(mesh.check_coverage());
  for (std::size_t i = 0; i < mesh.size(); ++i)
    EXPECT_EQ(mesh.block(i).level, 0);
}

TEST(AmrMesh, RefineOneBlockYieldsEightChildren) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  const std::vector<std::int32_t> tags{0};
  EXPECT_EQ(mesh.refine(tags), 1u);
  EXPECT_EQ(mesh.size(), 8u - 1u + 8u);  // 7 roots + 8 children
  EXPECT_TRUE(mesh.check_balance());
  EXPECT_TRUE(mesh.check_coverage());
}

TEST(AmrMesh, RefineAllPreservesCoverage) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine_all(2);
  EXPECT_EQ(mesh.size(), 8u * 64u);
  EXPECT_TRUE(mesh.check_balance());
  EXPECT_TRUE(mesh.check_coverage());
  EXPECT_EQ(mesh.max_level_present(), 2);
}

TEST(AmrMesh, BalanceRippleRefinesNeighbors) {
  // Refining one block twice forces its neighbors to refine once.
  AmrMesh mesh(RootGrid{4, 4, 4});
  std::vector<std::int32_t> tags{0};
  mesh.refine(tags);
  // Find a level-1 child and refine it; the level-0 neighbors of the
  // original block must ripple to level 1.
  std::vector<std::int32_t> fine;
  for (std::size_t i = 0; i < mesh.size(); ++i)
    if (mesh.block(i).level == 1)
      fine.push_back(static_cast<std::int32_t>(i));
  ASSERT_EQ(fine.size(), 8u);
  const std::size_t before = mesh.size();
  // Refine the last child in SFC order (octant (1,1,1)): it touches
  // level-0 root neighbors, which must ripple to level 1.
  mesh.refine({fine.end() - 1, fine.end()});
  EXPECT_GT(mesh.size(), before + 7);  // more than the direct 8 children
  EXPECT_TRUE(mesh.check_balance());
  EXPECT_TRUE(mesh.check_coverage());
}

TEST(AmrMesh, SfcOrderIsDepthFirst) {
  // After refining the first root block, its 8 children must appear
  // contiguously where the parent was (depth-first traversal property).
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0});
  // First 8 leaves should be the level-1 children (they sort before the
  // remaining roots along the SFC).
  for (int i = 0; i < 8; ++i) EXPECT_EQ(mesh.block(i).level, 1);
  for (std::size_t i = 8; i < mesh.size(); ++i)
    EXPECT_EQ(mesh.block(i).level, 0);
}

TEST(AmrMesh, FindAndFindCovering) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0});
  const BlockCoord child{1, 0, 0, 0};
  EXPECT_GE(mesh.find(child), 0);
  // A grandchild coordinate is covered by the child leaf.
  const BlockCoord grandchild{2, 0, 0, 0};
  EXPECT_EQ(mesh.find(grandchild), -1);
  EXPECT_EQ(mesh.find_covering(grandchild), mesh.find(child));
}

TEST(AmrMesh, UniformNeighborCounts) {
  // Interior blocks of a uniform non-periodic mesh have 26 neighbors;
  // corner blocks have 7.
  AmrMesh mesh(RootGrid{4, 4, 4});
  const auto& lists = mesh.neighbor_lists();
  std::size_t corner_count = 0;
  std::size_t interior_count = 0;
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    const auto& b = mesh.block(i);
    const bool x_edge = b.x == 0 || b.x == 3;
    const bool y_edge = b.y == 0 || b.y == 3;
    const bool z_edge = b.z == 0 || b.z == 3;
    if (x_edge && y_edge && z_edge) {
      EXPECT_EQ(lists[i].size(), 7u);
      ++corner_count;
    } else if (!x_edge && !y_edge && !z_edge) {
      EXPECT_EQ(lists[i].size(), 26u);
      ++interior_count;
    }
  }
  EXPECT_EQ(corner_count, 8u);
  EXPECT_EQ(interior_count, 8u);
}

TEST(AmrMesh, PeriodicMeshAllBlocksHave26Neighbors) {
  AmrMesh mesh(RootGrid{4, 4, 4}, /*periodic=*/true);
  const auto& lists = mesh.neighbor_lists();
  for (std::size_t b = 0; b < lists.size(); ++b)
    EXPECT_EQ(lists[b].size(), 26u);
}

TEST(AmrMesh, NeighborKindsPartitionAs6_12_8) {
  AmrMesh mesh(RootGrid{3, 3, 3});
  const auto& lists = mesh.neighbor_lists();
  // Center block (1,1,1).
  const std::int32_t center = mesh.find(BlockCoord{0, 1, 1, 1});
  ASSERT_GE(center, 0);
  int faces = 0;
  int edges = 0;
  int verts = 0;
  for (const auto& n : lists[static_cast<std::size_t>(center)]) {
    switch (n.kind) {
      case NeighborKind::kFace: ++faces; break;
      case NeighborKind::kEdge: ++edges; break;
      case NeighborKind::kVertex: ++verts; break;
    }
  }
  EXPECT_EQ(faces, 6);
  EXPECT_EQ(edges, 12);
  EXPECT_EQ(verts, 8);
}

TEST(AmrMesh, NeighborSymmetry) {
  AmrMesh mesh(RootGrid{4, 4, 4});
  Rng rng(3);
  refine_random(mesh, rng, 0.2, 2, 2);
  ASSERT_TRUE(mesh.check_balance());
  const auto& lists = mesh.neighbor_lists();
  for (std::size_t i = 0; i < lists.size(); ++i) {
    for (const auto& n : lists[i]) {
      const auto& back = lists[static_cast<std::size_t>(n.index)];
      const bool found = std::any_of(
          back.begin(), back.end(), [&](const Neighbor& m) {
            return m.index == static_cast<std::int32_t>(i);
          });
      ASSERT_TRUE(found) << "neighbor relation not symmetric";
    }
  }
}

TEST(AmrMesh, NeighborLevelDiffBounded) {
  AmrMesh mesh(RootGrid{4, 4, 4});
  Rng rng(4);
  refine_random(mesh, rng, 0.25, 3, 3);
  const auto& lists = mesh.neighbor_lists();
  for (std::size_t i = 0; i < lists.size(); ++i) {
    for (const auto& n : lists[i]) {
      ASSERT_LE(std::abs(static_cast<int>(n.level_diff)), 1);
      ASSERT_EQ(mesh.block(static_cast<std::size_t>(n.index)).level -
                    mesh.block(i).level,
                n.level_diff);
    }
  }
}

TEST(AmrMesh, CoarsenRequiresAllEightSiblings) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0});
  // Tag only 7 of the 8 children: nothing collapses.
  std::vector<std::int32_t> children;
  for (std::size_t i = 0; i < mesh.size(); ++i)
    if (mesh.block(i).level == 1)
      children.push_back(static_cast<std::int32_t>(i));
  ASSERT_EQ(children.size(), 8u);
  std::vector<std::int32_t> seven(children.begin(), children.end() - 1);
  EXPECT_EQ(mesh.coarsen(seven), 0u);
  EXPECT_EQ(mesh.size(), 15u);
  // All eight: collapses back to the root grid.
  EXPECT_EQ(mesh.coarsen(children), 1u);
  EXPECT_EQ(mesh.size(), 8u);
  EXPECT_TRUE(mesh.check_coverage());
}

TEST(AmrMesh, CoarsenBlockedByBalance) {
  // A region next to a deeply refined region cannot coarsen.
  AmrMesh mesh(RootGrid{2, 1, 1});
  mesh.refine_all(1);  // all at level 1
  // Refine the block at the far -x side to level 2.
  const std::int32_t target = mesh.find(BlockCoord{1, 0, 0, 0});
  ASSERT_GE(target, 0);
  mesh.refine(std::vector<std::int32_t>{target});
  ASSERT_TRUE(mesh.check_balance());
  // Try to coarsen the level-1 sibling group adjacent to the refined
  // region (children of root 0): blocked, level-2 leaves would touch a
  // level-0 leaf.
  std::vector<std::int32_t> tags;
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    const auto& b = mesh.block(i);
    if (b.level == 1 && (b.x >> 1) == 0 && mesh.block(i).x <= 1)
      tags.push_back(static_cast<std::int32_t>(i));
  }
  const std::size_t before = mesh.size();
  mesh.coarsen(tags);
  EXPECT_TRUE(mesh.check_balance());
  EXPECT_TRUE(mesh.check_coverage());
  // The group containing the level-2 children's parent remains intact.
  EXPECT_GE(mesh.size(), before - 7);
}

TEST(AmrMesh, FineNeighborsAcrossFaceAreFour) {
  AmrMesh mesh(RootGrid{2, 1, 1});
  const std::int32_t right = mesh.find(BlockCoord{0, 1, 0, 0});
  ASSERT_GE(right, 0);
  mesh.refine(std::vector<std::int32_t>{right});
  const std::int32_t left = mesh.find(BlockCoord{0, 0, 0, 0});
  ASSERT_GE(left, 0);
  const auto& list =
      mesh.neighbor_lists()[static_cast<std::size_t>(left)];
  int fine_face = 0;
  for (const auto& n : list)
    if (n.level_diff == 1 && n.kind == NeighborKind::kFace) ++fine_face;
  EXPECT_EQ(fine_face, 4);
}

TEST(AmrMesh, BoundsPartitionUnitCube) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  Rng rng(9);
  refine_random(mesh, rng, 0.3, 2, 2);
  double volume = 0.0;
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    const Aabb box = mesh.bounds(i);
    volume += (box.hi[0] - box.lo[0]) * (box.hi[1] - box.lo[1]) *
              (box.hi[2] - box.lo[2]);
  }
  EXPECT_NEAR(volume, 1.0, 1e-9);
}

TEST(AmrMesh, RefineIsDeterministic) {
  auto build = [] {
    AmrMesh mesh(RootGrid{3, 3, 3});
    Rng rng(11);
    refine_random(mesh, rng, 0.3, 2, 2);
    return mesh;
  };
  const AmrMesh a = build();
  const AmrMesh b = build();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.block(i), b.block(i));
}

TEST(AmrMesh, BytesCountsEveryHolder) {
  using IndexEntry = std::pair<const std::uint64_t, std::int32_t>;
  // Leaves and SFC keys (two words each) are reserved to the leaf
  // count; each index node holds its (key, id) entry and a link; the
  // index's bucket array is the remainder, at least one bucket per leaf.
  const auto expect_holders = [](const AmrMesh& mesh, std::size_t table,
                                 std::size_t remaps) {
    const std::size_t n = mesh.size();
    const std::size_t counted =
        n * sizeof(BlockCoord) + n * 2 * sizeof(std::uint64_t) +
        n * (sizeof(IndexEntry) + sizeof(void*)) + table + remaps;
    ASSERT_GE(mesh.bytes(), counted);
    const std::size_t buckets = mesh.bytes() - counted;
    EXPECT_EQ(buckets % sizeof(void*), 0u);
    EXPECT_GE(buckets / sizeof(void*), n);
    EXPECT_LE(buckets / sizeof(void*), 8 * n);
  };
  AmrMesh mesh(RootGrid{2, 2, 2});
  expect_holders(mesh, 0, 0);
  // The table: an offset per block plus one, and the entries reserved at
  // the 2:1 bound.
  const auto table_bytes = [](std::size_t blocks) {
    return (blocks + 1) * sizeof(std::int32_t) +
           blocks * NeighborTable::kMaxPerBlock * sizeof(Neighbor);
  };
  EXPECT_EQ(mesh.neighbor_lists().bytes(), table_bytes(8));
  expect_holders(mesh, table_bytes(8), 0);
  // A regrid adds a remap record (an entry and a kind per new block);
  // the stale table keeps its capacity until the next build.
  mesh.refine(std::vector<std::int32_t>{0});
  ASSERT_EQ(mesh.size(), 15u);
  const std::size_t remap =
      sizeof(MeshRemap) + 15 * (sizeof(std::int32_t) + sizeof(RemapKind));
  expect_holders(mesh, table_bytes(8), remap);
  const std::size_t offsets = mesh.neighbor_lists().bytes() -
                              15 * NeighborTable::kMaxPerBlock *
                                  sizeof(Neighbor);
  EXPECT_GE(offsets, 16 * sizeof(std::int32_t));
  expect_holders(mesh, mesh.neighbor_lists().bytes(), remap);
}

TEST(AmrMesh, NonCubicRootGridNeighbors) {
  // Paper Table I uses non-cubic meshes (128^2 x 256 etc.).
  AmrMesh mesh(RootGrid{8, 8, 16});
  EXPECT_EQ(mesh.size(), 1024u);
  EXPECT_TRUE(mesh.check_coverage());
  const auto& lists = mesh.neighbor_lists();
  EXPECT_GT(lists.entries().size(), 0u);
}

}  // namespace
}  // namespace amr
