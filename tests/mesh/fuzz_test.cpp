// Randomized operation-sequence fuzzing of the mesh invariants: any
// sequence of refine/coarsen calls must preserve 2:1 balance, exact
// domain coverage, neighbor symmetry, and SFC determinism. Parameterized
// over seeds and curve kinds so regressions in rare interleavings
// surface in CI.
#include <gtest/gtest.h>

#include <algorithm>

#include "amr/common/rng.hpp"
#include "amr/mesh/mesh.hpp"

namespace amr {
namespace {

struct FuzzCase {
  std::uint64_t seed;
  SfcKind sfc;
  bool periodic;
};

std::string fuzz_name(const testing::TestParamInfo<FuzzCase>& info) {
  return std::string(info.param.sfc == SfcKind::kZOrder ? "zorder"
                                                        : "hilbert") +
         (info.param.periodic ? "_periodic" : "_bounded") + "_seed" +
         std::to_string(info.param.seed);
}

class MeshFuzz : public testing::TestWithParam<FuzzCase> {};

TEST_P(MeshFuzz, RandomOpSequencePreservesInvariants) {
  const FuzzCase& fc = GetParam();
  Rng rng(fc.seed);
  AmrMesh mesh(RootGrid{3, 2, 2}, fc.periodic, fc.sfc);

  for (int op = 0; op < 12; ++op) {
    const bool refine = mesh.size() < 40 || rng.chance(0.5);
    std::vector<std::int32_t> tags;
    for (std::size_t b = 0; b < mesh.size(); ++b)
      if (rng.chance(0.25)) tags.push_back(static_cast<std::int32_t>(b));
    if (refine) {
      // Cap depth to keep the fuzz fast.
      std::erase_if(tags, [&](std::int32_t b) {
        return mesh.block(static_cast<std::size_t>(b)).level >= 3;
      });
      mesh.refine(tags);
    } else {
      mesh.coarsen(tags);
    }

    ASSERT_TRUE(mesh.check_balance()) << "op " << op;
    ASSERT_TRUE(mesh.check_coverage()) << "op " << op;

    // Neighbor symmetry and level bounds on every op.
    const auto& lists = mesh.neighbor_lists();
    for (std::size_t i = 0; i < lists.size(); ++i) {
      for (const Neighbor& n : lists[i]) {
        ASSERT_NE(n.index, static_cast<std::int32_t>(i));
        ASSERT_LE(std::abs(static_cast<int>(n.level_diff)), 1);
        const auto& back = lists[static_cast<std::size_t>(n.index)];
        ASSERT_TRUE(std::any_of(back.begin(), back.end(),
                                [&](const Neighbor& m) {
                                  return m.index ==
                                         static_cast<std::int32_t>(i);
                                }));
      }
    }

    // The table rebuilt in place across every regrid so far equals a
    // first build on a mesh restored from the same leaves: same lists in
    // the same order, no stale offsets, no leftover entries.
    AmrMesh fresh(RootGrid{3, 2, 2}, fc.periodic, fc.sfc);
    fresh.restore_state({mesh.blocks().begin(), mesh.blocks().end()},
                        mesh.version(), {});
    const NeighborTable& want = fresh.neighbor_lists();
    ASSERT_EQ(lists.size(), want.size()) << "op " << op;
    for (std::size_t i = 0; i < lists.size(); ++i)
      ASSERT_TRUE(std::ranges::equal(lists[i], want[i]))
          << "op " << op << " block " << i;
    ASSERT_EQ(lists.entries().size(), want.entries().size()) << "op " << op;
  }
}

TEST_P(MeshFuzz, SequenceIsDeterministic) {
  const FuzzCase& fc = GetParam();
  auto build = [&] {
    Rng rng(fc.seed);
    AmrMesh mesh(RootGrid{3, 2, 2}, fc.periodic, fc.sfc);
    for (int op = 0; op < 8; ++op) {
      std::vector<std::int32_t> tags;
      for (std::size_t b = 0; b < mesh.size(); ++b)
        if (rng.chance(0.3)) tags.push_back(static_cast<std::int32_t>(b));
      if (op % 3 == 2)
        mesh.coarsen(tags);
      else
        mesh.refine(tags);
    }
    return mesh;
  };
  const AmrMesh a = build();
  const AmrMesh b = build();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a.block(i), b.block(i));
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    for (const SfcKind sfc : {SfcKind::kZOrder, SfcKind::kHilbert})
      for (const bool periodic : {false, true})
        cases.push_back({seed, sfc, periodic});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MeshFuzz, testing::ValuesIn(fuzz_cases()),
                         fuzz_name);

}  // namespace
}  // namespace amr
