#include <gtest/gtest.h>

#include "amr/faults/injector.hpp"

namespace amr {
namespace {

TEST(FaultInjector, NoFaultsMeansUnitMultiplier) {
  const FaultInjector injector;
  EXPECT_TRUE(injector.empty());
  EXPECT_DOUBLE_EQ(injector.compute_multiplier(0, 0), 1.0);
  EXPECT_FALSE(injector.node_faulty(3));
}

TEST(FaultInjector, ThrottleAppliesToListedNodesOnly) {
  FaultInjector injector;
  injector.add_throttle({.nodes = {1, 3}, .factor = 4.0});
  EXPECT_DOUBLE_EQ(injector.compute_multiplier(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(injector.compute_multiplier(3, 100), 4.0);
  EXPECT_DOUBLE_EQ(injector.compute_multiplier(0, 0), 1.0);
  EXPECT_TRUE(injector.node_faulty(1));
  EXPECT_FALSE(injector.node_faulty(0));
}

TEST(FaultInjector, OnsetAndEndStepsRespected) {
  FaultInjector injector;
  injector.add_throttle(
      {.nodes = {0}, .factor = 3.0, .onset_step = 10, .end_step = 20});
  EXPECT_DOUBLE_EQ(injector.compute_multiplier(0, 9), 1.0);
  EXPECT_DOUBLE_EQ(injector.compute_multiplier(0, 10), 3.0);
  EXPECT_DOUBLE_EQ(injector.compute_multiplier(0, 20), 3.0);
  EXPECT_DOUBLE_EQ(injector.compute_multiplier(0, 21), 1.0);
}

TEST(FaultInjector, OverlappingFaultsTakeMax) {
  FaultInjector injector;
  injector.add_throttle({.nodes = {0}, .factor = 2.0});
  injector.add_throttle({.nodes = {0}, .factor = 5.0});
  EXPECT_DOUBLE_EQ(injector.compute_multiplier(0, 0), 5.0);
}

TEST(FaultInjector, FaultyNodesDeduplicatedSorted) {
  FaultInjector injector;
  injector.add_throttle({.nodes = {3, 1}, .factor = 2.0});
  injector.add_throttle({.nodes = {1, 0}, .factor = 2.0});
  const auto nodes = injector.faulty_nodes();
  EXPECT_EQ(nodes, (std::vector<std::int32_t>{0, 1, 3}));
}

TEST(PickVictimNodes, DistinctAndDeterministic) {
  Rng a(5);
  Rng b(5);
  const auto va = pick_victim_nodes(100, 10, a);
  const auto vb = pick_victim_nodes(100, 10, b);
  EXPECT_EQ(va, vb);
  ASSERT_EQ(va.size(), 10u);
  for (std::size_t i = 1; i < va.size(); ++i) EXPECT_LT(va[i - 1], va[i]);
}

}  // namespace
}  // namespace amr
