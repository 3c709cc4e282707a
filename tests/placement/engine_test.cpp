#include "amr/placement/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "amr/common/rng.hpp"
#include "amr/mesh/generators.hpp"
#include "amr/par/thread_pool.hpp"
#include "amr/placement/chunked_cdp.hpp"
#include "amr/placement/cplx.hpp"
#include "amr/placement/metrics.hpp"

namespace amr {
namespace {

std::vector<double> skewed_costs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> costs(n);
  for (auto& c : costs) c = rng.exponential(1.0);
  return costs;
}

// The engine's one hard contract: every candidate slot of
// evaluate_candidates is byte-identical to the from-scratch policy at
// that X, whatever the engine evaluated before (its prefix and per-slot
// scratch carry over between calls).
void expect_candidates_match(PlacementEngine& engine,
                             std::span<const double> costs,
                             std::int32_t nranks, std::span<const double> xs,
                             std::int32_t chunk, const AmrMesh& mesh,
                             const ClusterTopology& topo) {
  const MessageSizeModel sizes;
  std::vector<CandidateEval> evals;
  engine.evaluate_candidates(costs, nranks, xs, chunk, mesh, topo, sizes,
                             evals);
  ASSERT_EQ(evals.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "x=" << xs[i]);
    EXPECT_EQ(evals[i].x_percent, xs[i]);
    const Placement ref = CplxPolicy(xs[i], chunk).place(costs, nranks);
    ASSERT_EQ(evals[i].placement, ref);
    const LoadMetrics lm = load_metrics(costs, ref, nranks);
    EXPECT_EQ(evals[i].makespan, lm.makespan);
    EXPECT_EQ(evals[i].imbalance, lm.mean_load > 0.0 ? lm.imbalance : 1.0);
    EXPECT_EQ(evals[i].remote_share,
              comm_metrics(mesh, ref, topo, sizes).remote_fraction());
  }
}

TEST(PlacementEngine, FirstEpochMatchesFullRebuild) {
  PlacementEngine engine;
  const AmrMesh mesh(RootGrid{8, 8, 4});
  const auto costs = skewed_costs(mesh.size(), 11);
  const std::vector<double> xs{50.0};
  expect_candidates_match(engine, costs, 16, xs, 4, mesh,
                          ClusterTopology(16, 4));
}

TEST(PlacementEngine, EdgeCaseEmptyCosts) {
  // An empty refinement level: no blocks at all. No mesh is empty, so
  // this drives the engine's two steps directly: the pooled base split
  // and the shared rebalance prefix.
  ThreadPool pool(2);
  const std::vector<double> costs;
  const Placement base = chunked_cdp_split(costs, 8, 4, &pool);
  EXPECT_TRUE(base.empty());
  RebalancePrefix prefix;
  RebalanceScratch scratch;
  Placement out{1};
  CplxPolicy::rebalance_prefix(costs, base, 8, 50.0, prefix, &pool);
  CplxPolicy::rebalance_tail(costs, base, 50.0, prefix, out, scratch);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(CplxPolicy(50.0, 4).place(costs, 8).empty());
}

TEST(PlacementEngine, EdgeCaseSingleBlock) {
  PlacementEngine engine;
  const AmrMesh mesh(RootGrid{1, 1, 1});
  const std::vector<double> costs{3.5};
  const std::vector<double> xs{50.0, 100.0};
  expect_candidates_match(engine, costs, 8, xs, 4, mesh,
                          ClusterTopology(8, 4));
}

TEST(PlacementEngine, EdgeCaseAllEqualCosts) {
  // Uniform costs sit below kRebalanceFloor, so every X degenerates to
  // the contiguous base — the engine must reproduce that exactly.
  PlacementEngine engine;
  const AmrMesh mesh(RootGrid{4, 4, 4});
  const std::vector<double> costs(mesh.size(), 2.0);
  const std::vector<double> xs{0.0, 50.0, 100.0};
  expect_candidates_match(engine, costs, 8, xs, 4, mesh,
                          ClusterTopology(8, 4));
}

TEST(PlacementEngine, EdgeCaseMoreRanksThanBlocks) {
  // "X larger than block count": nranks (and the rebalanced rank set)
  // exceed the number of blocks, leaving some ranks empty.
  PlacementEngine engine;
  const AmrMesh mesh(RootGrid{5, 1, 1});
  const auto costs = skewed_costs(mesh.size(), 13);
  const std::vector<double> xs{100.0, 50.0};
  expect_candidates_match(engine, costs, 16, xs, 4, mesh,
                          ClusterTopology(16, 4));
}

TEST(PlacementEngine, FuzzDeltaEqualsFullAcrossRegridSequences) {
  // Random regrid sequences: refine, coarsen, and drift the costs; one
  // engine (its prefix and scratch reused across every epoch) must match
  // the from-scratch policy at every epoch.
  Rng rng(23);
  AmrMesh mesh(RootGrid{4, 4, 4});
  const ClusterTopology topo(32, 4);
  PlacementEngine engine;
  std::vector<double> costs = skewed_costs(mesh.size(), 29);
  std::vector<std::int32_t> tagged;
  const auto tag = [&](double p) {
    tagged.clear();
    for (std::size_t b = 0; b < mesh.size(); ++b)
      if (rng.uniform() < p) tagged.push_back(static_cast<std::int32_t>(b));
  };
  for (int round = 0; round < 40; ++round) {
    const double kind = rng.uniform();
    if (kind < 0.3 && mesh.size() < 2000) {  // refine a few blocks
      tag(0.05);
      mesh.refine(tagged);
    } else if (kind < 0.5) {  // coarsen the families fully tagged
      tag(0.8);
      mesh.coarsen(tagged);
    } else if (kind < 0.9) {  // cost drift on a localized span
      const auto at = static_cast<std::size_t>(
          rng.uniform() * static_cast<double>(costs.size()));
      const std::size_t span = std::min<std::size_t>(8, costs.size() - at);
      for (std::size_t i = at; i < at + span; ++i)
        costs[i] = rng.exponential(1.0);
    }  // else: unchanged epoch
    // The regrid renumbered the blocks; new ones get fresh costs.
    const std::size_t kept = std::min(costs.size(), mesh.size());
    costs.resize(mesh.size());
    for (std::size_t i = kept; i < costs.size(); ++i)
      costs[i] = rng.exponential(1.0);
    const std::vector<double> xs{25.0 * static_cast<double>(round % 5),
                                 50.0};
    SCOPED_TRACE(testing::Message() << "round " << round << " blocks "
                                    << mesh.size());
    expect_candidates_match(engine, costs, 32, xs, 4, mesh, topo);
  }
}

TEST(PlacementEngine, ParallelMatchesSequential) {
  // The borrowed pool must never change output bytes.
  const AmrMesh mesh(RootGrid{16, 16, 8});
  const ClusterTopology topo(64, 4);
  const MessageSizeModel sizes;
  const std::vector<double> xs{0.0, 25.0, 50.0, 75.0, 100.0};
  PlacementEngine seq;
  ThreadPool pool(4);
  PlacementEngine par;
  par.set_parallel(&pool);
  auto costs = skewed_costs(mesh.size(), 31);
  std::vector<CandidateEval> a;
  std::vector<CandidateEval> b;
  for (int round = 0; round < 6; ++round) {
    costs[static_cast<std::size_t>(round) * 300] += 1.0;
    seq.evaluate_candidates(costs, 64, xs, 8, mesh, topo, sizes, a);
    par.evaluate_candidates(costs, 64, xs, 8, mesh, topo, sizes, b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "round " << round << " x "
                                      << xs[i]);
      ASSERT_EQ(a[i].placement, b[i].placement);
      EXPECT_EQ(a[i].makespan, b[i].makespan);
      EXPECT_EQ(a[i].remote_share, b[i].remote_share);
      EXPECT_EQ(a[i].placement, CplxPolicy(xs[i], 8).place(costs, 64));
    }
  }
}

TEST(PlacementEngine, EvaluateCandidatesMatchesDirectPlacement) {
  AmrMesh mesh(RootGrid{4, 4, 4});
  const auto costs = skewed_costs(mesh.size(), 37);
  const ClusterTopology topo(16, 4);
  const MessageSizeModel sizes;
  const std::vector<double> xs{0.0, 50.0, 100.0};

  ThreadPool pool(4);
  PlacementEngine engine;
  engine.set_parallel(&pool);
  std::vector<CandidateEval> evals;
  engine.evaluate_candidates(costs, 16, xs, 4, mesh, topo, sizes, evals);

  ASSERT_EQ(evals.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(evals[i].x_percent, xs[i]);
    const Placement ref = CplxPolicy(xs[i], 4).place(costs, 16);
    EXPECT_EQ(evals[i].placement, ref) << "x=" << xs[i];
    const LoadMetrics lm = load_metrics(costs, ref, 16);
    EXPECT_DOUBLE_EQ(evals[i].makespan, lm.makespan);
    const CommMetrics cm = comm_metrics(mesh, ref, topo, sizes);
    EXPECT_DOUBLE_EQ(evals[i].remote_share, cm.remote_fraction())
        << "x=" << xs[i];
  }
}

TEST(PlacementEngine, FuzzEvaluateCandidatesEqualsPerXPolicy) {
  enum class Costs { kSkewed, kTied, kFlat };
  struct Case {
    RootGrid grid;
    int refine_rounds;
    std::int32_t nranks;
  };
  const Case cases[] = {
      {RootGrid{4, 4, 2}, 3, 16},  // refined, several chunks
      {RootGrid{4, 4, 2}, 3, 2},
      {RootGrid{4, 4, 2}, 3, 1},
      {RootGrid{2, 2, 2}, 0, 16},  // more ranks than blocks
      {RootGrid{1, 1, 1}, 0, 8},   // a single block
  };
  // Every budget-trimmed prefix of the tuner's default candidates, a
  // single X, {100} alone, and a ring whose largest X is not last.
  const std::vector<std::vector<double>> sets = {
      {0.0},
      {0.0, 25.0},
      {0.0, 25.0, 50.0},
      {0.0, 25.0, 50.0, 75.0},
      {0.0, 25.0, 50.0, 75.0, 100.0},
      {50.0},
      {100.0},
      {75.0, 50.0, 100.0, 25.0},
  };
  ThreadPool pool(3);
  std::int64_t guard_skips = 0;
  for (const Case& c : cases) {
    AmrMesh mesh(c.grid);
    Rng mesh_rng(c.nranks);
    if (c.refine_rounds > 0)
      refine_random(mesh, mesh_rng, 0.3, c.refine_rounds, 2);
    const ClusterTopology topo(c.nranks, 4);
    for (const Costs kind : {Costs::kSkewed, Costs::kTied, Costs::kFlat}) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        for (const auto& xs : sets) {
          SCOPED_TRACE(testing::Message()
                       << "blocks " << mesh.size() << " nranks " << c.nranks
                       << " costs " << static_cast<int>(kind) << " pool "
                       << (p != nullptr) << " xs " << xs.size() << " first "
                       << xs.front());
          PlacementEngine engine;
          engine.set_parallel(p);
          Rng rng(static_cast<std::uint64_t>(kind) * 101 + xs.size());
          const auto draw = [&] {
            switch (kind) {
              case Costs::kSkewed: return rng.exponential(1.0);
              case Costs::kTied:
                return 1.0 + static_cast<double>(rng.uniform_int(3));
              case Costs::kFlat: break;
            }
            return 2.0;
          };
          std::vector<double> costs(mesh.size());
          for (double& v : costs) v = draw();
          for (int round = 0; round < 3; ++round) {
            if (round == 1 && kind != Costs::kFlat) {
              // Cost drift on a localized span.
              const std::size_t at = costs.size() / 3;
              for (std::size_t i = at; i < std::min(at + 5, costs.size());
                   ++i)
                costs[i] = draw();
            }
            // Round 2 repeats round 1's costs on the reused scratch.
            expect_candidates_match(engine, costs, c.nranks, xs, 4, mesh,
                                    topo);
          }
          if (kind == Costs::kFlat &&
              CplxPolicy(100.0, 4).place(costs, c.nranks) ==
                  CplxPolicy(0.0, 4).place(costs, c.nranks))
            ++guard_skips;
        }
      }
    }
  }
  EXPECT_GT(guard_skips, 0);
}

TEST(PlacementEngine, EvaluateCandidatesParallelPrefixSorts) {
  // 4096 ranks and blocks: large enough that the prefix's rank and block
  // sorts take parallel_sort's pooled path.
  AmrMesh mesh(RootGrid{16, 16, 16});
  const auto costs = skewed_costs(mesh.size(), 41);
  const ClusterTopology topo(4096, 16);
  const std::vector<double> xs{0.0, 25.0, 50.0, 75.0, 100.0};
  ThreadPool pool(3);
  PlacementEngine engine;
  engine.set_parallel(&pool);
  expect_candidates_match(engine, costs, 4096, xs, 512, mesh, topo);
}

}  // namespace
}  // namespace amr
