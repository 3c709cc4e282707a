#include "amr/placement/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "amr/common/rng.hpp"
#include "amr/mesh/generators.hpp"
#include "amr/par/thread_pool.hpp"
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

// The engine's one hard contract: for any cost vector and any reuse
// history, place_cplx is byte-identical to the from-scratch policy.
void expect_matches_full(PlacementEngine& engine,
                         std::span<const double> costs, std::int32_t nranks,
                         double x, std::int32_t chunk,
                         std::uint64_t epoch) {
  const Placement delta =
      engine.place_cplx(costs, nranks, x, chunk, epoch);
  const Placement full = CplxPolicy(x, chunk).place(costs, nranks);
  ASSERT_EQ(delta, full) << "x=" << x << " nranks=" << nranks
                         << " blocks=" << costs.size();
}

TEST(PlacementEngine, FirstEpochMatchesFullRebuild) {
  PlacementEngine engine;
  const auto costs = skewed_costs(256, 11);
  expect_matches_full(engine, costs, 16, 50.0, 4, 1);
}

TEST(PlacementEngine, EdgeCaseEmptyCosts) {
  // An empty refinement level: no blocks at all.
  PlacementEngine engine;
  const std::vector<double> costs;
  expect_matches_full(engine, costs, 8, 50.0, 4, 1);
  expect_matches_full(engine, costs, 8, 50.0, 4, 2);
}

TEST(PlacementEngine, EdgeCaseSingleBlock) {
  PlacementEngine engine;
  const std::vector<double> costs{3.5};
  expect_matches_full(engine, costs, 8, 50.0, 4, 1);
  expect_matches_full(engine, costs, 8, 100.0, 4, 2);
}

TEST(PlacementEngine, EdgeCaseAllEqualCosts) {
  // Uniform costs sit below kRebalanceFloor, so every X degenerates to
  // the contiguous base — the engine must reproduce that exactly.
  PlacementEngine engine;
  const std::vector<double> costs(64, 2.0);
  for (const double x : {0.0, 50.0, 100.0})
    expect_matches_full(engine, costs, 8, x, 4, static_cast<uint64_t>(x));
}

TEST(PlacementEngine, EdgeCaseMoreRanksThanBlocks) {
  // "X larger than block count": nranks (and the rebalanced rank set)
  // exceed the number of blocks, leaving some ranks empty.
  PlacementEngine engine;
  const auto costs = skewed_costs(5, 13);
  expect_matches_full(engine, costs, 16, 100.0, 4, 1);
  expect_matches_full(engine, costs, 16, 50.0, 4, 2);
}

TEST(PlacementEngine, EpochTokenFastPathReusesBase) {
  PlacementEngine engine;
  const auto costs = skewed_costs(512, 17);
  expect_matches_full(engine, costs, 32, 25.0, 4, 7);
  const std::int64_t base_reused = engine.stats().base_reused;
  // Same epoch token -> whole-base fast path, still identical output.
  expect_matches_full(engine, costs, 32, 75.0, 4, 7);
  EXPECT_EQ(engine.stats().base_reused, base_reused + 1);
}

TEST(PlacementEngine, UnchangedChunksAreReused) {
  PlacementEngine engine;
  auto costs = skewed_costs(1024, 19);
  expect_matches_full(engine, costs, 64, 50.0, 8, 1);
  // Same content under a new epoch token (remap-carried costs after a
  // no-op regrid): every chunk solve must come from the memo.
  expect_matches_full(engine, costs, 64, 50.0, 8, 2);
  EXPECT_EQ(engine.last_chunks_reused(), engine.last_chunks_total());
  // A swap deep inside one chunk keeps every boundary prefix sum — and
  // thus every other chunk's span and sub-costs — intact: only the
  // touched chunk may re-solve.
  std::swap(costs[1000], costs[1001]);
  expect_matches_full(engine, costs, 64, 50.0, 8, 3);
  EXPECT_GT(engine.last_chunks_reused(), 0);
  EXPECT_LT(engine.last_chunks_reused(), engine.last_chunks_total());
}

TEST(PlacementEngine, FuzzDeltaEqualsFullAcrossRegridSequences) {
  // Random regrid-like sequences: grow, shrink, and mutate the cost
  // vector; every epoch's delta placement must equal the full rebuild.
  Rng rng(23);
  PlacementEngine engine;
  std::vector<double> costs = skewed_costs(300, 29);
  std::uint64_t epoch = 1;
  for (int round = 0; round < 40; ++round) {
    const double kind = rng.uniform();
    if (kind < 0.3) {  // refine: insert blocks
      const auto at = static_cast<std::size_t>(
          rng.uniform() * static_cast<double>(costs.size()));
      costs.insert(costs.begin() + static_cast<std::ptrdiff_t>(at),
                   {rng.exponential(1.0), rng.exponential(1.0)});
    } else if (kind < 0.5 && costs.size() > 8) {  // coarsen: remove
      const auto at = static_cast<std::size_t>(
          rng.uniform() * static_cast<double>(costs.size() - 4));
      costs.erase(costs.begin() + static_cast<std::ptrdiff_t>(at),
                  costs.begin() + static_cast<std::ptrdiff_t>(at + 4));
    } else if (kind < 0.9) {  // cost drift on a localized span
      const auto at = static_cast<std::size_t>(
          rng.uniform() * static_cast<double>(costs.size()));
      const std::size_t span = std::min<std::size_t>(8, costs.size() - at);
      for (std::size_t i = at; i < at + span; ++i)
        costs[i] = rng.exponential(1.0);
    }  // else: remap-carried unchanged epoch
    const double x = 25.0 * static_cast<double>(round % 5);
    expect_matches_full(engine, costs, 32, x, 4, ++epoch);
  }
  EXPECT_GT(engine.stats().chunks_reused, 0);
}

TEST(PlacementEngine, ParallelMatchesSequential) {
  // The borrowed pool must never change output bytes.
  const auto costs = skewed_costs(2048, 31);
  PlacementEngine seq;
  ThreadPool pool(4);
  PlacementEngine par;
  par.set_parallel(&pool);
  std::uint64_t epoch = 0;
  auto mutated = costs;
  for (int round = 0; round < 6; ++round) {
    mutated[static_cast<std::size_t>(round) * 300] += 1.0;
    const Placement a =
        seq.place_cplx(mutated, 64, 50.0, 8, ++epoch);
    const Placement b = par.place_cplx(mutated, 64, 50.0, 8, epoch);
    ASSERT_EQ(a, b) << "round " << round;
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
  engine.evaluate_candidates(costs, 16, xs, 4, 1, mesh, topo, sizes,
                             evals);

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

// evaluate_candidates builds one rebalance prefix for its largest X and
// runs only the per-X tails; every slot must still equal the
// from-scratch policy at that X.
void expect_candidates_match(PlacementEngine& engine,
                             std::span<const double> costs,
                             std::int32_t nranks, std::span<const double> xs,
                             std::int32_t chunk, std::uint64_t epoch,
                             const AmrMesh& mesh,
                             const ClusterTopology& topo) {
  const MessageSizeModel sizes;
  std::vector<CandidateEval> evals;
  engine.evaluate_candidates(costs, nranks, xs, chunk, epoch, mesh, topo,
                             sizes, evals);
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
          std::uint64_t epoch = 1;
          for (int round = 0; round < 4; ++round) {
            if (round == 1 && kind != Costs::kFlat) {
              // Cost drift on a localized span: other chunks reuse.
              const std::size_t at = costs.size() / 3;
              for (std::size_t i = at; i < std::min(at + 5, costs.size());
                   ++i)
                costs[i] = draw();
            }
            // Round 2 repeats the token (whole-base fast path); round 3
            // repeats the content under a new token (chunk memo).
            if (round != 2) ++epoch;
            expect_candidates_match(engine, costs, c.nranks, xs, 4, epoch,
                                    mesh, topo);
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
  expect_candidates_match(engine, costs, 4096, xs, 512, 1, mesh, topo);
}

}  // namespace
}  // namespace amr
