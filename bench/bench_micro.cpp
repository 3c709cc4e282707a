// google-benchmark microbenchmarks for the hot substrate paths: Morton
// encoding, mesh refinement and neighbor discovery, placement policies at
// production sizes, auto-X candidate evaluation, BSP and overlap plan
// rebuilds, a BSP and an overlap step, DES event throughput, and fabric
// transfers.
// These guard the performance envelope that keeps placement inside the
// paper's 50 ms budget and the simulator fast enough for the Fig 6
// sweeps.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "amr/common/rng.hpp"
#include "amr/des/engine.hpp"
#include "amr/exec/overlap.hpp"
#include "amr/exec/plan_cache.hpp"
#include "amr/mesh/generators.hpp"
#include "amr/mesh/morton.hpp"
#include "amr/net/fabric.hpp"
#include "amr/par/thread_pool.hpp"
#include "amr/placement/cplx.hpp"
#include "amr/placement/engine.hpp"
#include "amr/placement/registry.hpp"
#include "amr/sim/sim_driver.hpp"
#include "amr/workloads/sedov.hpp"
#include "amr/workloads/synthetic.hpp"

namespace {

using namespace amr;

void BM_Morton3Encode(benchmark::State& state) {
  std::uint32_t x = 123456;
  std::uint32_t y = 654321;
  std::uint32_t z = 111111;
  for (auto _ : state) {
    benchmark::DoNotOptimize(morton3_encode(x, y, z));
    ++x;
  }
}
BENCHMARK(BM_Morton3Encode);

void BM_Morton3RoundTrip(benchmark::State& state) {
  std::uint32_t x = 1;
  for (auto _ : state) {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t c = 0;
    morton3_decode(morton3_encode(x, x + 1, x + 2), a, b, c);
    benchmark::DoNotOptimize(a + b + c);
    ++x;
  }
}
BENCHMARK(BM_Morton3RoundTrip);

void BM_MeshRefine(benchmark::State& state) {
  for (auto _ : state) {
    AmrMesh mesh(RootGrid{8, 8, 8});
    refine_shell(mesh, {0.5, 0.5, 0.5}, 0.3, 0.06, 1);
    benchmark::DoNotOptimize(mesh.size());
  }
}
BENCHMARK(BM_MeshRefine)->Unit(benchmark::kMillisecond);

void BM_NeighborLists(benchmark::State& state) {
  AmrMesh mesh(RootGrid{8, 8, 8});
  refine_shell(mesh, {0.5, 0.5, 0.5}, 0.3, 0.06, 1);
  for (auto _ : state) {
    AmrMesh copy = mesh;  // cache is per-instance
    benchmark::DoNotOptimize(copy.neighbor_lists().size());
  }
}
BENCHMARK(BM_NeighborLists)->Unit(benchmark::kMillisecond);

void BM_Policy(benchmark::State& state, const char* name) {
  const auto ranks = static_cast<std::int32_t>(state.range(0));
  Rng rng(42);
  const auto costs = synthetic_costs(
      static_cast<std::size_t>(ranks) * 3 / 2,
      CostDistribution::kExponential, rng);
  const PolicyPtr policy = make_policy(name);
  for (auto _ : state)
    benchmark::DoNotOptimize(policy->place(costs, ranks));
}
BENCHMARK_CAPTURE(BM_Policy, baseline, "baseline")
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Policy, lpt, "lpt")
    ->Arg(4096)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Policy, cdp, "cdp")
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Policy, cpl50, "cpl50")
    ->Arg(4096)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

// A refined mesh of about 6K blocks for 4096 ranks (the cooling
// rebalance scale) with skewed per-block costs.
struct RebalanceFixture {
  static constexpr std::int32_t kRanks = 4096;
  AmrMesh mesh{RootGrid{16, 16, 16}};
  std::vector<double> costs;
  RebalanceFixture() {
    Rng rng(7);
    grow_to_block_count(mesh, rng, 6000, 2);
    costs = synthetic_costs(mesh.size(), CostDistribution::kExponential,
                            rng);
  }
};

// One auto-X redistribution epoch: the chunked-CDP base split, then the
// tuner's 5 default candidates rebalanced and scored (the shared
// rebalance prefix, the per-X tails and comm scoring). Arg is the pool
// size (0 = no pool).
void BM_EvaluateCandidates(benchmark::State& state) {
  const RebalanceFixture f;
  const ClusterTopology topo(RebalanceFixture::kRanks, 16);
  const MessageSizeModel sizes;
  const std::vector<double> xs{0.0, 25.0, 50.0, 75.0, 100.0};
  const auto threads = static_cast<int>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  PlacementEngine engine;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    engine.set_parallel(pool.get());
  }
  std::vector<CandidateEval> evals;
  for (auto _ : state) {
    engine.evaluate_candidates(f.costs, RebalanceFixture::kRanks, xs, 512,
                               f.mesh, topo, sizes, evals);
    benchmark::DoNotOptimize(evals.data());
  }
}
BENCHMARK(BM_EvaluateCandidates)
    ->Arg(0)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// BSP plan misses: two placements (cpl0 and cpl100) alternate through
// ExchangePlanCache under a new placement version every call, so every
// call rebuilds the flat 4096-rank plan in place.
void BM_PlanRebuild(benchmark::State& state) {
  const RebalanceFixture f;
  const Placement placements[] = {
      CplxPolicy(0.0).place(f.costs, RebalanceFixture::kRanks),
      CplxPolicy(100.0).place(f.costs, RebalanceFixture::kRanks)};
  const std::vector<TimeNs> block_costs(f.mesh.size(), 1000);
  ExchangePlanCache cache;
  std::uint64_t version = 0;
  for (auto _ : state) {
    const BspPlan& plan = cache.step_work(
        f.mesh, placements[version % 2], version, block_costs,
        RebalanceFixture::kRanks, MessageSizeModel{}, true);
    ++version;
    benchmark::DoNotOptimize(plan.tasks.data());
  }
}
BENCHMARK(BM_PlanRebuild)->Unit(benchmark::kMillisecond);

// A refined mesh of about 12K blocks on 2048 ranks (the overlap ledger
// scale, about 6 blocks and 75 transfers per rank) with cpl0 and cpl100
// placements of skewed costs.
struct OverlapFixture {
  static constexpr std::int32_t kRanks = 2048;
  static constexpr double kStageSplit = 0.8;
  AmrMesh mesh{RootGrid{16, 16, 8}};
  std::vector<TimeNs> block_costs;
  Placement placements[2];
  OverlapFixture() {
    Rng rng(11);
    grow_to_block_count(mesh, rng, 12000, 2);
    const auto costs = synthetic_costs(
        mesh.size(), CostDistribution::kExponential, rng);
    placements[0] = CplxPolicy(0.0).place(costs, kRanks);
    placements[1] = CplxPolicy(100.0).place(costs, kRanks);
    block_costs.resize(mesh.size());
    for (std::size_t b = 0; b < costs.size(); ++b)
      block_costs[b] = static_cast<TimeNs>(costs[b] * 100e3);
  }
};

// Overlap plan misses: the two placements alternate through
// ExchangePlanCache under a new placement version every call, so every
// call rebuilds the two-stage, pack-all plan for 2048 ranks.
void BM_OverlapPlanRebuild(benchmark::State& state) {
  const OverlapFixture f;
  ExchangePlanCache cache;
  std::uint64_t version = 0;
  for (auto _ : state) {
    const auto& plan = cache.overlap_work(
        f.mesh, f.placements[version % 2], version, f.block_costs,
        OverlapFixture::kRanks, MessageSizeModel{}, /*pack=*/true,
        OverlapFixture::kStageSplit);
    ++version;
    benchmark::DoNotOptimize(&plan);
  }
}
BENCHMARK(BM_OverlapPlanRebuild)->Unit(benchmark::kMillisecond);

// One overlap step on a fixed plan: 2048 ranks, two-stage, pack-all,
// critical-path send priority on. Times the executor, the DES and Comm
// together, which is how a step spends them.
void BM_OverlapStep(benchmark::State& state) {
  const OverlapFixture f;
  ExchangePlanCache cache;
  const auto& plan = cache.overlap_work(
      f.mesh, f.placements[1], 0, f.block_costs, OverlapFixture::kRanks,
      MessageSizeModel{}, /*pack=*/true, OverlapFixture::kStageSplit);
  const ClusterTopology topo(OverlapFixture::kRanks, 16);
  Engine engine;
  Fabric fabric(topo, FabricParams::tuned(), Rng(1));
  Comm comm(engine, fabric, OverlapFixture::kRanks);
  OverlapExecutor executor(engine, comm);
  std::uint64_t window = 0;
  for (auto _ : state) {
    const StepResult r = executor.execute(plan, window++, /*priority=*/7);
    benchmark::DoNotOptimize(r.step_end);
  }
}
BENCHMARK(BM_OverlapStep)->Unit(benchmark::kMillisecond);

// A Sedov mesh at the BSP ledger's shape (the sim driver's root grid,
// the front a third of the way out) on 4096 ranks under cpl50.
struct SedovFixture {
  static constexpr std::int32_t kRanks = 4096;
  AmrMesh mesh{grid_for_ranks(kRanks)};
  std::vector<TimeNs> block_costs;
  Placement placement;
  SedovFixture() {
    SedovParams sp;
    sp.total_steps = 12;
    SedovWorkload sedov(sp);
    for (std::int64_t step = 0; step <= 4; ++step) sedov.evolve(mesh, step);
    block_costs.resize(mesh.size());
    std::vector<double> est(mesh.size());
    for (std::size_t b = 0; b < mesh.size(); ++b) {
      block_costs[b] = sedov.block_cost(mesh, b, 4);
      est[b] = static_cast<double>(block_costs[b]);
    }
    placement = CplxPolicy(50.0).place(est, kRanks);
  }
};

// One BSP step on a fixed plan: 4096 ranks, send-first with flux
// corrections, critical-path send priority on. Times the executor, the
// DES and Comm together, which is how a step spends them.
void BM_BspStep(benchmark::State& state) {
  const SedovFixture f;
  ExchangePlanCache cache;
  const BspPlan& plan = cache.step_work(
      f.mesh, f.placement, 0, f.block_costs, SedovFixture::kRanks,
      MessageSizeModel{}, true);
  const ClusterTopology topo(SedovFixture::kRanks, 16);
  Engine engine;
  Fabric fabric(topo, FabricParams::tuned(), Rng(1));
  Comm comm(engine, fabric, SedovFixture::kRanks);
  StepExecutor executor(engine, comm);
  std::uint64_t window = 0;
  for (auto _ : state) {
    const StepResult r = executor.execute(plan, window++, /*priority=*/7);
    benchmark::DoNotOptimize(r.step_end);
  }
}
BENCHMARK(BM_BspStep)->Unit(benchmark::kMillisecond);

void BM_DesEventThroughput(benchmark::State& state) {
  class Null final : public EventHandler {
   public:
    void on_event(Engine&, std::uint64_t) override {}
  } handler;
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    for (int i = 0; i < 100000; ++i)
      engine.schedule_at(i, &handler, 0);
    state.ResumeTiming();
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_DesEventThroughput)->Unit(benchmark::kMillisecond);

void BM_FabricTransfer(benchmark::State& state) {
  const ClusterTopology topo(4096, 16);
  Fabric fabric(topo, FabricParams::tuned(), Rng(1));
  TimeNs t = 0;
  std::int32_t src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fabric.transfer(src, (src + 16) % 4096, 20480, t));
    src = (src + 1) % 4096;
    t += 100;
  }
}
BENCHMARK(BM_FabricTransfer);

// Same-node transfers through the shm slot queue, at the tuned depth
// (4096) and the untuned one (8). Each node posts 16 back-to-back
// messages per round, so the 8-slot queue also takes the retry path.
void BM_FabricTransferShm(benchmark::State& state) {
  const ClusterTopology topo(4096, 16);
  FabricParams params = FabricParams::tuned();
  params.shm_queue_slots = static_cast<std::int32_t>(state.range(0));
  Fabric fabric(topo, params, Rng(1));
  TimeNs t = 0;
  std::int32_t src = 0;
  for (auto _ : state) {
    const std::int32_t dst = src - src % 16 + (src + 1) % 16;
    benchmark::DoNotOptimize(fabric.transfer(src, dst, 20480, t));
    src = (src + 1) % 4096;
    t += 100;
  }
  state.counters["shm_retries"] = benchmark::Counter(
      static_cast<double>(fabric.stats().shm_retries),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FabricTransferShm)->Arg(4096)->Arg(8);

}  // namespace
