// google-benchmark microbenchmarks for the hot substrate paths: Morton
// encoding, mesh refinement and neighbor discovery, placement policies at
// production sizes, DES event throughput, and fabric transfers. These
// guard the performance envelope that keeps placement inside the paper's
// 50 ms budget and the simulator fast enough for the Fig 6 sweeps.
#include <benchmark/benchmark.h>

#include "amr/common/rng.hpp"
#include "amr/des/engine.hpp"
#include "amr/mesh/generators.hpp"
#include "amr/mesh/morton.hpp"
#include "amr/net/fabric.hpp"
#include "amr/placement/registry.hpp"
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
