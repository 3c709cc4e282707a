#include "amr/exec/step_executor.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "amr/exec/overlap.hpp"
#include "amr/exec/plan_cache.hpp"
#include "amr/exec/work.hpp"
#include "amr/mesh/mesh.hpp"
#include "amr/trace/tracer.hpp"
#include "bsp_oracle.hpp"

namespace amr {
namespace {

struct Harness {
  explicit Harness(std::int32_t nranks, FabricParams fp = tuned_quiet())
      : topo(nranks, 2), fabric(topo, fp, Rng(1)),
        comm(engine, fabric, nranks), executor(engine, comm) {}

  static FabricParams tuned_quiet() {
    FabricParams p = FabricParams::tuned();
    p.remote_jitter = 0;
    return p;
  }

  Engine engine;
  ClusterTopology topo;
  Fabric fabric;
  Comm comm;
  StepExecutor executor;
};

using oracle::Compute;
using oracle::make_bsp_plan;
using oracle::RankWork;
using oracle::Send;

std::vector<RankWork> simple_work(std::int32_t nranks,
                                  TimeNs compute = us(100)) {
  std::vector<RankWork> work(static_cast<std::size_t>(nranks));
  for (std::size_t r = 0; r < work.size(); ++r)
    work[r].computes.push_back(
        Compute{static_cast<std::int32_t>(r), compute});
  return work;
}

TEST(StepExecutor, ComputeOnlyStepCompletes) {
  Harness h(4);
  const auto work = simple_work(4);
  const StepResult result =
      h.executor.execute(make_bsp_plan(work, TaskOrdering::kSendFirst), 0);
  ASSERT_EQ(result.ranks.size(), 4u);
  for (const auto& s : result.ranks) {
    EXPECT_EQ(s.compute_ns, us(100) + us(0.2));  // + task overhead
    EXPECT_EQ(s.recv_wait_ns, 0);
    EXPECT_GT(s.sync_ns, 0);  // collective overhead
  }
  EXPECT_GT(result.wall_ns(), us(100));
}

TEST(StepExecutor, StragglerDominatesWall) {
  Harness h(4);
  auto work = simple_work(4, us(100));
  work[2].computes[0].duration = ms(5);
  const StepResult result =
      h.executor.execute(make_bsp_plan(work, TaskOrdering::kSendFirst), 0);
  EXPECT_GT(result.wall_ns(), ms(5));
  // Fast ranks burn the difference in sync.
  EXPECT_GT(result.ranks[0].sync_ns, ms(4));
  EXPECT_LT(result.ranks[2].sync_ns, ms(1));
}

TEST(StepExecutor, MessageFlowsBetweenRanks) {
  Harness h(2);
  std::vector<RankWork> work(2);
  work[0].computes.push_back({0, us(10)});
  work[0].sends.push_back(Send{1, 4096, 0});
  work[1].computes.push_back({1, us(10)});
  work[1].expected_recvs = 1;
  const StepResult result =
      h.executor.execute(make_bsp_plan(work, TaskOrdering::kSendFirst), 0);
  EXPECT_EQ(result.ranks[0].msgs_local, 1);  // ranks 0,1 share node 0
  EXPECT_EQ(result.ranks[1].msgs_local, 0);
}

TEST(StepExecutor, ReceiverWaitsForLateSender) {
  Harness h(2);
  std::vector<RankWork> work(2);
  // Rank 0 computes 5ms before sending (compute-first); rank 1 has
  // nothing to do but wait.
  work[0].computes.push_back({0, ms(5)});
  work[0].sends.push_back(Send{1, 1024, 0});
  work[1].expected_recvs = 1;
  const StepResult result =
      h.executor.execute(make_bsp_plan(work, TaskOrdering::kComputeFirst), 0);
  EXPECT_GT(result.ranks[1].recv_wait_ns, ms(4));
  EXPECT_EQ(result.ranks[1].last_release_src, 0);
}

TEST(StepExecutor, SendFirstOrderingUnblocksReceiver) {
  auto run = [](TaskOrdering ordering) {
    Harness h(2);
    std::vector<RankWork> work(2);
    work[0].computes.push_back({0, ms(5)});
    work[0].sends.push_back(Send{1, 1024, 0});
    work[1].expected_recvs = 1;
    return h.executor.execute(make_bsp_plan(work, ordering), 0);
  };
  const StepResult compute_first = run(TaskOrdering::kComputeFirst);
  const StepResult send_first = run(TaskOrdering::kSendFirst);
  // The tuned ordering slashes the receiver's wait (paper Fig 3/4b).
  EXPECT_LT(send_first.ranks[1].recv_wait_ns,
            compute_first.ranks[1].recv_wait_ns / 4);
  // And does not hurt the sender's completion.
  EXPECT_LE(send_first.ranks[0].collective_entry,
            compute_first.ranks[0].collective_entry + us(10));
}

TEST(StepExecutor, AckRecoveryInflatesSenderWait) {
  FabricParams p = Harness::tuned_quiet();
  p.ack_loss_prob = 1.0;
  p.ack_recovery_delay = ms(2);
  p.drain_queue_enabled = false;
  Harness h(4, p);
  std::vector<RankWork> work(4);
  work[0].sends.push_back(Send{2, 1024, 0});  // cross-node
  work[2].expected_recvs = 1;
  const StepResult result =
      h.executor.execute(make_bsp_plan(work, TaskOrdering::kSendFirst), 0);
  EXPECT_GT(result.ranks[0].send_wait_ns, ms(1));
  // Receiver is fine: data arrived normally.
  EXPECT_LT(result.ranks[2].recv_wait_ns, ms(1));
}

TEST(StepExecutor, DrainQueueRemovesSenderWait) {
  FabricParams p = Harness::tuned_quiet();
  p.ack_loss_prob = 1.0;
  p.drain_queue_enabled = true;
  Harness h(4, p);
  std::vector<RankWork> work(4);
  work[0].sends.push_back(Send{2, 1024, 0});
  work[2].expected_recvs = 1;
  const StepResult result =
      h.executor.execute(make_bsp_plan(work, TaskOrdering::kSendFirst), 0);
  EXPECT_LT(result.ranks[0].send_wait_ns, us(50));
}

TEST(StepExecutor, ConsecutiveStepsAdvanceTime) {
  Harness h(2);
  const auto work = simple_work(2);
  const StepResult a =
      h.executor.execute(make_bsp_plan(work, TaskOrdering::kSendFirst), 0);
  const StepResult b =
      h.executor.execute(make_bsp_plan(work, TaskOrdering::kSendFirst), 1);
  EXPECT_EQ(b.step_start, a.step_end);
  EXPECT_GT(b.step_end, b.step_start);
}

TEST(StepExecutor, DeterministicAcrossRuns) {
  auto run = [] {
    Harness h(4);
    std::vector<RankWork> work = simple_work(4);
    work[0].sends.push_back(Send{3, 2048, 0});
    work[3].expected_recvs = 1;
    return h.executor
        .execute(make_bsp_plan(work, TaskOrdering::kSendFirst), 0)
        .wall_ns();
  };
  EXPECT_EQ(run(), run());
}

// The counters a step's plan alone decides come from the plan and from
// the executor's once-per-plan sums, not from the events. Recount them
// from what actually happened: a fabric observer sees every transfer
// (the coalesced count of each is the delta of the fabric's own
// counter), and the tracer's compute and pack spans carry each task's
// duration as it ran. Plans: both orderings of an eager and a packed
// plan with a stage-2 compute added by hand, a two-stage plan, a cached
// plan whose second window runs a hit-patched copy (same serial, new
// costs), and a cached plan rebuilt in place for another placement
// between windows (new serial, same object).
TEST(StepExecutor, PlanCountersMatchWhatRan) {
  constexpr std::int32_t kRanks = 16;
  AmrMesh mesh(RootGrid{4, 4, 2});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>((b * 7 + b / 5) % kRanks);
  std::vector<TimeNs> costs(mesh.size());
  std::vector<TimeNs> patched(mesh.size());
  for (std::size_t b = 0; b < costs.size(); ++b) {
    costs[b] = us(20) + static_cast<TimeNs>(b % 7) * us(3);
    patched[b] = us(35) - static_cast<TimeNs>(b % 5) * us(2);
  }

  struct Lane {
    std::string name;
    bool packed;
    /// The plan to run in window 0 or 1.
    std::function<const BspPlan&(std::uint64_t)> plan;
  };
  std::vector<Lane> lanes;
  for (const bool pack : {false, true}) {
    auto work = oracle::nested_work(mesh, placement, costs, kRanks, {}, true,
                                    pack);
    work[3].computes_after_wait.push_back({0, us(7)});
    for (const TaskOrdering ordering :
         {TaskOrdering::kComputeFirst, TaskOrdering::kSendFirst}) {
      auto plan = std::make_shared<BspPlan>(make_bsp_plan(work, ordering));
      lanes.push_back({std::string(pack ? "packed " : "eager ") +
                           to_string(ordering),
                       pack,
                       [plan](std::uint64_t) -> const BspPlan& {
                         return *plan;
                       }});
    }
  }
  auto two_stage = std::make_shared<BspPlan>(
      two_stage_bsp_work(mesh, placement, costs, kRanks, 0.5));
  lanes.push_back({"two-stage", false,
                   [two_stage](std::uint64_t) -> const BspPlan& {
                     return *two_stage;
                   }});
  auto cache = std::make_shared<ExchangePlanCache>();
  lanes.push_back(
      {"hit-patched", true,
       [&, cache](std::uint64_t window) -> const BspPlan& {
         return cache->step_work(mesh, placement, 0,
                                 window == 0 ? costs : patched, kRanks, {},
                                 true, /*pack=*/true,
                                 TaskOrdering::kComputeFirst);
       }});
  // The same plan object rebuilt for another placement between windows:
  // the executor must recount what it summed for the old content.
  Placement shifted = placement;
  for (auto& r : shifted) r = (r + 1) % kRanks;
  auto rebuilt = std::make_shared<ExchangePlanCache>();
  lanes.push_back({"rebuilt in place", false,
                   [&, rebuilt](std::uint64_t window) -> const BspPlan& {
                     return rebuilt->step_work(
                         mesh, window == 0 ? placement : shifted, window,
                         costs, kRanks, {}, true);
                   }});

  for (const Lane& lane : lanes) {
    for (const std::int32_t priority : {-1, 5}) {
      SCOPED_TRACE(lane.name + " priority " + std::to_string(priority));
      Engine engine;
      const ClusterTopology topo(kRanks, 4);
      Fabric fabric(topo, Harness::tuned_quiet(), Rng(3));
      Comm comm(engine, fabric, kRanks);
      TraceConfig tc;
      tc.capacity = 1u << 16;
      Tracer tracer(tc);
      StepExecutor executor(engine, comm, {}, &tracer);

      std::vector<RankStepStats> seen(kRanks);
      std::int64_t coalesced_before = 0;
      fabric.set_observer([&](std::int32_t src, std::int32_t,
                              std::int64_t bytes, const TransferTiming& t) {
        RankStepStats& s = seen[static_cast<std::size_t>(src)];
        (t.used_shm ? s.msgs_local : s.msgs_remote) += 1;
        (t.used_shm ? s.bytes_local : s.bytes_remote) += bytes;
        const std::int64_t coalesced =
            fabric.stats().coalesced_msgs - coalesced_before;
        coalesced_before = fabric.stats().coalesced_msgs;
        s.msgs_coalesced += coalesced;
        if (coalesced > 0) s.bytes_packed += bytes;
      });

      for (std::uint64_t window = 0; window < 2; ++window) {
        std::fill(seen.begin(), seen.end(), RankStepStats{});
        tracer.clear();
        const StepResult result =
            executor.execute(lane.plan(window), window, priority);
        tracer.for_each([&](const TraceEvent& e) {
          if (e.track < 0 || e.type != TraceEventType::kComplete) return;
          RankStepStats& s = seen[static_cast<std::size_t>(e.track)];
          if (e.cat == TraceCat::kCompute) s.compute_ns += e.dur;
          if (e.cat == TraceCat::kPack) s.pack_ns += e.dur;
        });
        ASSERT_EQ(tracer.dropped(), 0u);
        std::int64_t local = 0;
        std::int64_t remote = 0;
        for (std::int32_t r = 0; r < kRanks; ++r) {
          SCOPED_TRACE("rank " + std::to_string(r));
          const RankStepStats& got =
              result.ranks[static_cast<std::size_t>(r)];
          const RankStepStats& want = seen[static_cast<std::size_t>(r)];
          EXPECT_EQ(got.compute_ns, want.compute_ns);
          EXPECT_EQ(got.pack_ns, want.pack_ns);
          EXPECT_EQ(got.msgs_local, want.msgs_local);
          EXPECT_EQ(got.msgs_remote, want.msgs_remote);
          EXPECT_EQ(got.bytes_local, want.bytes_local);
          EXPECT_EQ(got.bytes_remote, want.bytes_remote);
          EXPECT_EQ(got.msgs_coalesced, want.msgs_coalesced);
          EXPECT_EQ(got.bytes_packed, want.bytes_packed);
          local += got.msgs_local;
          remote += got.msgs_remote;
        }
        // The plan exercises both paths and, when packed, coalescing.
        EXPECT_GT(local, 0);
        EXPECT_GT(remote, 0);
        EXPECT_EQ(fabric.stats().coalesced_msgs > 0, lane.packed);
      }
    }
  }
  // The hit lane's second window really ran a patched cache hit.
  EXPECT_EQ(cache->stats().misses, 1);
  EXPECT_GT(cache->stats().hits, 0);
}

// What each rank runs, in order, is what the nested oracle's per-step
// expansion produced (bsp_oracle.hpp), send priority included: a send
// priority target reorders exactly the sends of the ranks that send to
// it. The order is read back from the trace, where every timed task of
// a rank is one complete span on its track.
TEST(StepExecutor, ExecutedOrderMatchesNestedOracle) {
  constexpr std::int32_t kRanks = 14;
  AmrMesh mesh(RootGrid{4, 2, 2});
  mesh.refine(std::vector<std::int32_t>{0, 5});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>((b * 5 + b / 3) % kRanks);
  std::vector<TimeNs> costs(mesh.size());
  for (std::size_t b = 0; b < costs.size(); ++b)
    costs[b] = us(10) + static_cast<TimeNs>(b % 9) * us(4);
  const ExecParams params;
  const MessageSizeModel sizes;

  // A timed task as its trace span shows it.
  auto timed = [&](const BspTask& t) {
    const TimeNs d = bsp_task_duration(t, params);
    return std::tuple(t.kind, d, t.kind == BspTaskKind::kPackSend ? t.dst : -1);
  };
  std::int64_t reordered = 0;
  bool packed = false;
  bool eager = false;
  for (const TaskOrdering ordering :
       {TaskOrdering::kComputeFirst, TaskOrdering::kSendFirst}) {
    for (const bool pack : {false, true}) {
      for (const bool two_stage : {false, true}) {
        if (two_stage && pack) continue;
        const auto work =
            two_stage ? oracle::nested_two_stage(mesh, placement, costs,
                                                 kRanks, 0.4, sizes)
                      : oracle::nested_work(mesh, placement, costs, kRanks,
                                            sizes, true, pack);
        const BspPlan plan =
            build_bsp_plan(mesh, placement, costs, kRanks, sizes, !two_stage,
                           pack, ordering, two_stage ? 0.4 : 0.0);
        if (pack) {
          for (const BspTask& t : plan.tasks)
            if (t.kind == BspTaskKind::kPackSend)
              (t.msgs > 1 ? packed : eager) = true;
        }
        for (const std::int32_t priority : {-1, 0, 7}) {
          SCOPED_TRACE(std::string(to_string(ordering)) +
                       (pack ? " packed" : "") +
                       (two_stage ? " two-stage" : "") + " priority " +
                       std::to_string(priority));
          Engine engine;
          const ClusterTopology topo(kRanks, 4);
          Fabric fabric(topo, Harness::tuned_quiet(), Rng(5));
          Comm comm(engine, fabric, kRanks);
          TraceConfig tc;
          tc.capacity = 1u << 16;
          Tracer tracer(tc);
          StepExecutor executor(engine, comm, params, &tracer);
          for (std::uint64_t window = 0; window < 2; ++window) {
            tracer.clear();
            (void)executor.execute(plan, window, priority);
            ASSERT_EQ(tracer.dropped(), 0u);
            std::vector<std::vector<std::tuple<BspTaskKind, TimeNs,
                                               std::int32_t>>>
                ran(kRanks);
            tracer.for_each([&](const TraceEvent& e) {
              if (e.track < 0 || e.type != TraceEventType::kComplete) return;
              const std::string_view name = e.name;
              const BspTaskKind kind =
                  e.cat == TraceCat::kCompute ? BspTaskKind::kCompute
                  : name == "pack"            ? BspTaskKind::kPackSend
                  : name == "unpack"          ? BspTaskKind::kUnpack
                                              : BspTaskKind::kLocalCopy;
              ran[static_cast<std::size_t>(e.track)].emplace_back(
                  kind, e.dur,
                  kind == BspTaskKind::kPackSend
                      ? static_cast<std::int32_t>(e.b)
                      : -1);
            });
            for (std::int32_t r = 0; r < kRanks; ++r) {
              const auto& w = work[static_cast<std::size_t>(r)];
              std::vector<std::tuple<BspTaskKind, TimeNs, std::int32_t>>
                  want;
              for (const BspTask& t : oracle::expand(w, ordering, priority))
                if (t.kind != BspTaskKind::kWaitRecvs &&
                    t.kind != BspTaskKind::kWaitSends)
                  want.push_back(timed(t));
              EXPECT_EQ(ran[static_cast<std::size_t>(r)], want)
                  << "rank " << r;
              if (priority >= 0 &&
                  oracle::expand(w, ordering, priority) !=
                      oracle::expand(w, ordering))
                ++reordered;
            }
          }
        }
      }
    }
  }
  // Priority genuinely moved sends on some ranks, and the packed plans
  // hold aggregates beside the eager sends of single-message pairs.
  EXPECT_GT(reordered, 0);
  EXPECT_TRUE(packed);
  EXPECT_TRUE(eager);
}

}  // namespace
}  // namespace amr
