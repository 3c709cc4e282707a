#include "amr/exec/overlap.hpp"

#include <gtest/gtest.h>

#include "amr/mesh/generators.hpp"
#include "amr/placement/registry.hpp"

namespace amr {
namespace {

struct Harness {
  explicit Harness(std::int32_t nranks)
      : topo(nranks, 2), fabric(topo, quiet(), Rng(1)),
        comm(engine, fabric, nranks), executor(engine, comm) {}

  static FabricParams quiet() {
    FabricParams p = FabricParams::tuned();
    p.remote_jitter = 0;
    return p;
  }

  Engine engine;
  ClusterTopology topo;
  Fabric fabric;
  Comm comm;
  OverlapExecutor executor;
};

TEST(BuildOverlapWork, TotalsMatchBspWork) {
  AmrMesh mesh(RootGrid{3, 3, 3});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 5);
  const std::vector<TimeNs> costs(mesh.size(), us(10));

  const auto bsp = build_step_work(mesh, placement, costs, 5);
  const auto overlap = build_overlap_work(mesh, placement, costs, 5);
  ASSERT_EQ(bsp.size(), overlap.size());
  for (std::size_t r = 0; r < bsp.size(); ++r) {
    EXPECT_EQ(bsp[r].sends.size(), overlap[r].sends.size());
    EXPECT_EQ(bsp[r].expected_recvs, overlap[r].expected_recvs);
    EXPECT_EQ(bsp[r].local_copy_bytes, overlap[r].local_copy_bytes);
    EXPECT_EQ(bsp[r].computes.size(), overlap[r].blocks.size());
    // Per-block expected recvs sum to the rank total.
    std::int32_t per_block = 0;
    std::int64_t recv_bytes = 0;
    for (const auto& b : overlap[r].blocks) {
      per_block += b.expected_recvs;
      recv_bytes += b.recv_bytes;
    }
    EXPECT_EQ(per_block, overlap[r].expected_recvs);
    EXPECT_EQ(recv_bytes, bsp[r].recv_bytes);
  }
}

TEST(OverlapExecutor, ComputeOnlyStepCompletes) {
  Harness h(4);
  std::vector<OverlapRankWork> work(4);
  for (std::size_t r = 0; r < 4; ++r)
    work[r].blocks.push_back(
        BlockWork{.block = static_cast<std::int32_t>(r),
                  .compute = us(100)});
  const StepResult result = h.executor.execute(work, 0);
  for (const auto& s : result.ranks) {
    EXPECT_GT(s.compute_ns, us(99));
    EXPECT_EQ(s.recv_wait_ns, 0);
    EXPECT_GT(s.sync_ns, 0);
  }
}

TEST(OverlapExecutor, IndependentBlockHidesRemoteStall) {
  // Rank 1 owns block A (needs a message that arrives late, because rank
  // 0 computes 5 ms before sending... here: rank 0's send is posted
  // up-front but rank 0 computes first is not possible in overlap — so
  // emulate a late message with a long compute on rank 0's message-
  // producing block plus a dependency). Simplest construction: rank 0
  // sends after a big pack (large message), rank 1 has one dependent
  // block and one independent block.
  auto run = [](bool with_independent_block) {
    Harness h(2);
    std::vector<OverlapRankWork> work(2);
    // Rank 0: one block, one huge message to rank 1's block 10.
    work[0].blocks.push_back(BlockWork{.block = 0, .compute = us(10)});
    work[0].sends.push_back(OutMessage{1, 20'000'000, 0});  // ~3ms pack
    work[0].send_dst_tags.push_back(10);
    // Rank 1: dependent block 10 plus optionally an independent block.
    OverlapRankWork& w1 = work[1];
    w1.blocks.push_back(BlockWork{.block = 10,
                                  .compute = ms(1),
                                  .expected_recvs = 1,
                                  .recv_bytes = 20'000'000});
    w1.expected_recvs = 1;
    if (with_independent_block)
      w1.blocks.push_back(BlockWork{.block = 11, .compute = ms(2)});
    const StepResult r = h.executor.execute(work, 0);
    return r.ranks[1];
  };
  const RankStepStats without = run(false);
  const RankStepStats with = run(true);
  // The independent block absorbs most of the stall.
  EXPECT_GT(without.recv_wait_ns, ms(2));
  EXPECT_LT(with.recv_wait_ns, without.recv_wait_ns - ms(1));
}

TEST(OverlapExecutor, NoIndependentWorkNoBenefit) {
  // One block per rank: overlap degenerates to the BSP result.
  AmrMesh mesh(RootGrid{2, 2, 2});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b);
  const std::vector<TimeNs> costs(mesh.size(), us(200));

  Harness ho(8);
  const auto owork = build_overlap_work(mesh, placement, costs, 8);
  const StepResult overlap = ho.executor.execute(owork, 0);

  Engine engine;
  ClusterTopology topo(8, 2);
  Fabric fabric(topo, Harness::quiet(), Rng(1));
  Comm comm(engine, fabric, 8);
  StepExecutor bsp_executor(engine, comm);
  const auto bwork = build_step_work(mesh, placement, costs, 8);
  const StepResult bsp =
      bsp_executor.execute(bwork, TaskOrdering::kSendFirst, 0);

  // Same work, same ordering of sends: walls within a small tolerance
  // (scheduling details differ slightly).
  EXPECT_NEAR(static_cast<double>(overlap.wall_ns()),
              static_cast<double>(bsp.wall_ns()),
              0.15 * static_cast<double>(bsp.wall_ns()));
}

TEST(OverlapExecutor, ManyBlocksPerRankBeatsBsp) {
  // 8 ranks x 8 blocks with chained remote dependencies: overlap should
  // finish no later than the BSP schedule.
  AmrMesh mesh(RootGrid{4, 4, 4});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 8);
  std::vector<TimeNs> costs(mesh.size());
  Rng rng(3);
  for (auto& c : costs)
    c = static_cast<TimeNs>(rng.uniform(50e3, 400e3));

  Harness ho(8);
  const auto owork = build_overlap_work(mesh, placement, costs, 8);
  const StepResult overlap = ho.executor.execute(owork, 0);

  Engine engine;
  ClusterTopology topo(8, 2);
  Fabric fabric(topo, Harness::quiet(), Rng(1));
  Comm comm(engine, fabric, 8);
  StepExecutor bsp_executor(engine, comm);
  const auto bwork = build_step_work(mesh, placement, costs, 8);
  const StepResult bsp =
      bsp_executor.execute(bwork, TaskOrdering::kSendFirst, 0);

  EXPECT_LE(overlap.wall_ns(),
            bsp.wall_ns() + bsp.wall_ns() / 20);
}

TEST(OverlapExecutor, DeterministicAndReusable) {
  auto run = [] {
    Harness h(4);
    std::vector<OverlapRankWork> work(4);
    for (std::size_t r = 0; r < 4; ++r) {
      work[r].blocks.push_back(
          BlockWork{.block = static_cast<std::int32_t>(r),
                    .compute = us(100)});
    }
    work[0].sends.push_back(OutMessage{2, 4096, 0});
    work[0].send_dst_tags.push_back(2);
    work[2].blocks[0].expected_recvs = 1;
    work[2].blocks[0].recv_bytes = 4096;
    work[2].expected_recvs = 1;
    const TimeNs a = h.executor.execute(work, 0).wall_ns();
    const TimeNs b = h.executor.execute(work, 1).wall_ns();
    EXPECT_EQ(a, b);  // steps are independent and state resets
    return a;
  };
  EXPECT_EQ(run(), run());
}


TEST(TwoStageWork, SplitsCostsAndAttachesSendsToProducers) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 4);
  const std::vector<TimeNs> costs(mesh.size(), us(100));

  const auto overlap =
      build_two_stage_work(mesh, placement, costs, 4, 0.25);
  const auto bsp = two_stage_bsp_work(mesh, placement, costs, 4, 0.25);
  for (std::size_t r = 0; r < 4; ++r) {
    // Stage split preserved per block.
    for (const auto& b : overlap[r].blocks) {
      EXPECT_EQ(b.compute, us(25));
      EXPECT_EQ(b.stage2_compute, us(75));
      EXPECT_GT(b.sends.size(), 0u);  // every block has remote neighbors
    }
    // Rank-level up-front sends are empty in the two-stage model.
    EXPECT_TRUE(overlap[r].sends.empty());
    // BSP rendering: same totals split across the wait.
    for (std::size_t c = 0; c < bsp[r].computes.size(); ++c) {
      EXPECT_EQ(bsp[r].computes[c].duration, us(25));
      EXPECT_EQ(bsp[r].computes_after_wait[c].duration, us(75));
    }
  }
}

TEST(TwoStage, OverlapNoSlowerThanBspOnImbalancedStep) {
  AmrMesh mesh(RootGrid{4, 4, 2});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 8);
  std::vector<TimeNs> costs(mesh.size());
  Rng rng(17);
  for (auto& c : costs)
    c = static_cast<TimeNs>(rng.exponential(200e3));

  Harness ho(8);
  const auto owork = build_two_stage_work(mesh, placement, costs, 8, 0.5);
  const StepResult overlap = ho.executor.execute(owork, 0);

  Engine engine;
  ClusterTopology topo(8, 2);
  Fabric fabric(topo, Harness::quiet(), Rng(1));
  Comm comm(engine, fabric, 8);
  StepExecutor bsp_executor(engine, comm);
  const auto bwork = two_stage_bsp_work(mesh, placement, costs, 8, 0.5);
  const StepResult bsp =
      bsp_executor.execute(bwork, TaskOrdering::kComputeFirst, 0);

  EXPECT_LE(overlap.wall_ns(), bsp.wall_ns() + bsp.wall_ns() / 50);
  // And the idle time spent stalled must not exceed the BSP recv wait by
  // more than scheduling noise.
  TimeNs overlap_wait = 0;
  TimeNs bsp_wait = 0;
  for (std::size_t r = 0; r < 8; ++r) {
    overlap_wait += overlap.ranks[r].recv_wait_ns;
    bsp_wait += bsp.ranks[r].recv_wait_ns;
  }
  EXPECT_LE(overlap_wait, bsp_wait + us(100));
}

TEST(PackedOverlap, NonePolicyMatchesPlainBuild) {
  AmrMesh mesh(RootGrid{3, 3, 3});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 5);
  const std::vector<TimeNs> costs(mesh.size(), us(10));
  const MessageSizeModel sizes;
  const auto plain = build_overlap_work(mesh, placement, costs, 5);
  const auto none = build_overlap_work(mesh, placement, costs, 5, sizes,
                                       PackingPolicy::none());
  ASSERT_EQ(plain.size(), none.size());
  for (std::size_t r = 0; r < plain.size(); ++r) {
    EXPECT_EQ(plain[r].sends.size(), none[r].sends.size());
    EXPECT_EQ(plain[r].expected_recvs, none[r].expected_recvs);
    EXPECT_TRUE(none[r].packed_sends.empty());
    EXPECT_TRUE(none[r].agg_credits.empty());
  }
}

TEST(PackedOverlap, PackAllConservesLogicalTraffic) {
  AmrMesh mesh(RootGrid{3, 3, 3});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 5);
  const std::vector<TimeNs> costs(mesh.size(), us(10));
  const MessageSizeModel sizes;
  const auto plain = build_overlap_work(mesh, placement, costs, 5);
  const auto packed = build_overlap_work(mesh, placement, costs, 5, sizes,
                                         PackingPolicy::all());
  ASSERT_EQ(plain.size(), packed.size());

  std::vector<std::int64_t> incoming(5, 0);
  for (std::size_t r = 0; r < packed.size(); ++r) {
    const auto& w = packed[r];
    // Everything packs: no eager rank-level sends remain.
    EXPECT_TRUE(w.sends.empty());
    std::int64_t logical = 0;
    std::vector<bool> dst_seen(5, false);
    for (const auto& ps : w.packed_sends) {
      EXPECT_GE(ps.msg.msgs, 1);
      EXPECT_EQ(ps.contributors, 0);  // single-stage: queued at step start
      logical += ps.msg.msgs;
      // At most one aggregate per destination.
      EXPECT_FALSE(dst_seen[static_cast<std::size_t>(ps.msg.dst_rank)]);
      dst_seen[static_cast<std::size_t>(ps.msg.dst_rank)] = true;
      ++incoming[static_cast<std::size_t>(ps.msg.dst_rank)];
    }
    EXPECT_EQ(logical, static_cast<std::int64_t>(plain[r].sends.size()));
    // Per-block bookkeeping stays logical (one credit per message).
    std::int32_t per_block = 0;
    std::int64_t recv_bytes = 0;
    for (const auto& b : w.blocks) {
      per_block += b.expected_recvs;
      recv_bytes += b.recv_bytes;
    }
    std::int64_t plain_recv_bytes = 0;
    for (const auto& b : plain[r].blocks) plain_recv_bytes += b.recv_bytes;
    EXPECT_EQ(recv_bytes, plain_recv_bytes);
    // Credits cover exactly the per-block expectations.
    std::int32_t credits = 0;
    for (const auto& c : w.agg_credits) credits += c.count;
    EXPECT_EQ(credits, per_block);
  }
  // Rank-level expected counts are transfer counts, not logical counts.
  for (std::size_t r = 0; r < packed.size(); ++r)
    EXPECT_EQ(packed[r].expected_recvs, incoming[r]);
}

TEST(PackedOverlap, ExecutesToCompletionAndDeterministically) {
  AmrMesh mesh(RootGrid{3, 3, 3});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 5);
  const std::vector<TimeNs> costs(mesh.size(), us(50));
  const MessageSizeModel sizes;
  auto run = [&](const PackingPolicy& p, std::int32_t priority) {
    Harness h(5);
    const auto work =
        build_overlap_work(mesh, placement, costs, 5, sizes, p);
    return h.executor.execute(work, 0, priority).wall_ns();
  };
  const TimeNs packed = run(PackingPolicy::all(), -1);
  EXPECT_GT(packed, 0);
  EXPECT_EQ(packed, run(PackingPolicy::all(), -1));
  // A per-pair split executes too (threshold between edge and face).
  const std::int64_t mid = (sizes.bytes(NeighborKind::kEdge) +
                            sizes.bytes(NeighborKind::kFace)) / 2;
  const TimeNs split = run(PackingPolicy{mid}, -1);
  EXPECT_GT(split, 0);
  EXPECT_EQ(split, run(PackingPolicy{mid}, -1));
}

TEST(PackedOverlap, PriorityRankIsDeterministicNoopOffAndOn) {
  AmrMesh mesh(RootGrid{3, 3, 3});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 5);
  const std::vector<TimeNs> costs(mesh.size(), us(50));
  const MessageSizeModel sizes;
  auto run = [&](std::int32_t priority) {
    Harness h(5);
    const auto work = build_overlap_work(mesh, placement, costs, 5);
    return h.executor.execute(work, 0, priority).wall_ns();
  };
  // -1 must match the two-argument legacy call exactly.
  Harness legacy(5);
  const auto work = build_overlap_work(mesh, placement, costs, 5);
  EXPECT_EQ(run(-1), legacy.executor.execute(work, 0).wall_ns());
  // A real priority rank still completes and is reproducible.
  const TimeNs prio = run(2);
  EXPECT_GT(prio, 0);
  EXPECT_EQ(prio, run(2));
}

TEST(TwoStagePacked, ContributorCountsMatchProducers) {
  AmrMesh mesh(RootGrid{2, 2, 2});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 4);
  const std::vector<TimeNs> costs(mesh.size(), us(100));
  const MessageSizeModel sizes;
  const auto work = build_two_stage_work(mesh, placement, costs, 4, 0.25,
                                         sizes, PackingPolicy::all());
  for (const auto& w : work) {
    // Count how many distinct blocks reference each aggregate.
    std::vector<std::int32_t> refs(w.packed_sends.size(), 0);
    for (const auto& b : w.blocks) {
      std::vector<bool> seen(w.packed_sends.size(), false);
      for (const std::int32_t idx : b.packed_out) {
        ASSERT_GE(idx, 0);
        ASSERT_LT(static_cast<std::size_t>(idx), w.packed_sends.size());
        EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
        seen[static_cast<std::size_t>(idx)] = true;
        ++refs[static_cast<std::size_t>(idx)];
      }
    }
    for (std::size_t i = 0; i < w.packed_sends.size(); ++i) {
      EXPECT_GT(w.packed_sends[i].contributors, 0);
      EXPECT_EQ(refs[i], w.packed_sends[i].contributors);
    }
  }
  // And the schedule executes without deadlock.
  Harness h(4);
  EXPECT_GT(h.executor.execute(work, 0).wall_ns(), 0);
}

TEST(TwoStage, CompletesWithCrossDependencies) {
  // Dense all-to-all-ish dependencies must not deadlock: stage 1 never
  // blocks, so the DAG is acyclic by construction.
  AmrMesh mesh(RootGrid{2, 2, 2});
  const Placement placement{0, 1, 2, 3, 0, 1, 2, 3};
  const std::vector<TimeNs> costs(mesh.size(), us(50));
  Harness h(4);
  const auto work = build_two_stage_work(mesh, placement, costs, 4, 0.5);
  const StepResult r = h.executor.execute(work, 0);
  EXPECT_GT(r.wall_ns(), 0);
}

}  // namespace
}  // namespace amr
