#include "amr/exec/overlap.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>

#include "amr/mesh/generators.hpp"
#include "amr/placement/registry.hpp"
#include "amr/trace/tracer.hpp"

namespace amr {
namespace {

/// Test-local description of hand-built work: one entry per rank,
/// flattened into an OverlapPlan by make_plan (block sends and ranges are
/// laid out as the builder lays them out).
struct BlockSpec {
  OverlapBlock work;
  std::vector<OverlapSend> sends;  ///< posted after stage 1
};
struct RankSpec {
  std::vector<BlockSpec> blocks;
  std::vector<OverlapSend> upfront;
  std::vector<OverlapSend> packed;
  std::vector<AggCredit> credits;
  std::int32_t expected_recvs = 0;
};

OverlapPlan make_plan(const std::vector<RankSpec>& spec) {
  OverlapPlan plan;
  const auto at = [](const auto& v) {
    return static_cast<std::int32_t>(v.size());
  };
  for (const RankSpec& r : spec) {
    OverlapRankPlan rp;
    plan.expected_recvs.push_back(r.expected_recvs);
    rp.upfront.begin = at(plan.sends);
    plan.sends.insert(plan.sends.end(), r.upfront.begin(), r.upfront.end());
    rp.upfront.end = at(plan.sends);
    rp.blocks.begin = at(plan.blocks);
    for (const BlockSpec& b : r.blocks) {
      OverlapBlock blk = b.work;
      blk.sends.begin = at(plan.sends);
      plan.sends.insert(plan.sends.end(), b.sends.begin(), b.sends.end());
      blk.sends.end = at(plan.sends);
      blk.packed_out = {at(plan.packed_out), at(plan.packed_out)};
      plan.blocks.push_back(blk);
    }
    rp.blocks.end = at(plan.blocks);
    rp.packed.begin = at(plan.sends);
    plan.sends.insert(plan.sends.end(), r.packed.begin(), r.packed.end());
    rp.packed.end = at(plan.sends);
    rp.credits.begin = at(plan.credits);
    plan.credits.insert(plan.credits.end(), r.credits.begin(),
                        r.credits.end());
    rp.credits.end = at(plan.credits);
    rp.order = {at(plan.stage1_order), at(plan.stage1_order)};
    plan.ranks.push_back(rp);
  }
  return plan;
}

/// Rank `r`'s block slots and receiver credits.
std::span<const OverlapBlock> blocks_of(const OverlapPlan& plan,
                                        std::size_t r) {
  return OverlapPlan::slice(plan.blocks, plan.ranks[r].blocks);
}
std::span<const AggCredit> credits_of(const OverlapPlan& plan,
                                      std::size_t r) {
  return OverlapPlan::slice(plan.credits, plan.ranks[r].credits);
}

/// A block with `compute` and `expected_recvs` ghosts of `recv_bytes`.
BlockSpec block(std::int32_t id, TimeNs compute,
                std::int32_t expected_recvs = 0,
                std::int64_t recv_bytes = 0) {
  BlockSpec b;
  b.work.block = id;
  b.work.compute = compute;
  b.work.expected_recvs = expected_recvs;
  b.work.recv_bytes = recv_bytes;
  return b;
}

/// An eager send of `bytes` to block slot `slot` of rank `dst`.
OverlapSend eager(std::int32_t dst, std::int64_t bytes, std::int32_t slot) {
  return OverlapSend{bytes, dst, 1, eager_dst_tag(slot), 0};
}

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

  const BspPlan bsp = build_bsp_plan(mesh, placement, costs, 5);
  const OverlapPlan overlap = build_overlap_plan(mesh, placement, costs, 5);
  ASSERT_EQ(bsp.nranks(), overlap.nranks());
  for (std::size_t r = 0; r < bsp.nranks(); ++r) {
    const OverlapRankPlan& w = overlap.ranks[r];
    EXPECT_EQ(bsp.sends_of(r).size(),
              static_cast<std::size_t>(w.upfront.size()));
    EXPECT_EQ(bsp.expected_recvs[r], overlap.expected_recvs[r]);
    EXPECT_EQ(bsp.bytes_of(r, BspTaskKind::kLocalCopy), w.local_copy_bytes);
    EXPECT_EQ(bsp.computes_of(r).size(),
              static_cast<std::size_t>(w.blocks.size()));
    // Per-block expected recvs sum to the rank total.
    std::int32_t per_block = 0;
    std::int64_t recv_bytes = 0;
    for (const auto& b : blocks_of(overlap, r)) {
      per_block += b.expected_recvs;
      recv_bytes += b.recv_bytes;
    }
    EXPECT_EQ(per_block, overlap.expected_recvs[r]);
    EXPECT_EQ(recv_bytes, bsp.bytes_of(r, BspTaskKind::kUnpack));
  }
}

TEST(OverlapExecutor, ComputeOnlyStepCompletes) {
  Harness h(4);
  std::vector<RankSpec> spec(4);
  for (std::size_t r = 0; r < 4; ++r)
    spec[r].blocks.push_back(block(static_cast<std::int32_t>(r), us(100)));
  const StepResult result = h.executor.execute(make_plan(spec), 0);
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
    std::vector<RankSpec> spec(2);
    // Rank 0: one block, one huge message to rank 1's block 10 (slot 0).
    spec[0].blocks.push_back(block(0, us(10)));
    spec[0].upfront.push_back(eager(1, 20'000'000, 0));  // ~3ms pack
    // Rank 1: dependent block 10 plus optionally an independent block.
    RankSpec& w1 = spec[1];
    w1.blocks.push_back(block(10, ms(1), 1, 20'000'000));
    w1.expected_recvs = 1;
    if (with_independent_block) w1.blocks.push_back(block(11, ms(2)));
    const StepResult r = h.executor.execute(make_plan(spec), 0);
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
  const OverlapPlan owork = build_overlap_plan(mesh, placement, costs, 8);
  const StepResult overlap = ho.executor.execute(owork, 0);

  Engine engine;
  ClusterTopology topo(8, 2);
  Fabric fabric(topo, Harness::quiet(), Rng(1));
  Comm comm(engine, fabric, 8);
  StepExecutor bsp_executor(engine, comm);
  const BspPlan bwork = build_bsp_plan(mesh, placement, costs, 8);
  const StepResult bsp = bsp_executor.execute(bwork, 0);

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
  const OverlapPlan owork = build_overlap_plan(mesh, placement, costs, 8);
  const StepResult overlap = ho.executor.execute(owork, 0);

  Engine engine;
  ClusterTopology topo(8, 2);
  Fabric fabric(topo, Harness::quiet(), Rng(1));
  Comm comm(engine, fabric, 8);
  StepExecutor bsp_executor(engine, comm);
  const BspPlan bwork = build_bsp_plan(mesh, placement, costs, 8);
  const StepResult bsp = bsp_executor.execute(bwork, 0);

  EXPECT_LE(overlap.wall_ns(),
            bsp.wall_ns() + bsp.wall_ns() / 20);
}

TEST(OverlapExecutor, DeterministicAndReusable) {
  auto run = [] {
    Harness h(4);
    std::vector<RankSpec> spec(4);
    for (std::size_t r = 0; r < 4; ++r)
      spec[r].blocks.push_back(block(static_cast<std::int32_t>(r), us(100)));
    spec[0].upfront.push_back(eager(2, 4096, 0));  // rank 2's block 2
    spec[2].blocks[0].work.expected_recvs = 1;
    spec[2].blocks[0].work.recv_bytes = 4096;
    spec[2].expected_recvs = 1;
    const OverlapPlan work = make_plan(spec);
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

  const OverlapPlan overlap = build_overlap_plan(
      mesh, placement, costs, 4, {}, /*pack=*/false, 0.25);
  const auto bsp = two_stage_bsp_work(mesh, placement, costs, 4, 0.25);
  for (std::size_t r = 0; r < 4; ++r) {
    // Stage split preserved per block.
    for (const auto& b : blocks_of(overlap, r)) {
      EXPECT_EQ(b.compute, us(25));
      EXPECT_EQ(b.stage2_compute, us(75));
      EXPECT_GT(b.sends.size(), 0);  // every block has remote neighbors
    }
    // Rank-level up-front sends are empty in the two-stage model.
    EXPECT_TRUE(overlap.ranks[r].upfront.empty());
    // BSP rendering: same totals split across the wait.
    ASSERT_EQ(bsp.computes_of(r).size(),
              bsp.computes_after_wait_of(r).size());
    for (std::size_t c = 0; c < bsp.computes_of(r).size(); ++c) {
      EXPECT_EQ(bsp.computes_of(r)[c].value, us(25));
      EXPECT_EQ(bsp.computes_after_wait_of(r)[c].value, us(75));
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
  const OverlapPlan owork = build_overlap_plan(
      mesh, placement, costs, 8, {}, /*pack=*/false, 0.5);
  const StepResult overlap = ho.executor.execute(owork, 0);

  Engine engine;
  ClusterTopology topo(8, 2);
  Fabric fabric(topo, Harness::quiet(), Rng(1));
  Comm comm(engine, fabric, 8);
  StepExecutor bsp_executor(engine, comm);
  const auto bwork = two_stage_bsp_work(mesh, placement, costs, 8, 0.5);
  const StepResult bsp = bsp_executor.execute(bwork, 0);

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
  const OverlapPlan plain = build_overlap_plan(mesh, placement, costs, 5);
  const OverlapPlan none = build_overlap_plan(mesh, placement, costs, 5,
                                              sizes, /*pack=*/false);
  ASSERT_EQ(plain.nranks(), none.nranks());
  EXPECT_EQ(plain.expected_recvs, none.expected_recvs);
  for (std::size_t r = 0; r < plain.nranks(); ++r) {
    EXPECT_EQ(plain.ranks[r].upfront.size(), none.ranks[r].upfront.size());
    EXPECT_TRUE(none.ranks[r].packed.empty());
    EXPECT_TRUE(none.ranks[r].credits.empty());
  }
  EXPECT_EQ(plain, none);
}

TEST(PackedOverlap, PackAllConservesLogicalTraffic) {
  AmrMesh mesh(RootGrid{3, 3, 3});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 5);
  const std::vector<TimeNs> costs(mesh.size(), us(10));
  const MessageSizeModel sizes;
  const OverlapPlan plain = build_overlap_plan(mesh, placement, costs, 5);
  const OverlapPlan packed = build_overlap_plan(mesh, placement, costs, 5,
                                                sizes, /*pack=*/true);
  ASSERT_EQ(plain.nranks(), packed.nranks());

  std::vector<std::int64_t> incoming(5, 0);
  for (std::size_t r = 0; r < packed.nranks(); ++r) {
    const OverlapRankPlan& w = packed.ranks[r];
    // Everything packs: no eager rank-level sends remain.
    EXPECT_TRUE(w.upfront.empty());
    std::int64_t logical = 0;
    std::vector<bool> dst_seen(5, false);
    for (const OverlapSend& ps : OverlapPlan::slice(packed.sends, w.packed)) {
      EXPECT_GE(ps.msgs, 1);
      EXPECT_EQ(ps.contributors, 0);  // single-stage: queued at step start
      logical += ps.msgs;
      // At most one aggregate per destination.
      EXPECT_FALSE(dst_seen[static_cast<std::size_t>(ps.dst)]);
      dst_seen[static_cast<std::size_t>(ps.dst)] = true;
      ++incoming[static_cast<std::size_t>(ps.dst)];
    }
    EXPECT_EQ(logical, plain.ranks[r].upfront.size());
    // Per-block bookkeeping stays logical (one credit per message).
    std::int32_t per_block = 0;
    std::int64_t recv_bytes = 0;
    for (const auto& b : blocks_of(packed, r)) {
      per_block += b.expected_recvs;
      recv_bytes += b.recv_bytes;
    }
    std::int64_t plain_recv_bytes = 0;
    for (const auto& b : blocks_of(plain, r)) plain_recv_bytes += b.recv_bytes;
    EXPECT_EQ(recv_bytes, plain_recv_bytes);
    // Credits cover exactly the per-block expectations.
    std::int32_t credits = 0;
    for (const auto& c : credits_of(packed, r)) credits += c.count;
    EXPECT_EQ(credits, per_block);
  }
  // Rank-level expected counts are transfer counts, not logical counts.
  for (std::size_t r = 0; r < packed.nranks(); ++r)
    EXPECT_EQ(packed.expected_recvs[r], incoming[r]);
}

TEST(PackedOverlap, ExecutesToCompletionAndDeterministically) {
  AmrMesh mesh(RootGrid{3, 3, 3});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b % 5);
  const std::vector<TimeNs> costs(mesh.size(), us(50));
  const MessageSizeModel sizes;
  auto run = [&](const OverlapPlan& work, std::int32_t nranks) {
    Harness h(nranks);
    return h.executor.execute(work, 0, -1).wall_ns();
  };
  const OverlapPlan all_packed =
      build_overlap_plan(mesh, placement, costs, 5, sizes, /*pack=*/true);
  const TimeNs packed = run(all_packed, 5);
  EXPECT_GT(packed, 0);
  EXPECT_EQ(packed, run(all_packed, 5));
  // A mixed plan executes too: a chunked placement leaves some rank
  // pairs with one message, which go eager beside the aggregates.
  AmrMesh chunked(RootGrid{4, 4, 4});
  Placement by_chunk(chunked.size());
  for (std::size_t b = 0; b < chunked.size(); ++b)
    by_chunk[b] = static_cast<std::int32_t>(b / 4);
  const std::vector<TimeNs> chunk_costs(chunked.size(), us(50));
  const OverlapPlan mixed = build_overlap_plan(chunked, by_chunk, chunk_costs,
                                               16, sizes, /*pack=*/true);
  std::int64_t aggregates = 0;
  std::int64_t eager_sends = 0;
  for (const OverlapSend& send : mixed.sends)
    ++(send.msgs > 1 ? aggregates : eager_sends);
  EXPECT_GT(aggregates, 0);
  EXPECT_GT(eager_sends, 0);
  const TimeNs split = run(mixed, 16);
  EXPECT_GT(split, 0);
  EXPECT_EQ(split, run(mixed, 16));
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
    const OverlapPlan work = build_overlap_plan(mesh, placement, costs, 5);
    return h.executor.execute(work, 0, priority).wall_ns();
  };
  // -1 must match the two-argument legacy call exactly.
  Harness legacy(5);
  const OverlapPlan work = build_overlap_plan(mesh, placement, costs, 5);
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
  const OverlapPlan work = build_overlap_plan(
      mesh, placement, costs, 4, sizes, /*pack=*/true, 0.25);
  for (std::size_t r = 0; r < work.nranks(); ++r) {
    const OverlapRankPlan& w = work.ranks[r];
    // Count how many distinct blocks reference each aggregate.
    const auto naggs = static_cast<std::size_t>(w.packed.size());
    std::vector<std::int32_t> refs(naggs, 0);
    for (const auto& b : blocks_of(work, r)) {
      std::vector<bool> seen(naggs, false);
      for (const std::int32_t send :
           OverlapPlan::slice(work.packed_out, b.packed_out)) {
        ASSERT_GE(send, w.packed.begin);
        ASSERT_LT(send, w.packed.end);
        const auto idx = static_cast<std::size_t>(send - w.packed.begin);
        EXPECT_FALSE(seen[idx]);
        seen[idx] = true;
        ++refs[idx];
      }
    }
    for (std::size_t i = 0; i < naggs; ++i) {
      const OverlapSend& agg =
          work.sends[static_cast<std::size_t>(w.packed.begin) + i];
      EXPECT_GT(agg.contributors, 0);
      EXPECT_EQ(refs[i], agg.contributors);
    }
  }
  // And the schedule executes without deadlock.
  Harness h(4);
  EXPECT_GT(h.executor.execute(work, 0).wall_ns(), 0);
}

/// Hand-timed harness: every rank on its own node, integer fabric
/// constants, no jitter, no task overhead and 1 byte/ns pack and wire
/// bandwidth. A zero-byte remote send posted at p departs at p + 100
/// (NIC per-message time) and lands at p + 1100; a packed one carrying
/// m messages adds 10 ns per message beyond the first.
struct TimedHarness {
  explicit TimedHarness(std::int32_t nranks)
      : topo(nranks, 1), fabric(topo, params(), Rng(1)),
        comm(engine, fabric, nranks),
        executor(engine, comm, ExecParams{1.0, 1.0, 0}) {}

  static FabricParams params() {
    FabricParams p;
    p.remote_latency = 1000;
    p.remote_per_msg = 100;
    p.remote_gbytes_per_sec = 1.0;
    p.remote_jitter = 0;
    p.packed_msg_overhead = 10;
    return p;
  }

  Engine engine;
  ClusterTopology topo;
  Fabric fabric;
  Comm comm;
  OverlapExecutor executor;
};

/// A single-stage block with `expected_recvs` ghosts.
BlockSpec timed_block(std::int32_t id, TimeNs compute,
                      std::int32_t expected_recvs = 0) {
  return block(id, compute, expected_recvs);
}

TEST(OverlapExecutor, EarlierLandingPostReArmsAStalledRank) {
  // Rank 0 stalls at t=0 on blocks A, B and C (one ghost each).
  //  - Rank 1 packs 1000 bytes (1000 ns) and posts A's ghost at t=1000;
  //    it lands at 1000 + 100 + 1000 + 1000 = 3100. That completes A's
  //    count, so rank 0 arms a wake at 3100.
  //  - Rank 2 finishes a 1500 ns stage 1 and posts B's and C's ghosts
  //    at t=1500; they land at 2600 and 2700 (one NIC). B's post lands
  //    before the armed wake, so rank 0 re-arms at 2600.
  // Rank 0 resumes at 2600, released by rank 2, runs B (100 ns), then C
  // (ready at 2700).
  const auto run = [](TimeNs c_compute) {
    TimedHarness h(3);
    std::vector<RankSpec> spec(3);
    RankSpec& rx = spec[0];
    rx.blocks.push_back(timed_block(10, 100, 1));        // A, slot 0
    rx.blocks.push_back(timed_block(11, 100, 1));        // B, slot 1
    rx.blocks.push_back(timed_block(12, c_compute, 1));  // C, slot 2
    rx.expected_recvs = 3;
    spec[1].blocks.push_back(timed_block(20, 100));
    spec[1].upfront.push_back(eager(0, 1000, 0));
    BlockSpec producer = timed_block(30, 1500);
    producer.work.stage2_compute = 100;
    producer.sends = {eager(0, 0, 1), eager(0, 0, 2)};
    spec[2].blocks.push_back(producer);
    const StepResult r = h.executor.execute(make_plan(spec), 0);
    // 17 events: rank 0's start, two wakes and three block completions
    // (the stale wake dispatches too, or is revived), rank 1's start,
    // post, block and send-wait, rank 2's start, stage 1, two posts,
    // stage 2 and send-wait, and the collective. No message is an event,
    // and re-arming at a slot whose wake is still queued schedules none.
    EXPECT_EQ(h.engine.events_processed(), 17u);
    // Senders: rank 1's NIC frees at 2100, rank 2's at 1700.
    EXPECT_EQ(r.ranks[1].collective_entry, 2100);
    EXPECT_EQ(r.ranks[2].collective_entry, 1700);
    EXPECT_EQ(r.ranks[1].recv_wait_ns, 0);
    EXPECT_EQ(r.ranks[2].recv_wait_ns, 0);
    return r.ranks[0];
  };
  // C takes 1000 ns: rank 0 is computing (2700..3700) when the stale
  // 3100 wake dispatches, which must be dropped; A runs at 3700.
  const RankStepStats busy = run(1000);
  EXPECT_EQ(busy.recv_wait_ns, 2600);
  EXPECT_EQ(busy.last_release_src, 2);
  EXPECT_EQ(busy.compute_ns, 1200);
  EXPECT_EQ(busy.collective_entry, 3800);
  // C takes 100 ns: rank 0 stalls again at 2800 with only A left, and
  // the queued 3100 wake is its wake again; released by rank 1 there.
  const RankStepStats idle = run(100);
  EXPECT_EQ(idle.recv_wait_ns, 2600 + 300);
  EXPECT_EQ(idle.last_release_src, 1);
  EXPECT_EQ(idle.compute_ns, 300);
  EXPECT_EQ(idle.collective_entry, 3200);
}

/// Rank 0 owns three blocks fed by two packed transfers: rank 2's
/// carries two messages for slot 1 (credit run at index 0), rank 1's
/// carries three, two for slot 0 and one for slot 2 (run at index 1).
/// `rank1_tag` is the dst_tag of rank 1's transfer.
OverlapPlan packed_credit_work(std::int32_t rank1_tag) {
  std::vector<RankSpec> spec(3);
  RankSpec& rx = spec[0];
  for (std::int32_t slot = 0; slot < 3; ++slot)
    rx.blocks.push_back(timed_block(slot, 100, slot == 2 ? 1 : 2));
  rx.credits = {AggCredit{2, 1, 2}, AggCredit{1, 0, 2}, AggCredit{1, 2, 1}};
  rx.expected_recvs = 2;
  spec[1].blocks.push_back(timed_block(3, 100));
  spec[1].packed.push_back(OverlapSend{0, 0, 3, rank1_tag, 0});
  spec[2].blocks.push_back(timed_block(4, 100));
  spec[2].packed.push_back(OverlapSend{0, 0, 2, packed_dst_tag(0), 0});
  return make_plan(spec);
}

TEST(OverlapExecutor, OnePackedTransferCreditsItsWholeCreditRun) {
  // Both transfers post at t=0 (fused: no pack). Rank 1's, with three
  // messages, departs at 0 + 100 + 2 * 10 and lands at 1120; rank 2's
  // lands at 1110. Rank 1's one arrival completes slots 0 and 2 at once.
  // Rank 0 stalls at 0, arms at 1120 for slots 0 and 2, re-arms at 1110
  // for slot 1, resumes there (released by rank 2) and runs all three
  // blocks back to back: 1110 -> 1410.
  TimedHarness h(3);
  const auto work = packed_credit_work(packed_dst_tag(1));
  const StepResult r = h.executor.execute(work, 0);
  const RankStepStats& s = r.ranks[0];
  EXPECT_EQ(s.recv_wait_ns, 1110);
  EXPECT_EQ(s.last_release_src, 2);
  EXPECT_EQ(s.compute_ns, 300);
  EXPECT_EQ(s.collective_entry, 1410);
  EXPECT_EQ(r.ranks[1].msgs_coalesced, 2);
  EXPECT_EQ(r.ranks[2].msgs_coalesced, 1);
}

TEST(PackedOverlap, PlanTagsResolveWithoutSearch) {
  // Every built send names its receiver's record outright: an eager tag
  // is the destination block's slot, a packed tag the first credit of
  // its sender's contiguous run in the receiver's credits. Chunked
  // placement: some rank pairs share one message (eager), most several.
  AmrMesh mesh(RootGrid{4, 4, 4});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b / 4);
  const std::vector<TimeNs> costs(mesh.size(), us(50));
  const MessageSizeModel sizes;
  const std::int32_t nranks = 16;
  // Reference: each source rank's eager messages in emission order (its
  // blocks in block order, then neighbor order), local copies and packed
  // (multi-message) pairs skipped, as the destination block each one is
  // for.
  const auto& lists = mesh.neighbor_lists();
  std::vector<std::vector<std::int32_t>> eager_for(nranks);
  for (std::int32_t src = 0; src < nranks; ++src) {
    std::vector<std::int64_t> pair_msgs(nranks, 0);
    for (std::size_t b = 0; b < mesh.size(); ++b) {
      if (placement[b] != src) continue;
      for (const Neighbor& n : lists[b]) {
        const std::int32_t dst = placement[static_cast<std::size_t>(n.index)];
        if (dst != src) ++pair_msgs[static_cast<std::size_t>(dst)];
      }
    }
    for (std::size_t b = 0; b < mesh.size(); ++b) {
      if (placement[b] != src) continue;
      for (const Neighbor& n : lists[b]) {
        const auto dst = static_cast<std::size_t>(
            placement[static_cast<std::size_t>(n.index)]);
        if (static_cast<std::int32_t>(dst) == src || pair_msgs[dst] >= 2)
          continue;
        eager_for[static_cast<std::size_t>(src)].push_back(n.index);
      }
    }
  }
  for (const double stage1_frac : {0.0, 0.5}) {
    const OverlapPlan work = build_overlap_plan(
        mesh, placement, costs, nranks, sizes, /*pack=*/true, stage1_frac);
    // Logical arrivals each receiving slot is named by: eager tags plus
    // the credits of the aggregates that name it.
    std::vector<std::int32_t> named(work.blocks.size(), 0);
    std::int64_t eager = 0;
    std::int64_t packed = 0;
    for (std::size_t src = 0; src < work.nranks(); ++src) {
      const OverlapRankPlan& w = work.ranks[src];
      const OverlapRange run = w.sends();
      // Up-front (single-stage) or block (two-stage) eager sends, in
      // emission order.
      ASSERT_EQ(static_cast<std::size_t>(w.packed.begin - run.begin),
                eager_for[src].size());
      for (std::int32_t i = run.begin; i < w.packed.begin; ++i, ++eager) {
        const OverlapSend& m = work.sends[static_cast<std::size_t>(i)];
        ASSERT_FALSE(is_packed_dst_tag(m.dst_tag));
        const OverlapRankPlan& dw =
            work.ranks[static_cast<std::size_t>(m.dst)];
        ASSERT_GE(m.dst_tag, 0);
        ASSERT_LT(m.dst_tag / 2, dw.blocks.size());
        const auto slot =
            static_cast<std::size_t>(dw.blocks.begin + m.dst_tag / 2);
        // The tag resolves to the very block the message is for.
        EXPECT_EQ(work.blocks[slot].block,
                  eager_for[src][static_cast<std::size_t>(i - run.begin)])
            << "rank " << src << " send " << i - run.begin;
        ++named[slot];
      }
      for (const OverlapSend& p : OverlapPlan::slice(work.sends, w.packed)) {
        ++packed;
        ASSERT_TRUE(is_packed_dst_tag(p.dst_tag));
        const OverlapRankPlan& dw =
            work.ranks[static_cast<std::size_t>(p.dst)];
        const auto credits =
            credits_of(work, static_cast<std::size_t>(p.dst));
        const auto begin = static_cast<std::size_t>(p.dst_tag / 2);
        ASSERT_LT(begin, credits.size());
        EXPECT_EQ(credits[begin].src_rank, static_cast<std::int32_t>(src));
        if (begin > 0) {
          EXPECT_NE(credits[begin - 1].src_rank,
                    static_cast<std::int32_t>(src));
        }
        std::int32_t run_msgs = 0;
        for (std::size_t i = begin;
             i < credits.size() && credits[i].src_rank ==
                                       static_cast<std::int32_t>(src);
             ++i) {
          run_msgs += credits[i].count;
          named[static_cast<std::size_t>(dw.blocks.begin +
                                         credits[i].slot)] +=
              credits[i].count;
        }
        EXPECT_EQ(run_msgs, p.msgs);  // the run is the whole transfer
      }
    }
    EXPECT_GT(eager, 0);
    EXPECT_GT(packed, 0);
    // The tags name each block exactly as often as it expects ghosts.
    for (std::size_t s = 0; s < work.blocks.size(); ++s)
      EXPECT_EQ(named[s], work.blocks[s].expected_recvs) << s;
  }
}

TEST(OverlapExecutorDeath, TagOutsideTheReceiversRecordsAborts) {
  // A packed tag that does not start its sender's credit run (index 0
  // is rank 2's), or lies past the credits, and an eager tag past the
  // receiver's block slots, each abort with a named check.
  EXPECT_DEATH(
      {
        TimedHarness h(3);
        h.executor.execute(packed_credit_work(packed_dst_tag(0)), 0);
      },
      "packed arrival names no credit run");
  EXPECT_DEATH(
      {
        TimedHarness h(3);
        h.executor.execute(packed_credit_work(packed_dst_tag(3)), 0);
      },
      "packed arrival names no credit run");
  EXPECT_DEATH(
      {
        TimedHarness h(2);
        std::vector<RankSpec> spec(2);
        spec[0].blocks.push_back(timed_block(0, 100, 1));
        spec[0].expected_recvs = 1;
        spec[1].blocks.push_back(timed_block(1, 100));
        spec[1].upfront.push_back(eager(0, 0, 1));
        h.executor.execute(make_plan(spec), 0);
      },
      "eager arrival names no block slot");
}

// The counters a step's plan alone decides are counted when the rank is
// armed. Recount them from what actually happened: a fabric observer
// sees every transfer (the coalesced count of each is the delta of the
// fabric's own counter), and the tracer's compute and pack spans carry
// each task's duration as it ran (a compute span includes its unpack).
TEST(OverlapExecutor, PlanCountersMatchWhatRan) {
  constexpr std::int32_t kRanks = 16;
  AmrMesh mesh(RootGrid{4, 4, 2});
  mesh.refine(std::vector<std::int32_t>{0, 9});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>((b * 7 + b / 5) % kRanks);
  std::vector<TimeNs> costs(mesh.size());
  for (std::size_t b = 0; b < costs.size(); ++b)
    costs[b] = us(20) + static_cast<TimeNs>(b % 7) * us(3);
  const MessageSizeModel sizes;

  struct Shape {
    const char* name;
    double stage1_frac;
    bool pack;
  };
  for (const Shape& shape : {Shape{"single-stage eager", 0.0, false},
                             Shape{"single-stage packed", 0.0, true},
                             Shape{"two-stage packed", 0.5, true}}) {
    const OverlapPlan plan = build_overlap_plan(
        mesh, placement, costs, kRanks, sizes, shape.pack,
        shape.stage1_frac);
    // A packed plan is mixed: single-message pairs stay eager.
    if (shape.pack) {
      std::int64_t aggregates = 0;
      std::int64_t eager_sends = 0;
      for (const OverlapSend& send : plan.sends)
        ++(send.msgs > 1 ? aggregates : eager_sends);
      EXPECT_GT(aggregates, 0) << shape.name;
      EXPECT_GT(eager_sends, 0) << shape.name;
    }
    for (const std::int32_t priority : {-1, 5}) {
      SCOPED_TRACE(std::string(shape.name) + " priority " +
                   std::to_string(priority));
      Engine engine;
      const ClusterTopology topo(kRanks, 4);
      Fabric fabric(topo, Harness::quiet(), Rng(3));
      Comm comm(engine, fabric, kRanks);
      TraceConfig tc;
      tc.capacity = 1u << 16;
      Tracer tracer(tc);
      OverlapExecutor executor(engine, comm, {}, &tracer);

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
        const StepResult result = executor.execute(plan, window, priority);
        std::vector<TimeNs> task_ns(kRanks, 0);
        tracer.for_each([&](const TraceEvent& e) {
          if (e.track < 0 || e.type != TraceEventType::kComplete) return;
          if (e.cat == TraceCat::kCompute || e.cat == TraceCat::kPack)
            task_ns[static_cast<std::size_t>(e.track)] += e.dur;
        });
        ASSERT_EQ(tracer.dropped(), 0u);
        std::int64_t local = 0;
        std::int64_t remote = 0;
        std::int64_t coalesced = 0;
        for (std::int32_t r = 0; r < kRanks; ++r) {
          SCOPED_TRACE("rank " + std::to_string(r));
          const RankStepStats& got =
              result.ranks[static_cast<std::size_t>(r)];
          const RankStepStats& want = seen[static_cast<std::size_t>(r)];
          EXPECT_EQ(got.compute_ns + got.pack_ns,
                    task_ns[static_cast<std::size_t>(r)]);
          EXPECT_EQ(got.msgs_local, want.msgs_local);
          EXPECT_EQ(got.msgs_remote, want.msgs_remote);
          EXPECT_EQ(got.bytes_local, want.bytes_local);
          EXPECT_EQ(got.bytes_remote, want.bytes_remote);
          EXPECT_EQ(got.msgs_coalesced, want.msgs_coalesced);
          EXPECT_EQ(got.bytes_packed, want.bytes_packed);
          local += got.msgs_local;
          remote += got.msgs_remote;
          coalesced += got.msgs_coalesced;
        }
        // The plan exercises both paths and, when packed, coalescing.
        EXPECT_GT(local, 0);
        EXPECT_GT(remote, 0);
        EXPECT_EQ(coalesced > 0, shape.pack);
      }
    }
  }
}

TEST(TwoStage, CompletesWithCrossDependencies) {
  // Dense all-to-all-ish dependencies must not deadlock: stage 1 never
  // blocks, so the DAG is acyclic by construction.
  AmrMesh mesh(RootGrid{2, 2, 2});
  const Placement placement{0, 1, 2, 3, 0, 1, 2, 3};
  const std::vector<TimeNs> costs(mesh.size(), us(50));
  Harness h(4);
  const OverlapPlan work = build_overlap_plan(
      mesh, placement, costs, 4, {}, /*pack=*/false, 0.5);
  const StepResult r = h.executor.execute(work, 0);
  EXPECT_GT(r.wall_ns(), 0);
}

}  // namespace
}  // namespace amr
