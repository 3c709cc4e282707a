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
    // Rank 0: one block, one huge message to rank 1's block 10 (slot 0).
    work[0].blocks.push_back(BlockWork{.block = 0, .compute = us(10)});
    work[0].sends.push_back(OutMessage{1, 20'000'000, 0});  // ~3ms pack
    work[0].send_dst_tags.push_back(eager_dst_tag(0));
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
    work[0].send_dst_tags.push_back(eager_dst_tag(0));  // rank 2's block 2
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
BlockWork timed_block(std::int32_t id, TimeNs compute,
                      std::int32_t expected_recvs = 0) {
  BlockWork b;
  b.block = id;
  b.compute = compute;
  b.expected_recvs = expected_recvs;
  return b;
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
    std::vector<OverlapRankWork> work(3);
    OverlapRankWork& rx = work[0];
    rx.blocks.push_back(timed_block(10, 100, 1));        // A, slot 0
    rx.blocks.push_back(timed_block(11, 100, 1));        // B, slot 1
    rx.blocks.push_back(timed_block(12, c_compute, 1));  // C, slot 2
    rx.expected_recvs = 3;
    work[1].blocks.push_back(timed_block(20, 100));
    work[1].sends.push_back(OutMessage{0, 1000, 20});
    work[1].send_dst_tags.push_back(eager_dst_tag(0));
    BlockWork producer = timed_block(30, 1500);
    producer.stage2_compute = 100;
    producer.sends = {OutMessage{0, 0, 30}, OutMessage{0, 0, 30}};
    producer.send_dst_tags = {eager_dst_tag(1), eager_dst_tag(2)};
    work[2].blocks.push_back(producer);
    const StepResult r = h.executor.execute(work, 0);
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
std::vector<OverlapRankWork> packed_credit_work(std::int64_t rank1_tag) {
  std::vector<OverlapRankWork> work(3);
  OverlapRankWork& rx = work[0];
  for (std::int32_t slot = 0; slot < 3; ++slot)
    rx.blocks.push_back(timed_block(slot, 100, slot == 2 ? 1 : 2));
  rx.agg_credits = {AggCredit{2, 1, 2}, AggCredit{1, 0, 2},
                    AggCredit{1, 2, 1}};
  rx.expected_recvs = 2;
  work[1].blocks.push_back(timed_block(3, 100));
  work[1].packed_sends.push_back(
      PackedSend{OutMessage{0, 0, 3, 3}, rank1_tag, 0});
  work[2].blocks.push_back(timed_block(4, 100));
  work[2].packed_sends.push_back(
      PackedSend{OutMessage{0, 0, 4, 2}, packed_dst_tag(0), 0});
  return work;
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
  // its sender's contiguous run in the receiver's agg_credits. Chunked
  // placement: some rank pairs share one message (eager), most several.
  AmrMesh mesh(RootGrid{4, 4, 4});
  Placement placement(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    placement[b] = static_cast<std::int32_t>(b / 4);
  const std::vector<TimeNs> costs(mesh.size(), us(50));
  const MessageSizeModel sizes;
  const std::int64_t mid = (sizes.bytes(NeighborKind::kEdge) +
                            sizes.bytes(NeighborKind::kFace)) / 2;
  const auto check_eager = [&](const std::vector<OverlapRankWork>& work,
                               const OutMessage& m, std::int64_t tag) {
    ASSERT_FALSE(is_packed_dst_tag(tag));
    const auto& blocks = work[static_cast<std::size_t>(m.dst_rank)].blocks;
    ASSERT_LT(static_cast<std::size_t>(tag / 2), blocks.size());
    // Eager sends record their destination block in src_block.
    EXPECT_EQ(blocks[static_cast<std::size_t>(tag / 2)].block, m.src_block);
  };
  for (const bool two_stage : {false, true}) {
    const auto work =
        two_stage ? build_two_stage_work(mesh, placement, costs, 16, 0.5,
                                         sizes, PackingPolicy{mid})
                  : build_overlap_work(mesh, placement, costs, 16, sizes,
                                       PackingPolicy{mid});
    std::int64_t eager = 0;
    std::int64_t packed = 0;
    for (std::size_t src = 0; src < work.size(); ++src) {
      const OverlapRankWork& w = work[src];
      for (std::size_t i = 0; i < w.sends.size(); ++i, ++eager)
        check_eager(work, w.sends[i], w.send_dst_tags[i]);
      for (const BlockWork& b : w.blocks)
        for (std::size_t i = 0; i < b.sends.size(); ++i, ++eager)
          check_eager(work, b.sends[i], b.send_dst_tags[i]);
      for (const PackedSend& p : w.packed_sends) {
        ++packed;
        ASSERT_TRUE(is_packed_dst_tag(p.dst_tag));
        const auto& credits =
            work[static_cast<std::size_t>(p.msg.dst_rank)].agg_credits;
        const auto begin = static_cast<std::size_t>(p.dst_tag / 2);
        ASSERT_LT(begin, credits.size());
        EXPECT_EQ(credits[begin].src_rank, static_cast<std::int32_t>(src));
        if (begin > 0) {
          EXPECT_NE(credits[begin - 1].src_rank,
                    static_cast<std::int32_t>(src));
        }
        std::int32_t run = 0;
        for (std::size_t i = begin;
             i < credits.size() && credits[i].src_rank ==
                                       static_cast<std::int32_t>(src);
             ++i)
          run += credits[i].count;
        EXPECT_EQ(run, p.msg.msgs);  // the run is the whole transfer
      }
    }
    EXPECT_GT(eager, 0);
    EXPECT_GT(packed, 0);
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
        std::vector<OverlapRankWork> work(2);
        work[0].blocks.push_back(timed_block(0, 100, 1));
        work[0].expected_recvs = 1;
        work[1].blocks.push_back(timed_block(1, 100));
        work[1].sends.push_back(OutMessage{0, 0, 0});
        work[1].send_dst_tags.push_back(eager_dst_tag(1));
        h.executor.execute(work, 0);
      },
      "eager arrival names no block slot");
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
