#include "amr/exec/overlap.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "amr/common/capacity.hpp"
#include "amr/common/check.hpp"
#include "amr/trace/tracer.hpp"

namespace amr {

std::size_t OverlapPlan::bytes() const {
  return capacity_bytes(ranks, blocks, sends, credits, packed_out,
                        stage1_order, expected_recvs);
}

std::size_t OverlapBuildScratch::bytes() const {
  return capacity_bytes(slot_of_block, msgs, pairs, touched, credit_src,
                        credit_at, cursor, order_key);
}

// Counted passes over scratch that grows with ranks and blocks: slots;
// a count pass (per-rank and per-block sizes, pack decisions); prefix
// sums into ranges; the fill. Each of the two message passes gathers
// one source rank's cross-rank messages at a time, in emission order
// (slot, then neighbor), and rebuilds that source's pair totals from
// them. Receivers' credits are appended in source order, so a per-slot
// marker (the last source that credited it) finds a source's credit for
// a slot in O(1); a block's messages are contiguous, so a per-pair
// marker (the last producer counted) de-duplicates its aggregates.
void build_overlap_plan(const AmrMesh& mesh, const Placement& placement,
                        std::span<const TimeNs> block_costs,
                        std::int32_t nranks, const MessageSizeModel& sizes,
                        bool pack, double stage1_frac, OverlapPlan& plan,
                        OverlapBuildScratch& sc) {
  using Msg = OverlapBuildScratch::Msg;
  using Pair = OverlapBuildScratch::Pair;
  AMR_CHECK(placement.size() == mesh.size());
  AMR_CHECK(block_costs.size() == mesh.size());
  AMR_CHECK(stage1_frac >= 0.0 && stage1_frac < 1.0);
  const bool two_stage = stage1_frac > 0.0;
  const auto nr = static_cast<std::size_t>(nranks);
  const std::size_t nblocks = mesh.size();
  reserve_fresh(plan.ranks, nr).resize(nr);
  reserve_fresh(plan.blocks, nblocks).resize(nblocks);
  plan.expected_recvs.assign(nr, 0);
  auto& ranks = plan.ranks;
  auto& expected = plan.expected_recvs;
  auto& blocks = plan.blocks;

  // Slots: each rank's blocks in block order.
  for (std::size_t b = 0; b < nblocks; ++b) {
    AMR_CHECK(placement[b] >= 0 && placement[b] < nranks);
    ++ranks[static_cast<std::size_t>(placement[b])].blocks.end;
  }
  sc.cursor.resize(nr);
  std::int32_t at = 0;
  for (std::size_t r = 0; r < nr; ++r) {
    const std::int32_t n = ranks[r].blocks.end;
    ranks[r].blocks = {at, at + n};
    sc.cursor[r] = at;
    at += n;
  }
  sc.slot_of_block.resize(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::int32_t s = sc.cursor[static_cast<std::size_t>(placement[b])]++;
    sc.slot_of_block[b] = s;
    OverlapBlock& blk = blocks[static_cast<std::size_t>(s)];
    blk.block = static_cast<std::int32_t>(b);
    set_block_cost(blk, block_costs[b], stage1_frac);
  }

  // Gather `src`'s cross-rank messages into sc.msgs (charging its local
  // copies when `charge`) and, with `pack`, its per-destination totals
  // and pack decisions into sc.pairs; sc.touched lists the destinations.
  const NeighborTable& lists = mesh.neighbor_lists();
  sc.pairs.assign(nr, Pair{});
  sc.touched.clear();
  const auto gather = [&](std::size_t src, bool charge) {
    OverlapRankPlan& w = ranks[src];
    sc.msgs.clear();
    for (std::int32_t s = w.blocks.begin; s < w.blocks.end; ++s) {
      const auto b = static_cast<std::size_t>(
          blocks[static_cast<std::size_t>(s)].block);
      for (const Neighbor& n : lists[b]) {
        const auto ni = static_cast<std::size_t>(n.index);
        const std::int32_t dst = placement[ni];
        const std::int64_t bytes = sizes.bytes(n.kind);
        if (static_cast<std::size_t>(dst) == src) {
          if (charge) {
            w.local_copy_bytes += bytes;
            ++w.local_copy_msgs;
          }
          continue;
        }
        sc.msgs.push_back(Msg{bytes, dst, sc.slot_of_block[ni], s});
      }
    }
    if (!pack) return;
    for (const Msg& m : sc.msgs) {
      Pair& p = sc.pairs[static_cast<std::size_t>(m.dst)];
      if (p.msgs++ == 0) sc.touched.push_back(m.dst);
      p.bytes += m.bytes;
    }
    for (const std::int32_t dst : sc.touched) {
      Pair& p = sc.pairs[static_cast<std::size_t>(dst)];
      p.packed = p.msgs >= 2;
    }
  };
  const auto reset_pairs = [&] {
    for (const std::int32_t dst : sc.touched)
      sc.pairs[static_cast<std::size_t>(dst)] = Pair{};
    sc.touched.clear();
  };
  const auto pair_for = [&](std::int32_t dst) -> Pair* {
    return pack ? &sc.pairs[static_cast<std::size_t>(dst)] : nullptr;
  };

  // Count pass. Counts land in the ranges' `end` fields until the prefix
  // pass turns them into ranges; per-block gating stays logical whether
  // or not a message rides an aggregate (a packed arrival credits every
  // destination block).
  sc.credit_src.assign(nblocks, -1);
  std::size_t total_msgs = 0;
  for (std::size_t src = 0; src < nr; ++src) {
    gather(src, /*charge=*/true);
    total_msgs += sc.msgs.size();
    OverlapRankPlan& w = ranks[src];
    for (const std::int32_t dst : sc.touched) {
      if (!sc.pairs[static_cast<std::size_t>(dst)].packed) continue;
      ++w.packed.end;
      ++expected[static_cast<std::size_t>(dst)];
    }
    for (const Msg& m : sc.msgs) {
      OverlapBlock& target = blocks[static_cast<std::size_t>(m.dst_slot)];
      ++target.expected_recvs;
      target.recv_bytes += m.bytes;
      Pair* p = pair_for(m.dst);
      OverlapRankPlan& dw = ranks[static_cast<std::size_t>(m.dst)];
      if (p == nullptr || !p->packed) {
        ++expected[static_cast<std::size_t>(m.dst)];
        ++(two_stage ? blocks[static_cast<std::size_t>(m.src_slot)].sends.end
                     : w.upfront.end);
        continue;
      }
      target.packed_recv_bytes += m.bytes;
      std::int32_t& credited = sc.credit_src[static_cast<std::size_t>(
          m.dst_slot)];
      if (credited != static_cast<std::int32_t>(src)) {
        credited = static_cast<std::int32_t>(src);
        ++dw.credits.end;
      }
      if (two_stage && p->last_src != m.src_slot) {
        p->last_src = m.src_slot;
        ++blocks[static_cast<std::size_t>(m.src_slot)].packed_out.end;
      }
    }
    reset_pairs();
  }
  // Every index range below is 32-bit; sends, credits and aggregate
  // references each number at most one per message.
  AMR_CHECK(total_msgs <= static_cast<std::size_t>(INT32_MAX));

  // Counts to ranges. A rank's sends: up-front eager, its blocks' eager
  // sends in slot order, then its aggregates.
  std::int32_t send_at = 0;
  std::int32_t credit_at = 0;
  std::int32_t out_at = 0;
  std::int32_t order_at = 0;
  for (std::size_t r = 0; r < nr; ++r) {
    OverlapRankPlan& w = ranks[r];
    const auto take = [](std::int32_t& cur, std::int32_t n) {
      const OverlapRange range{cur, cur + n};
      cur += n;
      return range;
    };
    w.upfront = take(send_at, w.upfront.end);
    for (std::int32_t s = w.blocks.begin; s < w.blocks.end; ++s) {
      OverlapBlock& blk = blocks[static_cast<std::size_t>(s)];
      blk.sends = take(send_at, blk.sends.end);
      blk.packed_out = take(out_at, blk.packed_out.end);
    }
    w.packed = take(send_at, w.packed.end);
    w.credits = take(credit_at, w.credits.end);
    if (two_stage && !w.packed.empty())
      w.order = take(order_at, w.blocks.size());
  }
  const auto size_to = [](auto& v, std::int32_t n) {
    const auto size = static_cast<std::size_t>(n);
    reserve_fresh(v, size).resize(size);
  };
  size_to(plan.sends, send_at);
  size_to(plan.credits, credit_at);
  size_to(plan.packed_out, out_at);
  size_to(plan.stage1_order, order_at);

  // Fill, in the same message order. Eager sends of a source land in
  // emission order whether the rank (single-stage) or the producing
  // block (two-stage) owns them; an aggregate lands at its pair's first
  // message, tagged with where its source's credit run starts, and
  // counts its contributors as they appear.
  for (std::size_t r = 0; r < nr; ++r) sc.cursor[r] = ranks[r].credits.begin;
  sc.credit_src.assign(nblocks, -1);
  sc.credit_at.resize(nblocks);
  out_at = 0;
  for (std::size_t src = 0; src < nr; ++src) {
    gather(src, /*charge=*/false);
    const OverlapRankPlan& w = ranks[src];
    std::int32_t eager_at = w.upfront.begin;
    std::int32_t packed_at = w.packed.begin;
    for (const Msg& m : sc.msgs) {
      const OverlapRankPlan& dw = ranks[static_cast<std::size_t>(m.dst)];
      Pair* p = pair_for(m.dst);
      if (p == nullptr || !p->packed) {
        plan.sends[static_cast<std::size_t>(eager_at++)] = OverlapSend{
            m.bytes, m.dst, 1, eager_dst_tag(m.dst_slot - dw.blocks.begin),
            0};
        continue;
      }
      std::int32_t& cursor = sc.cursor[static_cast<std::size_t>(m.dst)];
      if (p->send < 0) {
        p->send = packed_at++;
        plan.sends[static_cast<std::size_t>(p->send)] =
            OverlapSend{p->bytes, m.dst, p->msgs,
                        packed_dst_tag(cursor - dw.credits.begin), 0};
      }
      const auto slot = static_cast<std::size_t>(m.dst_slot);
      if (sc.credit_src[slot] != static_cast<std::int32_t>(src)) {
        sc.credit_src[slot] = static_cast<std::int32_t>(src);
        sc.credit_at[slot] = cursor;
        plan.credits[static_cast<std::size_t>(cursor++)] = AggCredit{
            static_cast<std::int32_t>(src), m.dst_slot - dw.blocks.begin, 0};
      }
      ++plan.credits[static_cast<std::size_t>(sc.credit_at[slot])].count;
      if (two_stage && p->last_src != m.src_slot) {
        p->last_src = m.src_slot;
        ++plan.sends[static_cast<std::size_t>(p->send)].contributors;
        plan.packed_out[static_cast<std::size_t>(out_at++)] = p->send;
      }
    }
    reset_pairs();
  }

  // Stage-1 schedule: serve aggregates shortest-contributor-set first
  // and run each aggregate's contributors back to back, so completed
  // aggregates stream onto the wire throughout stage 1 instead of all
  // launching near its end. A block feeding several aggregates runs with
  // the earliest of them; blocks feeding none run last. Deterministic:
  // aggregates ordered by (contributors, dst rank), slots in slot order
  // within each group.
  // A slot's key is the (contributors, dst) of the first aggregate it
  // feeds in that order; slots sort by (key, slot).
  constexpr std::int64_t kNoAggregate =
      std::numeric_limits<std::int64_t>::max();
  for (std::size_t r = 0; r < nr; ++r) {
    const OverlapRankPlan& w = ranks[r];
    if (w.order.empty()) continue;
    auto& key = sc.order_key;
    key.assign(static_cast<std::size_t>(w.blocks.size()), kNoAggregate);
    std::int32_t* const order = plan.stage1_order.data() + w.order.begin;
    for (std::int32_t i = 0; i < w.blocks.size(); ++i) {
      const OverlapBlock& blk =
          blocks[static_cast<std::size_t>(w.blocks.begin + i)];
      for (const std::int32_t send :
           OverlapPlan::slice(plan.packed_out, blk.packed_out)) {
        const OverlapSend& agg = plan.sends[static_cast<std::size_t>(send)];
        key[static_cast<std::size_t>(i)] =
            std::min(key[static_cast<std::size_t>(i)],
                     (std::int64_t{agg.contributors} << 32) | agg.dst);
      }
      order[i] = i;
    }
    std::sort(order, order + w.blocks.size(),
              [&](std::int32_t a, std::int32_t b) {
                const std::int64_t ka = key[static_cast<std::size_t>(a)];
                const std::int64_t kb = key[static_cast<std::size_t>(b)];
                return ka != kb ? ka < kb : a < b;
              });
  }
}

OverlapPlan build_overlap_plan(const AmrMesh& mesh,
                               const Placement& placement,
                               std::span<const TimeNs> block_costs,
                               std::int32_t nranks,
                               const MessageSizeModel& sizes, bool pack,
                               double stage1_frac) {
  OverlapPlan plan;
  OverlapBuildScratch scratch;
  build_overlap_plan(mesh, placement, block_costs, nranks, sizes, pack,
                     stage1_frac, plan, scratch);
  return plan;
}

BspPlan two_stage_bsp_work(const AmrMesh& mesh, const Placement& placement,
                           std::span<const TimeNs> block_costs,
                           std::int32_t nranks, double stage1_frac,
                           const MessageSizeModel& sizes) {
  AMR_CHECK(stage1_frac > 0.0);
  return build_bsp_plan(mesh, placement, block_costs, nranks, sizes,
                        /*include_flux=*/false, /*pack=*/false,
                        TaskOrdering::kComputeFirst, stage1_frac);
}

/// One block slot's receives and progress this step: everything its
/// readiness and its release depend on, resolved by dst_tag with no
/// search, two to a cache line.
struct OverlapExecutor::BlockRecv {
  TimeNs t = 0;            ///< latest posted delivery time
  std::uint64_t key = 0;   ///< its dispatch key
  std::int32_t posted = 0;    ///< logical messages counted so far
  std::int32_t expected = 0;  ///< OverlapBlock::expected_recvs
  std::int32_t src = -1;   ///< its sender
  bool two_stage = false;
  bool stage1_done = false;
  bool done = false;
  bool wake_pending = false;  ///< a wake at (t, key) is queued
};

// Event tags: the rank's plain continuation is kContinue; a wake for a
// block's latest delivery slot (odd) and a block's compute completion
// (even, >= 2) carry the slot (rank-relative), so neither needs a field
// of its own.
namespace {
constexpr std::uint64_t kContinue = 0;
constexpr std::uint64_t wake_tag(std::int32_t slot) {
  return 2 * static_cast<std::uint64_t>(slot) + 1;
}
constexpr std::uint64_t done_tag(std::int32_t slot) {
  return 2 * static_cast<std::uint64_t>(slot) + 2;
}
constexpr bool is_wake_tag(std::uint64_t tag) { return (tag & 1) != 0; }
/// The slot a wake or completion tag carries.
constexpr std::int32_t tag_slot(std::uint64_t tag) {
  return static_cast<std::int32_t>((tag - 1) / 2);
}
}  // namespace

class alignas(64) OverlapExecutor::OverlapRankRuntime final
    : public RankEndpoint,
      public EventHandler {
 public:
  /// Runtimes live in one contiguous array owned by the executor, so
  /// they are default-constructed and then attached once. The comm keeps
  /// the endpoint pointer: a runtime never moves.
  OverlapRankRuntime() = default;
  OverlapRankRuntime(const OverlapRankRuntime&) = delete;
  OverlapRankRuntime& operator=(const OverlapRankRuntime&) = delete;
  static_assert(sizeof(BlockRecv) == 32);

  void attach(std::int32_t rank, const Context& ctx) {
    AMR_CHECK(ctx_ == nullptr && ctx.comm != nullptr);
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
#endif
    static_assert(offsetof(OverlapRankRuntime, copy_charged_) < 64,
                  "dispatch-hot fields must share the first cache line");
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif
    rank_ = rank;
    ctx_ = &ctx;
    ctx.comm->set_endpoint(rank, this);
  }

  /// Arm the rank for the step in ctx_ (plan, window, priority). Every
  /// block runs each stage once and every send posts once, so the
  /// counters the plan alone decides — compute and pack time, local and
  /// remote traffic, coalescing — are counted here; events add only the
  /// waits.
  void begin_step(TimeNs start) {
    const OverlapPlan& plan = *ctx_->plan;
    const OverlapRankPlan& rp = plan.ranks[static_cast<std::size_t>(rank_)];
    const ExecParams& params = ctx_->params;
    slot_begin_ = rp.blocks.begin;
    slot_end_ = rp.blocks.end;
    credit_begin_ = rp.credits.begin;
    credit_end_ = rp.credits.end;
    state_ = State::kIdle;
    copy_charged_ = false;
    max_send_release_ = start;
    armed_ = -1;
    stats_ = RankStepStats{};
    wait_start_ = start;

    for (std::int32_t s = slot_begin_; s < slot_end_; ++s) {
      const OverlapBlock& b = plan.blocks[static_cast<std::size_t>(s)];
      BlockRecv& rv = ctx_->recvs[s];
      rv = BlockRecv{};
      rv.expected = b.expected_recvs;
      rv.two_stage = b.stage2_compute > 0;
      stats_.compute_ns += b.compute + params.task_overhead;
      if (rv.two_stage)
        stats_.compute_ns += b.stage2_compute + params.task_overhead;
      // Aggregated arrivals are read in place (the plan fixes their
      // layout), so only the eager slice pays an unpack, once.
      stats_.pack_ns += pack_ns(b.recv_bytes - b.packed_recv_bytes);
    }
    const std::int32_t* const node_of = ctx_->node_of;
    const std::int32_t node = node_of[rank_];
    const OverlapRange sends = rp.sends();
    for (std::int32_t i = sends.begin; i < sends.end; ++i) {
      const OverlapSend& m = plan.sends[static_cast<std::size_t>(i)];
      stats_.pack_ns += send_task_ns(m);
      if (node_of[m.dst] == node) {
        ++stats_.msgs_local;
        stats_.bytes_local += m.bytes;
      } else {
        ++stats_.msgs_remote;
        stats_.bytes_remote += m.bytes;
      }
      stats_.msgs_coalesced += m.msgs - 1;
      if (m.msgs > 1) stats_.bytes_packed += m.bytes;
    }
    if (rp.local_copy_bytes > 0) stats_.pack_ns += copy_ns(rp.local_copy_bytes);

    // Up-front eager sends and the aggregates with no compute dependency
    // (previous-step ghosts) queue at step start; two-stage aggregates
    // arm their contributor countdown and launch from stage-1
    // completions. The queue occupies the rank's send run: every send is
    // queued exactly once.
    q_head_ = q_tail_ = sends.begin;
    for (std::int32_t i = rp.packed.begin; i < rp.packed.end; ++i)
      ctx_->remaining[i] = plan.sends[static_cast<std::size_t>(i)].contributors;
    push_group(rp.upfront.begin, rp.upfront.end, rp.packed,
               [&](std::int32_t i) {
                 return ctx_->remaining[i] == 0 ? i : -1;
               });

    // Critical-path compute priority: blocks feeding the predicted
    // critical rank (via an aggregate or an eager send) run first in
    // stage 1, so the messages it waits on launch as early as possible;
    // the grouped order is kept within each class.
    order_begin_ = -1;
    if (rp.order.empty()) return;
    order_begin_ = rp.order.begin;
    const std::int32_t prio = ctx_->priority_rank;
    if (prio < 0) return;
    const auto feeds = [&](std::int32_t slot) {
      const OverlapBlock& b =
          plan.blocks[static_cast<std::size_t>(slot_begin_ + slot)];
      for (std::int32_t o = b.packed_out.begin; o < b.packed_out.end; ++o)
        if (plan.sends[static_cast<std::size_t>(
                           plan.packed_out[static_cast<std::size_t>(o)])]
                .dst == prio)
          return true;
      for (std::int32_t i = b.sends.begin; i < b.sends.end; ++i)
        if (plan.sends[static_cast<std::size_t>(i)].dst == prio) return true;
      return false;
    };
    std::int32_t* out = ctx_->order + rp.order.begin;
    const std::int32_t* in = plan.stage1_order.data() + rp.order.begin;
    const std::int32_t n = rp.order.size();
    for (std::int32_t i = 0; i < n; ++i)
      if (feeds(in[i])) *out++ = in[i];
    for (std::int32_t i = 0; i < n; ++i)
      if (!feeds(in[i])) *out++ = in[i];
  }

  void start(Engine& engine) {
    AMR_CHECK(state_ == State::kIdle);
    state_ = State::kRunning;
    engine.schedule_at(engine.now(), this, kContinue);
  }

  bool step_done() const { return state_ == State::kDone; }
  const RankStepStats& stats() const { return stats_; }

  void on_event(Engine& engine, std::uint64_t tag) override {
    if (is_wake_tag(tag)) {
      on_wake(engine, tag_slot(tag));
      return;
    }
    switch (state_) {
      case State::kRunning:
        advance(engine);
        return;
      case State::kPostSend: {
        const OverlapSend& m = ctx_->plan->sends[static_cast<std::size_t>(
            ctx_->queue[q_head_])];
        const std::int32_t prio = ctx_->priority_rank;
        const TimeNs release =
            ctx_->comm->isend(rank_, m.dst, m.bytes, ctx_->window,
                              engine.now(), m.dst_tag, m.msgs,
                              prio >= 0 && m.dst == prio);
        max_send_release_ = std::max(max_send_release_, release);
        if (ctx_->tracer != nullptr)
          ctx_->tracer->instant(rank_, TraceCat::kSend, "isend",
                                engine.now(), m.bytes, m.dst);
        ++q_head_;
        state_ = State::kRunning;
        advance(engine);
        return;
      }
      case State::kInCopy:
        state_ = State::kRunning;
        advance(engine);
        return;
      case State::kComputingStage1: {
        const std::int32_t s = slot_begin_ + tag_slot(tag);
        BlockRecv& rv = ctx_->recvs[s];
        rv.stage1_done = true;
        if (!rv.two_stage) rv.done = true;
        finish_stage1(ctx_->plan->blocks[static_cast<std::size_t>(s)]);
        state_ = State::kRunning;
        advance(engine);
        return;
      }
      case State::kComputingStage2:
        ctx_->recvs[slot_begin_ + tag_slot(tag)].done = true;
        state_ = State::kRunning;
        advance(engine);
        return;
      case State::kWaitingSends:
        stats_.send_wait_ns += engine.now() - wait_start_;
        if (ctx_->tracer != nullptr)
          ctx_->tracer->end(rank_, TraceCat::kSendWait, "send-wait",
                            engine.now());
        enter_collective(engine);
        return;
      case State::kIdle:
      case State::kStalled:
      case State::kInCollective:
      case State::kDone:
        AMR_CHECK_MSG(false, "unexpected continuation event");
    }
  }

  void on_post(std::uint64_t window, TimeNs t, std::uint64_t key,
               std::int32_t src, std::int64_t dst_tag) override {
    AMR_CHECK_MSG(window == ctx_->window, "overlap message for another window");
    // The tag names the receiving slot (eager) or the start of the
    // sender's credit run (packed) outright: no search. A stalled rank
    // re-arms when this completes a block whose latest delivery lands
    // before its armed wake.
    BlockRecv* const recvs = ctx_->recvs;
    std::int32_t rearm = -1;
    const auto credit = [&](std::int32_t s, std::int32_t count) {
      BlockRecv& rv = recvs[s];
      const bool first = rv.posted == 0;
      rv.posted += count;
      AMR_CHECK_MSG(rv.posted <= rv.expected,
                    "more overlap arrivals than a block expects");
      if (first || t > rv.t || (t == rv.t && key > rv.key)) {
        rv.t = t;
        rv.key = key;
        rv.src = src;
      }
      if (state_ == State::kStalled && rv.posted == rv.expected &&
          (armed_ < 0 || earlier(rv, recvs[armed_])) &&
          (rearm < 0 || earlier(rv, recvs[rearm])))
        rearm = s;
    };
    if (is_packed_dst_tag(dst_tag)) {
      const std::int64_t begin = credit_begin_ + dst_tag / 2;
      const AggCredit* credits = ctx_->plan->credits.data();
      AMR_CHECK_MSG(dst_tag >= 0 && begin < credit_end_ &&
                        credits[begin].src_rank == src,
                    "packed arrival names no credit run of its sender");
      for (std::int64_t i = begin;
           i < credit_end_ && credits[i].src_rank == src; ++i)
        credit(slot_begin_ + credits[i].slot, credits[i].count);
    } else {
      AMR_CHECK_MSG(dst_tag >= 0 && dst_tag / 2 < slot_end_ - slot_begin_,
                    "eager arrival names no block slot on this rank");
      credit(slot_begin_ + static_cast<std::int32_t>(dst_tag / 2), 1);
    }
    if (rearm >= 0) arm(ctx_->comm->engine(), rearm);
  }

  void on_recvs_ready(std::uint64_t, TimeNs, std::int32_t) override {
    AMR_CHECK_MSG(false, "overlap runtime never blocks in wait_recvs");
  }

  void on_collective_done(std::uint64_t window, TimeNs t) override {
    AMR_CHECK(window == ctx_->window);
    AMR_CHECK(state_ == State::kInCollective);
    stats_.sync_ns += t - stats_.collective_entry;
    stats_.done_at = t;
    if (ctx_->tracer != nullptr)
      ctx_->tracer->end(rank_, TraceCat::kSync, "collective", t,
                        static_cast<std::int64_t>(window));
    state_ = State::kDone;
  }

 private:
  enum class State : std::uint8_t {
    kIdle,
    kRunning,
    kPostSend,
    kInCopy,
    kComputingStage1,
    kComputingStage2,
    kStalled,
    kWaitingSends,
    kInCollective,
    kDone,
  };

  static bool earlier(const BlockRecv& a, const BlockRecv& b) {
    return a.t < b.t || (a.t == b.t && a.key < b.key);
  }

  /// Every ghost of the block has landed: its count is complete and its
  /// latest delivery slot has dispatched.
  static bool ghosts_in(const Engine& engine, const BlockRecv& rv) {
    return rv.posted == rv.expected &&
           (rv.posted == 0 || engine.dispatched(rv.t, rv.key));
  }

  TimeNs pack_ns(std::int64_t bytes) const {
    return static_cast<TimeNs>(static_cast<double>(bytes) /
                               ctx_->params.pack_gbytes_per_sec);
  }

  TimeNs copy_ns(std::int64_t bytes) const {
    return static_cast<TimeNs>(static_cast<double>(bytes) /
                               ctx_->params.memcpy_gbytes_per_sec) +
           ctx_->params.task_overhead;
  }

  /// Per-peer aggregates are fused: each contributing block writes its
  /// ghost slab straight into the peer buffer as part of stage-1 compute
  /// (the plan fixes the layout up front), so by the time the last
  /// contributor finishes the aggregate is already packed and the launch
  /// pays only the post overhead. Eager per-pair sends have no pre-laid
  /// buffer and still pay the serial CPU pack.
  TimeNs send_task_ns(const OverlapSend& m) const {
    return (is_packed_dst_tag(m.dst_tag) ? 0 : pack_ns(m.bytes)) +
           ctx_->params.task_overhead;
  }

  /// Queue a group of sends: those in [begin, end) and the aggregates of
  /// `packed` that `ready` admits, in that order. A group is only ever
  /// queued onto an empty queue — sends drain before any compute starts,
  /// and groups are queued at step start and at stage-1 completions — so
  /// critical-path send priority (sends to the priority rank first,
  /// relative order otherwise kept) is a stable partition of the group,
  /// done here once instead of searching the queue at every dispatch.
  template <typename Ready>
  void push_group(std::int32_t begin, std::int32_t end, OverlapRange packed,
                  const Ready& ready) {
    AMR_CHECK_MSG(q_head_ == q_tail_, "send group queued behind pending sends");
    const auto& sends = ctx_->plan->sends;
    const std::int32_t prio = ctx_->priority_rank;
    std::int32_t* const queue = ctx_->queue;
    const auto push = [&](bool to_prio) {
      for (std::int32_t i = begin; i < end; ++i)
        if ((sends[static_cast<std::size_t>(i)].dst == prio) == to_prio)
          queue[q_tail_++] = i;
      for (std::int32_t i = packed.begin; i < packed.end; ++i) {
        const std::int32_t send = ready(i);
        if (send >= 0 &&
            (sends[static_cast<std::size_t>(send)].dst == prio) == to_prio)
          queue[q_tail_++] = send;
      }
    };
    if (prio >= 0) push(true);
    push(false);
  }

  /// Stage 1 of a block finished: queue its eager sends and every
  /// aggregate for which it was the last outstanding contributor.
  void finish_stage1(const OverlapBlock& b) {
    const auto& packed_out = ctx_->plan->packed_out;
    for (std::int32_t o = b.packed_out.begin; o < b.packed_out.end; ++o)
      --ctx_->remaining[packed_out[static_cast<std::size_t>(o)]];
    push_group(b.sends.begin, b.sends.end, b.packed_out, [&](std::int32_t o) {
      const std::int32_t send = packed_out[static_cast<std::size_t>(o)];
      return ctx_->remaining[send] == 0 ? send : -1;
    });
  }

  /// Point the rank's one live wake at slot `s`'s latest delivery slot.
  /// A superseded wake stays queued and is dropped when it dispatches;
  /// an arm at a delivery slot that already holds a pending wake revives
  /// that one instead of scheduling a second event there.
  void arm(Engine& engine, std::int32_t s) {
    BlockRecv& rv = ctx_->recvs[s];
    AMR_CHECK(!engine.dispatched(rv.t, rv.key));
    armed_ = s;
    for (std::int32_t j = slot_begin_; j < slot_end_; ++j) {
      const BlockRecv& other = ctx_->recvs[j];
      if (other.wake_pending && other.t == rv.t && other.key == rv.key)
        return;
    }
    rv.wake_pending = true;
    engine.schedule_keyed(rv.t, rv.key, this, wake_tag(s - slot_begin_));
  }

  /// A wake dispatched in its block's latest delivery slot: resume the
  /// stalled rank there, released by that delivery's sender. A wake that
  /// is not the live one (its slot differs from the armed block's) is
  /// dropped.
  void on_wake(Engine& engine, std::int32_t slot) {
    BlockRecv& woken = ctx_->recvs[slot_begin_ + slot];
    woken.wake_pending = false;
    if (armed_ < 0) return;
    const BlockRecv& armed = ctx_->recvs[armed_];
    if (woken.t != armed.t || woken.key != armed.key) return;
    AMR_CHECK(state_ == State::kStalled);
    armed_ = -1;
    const TimeNs t = engine.now();
    stats_.recv_wait_ns += t - wait_start_;
    stats_.last_release_src = armed.src;
    if (ctx_->tracer != nullptr)
      ctx_->tracer->end(rank_, TraceCat::kRecvWait, "stall", t, armed.src);
    state_ = State::kRunning;
    advance(engine);
  }

  /// Stall: arm a wake at the earliest latest slot among blocks whose
  /// count is complete. (Every block still to run waits on ghosts here,
  /// and none of those with a complete count has landed yet.) With no
  /// such block the next completing on_post arms it.
  void stall(Engine& engine) {
    wait_start_ = engine.now();
    state_ = State::kStalled;
    if (ctx_->tracer != nullptr)
      ctx_->tracer->begin(rank_, TraceCat::kRecvWait, "stall", engine.now());
    std::int32_t first = -1;
    for (std::int32_t s = slot_begin_; s < slot_end_; ++s) {
      const BlockRecv& rv = ctx_->recvs[s];
      if (!rv.done && rv.posted == rv.expected &&
          (first < 0 || earlier(rv, ctx_->recvs[first])))
        first = s;
    }
    if (first >= 0) arm(engine, first);
  }

  void enter_collective(Engine& engine) {
    state_ = State::kInCollective;
    stats_.collective_entry = engine.now();
    if (ctx_->tracer != nullptr)
      ctx_->tracer->begin(rank_, TraceCat::kSync, "collective", engine.now(),
                          static_cast<std::int64_t>(ctx_->window));
    ctx_->comm->enter_collective(ctx_->window, rank_, engine.now());
  }

  /// Start the compute of slot `s` (absolute): stage 1, or stage 2 once
  /// its ghosts are in. The ghost-consuming stage charges the unpack of
  /// the eager slice (aggregated ghosts are consumed in place).
  void run_block(Engine& engine, std::int32_t s, bool stage2) {
    const OverlapBlock& b = ctx_->plan->blocks[static_cast<std::size_t>(s)];
    const bool consumes = stage2 || b.stage2_compute == 0;
    const TimeNs unpack =
        consumes ? pack_ns(b.recv_bytes - b.packed_recv_bytes) : 0;
    const TimeNs d = (stage2 ? b.stage2_compute : b.compute) + unpack +
                     ctx_->params.task_overhead;
    state_ = stage2 ? State::kComputingStage2 : State::kComputingStage1;
    if (ctx_->tracer != nullptr)
      ctx_->tracer->complete(
          rank_, TraceCat::kCompute,
          stage2 ? "compute-s2"
                 : (b.stage2_compute > 0 ? "compute-s1" : "compute"),
          engine.now(), d, b.block, b.recv_bytes);
    engine.schedule_after(d, this, done_tag(s - slot_begin_));
  }

  void advance(Engine& engine) {
    // Priority 1: drain pending sends (unblocks remote ranks).
    if (q_head_ < q_tail_) {
      const OverlapSend& m = ctx_->plan->sends[static_cast<std::size_t>(
          ctx_->queue[q_head_])];
      const TimeNs pack = send_task_ns(m);
      state_ = State::kPostSend;
      if (ctx_->tracer != nullptr)
        ctx_->tracer->complete(rank_, TraceCat::kPack,
                               is_packed_dst_tag(m.dst_tag) ? "launch"
                                                            : "pack",
                               engine.now(), pack, m.bytes, m.dst);
      engine.schedule_after(pack, this, kContinue);
      return;
    }
    // Priority 2: intra-rank ghost copies, once.
    if (!copy_charged_) {
      copy_charged_ = true;
      const OverlapRankPlan& rp =
          ctx_->plan->ranks[static_cast<std::size_t>(rank_)];
      if (rp.local_copy_bytes > 0) {
        const TimeNs copy = copy_ns(rp.local_copy_bytes);
        state_ = State::kInCopy;
        if (ctx_->tracer != nullptr)
          ctx_->tracer->complete(rank_, TraceCat::kPack, "local-copy",
                                 engine.now(), copy, rp.local_copy_bytes,
                                 rp.local_copy_msgs);
        engine.schedule_after(copy, this, kContinue);
        return;
      }
    }
    // Priority 3: stage-1 work (produces sends others wait on), walked
    // in the plan's aggregate-grouped order when it has one.
    const BlockRecv* const recvs = ctx_->recvs;
    const std::int32_t* order =
        order_begin_ < 0 ? nullptr
                         : (ctx_->priority_rank >= 0
                                ? ctx_->order
                                : ctx_->plan->stage1_order.data()) +
                               order_begin_;
    const std::int32_t nslots = slot_end_ - slot_begin_;
    for (std::int32_t i = 0; i < nslots; ++i) {
      const std::int32_t s = slot_begin_ + (order != nullptr ? order[i] : i);
      const BlockRecv& rv = recvs[s];
      if (rv.stage1_done || !(rv.two_stage || ghosts_in(engine, rv)))
        continue;
      run_block(engine, s, /*stage2=*/false);
      return;
    }
    // Priority 4: ready stage-2 work.
    bool left = false;
    for (std::int32_t s = slot_begin_; s < slot_end_; ++s) {
      const BlockRecv& rv = recvs[s];
      if (rv.done) continue;
      left = true;
      if (!rv.stage1_done || !ghosts_in(engine, rv)) continue;
      run_block(engine, s, /*stage2=*/true);
      return;
    }
    // Nothing runnable: stall until a message readies a block.
    if (left) {
      stall(engine);
      return;
    }
    // All blocks done: drain send requests, then the collective.
    if (max_send_release_ > engine.now()) {
      wait_start_ = engine.now();
      state_ = State::kWaitingSends;
      if (ctx_->tracer != nullptr)
        ctx_->tracer->begin(rank_, TraceCat::kSendWait, "send-wait",
                            engine.now());
      engine.schedule_at(max_send_release_, this, kContinue);
      return;
    }
    enter_collective(engine);
  }

  // Hot: read by every dispatch and by on_post. With the two vtable
  // pointers these fill the first 64-byte line (checked in attach()).
  const Context* ctx_ = nullptr;
  TimeNs max_send_release_ = 0;
  std::int32_t rank_ = -1;
  std::int32_t slot_begin_ = 0;  ///< into plan blocks and ctx recvs
  std::int32_t slot_end_ = 0;
  std::int32_t credit_begin_ = 0;  ///< into plan credits
  std::int32_t credit_end_ = 0;
  std::int32_t q_head_ = 0;  ///< pending sends: ctx queue [q_head_, q_tail_)
  std::int32_t q_tail_ = 0;
  State state_ = State::kIdle;
  bool copy_charged_ = false;

  // Cold: touched at step set-up, stalls, wakes and under tracing.
  std::int32_t armed_ = -1;        ///< slot the live wake is for; -1 = none
  std::int32_t order_begin_ = -1;  ///< stage-1 order; -1 = slot order
  TimeNs wait_start_ = 0;
  RankStepStats stats_;
};

OverlapExecutor::OverlapExecutor(Engine& engine, Comm& comm,
                                 ExecParams params, Tracer* tracer)
    : engine_(engine),
      comm_(comm),
      tracer_(tracer),
      ctx_{&comm, params, tracer},
      runtimes_(static_cast<std::size_t>(comm.nranks())),
      node_of_(runtimes_.size()) {
  const ClusterTopology& topo = comm.fabric().topology();
  for (std::size_t r = 0; r < runtimes_.size(); ++r) {
    node_of_[r] = topo.node_of(static_cast<std::int32_t>(r));
    runtimes_[r].attach(static_cast<std::int32_t>(r), ctx_);
  }
  ctx_.node_of = node_of_.data();
}

OverlapExecutor::~OverlapExecutor() = default;

StepResult OverlapExecutor::execute(const OverlapPlan& plan,
                                    std::uint64_t window,
                                    std::int32_t priority_rank) {
  AMR_CHECK(plan.nranks() == runtimes_.size());
  StepResult result;
  result.step_start = engine_.now();

  recvs_.resize(plan.blocks.size());
  queue_.resize(plan.sends.size());
  remaining_.resize(plan.sends.size());
  order_.resize(plan.stage1_order.size());
  ctx_.plan = &plan;
  ctx_.recvs = recvs_.data();
  ctx_.queue = queue_.data();
  ctx_.remaining = remaining_.data();
  ctx_.order = order_.data();
  ctx_.window = window;
  ctx_.priority_rank = priority_rank;

  comm_.begin_exchange(window, plan.expected_recvs);

  for (OverlapRankRuntime& rt : runtimes_) {
    rt.begin_step(result.step_start);
    rt.start(engine_);
  }
  engine_.run();

  result.ranks.reserve(runtimes_.size());
  for (const OverlapRankRuntime& rt : runtimes_) {
    AMR_CHECK_MSG(rt.step_done(), "rank did not complete overlap step");
    result.ranks.push_back(rt.stats());
  }
  AMR_CHECK(comm_.exchange_complete(window));
  comm_.end_exchange(window);
  result.step_end = engine_.now();
  if (tracer_ != nullptr)
    tracer_->complete(Tracer::kTrackSim, TraceCat::kStep, "step",
                      result.step_start, result.wall_ns(),
                      static_cast<std::int64_t>(window),
                      /*b=*/-1);  // overlap steps carry no TaskOrdering
  return result;
}

}  // namespace amr
