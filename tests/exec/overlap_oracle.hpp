// Test-local reference for the overlap plan builder (amr/exec/overlap.hpp).
//
// The builder once copied every cross-rank message of the step into one
// list grouped by source rank, and kept a record per (src, dst) rank
// pair, so its scratch grew with the step's message count. It now
// gathers one source's messages at a time and keeps pair totals only for
// the current source. This header keeps the materialized-message
// builder, unchanged, as the oracle: both must produce equal plans in
// every field (tests/exec/plan_cache_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "amr/common/check.hpp"
#include "amr/exec/overlap.hpp"

namespace amr::oracle {

/// Working arrays of the materialized builder: every message of the
/// step and every (src, dst) pair at once.
struct MaterializedScratch {
  /// One cross-rank boundary message, grouped by source rank in
  /// emission order (slot, then neighbor).
  struct Msg {
    std::int64_t bytes;
    std::int32_t dst;       ///< destination rank
    std::int32_t dst_slot;  ///< into OverlapPlan::blocks
    std::int32_t src_slot;  ///< into OverlapPlan::blocks
  };
  /// One (src, dst) rank pair's step totals and pack decision.
  struct Pair {
    std::int64_t bytes = 0;
    std::int32_t dst = -1;
    std::int32_t msgs = 0;
    std::int32_t contributors = 0;
    std::int32_t send = -1;       ///< the aggregate, into sends
    std::int32_t last_src = -1;   ///< producer slot last counted
    bool packed = false;
  };
  std::vector<std::int32_t> slot_of_block;  ///< into OverlapPlan::blocks
  std::vector<Msg> msgs;
  std::vector<std::int32_t> msg_begin;   ///< per source rank, + 1
  std::vector<Pair> pairs;
  std::vector<std::int32_t> pair_begin;  ///< per source rank, + 1
  std::vector<std::int32_t> pair_of_dst;  ///< current source's pairs
  std::vector<std::int32_t> credit_src;   ///< per slot: last crediting src
  std::vector<std::int32_t> credit_at;    ///< per slot: its credit index
  std::vector<std::int32_t> cursor;       ///< per rank fill position
  std::vector<std::int64_t> order_key;    ///< stage-1 order sort keys
};

// Counted passes over flat scratch: slots, then the cross-rank messages
// grouped by source, then per-pair pack decisions with every array's
// per-rank and per-block sizes counted, then prefix sums into ranges,
// then the fill. Receivers' credits are appended in source order, so a
// per-slot marker (the last source that credited it) finds a source's
// credit for a slot in O(1); a block's messages are contiguous, so a
// per-pair marker (the last producer counted) de-duplicates its
// aggregates.
inline void materialized_overlap_plan(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    const MessageSizeModel& sizes, bool pack, double stage1_frac,
    OverlapPlan& plan, MaterializedScratch& sc) {
  using Msg = MaterializedScratch::Msg;
  using Pair = MaterializedScratch::Pair;
  AMR_CHECK(placement.size() == mesh.size());
  AMR_CHECK(block_costs.size() == mesh.size());
  AMR_CHECK(stage1_frac >= 0.0 && stage1_frac < 1.0);
  const bool two_stage = stage1_frac > 0.0;
  const auto nr = static_cast<std::size_t>(nranks);
  const std::size_t nblocks = mesh.size();
  plan = OverlapPlan{};
  plan.ranks.resize(nr);
  plan.blocks.resize(nblocks);
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

  // Cross-rank messages per source rank in emission order (slot, then
  // neighbor); local copies are charged here.
  const auto& lists = mesh.neighbor_lists();
  sc.msgs.clear();
  sc.msg_begin.resize(nr + 1);
  for (std::size_t r = 0; r < nr; ++r) {
    sc.msg_begin[r] = static_cast<std::int32_t>(sc.msgs.size());
    OverlapRankPlan& w = ranks[r];
    for (std::int32_t s = w.blocks.begin; s < w.blocks.end; ++s) {
      const auto b = static_cast<std::size_t>(
          blocks[static_cast<std::size_t>(s)].block);
      for (const Neighbor& n : lists[b]) {
        const auto ni = static_cast<std::size_t>(n.index);
        const std::int32_t dst = placement[ni];
        const std::int64_t bytes = sizes.bytes(n.kind);
        if (static_cast<std::size_t>(dst) == r) {
          w.local_copy_bytes += bytes;
          ++w.local_copy_msgs;
          continue;
        }
        sc.msgs.push_back(Msg{bytes, dst, sc.slot_of_block[ni], s});
      }
    }
  }
  // Every index range below is 32-bit; sends, credits and aggregate
  // references each number at most one per message.
  AMR_CHECK(sc.msgs.size() <= static_cast<std::size_t>(INT32_MAX));
  sc.msg_begin[nr] = static_cast<std::int32_t>(sc.msgs.size());
  const auto msgs_of = [&](std::size_t r) {
    return std::span<const Msg>(sc.msgs).subspan(
        static_cast<std::size_t>(sc.msg_begin[r]),
        static_cast<std::size_t>(sc.msg_begin[r + 1] - sc.msg_begin[r]));
  };

  // Per-pair totals drive the eager/pack split. Counts land in the
  // ranges' `end` fields until the prefix pass turns them into ranges;
  // per-block gating stays logical whether or not a message rides an
  // aggregate (a packed arrival credits every destination block).
  sc.pairs.clear();
  sc.pair_begin.resize(nr + 1);
  sc.pair_of_dst.assign(nr, -1);
  sc.credit_src.assign(nblocks, -1);
  const auto pair_for = [&](std::int32_t dst) -> Pair* {
    if (!pack) return nullptr;
    return &sc.pairs[static_cast<std::size_t>(
        sc.pair_of_dst[static_cast<std::size_t>(dst)])];
  };
  for (std::size_t src = 0; src < nr; ++src) {
    const auto first_pair = static_cast<std::int32_t>(sc.pairs.size());
    sc.pair_begin[src] = first_pair;
    OverlapRankPlan& w = ranks[src];
    const auto msgs = msgs_of(src);
    if (pack) {
      for (const Msg& m : msgs) {
        std::int32_t& idx = sc.pair_of_dst[static_cast<std::size_t>(m.dst)];
        if (idx < 0) {
          idx = static_cast<std::int32_t>(sc.pairs.size());
          sc.pairs.push_back(Pair{});
          sc.pairs.back().dst = m.dst;
        }
        Pair& p = sc.pairs[static_cast<std::size_t>(idx)];
        ++p.msgs;
        p.bytes += m.bytes;
      }
      for (std::size_t i = static_cast<std::size_t>(first_pair);
           i < sc.pairs.size(); ++i) {
        Pair& p = sc.pairs[i];
        p.packed = p.msgs >= 2;
        if (!p.packed) continue;
        ++w.packed.end;
        ++expected[static_cast<std::size_t>(p.dst)];
      }
    }
    for (const Msg& m : msgs) {
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
        ++p->contributors;
        ++blocks[static_cast<std::size_t>(m.src_slot)].packed_out.end;
      }
    }
    for (std::size_t i = static_cast<std::size_t>(first_pair);
         i < sc.pairs.size(); ++i) {
      sc.pair_of_dst[static_cast<std::size_t>(sc.pairs[i].dst)] = -1;
      sc.pairs[i].last_src = -1;
    }
  }
  sc.pair_begin[nr] = static_cast<std::int32_t>(sc.pairs.size());

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
  plan.sends.resize(static_cast<std::size_t>(send_at));
  plan.credits.resize(static_cast<std::size_t>(credit_at));
  plan.packed_out.resize(static_cast<std::size_t>(out_at));
  plan.stage1_order.resize(static_cast<std::size_t>(order_at));

  // Fill, in the same message order. Eager sends of a source land in
  // emission order whether the rank (single-stage) or the producing
  // block (two-stage) owns them; an aggregate lands at its pair's first
  // message, tagged with where its source's credit run starts.
  for (std::size_t r = 0; r < nr; ++r) sc.cursor[r] = ranks[r].credits.begin;
  sc.credit_src.assign(nblocks, -1);
  sc.credit_at.resize(nblocks);
  out_at = 0;
  for (std::size_t src = 0; src < nr; ++src) {
    const OverlapRankPlan& w = ranks[src];
    if (pack) {
      for (std::int32_t i = sc.pair_begin[src]; i < sc.pair_begin[src + 1];
           ++i)
        sc.pair_of_dst[static_cast<std::size_t>(
            sc.pairs[static_cast<std::size_t>(i)].dst)] = i;
    }
    std::int32_t eager_at = w.upfront.begin;
    std::int32_t packed_at = w.packed.begin;
    for (const Msg& m : msgs_of(src)) {
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
                        packed_dst_tag(cursor - dw.credits.begin),
                        p->contributors};
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
        plan.packed_out[static_cast<std::size_t>(out_at++)] = p->send;
      }
    }
    if (pack) {
      for (std::int32_t i = sc.pair_begin[src]; i < sc.pair_begin[src + 1];
           ++i)
        sc.pair_of_dst[static_cast<std::size_t>(
            sc.pairs[static_cast<std::size_t>(i)].dst)] = -1;
    }
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

/// The same build into fresh storage.
inline OverlapPlan materialized_overlap_plan(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    const MessageSizeModel& sizes, bool pack, double stage1_frac) {
  OverlapPlan plan;
  MaterializedScratch scratch;
  materialized_overlap_plan(mesh, placement, block_costs, nranks, sizes,
                            pack, stage1_frac, plan, scratch);
  return plan;
}

}  // namespace amr::oracle
