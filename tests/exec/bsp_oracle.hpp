// Test-local reference for the flat BSP plan (amr/exec/work.hpp).
//
// BspPlan replaced a nested per-rank description — vectors of computes
// and sends per rank — that a rank runtime expanded into its task list
// at the start of every step. This header keeps a copy of that nested
// description, of its builder and of the runtime's expansion, for two
// uses: they are the oracle for the flat builder's task order (every
// ordering, with and without packing, flux, two-stage and send
// priority), and make_bsp_plan() turns hand-written per-rank lists into
// a plan.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "amr/common/check.hpp"
#include "amr/exec/work.hpp"

namespace amr::oracle {

struct Send {
  std::int32_t dst_rank = -1;
  std::int64_t bytes = 0;
  std::int32_t src_block = -1;  ///< first contributing block
  std::int32_t msgs = 1;        ///< logical messages carried
};

struct Compute {
  std::int32_t block = -1;
  TimeNs duration = 0;
};

/// One rank's step, nested.
struct RankWork {
  std::vector<Compute> computes;
  std::vector<Compute> computes_after_wait;  ///< after the receive wait
  std::vector<Send> sends;
  std::int64_t local_copy_bytes = 0;
  std::int64_t local_copy_msgs = 0;
  std::int32_t expected_recvs = 0;
  std::int64_t recv_bytes = 0;
};

/// The nested builder, in one pass: with `pack`, a message to a
/// destination the rank already sends to folds into that transfer.
inline std::vector<RankWork> nested_work(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    const MessageSizeModel& sizes = {}, bool include_flux = false,
    bool pack = false) {
  AMR_CHECK(placement.size() == mesh.size());
  std::vector<RankWork> work(static_cast<std::size_t>(nranks));
  const auto& lists = mesh.neighbor_lists();
  for (std::size_t b = 0; b < mesh.size(); ++b) {
    const std::int32_t src = placement[b];
    auto& w = work[static_cast<std::size_t>(src)];
    w.computes.push_back(
        Compute{static_cast<std::int32_t>(b), block_costs[b]});
    for (const Neighbor& n : lists[b]) {
      const std::int32_t dst = placement[static_cast<std::size_t>(n.index)];
      auto emit = [&](std::int64_t bytes) {
        if (dst == src) {
          w.local_copy_bytes += bytes;
          ++w.local_copy_msgs;
          return;
        }
        work[static_cast<std::size_t>(dst)].recv_bytes += bytes;
        if (pack) {
          for (auto it = w.sends.rbegin(); it != w.sends.rend(); ++it) {
            if (it->dst_rank == dst) {
              it->bytes += bytes;
              ++it->msgs;
              return;
            }
          }
        }
        w.sends.push_back(Send{dst, bytes, static_cast<std::int32_t>(b), 1});
        ++work[static_cast<std::size_t>(dst)].expected_recvs;
      };
      emit(sizes.bytes(n.kind));
      if (include_flux && n.kind == NeighborKind::kFace &&
          n.level_diff == -1)
        emit(sizes.flux_bytes());
    }
  }
  return work;
}

/// The nested two-stage rendering: each compute keeps `stage1_frac` of
/// its cost before the wait and the rest after it.
inline std::vector<RankWork> nested_two_stage(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    double stage1_frac, const MessageSizeModel& sizes = {}) {
  auto work = nested_work(mesh, placement, block_costs, nranks, sizes);
  for (auto& w : work) {
    for (auto& c : w.computes) {
      const auto stage1 = static_cast<TimeNs>(
          static_cast<double>(c.duration) * stage1_frac);
      w.computes_after_wait.push_back(Compute{c.block, c.duration - stage1});
      c.duration = stage1;
    }
  }
  return work;
}

/// A rank's task list as the runtime expanded it at the start of a
/// step: the ordering places the sends (priority target's first, order
/// otherwise kept) and the local copy before or after the computes;
/// then the receive wait, the unpack, the after-wait computes and the
/// send wait.
inline std::vector<BspTask> expand(const RankWork& w, TaskOrdering ordering,
                                   std::int32_t priority_rank = -1) {
  std::vector<BspTask> tasks;
  auto add_send = [&](const Send& m) {
    tasks.push_back(BspTask{m.bytes, m.dst_rank,
                            static_cast<std::uint16_t>(m.msgs),
                            BspTaskKind::kPackSend});
  };
  auto add_sends = [&] {
    if (priority_rank >= 0)
      for (const Send& m : w.sends)
        if (m.dst_rank == priority_rank) add_send(m);
    for (const Send& m : w.sends)
      if (m.dst_rank != priority_rank) add_send(m);
    if (w.local_copy_bytes > 0)
      tasks.push_back(
          BspTask{w.local_copy_bytes, -1, 1, BspTaskKind::kLocalCopy});
  };
  auto add_computes = [&](const std::vector<Compute>& computes) {
    for (const Compute& c : computes)
      tasks.push_back(BspTask{c.duration, c.block, 1, BspTaskKind::kCompute});
  };
  if (ordering == TaskOrdering::kSendFirst) {
    add_sends();
    add_computes(w.computes);
  } else {
    add_computes(w.computes);
    add_sends();
  }
  tasks.push_back(BspTask{0, -1, 1, BspTaskKind::kWaitRecvs});
  if (w.recv_bytes > 0)
    tasks.push_back(BspTask{w.recv_bytes, -1, 1, BspTaskKind::kUnpack});
  add_computes(w.computes_after_wait);
  tasks.push_back(BspTask{0, -1, 1, BspTaskKind::kWaitSends});
  return tasks;
}

/// The flat plan of nested per-rank work: each rank's expansion (no
/// send priority) with its ranges and counters.
inline BspPlan make_bsp_plan(std::span<const RankWork> work,
                             TaskOrdering ordering = TaskOrdering::kSendFirst) {
  BspPlan plan;
  plan.clear();
  plan.ordering = ordering;
  for (const RankWork& w : work) {
    BspRankPlan rp;
    rp.tasks.begin = static_cast<std::int32_t>(plan.tasks.size());
    rp.local_copy_msgs = w.local_copy_msgs;
    bool waited = false;
    for (const BspTask& t : expand(w, ordering)) {
      const auto at = static_cast<std::int32_t>(plan.tasks.size());
      plan.tasks.push_back(t);
      if (t.kind == BspTaskKind::kWaitRecvs) waited = true;
      if (t.kind == BspTaskKind::kCompute) {
        PlanRange& r = waited ? rp.computes_after_wait : rp.computes;
        if (r.empty()) r.begin = at;
        r.end = at + 1;
        rp.compute_ns += t.value;
      }
      if (t.kind == BspTaskKind::kPackSend) {
        if (rp.sends.empty()) rp.sends.begin = at;
        rp.sends.end = at + 1;
        rp.msgs_coalesced += t.msgs - 1;
        if (t.msgs > 1) rp.bytes_packed += t.value;
      }
    }
    rp.tasks.end = static_cast<std::int32_t>(plan.tasks.size());
    // An empty range sits where that kind of task would have gone.
    const std::int32_t wait = [&] {
      for (std::int32_t i = rp.tasks.begin; i < rp.tasks.end; ++i)
        if (plan.tasks[static_cast<std::size_t>(i)].kind ==
            BspTaskKind::kWaitRecvs)
          return i;
      return rp.tasks.end;
    }();
    if (rp.computes_after_wait.empty())
      rp.computes_after_wait = {rp.tasks.end - 1, rp.tasks.end - 1};
    const std::int32_t copy = w.local_copy_bytes > 0 ? 1 : 0;
    if (ordering == TaskOrdering::kSendFirst) {
      if (rp.sends.empty()) rp.sends = {rp.tasks.begin, rp.tasks.begin};
      if (rp.computes.empty()) rp.computes = {wait, wait};
    } else {
      if (rp.computes.empty())
        rp.computes = {rp.tasks.begin, rp.tasks.begin};
      if (rp.sends.empty()) rp.sends = {wait - copy, wait - copy};
    }
    plan.ranks.push_back(rp);
    plan.expected_recvs.push_back(w.expected_recvs);
  }
  return plan;
}

}  // namespace amr::oracle
