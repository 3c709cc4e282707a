#include "amr/exec/work.hpp"

#include <atomic>

#include "amr/common/capacity.hpp"
#include "amr/common/check.hpp"

namespace amr {

namespace {

/// Call `f(dst_rank, bytes)` for every boundary message of `block`, in
/// neighbor order: the ghost message, then (with flux) the flux
/// correction a fine block owes a coarser face neighbor.
template <typename F>
void for_each_msg(const NeighborTable& lists,
                  const Placement& placement, std::int32_t block,
                  const MessageSizeModel& sizes, bool include_flux, F&& f) {
  for (const Neighbor& n : lists[static_cast<std::size_t>(block)]) {
    const std::int32_t dst = placement[static_cast<std::size_t>(n.index)];
    f(dst, sizes.bytes(n.kind));
    if (include_flux && n.kind == NeighborKind::kFace && n.level_diff == -1)
      f(dst, sizes.flux_bytes());
  }
}

}  // namespace

void BspPlan::clear() {
  static std::atomic<std::uint64_t> next_serial{1};
  ranks.clear();
  tasks.clear();
  expected_recvs.clear();
  serial = next_serial.fetch_add(1, std::memory_order_relaxed);
}

std::size_t BspPlan::bytes() const {
  return capacity_bytes(ranks, tasks, expected_recvs);
}

std::size_t BspBuildScratch::bytes() const {
  return capacity_bytes(rank_begin, rank_blocks, recv_bytes, pairs, touched);
}

std::int64_t BspPlan::bytes_of(std::size_t rank, BspTaskKind kind) const {
  std::int64_t sum = 0;
  for (const BspTask& t : tasks_of(rank))
    if (t.kind == kind) sum += t.value;
  return sum;
}

void set_bsp_costs(BspPlan& plan, std::span<const TimeNs> block_costs) {
  const double frac = plan.stage1_frac;
  auto cost_of = [&](const BspTask& t) {
    return block_costs[static_cast<std::size_t>(t.dst)];
  };
  BspTask* const tasks = plan.tasks.data();
  for (BspRankPlan& rp : plan.ranks) {
    TimeNs sum = 0;
    if (frac > 0.0) {
      AMR_CHECK(rp.computes.size() == rp.computes_after_wait.size());
      for (std::int32_t i = 0; i < rp.computes.size(); ++i) {
        BspTask& stage1 = tasks[rp.computes.begin + i];
        BspTask& stage2 = tasks[rp.computes_after_wait.begin + i];
        const TimeNs cost = cost_of(stage1);
        stage1.value =
            static_cast<TimeNs>(static_cast<double>(cost) * frac);
        stage2.value = cost - stage1.value;
        sum += cost;
      }
    } else {
      for (const PlanRange r : {rp.computes, rp.computes_after_wait}) {
        for (std::int32_t i = r.begin; i < r.end; ++i) {
          tasks[i].value = cost_of(tasks[i]);
          sum += tasks[i].value;
        }
      }
    }
    rp.compute_ns = sum;
  }
}

// Blocks are grouped by rank (a counting sort), each rank's incoming
// volume is summed in one pass over the neighbor lists, and then each
// rank's run is appended in rank order, in execution order. A packing
// rank's messages are walked twice: once for the per-destination
// totals the pack decision needs, once to emit.
void build_bsp_plan(const AmrMesh& mesh, const Placement& placement,
                    std::span<const TimeNs> block_costs, std::int32_t nranks,
                    const MessageSizeModel& sizes, bool include_flux,
                    bool pack, TaskOrdering ordering,
                    double stage1_frac, BspPlan& plan,
                    BspBuildScratch& sc) {
  using Pair = BspBuildScratch::Pair;
  AMR_CHECK(placement.size() == mesh.size());
  AMR_CHECK(block_costs.size() == mesh.size());
  AMR_CHECK(stage1_frac >= 0.0 && stage1_frac < 1.0);
  const auto nr = static_cast<std::size_t>(nranks);
  const std::size_t nblocks = mesh.size();
  plan.clear();
  plan.ranks.resize(nr);
  plan.expected_recvs.assign(nr, 0);
  plan.ordering = ordering;
  plan.stage1_frac = stage1_frac;

  // Each rank's blocks, in block order.
  sc.rank_begin.assign(nr + 1, 0);
  for (std::size_t b = 0; b < nblocks; ++b) {
    AMR_CHECK(placement[b] >= 0 && placement[b] < nranks);
    ++sc.rank_begin[static_cast<std::size_t>(placement[b]) + 1];
  }
  for (std::size_t r = 0; r < nr; ++r)
    sc.rank_begin[r + 1] += sc.rank_begin[r];
  sc.rank_blocks.resize(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b)
    sc.rank_blocks[static_cast<std::size_t>(
        sc.rank_begin[static_cast<std::size_t>(placement[b])]++)] =
        static_cast<std::int32_t>(b);
  // The fill advanced every begin to the next rank's: shift back.
  for (std::size_t r = nr; r > 0; --r) sc.rank_begin[r] = sc.rank_begin[r - 1];
  sc.rank_begin[0] = 0;

  const NeighborTable& lists = mesh.neighbor_lists();
  sc.recv_bytes.assign(nr, 0);
  std::size_t remote_msgs = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::int32_t src = placement[b];
    for_each_msg(lists, placement, static_cast<std::int32_t>(b), sizes,
                 include_flux, [&](std::int32_t dst, std::int64_t bytes) {
                   if (dst == src) return;
                   sc.recv_bytes[static_cast<std::size_t>(dst)] += bytes;
                   ++remote_msgs;
                 });
  }
  // An upper bound on the task count (exact but for absent copies and
  // unpacks when nothing packs), so the array never grows by doubling.
  reserve_fresh(plan.tasks,
                remote_msgs + nblocks * (stage1_frac > 0.0 ? 2 : 1) + 4 * nr);

  if (pack) sc.pairs.assign(nr, Pair{});
  auto& tasks = plan.tasks;
  const auto at = [&] { return static_cast<std::int32_t>(tasks.size()); };

  for (std::size_t r = 0; r < nr; ++r) {
    BspRankPlan& rp = plan.ranks[r];
    const auto rank = static_cast<std::int32_t>(r);
    const std::span<const std::int32_t> blocks(
        sc.rank_blocks.data() + sc.rank_begin[r],
        static_cast<std::size_t>(sc.rank_begin[r + 1] - sc.rank_begin[r]));
    const auto each_msg = [&](auto&& f) {
      for (const std::int32_t b : blocks)
        for_each_msg(lists, placement, b, sizes, include_flux, f);
    };
    const auto computes = [&] {
      const std::int32_t begin = at();
      for (const std::int32_t b : blocks)
        tasks.push_back(BspTask{0, b, 1, BspTaskKind::kCompute});
      return PlanRange{begin, at()};
    };
    const auto push_send = [&](std::int32_t dst, std::int64_t bytes,
                               std::int32_t msgs) {
      AMR_CHECK(msgs >= 1 && msgs <= UINT16_MAX);
      tasks.push_back(BspTask{bytes, dst, static_cast<std::uint16_t>(msgs),
                              BspTaskKind::kPackSend});
      ++plan.expected_recvs[static_cast<std::size_t>(dst)];
      rp.msgs_coalesced += msgs - 1;
      if (msgs > 1) rp.bytes_packed += bytes;
    };
    const auto sends = [&] {
      std::int64_t copy_bytes = 0;
      const std::int32_t begin = at();
      if (!pack) {
        each_msg([&](std::int32_t dst, std::int64_t bytes) {
          if (dst == rank) {
            copy_bytes += bytes;
            ++rp.local_copy_msgs;
          } else {
            push_send(dst, bytes, 1);
          }
        });
      } else {
        sc.touched.clear();
        each_msg([&](std::int32_t dst, std::int64_t bytes) {
          if (dst == rank) {
            copy_bytes += bytes;
            ++rp.local_copy_msgs;
            return;
          }
          Pair& p = sc.pairs[static_cast<std::size_t>(dst)];
          if (p.msgs == 0) sc.touched.push_back(dst);
          ++p.msgs;
          p.bytes += bytes;
        });
        each_msg([&](std::int32_t dst, std::int64_t bytes) {
          if (dst == rank) return;
          Pair& p = sc.pairs[static_cast<std::size_t>(dst)];
          if (p.msgs < 2) {
            push_send(dst, bytes, 1);
          } else if (!p.emitted) {
            p.emitted = true;
            push_send(dst, p.bytes, p.msgs);
          }
        });
        for (const std::int32_t dst : sc.touched)
          sc.pairs[static_cast<std::size_t>(dst)] = Pair{};
      }
      rp.sends = {begin, at()};
      if (copy_bytes > 0)
        tasks.push_back(BspTask{copy_bytes, -1, 1, BspTaskKind::kLocalCopy});
    };

    rp.tasks.begin = at();
    if (ordering == TaskOrdering::kSendFirst) {
      sends();
      rp.computes = computes();
    } else {
      rp.computes = computes();
      sends();
    }
    tasks.push_back(BspTask{0, -1, 1, BspTaskKind::kWaitRecvs});
    if (sc.recv_bytes[r] > 0)
      tasks.push_back(BspTask{sc.recv_bytes[r], -1, 1, BspTaskKind::kUnpack});
    rp.computes_after_wait =
        stage1_frac > 0.0 ? computes() : PlanRange{at(), at()};
    tasks.push_back(BspTask{0, -1, 1, BspTaskKind::kWaitSends});
    rp.tasks.end = at();
  }
  set_bsp_costs(plan, block_costs);
}

BspPlan build_bsp_plan(const AmrMesh& mesh, const Placement& placement,
                       std::span<const TimeNs> block_costs,
                       std::int32_t nranks, const MessageSizeModel& sizes,
                       bool include_flux, bool pack,
                       TaskOrdering ordering, double stage1_frac) {
  BspPlan plan;
  BspBuildScratch scratch;
  build_bsp_plan(mesh, placement, block_costs, nranks, sizes, include_flux,
                 pack, ordering, stage1_frac, plan, scratch);
  return plan;
}

}  // namespace amr
