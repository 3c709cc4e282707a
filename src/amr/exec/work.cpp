#include "amr/exec/work.hpp"

#include "amr/common/check.hpp"

namespace amr {

namespace {

/// Empty every rank's plan in place: vectors are cleared, never freed, so
/// a rebuild into the same storage reuses their capacity.
void reset_work(std::vector<RankStepWork>& work, std::int32_t nranks) {
  work.resize(static_cast<std::size_t>(nranks));
  for (RankStepWork& w : work) {
    w.computes.clear();
    w.computes_after_wait.clear();
    w.sends.clear();
    w.local_copy_bytes = 0;
    w.local_copy_msgs = 0;
    w.expected_recvs = 0;
    w.recv_bytes = 0;
  }
}

/// Single-pass build for the degenerate policies: every pair eager
/// (`aggregate` false) or every multi-message pair packed (true). The
/// general threshold build below needs a second pass over per-pair
/// totals; these two do not.
void build_single_pass(const AmrMesh& mesh, const Placement& placement,
                       std::span<const TimeNs> block_costs,
                       std::int32_t nranks, const MessageSizeModel& sizes,
                       bool include_flux, bool aggregate,
                       std::vector<RankStepWork>& work) {
  AMR_CHECK(placement.size() == mesh.size());
  AMR_CHECK(block_costs.size() == mesh.size());
  reset_work(work, nranks);

  const auto& lists = mesh.neighbor_lists();
  for (std::size_t b = 0; b < mesh.size(); ++b) {
    const std::int32_t src = placement[b];
    AMR_CHECK(src >= 0 && src < nranks);
    auto& w = work[static_cast<std::size_t>(src)];
    w.computes.push_back(
        BlockCompute{static_cast<std::int32_t>(b), block_costs[b]});
    for (const Neighbor& n : lists[b]) {
      const std::int32_t dst =
          placement[static_cast<std::size_t>(n.index)];
      auto emit = [&](std::int64_t bytes) {
        if (dst == src) {
          w.local_copy_bytes += bytes;
          ++w.local_copy_msgs;
          return;
        }
        work[static_cast<std::size_t>(dst)].recv_bytes += bytes;
        if (aggregate) {
          // Fold into this rank's existing aggregate for dst if one
          // exists. Destinations repeat in bursts (SFC-adjacent blocks
          // share neighbor ranks), so scan newest-first; sends per rank
          // number in the tens, keeping this linear probe cheap.
          for (auto it = w.sends.rbegin(); it != w.sends.rend(); ++it) {
            if (it->dst_rank == dst) {
              it->bytes += bytes;
              ++it->msgs;
              return;
            }
          }
        }
        w.sends.push_back(
            OutMessage{dst, bytes, static_cast<std::int32_t>(b), 1});
        ++work[static_cast<std::size_t>(dst)].expected_recvs;
      };
      emit(sizes.bytes(n.kind));
      // Flux correction: a fine block sends one extra small message to
      // each coarser face neighbor (conserved-quantity consistency,
      // paper §II-B); exists only along refinement boundaries.
      if (include_flux && n.kind == NeighborKind::kFace &&
          n.level_diff == -1)
        emit(sizes.flux_bytes());
    }
  }
}

}  // namespace

std::vector<RankStepWork> build_step_work(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    const MessageSizeModel& sizes, bool include_flux,
    const PackingPolicy& packing) {
  std::vector<RankStepWork> work;
  build_step_work(mesh, placement, block_costs, nranks, sizes, include_flux,
                  packing, work);
  return work;
}

void build_step_work(const AmrMesh& mesh, const Placement& placement,
                     std::span<const TimeNs> block_costs,
                     std::int32_t nranks, const MessageSizeModel& sizes,
                     bool include_flux, const PackingPolicy& packing,
                     std::vector<RankStepWork>& work) {
  if (!packing.active() || packing.pack_all()) {
    build_single_pass(mesh, placement, block_costs, nranks, sizes,
                      include_flux, packing.pack_all(), work);
    return;
  }

  AMR_CHECK(placement.size() == mesh.size());
  AMR_CHECK(block_costs.size() == mesh.size());
  reset_work(work, nranks);

  // Pass 1: computes, local copies, and recv byte totals as on the
  // legacy path; boundary messages are only recorded, because the pack
  // decision needs each (src,dst) pair's full step totals.
  struct RawMsg {
    std::int32_t dst;
    std::int64_t bytes;
    std::int32_t src_block;
  };
  std::vector<std::vector<RawMsg>> raw(static_cast<std::size_t>(nranks));
  const auto& lists = mesh.neighbor_lists();
  for (std::size_t b = 0; b < mesh.size(); ++b) {
    const std::int32_t src = placement[b];
    AMR_CHECK(src >= 0 && src < nranks);
    auto& w = work[static_cast<std::size_t>(src)];
    w.computes.push_back(
        BlockCompute{static_cast<std::int32_t>(b), block_costs[b]});
    for (const Neighbor& n : lists[b]) {
      const std::int32_t dst =
          placement[static_cast<std::size_t>(n.index)];
      auto emit = [&](std::int64_t bytes) {
        if (dst == src) {
          w.local_copy_bytes += bytes;
          ++w.local_copy_msgs;
          return;
        }
        work[static_cast<std::size_t>(dst)].recv_bytes += bytes;
        raw[static_cast<std::size_t>(src)].push_back(
            RawMsg{dst, bytes, static_cast<std::int32_t>(b)});
      };
      emit(sizes.bytes(n.kind));
      if (include_flux && n.kind == NeighborKind::kFace &&
          n.level_diff == -1)
        emit(sizes.flux_bytes());
    }
  }

  // Pass 2: per-pair totals drive the eager/pack split. Packed pairs
  // emit one aggregate at the pair's first-touch position; eager pairs
  // keep their per-message emission order, so both shapes stay
  // deterministic functions of (mesh, placement, policy).
  struct PairTotal {
    std::int32_t dst;
    std::int64_t msgs = 0;
    std::int64_t bytes = 0;
    bool emitted = false;
  };
  std::vector<PairTotal> totals;
  for (std::int32_t src = 0; src < nranks; ++src) {
    auto& w = work[static_cast<std::size_t>(src)];
    const auto& msgs = raw[static_cast<std::size_t>(src)];
    totals.clear();
    auto pair_of = [&](std::int32_t dst) -> PairTotal& {
      for (auto it = totals.rbegin(); it != totals.rend(); ++it)
        if (it->dst == dst) return *it;
      totals.push_back(PairTotal{dst});
      return totals.back();
    };
    for (const RawMsg& m : msgs) {
      PairTotal& t = pair_of(m.dst);
      ++t.msgs;
      t.bytes += m.bytes;
    }
    for (const RawMsg& m : msgs) {
      PairTotal& t = pair_of(m.dst);
      if (packing.pack(t.bytes, t.msgs)) {
        if (t.emitted) continue;
        t.emitted = true;
        w.sends.push_back(OutMessage{m.dst, t.bytes, m.src_block,
                                     static_cast<std::int32_t>(t.msgs)});
      } else {
        w.sends.push_back(OutMessage{m.dst, m.bytes, m.src_block, 1});
      }
      ++work[static_cast<std::size_t>(m.dst)].expected_recvs;
    }
  }
}

}  // namespace amr
