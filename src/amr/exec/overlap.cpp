#include "amr/exec/overlap.hpp"

#include <algorithm>

#include "amr/common/check.hpp"
#include "amr/trace/tracer.hpp"

namespace amr {
namespace {

/// Shared scaffolding for the work builders: per-rank slots and the
/// directed neighbor message sweep.
template <typename EmitSend>
void sweep_messages(const AmrMesh& mesh, const Placement& placement,
                    const MessageSizeModel& sizes,
                    std::vector<OverlapRankWork>& work,
                    std::span<const std::int32_t> slot_of_block,
                    EmitSend&& emit_send) {
  const auto& lists = mesh.neighbor_lists();
  for (std::size_t b = 0; b < mesh.size(); ++b) {
    const std::int32_t src = placement[b];
    auto& w = work[static_cast<std::size_t>(src)];
    for (const Neighbor& n : lists[b]) {
      const auto ni = static_cast<std::size_t>(n.index);
      const std::int32_t dst = placement[ni];
      const std::int64_t bytes = sizes.bytes(n.kind);
      if (dst == src) {
        w.local_copy_bytes += bytes;
        ++w.local_copy_msgs;
        continue;
      }
      emit_send(w, static_cast<std::int32_t>(b), dst, n.index, bytes);
      auto& dw = work[static_cast<std::size_t>(dst)];
      ++dw.expected_recvs;
      BlockWork& target =
          dw.blocks[static_cast<std::size_t>(slot_of_block[ni])];
      ++target.expected_recvs;
      target.recv_bytes += bytes;
    }
  }
}

std::vector<std::int32_t> make_slots(const AmrMesh& mesh,
                                     const Placement& placement,
                                     std::vector<OverlapRankWork>& work) {
  std::vector<std::int32_t> slot_of_block(mesh.size(), -1);
  for (std::size_t b = 0; b < mesh.size(); ++b) {
    auto& w = work[static_cast<std::size_t>(placement[b])];
    slot_of_block[b] = static_cast<std::int32_t>(w.blocks.size());
    w.blocks.push_back(BlockWork{});
    w.blocks.back().block = static_cast<std::int32_t>(b);
  }
  return slot_of_block;
}

/// One boundary message recorded before the pack decision (which needs
/// the full (src,dst) step totals).
struct RawMsg {
  std::int32_t src_block;
  std::int32_t dst;  ///< destination rank
  std::int32_t dst_block;
  std::int64_t bytes;
};

/// Pass 1 of the adaptive builds: local copies charge immediately,
/// cross-rank messages are only recorded (per source rank, in the legacy
/// emission order).
std::vector<std::vector<RawMsg>> collect_messages(
    const AmrMesh& mesh, const Placement& placement,
    const MessageSizeModel& sizes, std::vector<OverlapRankWork>& work) {
  std::vector<std::vector<RawMsg>> raw(work.size());
  const auto& lists = mesh.neighbor_lists();
  for (std::size_t b = 0; b < mesh.size(); ++b) {
    const std::int32_t src = placement[b];
    auto& w = work[static_cast<std::size_t>(src)];
    for (const Neighbor& n : lists[b]) {
      const std::int32_t dst =
          placement[static_cast<std::size_t>(n.index)];
      const std::int64_t bytes = sizes.bytes(n.kind);
      if (dst == src) {
        w.local_copy_bytes += bytes;
        ++w.local_copy_msgs;
        continue;
      }
      raw[static_cast<std::size_t>(src)].push_back(
          RawMsg{static_cast<std::int32_t>(b), dst, n.index, bytes});
    }
  }
  return raw;
}

/// Pass 2: per-pair totals drive the eager/pack split; packed pairs
/// become one PackedSend (first-touch order) plus receiver-side
/// agg_credits, eager pairs keep per-message sends. `two_stage` attaches
/// eager sends to producing blocks and makes aggregates incremental
/// (countdown over distinct contributing blocks).
void apply_packing(std::vector<OverlapRankWork>& work,
                   const std::vector<std::vector<RawMsg>>& raw,
                   std::span<const std::int32_t> slot_of_block,
                   const PackingPolicy& packing, bool two_stage) {
  struct Pair {
    std::int32_t dst;
    std::int64_t msgs = 0;
    std::int64_t bytes = 0;
    bool packed = false;
    std::int32_t packed_idx = -1;  ///< into packed_sends once emitted
  };
  std::vector<Pair> pairs;
  const auto nranks = static_cast<std::int32_t>(work.size());
  for (std::int32_t src = 0; src < nranks; ++src) {
    auto& w = work[static_cast<std::size_t>(src)];
    const auto& msgs = raw[static_cast<std::size_t>(src)];
    pairs.clear();
    auto pair_of = [&](std::int32_t dst) -> Pair& {
      for (auto it = pairs.rbegin(); it != pairs.rend(); ++it)
        if (it->dst == dst) return *it;
      pairs.push_back(Pair{dst});
      return pairs.back();
    };
    for (const RawMsg& m : msgs) {
      Pair& p = pair_of(m.dst);
      ++p.msgs;
      p.bytes += m.bytes;
    }
    for (Pair& p : pairs)
      p.packed = packing.pack(p.bytes, p.msgs);
    for (const RawMsg& m : msgs) {
      Pair& p = pair_of(m.dst);
      auto& dw = work[static_cast<std::size_t>(m.dst)];
      const std::int32_t slot =
          slot_of_block[static_cast<std::size_t>(m.dst_block)];
      BlockWork& target = dw.blocks[static_cast<std::size_t>(slot)];
      // Per-block gating stays logical whether or not the message rides
      // an aggregate (a packed arrival credits every destination block).
      ++target.expected_recvs;
      target.recv_bytes += m.bytes;
      if (p.packed) target.packed_recv_bytes += m.bytes;
      if (!p.packed) {
        ++dw.expected_recvs;
        if (two_stage) {
          BlockWork& producer = w.blocks[static_cast<std::size_t>(
              slot_of_block[static_cast<std::size_t>(m.src_block)])];
          producer.sends.push_back(OutMessage{m.dst, m.bytes, m.dst_block});
          producer.send_dst_tags.push_back(m.dst_block);
        } else {
          w.sends.push_back(OutMessage{m.dst, m.bytes, m.dst_block});
          w.send_dst_tags.push_back(m.dst_block);
        }
        continue;
      }
      if (p.packed_idx < 0) {
        p.packed_idx = static_cast<std::int32_t>(w.packed_sends.size());
        w.packed_sends.push_back(PackedSend{
            OutMessage{m.dst, p.bytes, m.src_block,
                       static_cast<std::int32_t>(p.msgs)},
            0});
        ++dw.expected_recvs;  // one arrival for the whole aggregate
      }
      // Receiver credit: `count` logical messages for this block slot.
      bool credited = false;
      for (AggCredit& c : dw.agg_credits) {
        if (c.src_rank == src && c.slot == slot) {
          ++c.count;
          credited = true;
          break;
        }
      }
      if (!credited) dw.agg_credits.push_back(AggCredit{src, slot, 1});
      if (two_stage) {
        // Incremental launch: the aggregate fires when its last distinct
        // contributing block finishes stage 1.
        BlockWork& producer = w.blocks[static_cast<std::size_t>(
            slot_of_block[static_cast<std::size_t>(m.src_block)])];
        bool counted = false;
        for (const std::int32_t idx : producer.packed_out) {
          if (idx == p.packed_idx) {
            counted = true;
            break;
          }
        }
        if (!counted) {
          producer.packed_out.push_back(p.packed_idx);
          ++w.packed_sends[static_cast<std::size_t>(p.packed_idx)]
                .contributors;
        }
      }
    }
  }
}

}  // namespace

std::vector<OverlapRankWork> build_overlap_work(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    const MessageSizeModel& sizes) {
  AMR_CHECK(placement.size() == mesh.size());
  AMR_CHECK(block_costs.size() == mesh.size());
  std::vector<OverlapRankWork> work(static_cast<std::size_t>(nranks));
  const auto slots = make_slots(mesh, placement, work);
  for (std::size_t b = 0; b < mesh.size(); ++b) {
    auto& w = work[static_cast<std::size_t>(placement[b])];
    w.blocks[static_cast<std::size_t>(slots[b])].compute = block_costs[b];
  }
  // Previous-step ghosts: sends posted up-front at rank level.
  sweep_messages(mesh, placement, sizes, work, slots,
                 [](OverlapRankWork& w, std::int32_t /*src_block*/,
                    std::int32_t dst, std::int32_t dst_block,
                    std::int64_t bytes) {
                   w.sends.push_back(OutMessage{dst, bytes, dst_block});
                   w.send_dst_tags.push_back(dst_block);
                 });
  return work;
}

std::vector<OverlapRankWork> build_overlap_work(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    const MessageSizeModel& sizes, const PackingPolicy& packing) {
  if (!packing.active())
    return build_overlap_work(mesh, placement, block_costs, nranks, sizes);
  AMR_CHECK(placement.size() == mesh.size());
  AMR_CHECK(block_costs.size() == mesh.size());
  std::vector<OverlapRankWork> work(static_cast<std::size_t>(nranks));
  const auto slots = make_slots(mesh, placement, work);
  for (std::size_t b = 0; b < mesh.size(); ++b) {
    auto& w = work[static_cast<std::size_t>(placement[b])];
    w.blocks[static_cast<std::size_t>(slots[b])].compute = block_costs[b];
  }
  const auto raw = collect_messages(mesh, placement, sizes, work);
  apply_packing(work, raw, slots, packing, /*two_stage=*/false);
  return work;
}

std::vector<OverlapRankWork> build_two_stage_work(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    double stage1_frac, const MessageSizeModel& sizes) {
  AMR_CHECK(placement.size() == mesh.size());
  AMR_CHECK(stage1_frac > 0.0 && stage1_frac < 1.0);
  std::vector<OverlapRankWork> work(static_cast<std::size_t>(nranks));
  const auto slots = make_slots(mesh, placement, work);
  for (std::size_t b = 0; b < mesh.size(); ++b) {
    auto& blk = work[static_cast<std::size_t>(placement[b])]
                    .blocks[static_cast<std::size_t>(slots[b])];
    const auto stage1 = static_cast<TimeNs>(
        static_cast<double>(block_costs[b]) * stage1_frac);
    blk.compute = stage1;
    blk.stage2_compute = block_costs[b] - stage1;
  }
  // Freshly produced ghosts: sends attach to the producing block.
  sweep_messages(
      mesh, placement, sizes, work, slots,
      [&](OverlapRankWork& w, std::int32_t src_block, std::int32_t dst,
          std::int32_t dst_block, std::int64_t bytes) {
        BlockWork& producer =
            w.blocks[static_cast<std::size_t>(slots[src_block])];
        producer.sends.push_back(OutMessage{dst, bytes, dst_block});
        producer.send_dst_tags.push_back(dst_block);
      });
  return work;
}

std::vector<OverlapRankWork> build_two_stage_work(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    double stage1_frac, const MessageSizeModel& sizes,
    const PackingPolicy& packing) {
  if (!packing.active())
    return build_two_stage_work(mesh, placement, block_costs, nranks,
                                stage1_frac, sizes);
  AMR_CHECK(placement.size() == mesh.size());
  AMR_CHECK(stage1_frac > 0.0 && stage1_frac < 1.0);
  std::vector<OverlapRankWork> work(static_cast<std::size_t>(nranks));
  const auto slots = make_slots(mesh, placement, work);
  for (std::size_t b = 0; b < mesh.size(); ++b) {
    auto& blk = work[static_cast<std::size_t>(placement[b])]
                    .blocks[static_cast<std::size_t>(slots[b])];
    const auto stage1 = static_cast<TimeNs>(
        static_cast<double>(block_costs[b]) * stage1_frac);
    blk.compute = stage1;
    blk.stage2_compute = block_costs[b] - stage1;
  }
  const auto raw = collect_messages(mesh, placement, sizes, work);
  apply_packing(work, raw, slots, packing, /*two_stage=*/true);
  // Stage-1 schedule: serve aggregates shortest-contributor-set first
  // and run each aggregate's contributors back to back, so completed
  // aggregates stream onto the wire throughout stage 1 instead of all
  // launching near its end (a block feeding several aggregates runs
  // with the earliest of them). Deterministic: aggregates ordered by
  // (contributors, dst rank), slots appended in slot order per group.
  for (auto& w : work) {
    if (w.packed_sends.empty()) continue;
    std::vector<std::int32_t> agg_order(w.packed_sends.size());
    for (std::size_t i = 0; i < agg_order.size(); ++i)
      agg_order[i] = static_cast<std::int32_t>(i);
    std::sort(agg_order.begin(), agg_order.end(),
              [&](std::int32_t a, std::int32_t b) {
                const PackedSend& pa =
                    w.packed_sends[static_cast<std::size_t>(a)];
                const PackedSend& pb =
                    w.packed_sends[static_cast<std::size_t>(b)];
                if (pa.contributors != pb.contributors)
                  return pa.contributors < pb.contributors;
                return pa.msg.dst_rank < pb.msg.dst_rank;
              });
    w.stage1_order.reserve(w.blocks.size());
    std::vector<char> placed(w.blocks.size(), 0);
    for (const std::int32_t agg : agg_order) {
      for (std::size_t s = 0; s < w.blocks.size(); ++s) {
        if (placed[s]) continue;
        const auto& out = w.blocks[s].packed_out;
        if (std::find(out.begin(), out.end(), agg) != out.end()) {
          placed[s] = 1;
          w.stage1_order.push_back(static_cast<std::int32_t>(s));
        }
      }
    }
    for (std::size_t s = 0; s < w.blocks.size(); ++s)
      if (!placed[s])
        w.stage1_order.push_back(static_cast<std::int32_t>(s));
  }
  return work;
}

std::vector<RankStepWork> two_stage_bsp_work(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    double stage1_frac, const MessageSizeModel& sizes) {
  // BSP rendering: stage-1 computes (before sends, via kComputeFirst),
  // sends, wait, stage-2 computes, collective.
  auto work = build_step_work(mesh, placement, block_costs, nranks, sizes);
  for (auto& w : work) {
    w.computes_after_wait.reserve(w.computes.size());
    for (auto& c : w.computes) {
      const auto stage1 = static_cast<TimeNs>(
          static_cast<double>(c.duration) * stage1_frac);
      w.computes_after_wait.push_back(
          BlockCompute{c.block, c.duration - stage1});
      c.duration = stage1;
    }
  }
  return work;
}

class OverlapExecutor::OverlapRankRuntime final : public RankEndpoint,
                                                 public EventHandler {
 public:
  OverlapRankRuntime(std::int32_t rank, Comm& comm, ExecParams params,
                     Tracer* tracer)
      : rank_(rank), comm_(comm), params_(params), tracer_(tracer) {
    comm_.set_endpoint(rank, this);
  }

  void begin_step(const OverlapRankWork& work, std::uint64_t window,
                  TimeNs start, std::int32_t priority_rank) {
    work_ = &work;
    window_ = window;
    priority_rank_ = priority_rank;
    state_ = State::kIdle;
    arrived_.assign(work.blocks.size(), 0);
    stage1_done_.assign(work.blocks.size(), false);
    done_.assign(work.blocks.size(), false);
    blocks_left_ = work.blocks.size();
    pending_sends_.clear();
    pending_tags_.clear();
    // Up-front rank-level sends enter the queue immediately.
    for (std::size_t i = 0; i < work.sends.size(); ++i) {
      pending_sends_.push_back(work.sends[i]);
      pending_tags_.push_back(work.send_dst_tags[i]);
    }
    // Aggregates with no compute dependency (previous-step ghosts) queue
    // at step start too; two-stage aggregates arm their contributor
    // countdown and launch from stage-1 completions.
    packed_remaining_.assign(work.packed_sends.size(), 0);
    for (std::size_t i = 0; i < work.packed_sends.size(); ++i) {
      const PackedSend& p = work.packed_sends[i];
      if (p.contributors == 0) {
        pending_sends_.push_back(p.msg);
        pending_tags_.push_back(kPackedSendTag);
      } else {
        packed_remaining_[i] = p.contributors;
      }
    }
    send_head_ = 0;
    // Critical-path compute priority: blocks feeding the predicted
    // critical rank (via an aggregate or an eager send) run first in
    // stage 1, so the messages it waits on launch as early as possible.
    // stable_partition keeps the grouped order within each class.
    order_ = work.stage1_order;
    if (priority_rank_ >= 0 && !order_.empty()) {
      std::stable_partition(
          order_.begin(), order_.end(), [&](std::int32_t s) {
            const BlockWork& b = work.blocks[static_cast<std::size_t>(s)];
            for (const std::int32_t idx : b.packed_out)
              if (work.packed_sends[static_cast<std::size_t>(idx)]
                      .msg.dst_rank == priority_rank_)
                return true;
            for (const OutMessage& m : b.sends)
              if (m.dst_rank == priority_rank_) return true;
            return false;
          });
    }
    copy_charged_ = false;
    current_block_ = -1;
    max_send_release_ = start;
    stats_ = RankStepStats{};
    step_done_ = false;
    wait_start_ = start;
  }

  void start(Engine& engine) {
    AMR_CHECK(state_ == State::kIdle);
    state_ = State::kRunning;
    engine.schedule_at(engine.now(), this, 0);
  }

  bool step_done() const { return step_done_; }
  const RankStepStats& stats() const { return stats_; }

  void on_event(Engine& engine, std::uint64_t /*tag*/) override {
    switch (state_) {
      case State::kRunning:
        advance(engine);
        return;
      case State::kPostSend: {
        const OutMessage& m = pending_sends_[send_head_];
        const TimeNs release =
            comm_.isend(rank_, m.dst_rank, m.bytes, window_, engine.now(),
                        pending_tags_[send_head_], m.msgs,
                        priority_rank_ >= 0 &&
                            m.dst_rank == priority_rank_);
        max_send_release_ = std::max(max_send_release_, release);
        if (tracer_ != nullptr)
          tracer_->instant(rank_, TraceCat::kSend, "isend", engine.now(),
                           m.bytes, m.dst_rank);
        if (comm_.fabric().topology().same_node(rank_, m.dst_rank)) {
          ++stats_.msgs_local;
          stats_.bytes_local += m.bytes;
        } else {
          ++stats_.msgs_remote;
          stats_.bytes_remote += m.bytes;
        }
        stats_.msgs_coalesced += m.msgs - 1;
        if (m.msgs > 1) stats_.bytes_packed += m.bytes;
        ++send_head_;
        state_ = State::kRunning;
        advance(engine);
        return;
      }
      case State::kInCopy:
        state_ = State::kRunning;
        advance(engine);
        return;
      case State::kComputingStage1: {
        const auto s = static_cast<std::size_t>(current_block_);
        stage1_done_[s] = true;
        const BlockWork& b = work_->blocks[s];
        for (std::size_t i = 0; i < b.sends.size(); ++i) {
          pending_sends_.push_back(b.sends[i]);
          pending_tags_.push_back(b.send_dst_tags[i]);
        }
        // Incremental aggregates: launch each the moment this block was
        // its last outstanding contributor.
        for (const std::int32_t idx : b.packed_out) {
          if (--packed_remaining_[static_cast<std::size_t>(idx)] == 0) {
            pending_sends_.push_back(
                work_->packed_sends[static_cast<std::size_t>(idx)].msg);
            pending_tags_.push_back(kPackedSendTag);
          }
        }
        if (b.stage2_compute == 0) {
          done_[s] = true;
          --blocks_left_;
        }
        current_block_ = -1;
        state_ = State::kRunning;
        advance(engine);
        return;
      }
      case State::kComputingStage2: {
        const auto s = static_cast<std::size_t>(current_block_);
        done_[s] = true;
        --blocks_left_;
        current_block_ = -1;
        state_ = State::kRunning;
        advance(engine);
        return;
      }
      case State::kWaitingSends:
        stats_.send_wait_ns += engine.now() - wait_start_;
        if (tracer_ != nullptr)
          tracer_->end(rank_, TraceCat::kSendWait, "send-wait",
                       engine.now());
        enter_collective(engine);
        return;
      case State::kIdle:
      case State::kStalled:
      case State::kInCollective:
        AMR_CHECK_MSG(false, "unexpected continuation event");
    }
  }

  void on_message(Engine& engine, std::uint64_t window, TimeNs t,
                  std::int32_t src, std::int64_t dst_tag) override {
    if (window != window_) return;
    if (dst_tag == kPackedSendTag) {
      // A packed transfer credits every destination block at once (at
      // most one aggregate per sender per window, so `src` resolves it).
      bool any = false;
      for (const AggCredit& c : work_->agg_credits) {
        if (c.src_rank != src) continue;
        const auto slot = static_cast<std::size_t>(c.slot);
        arrived_[slot] += c.count;
        AMR_CHECK(arrived_[slot] <= work_->blocks[slot].expected_recvs);
        any = true;
      }
      AMR_CHECK_MSG(any, "packed arrival with no matching credits");
    } else {
      AMR_CHECK(dst_tag >= 0);
      const std::size_t slot = static_cast<std::size_t>(
          slot_of(static_cast<std::int32_t>(dst_tag)));
      ++arrived_[slot];
      AMR_CHECK(arrived_[slot] <= work_->blocks[slot].expected_recvs);
    }
    if (state_ == State::kStalled && runnable_exists()) {
      stats_.recv_wait_ns += t - wait_start_;
      stats_.last_release_src = src;
      if (tracer_ != nullptr)
        tracer_->end(rank_, TraceCat::kRecvWait, "stall", t, src);
      state_ = State::kRunning;
      advance(engine);
    }
  }

  void on_recvs_ready(Engine&, std::uint64_t, TimeNs,
                      std::int32_t) override {
    AMR_CHECK_MSG(false, "overlap runtime never blocks in wait_recvs");
  }

  void on_collective_done(Engine& /*engine*/, std::uint64_t window,
                          TimeNs t) override {
    AMR_CHECK(window == window_);
    AMR_CHECK(state_ == State::kInCollective);
    stats_.sync_ns += t - stats_.collective_entry;
    stats_.done_at = t;
    if (tracer_ != nullptr)
      tracer_->end(rank_, TraceCat::kSync, "collective", t,
                   static_cast<std::int64_t>(window));
    state_ = State::kIdle;
    step_done_ = true;
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
  };

  std::int32_t slot_of(std::int32_t block) const {
    for (std::size_t s = 0; s < work_->blocks.size(); ++s)
      if (work_->blocks[s].block == block)
        return static_cast<std::int32_t>(s);
    AMR_CHECK_MSG(false, "message for a block not on this rank");
    return -1;
  }

  /// Stage-1 readiness: single-stage blocks are gated by their arrivals;
  /// two-stage blocks start immediately.
  bool stage1_ready(std::size_t s) const {
    const BlockWork& b = work_->blocks[s];
    if (stage1_done_[s]) return false;
    if (b.stage2_compute > 0) return true;
    return arrived_[s] >= b.expected_recvs;
  }

  bool stage2_ready(std::size_t s) const {
    const BlockWork& b = work_->blocks[s];
    return stage1_done_[s] && !done_[s] && b.stage2_compute > 0 &&
           arrived_[s] >= b.expected_recvs;
  }

  bool runnable_exists() const {
    if (send_head_ < pending_sends_.size()) return true;
    for (std::size_t s = 0; s < work_->blocks.size(); ++s)
      if (stage1_ready(s) || stage2_ready(s)) return true;
    return false;
  }

  TimeNs pack_ns(std::int64_t bytes) const {
    return static_cast<TimeNs>(static_cast<double>(bytes) /
                               params_.pack_gbytes_per_sec);
  }

  /// Critical-path send priority: rotate the first queued send destined
  /// for the predicted critical rank to the queue head (relative order
  /// of the others preserved). No-op when priority is off or the head
  /// already qualifies, so -1 keeps the legacy FIFO drain bit-identical.
  void promote_priority_send() {
    if (priority_rank_ < 0) return;
    if (pending_sends_[send_head_].dst_rank == priority_rank_) return;
    for (std::size_t i = send_head_ + 1; i < pending_sends_.size(); ++i) {
      if (pending_sends_[i].dst_rank != priority_rank_) continue;
      const auto head = static_cast<std::ptrdiff_t>(send_head_);
      const auto at = static_cast<std::ptrdiff_t>(i);
      std::rotate(pending_sends_.begin() + head, pending_sends_.begin() + at,
                  pending_sends_.begin() + at + 1);
      std::rotate(pending_tags_.begin() + head, pending_tags_.begin() + at,
                  pending_tags_.begin() + at + 1);
      return;
    }
  }

  void enter_collective(Engine& engine) {
    state_ = State::kInCollective;
    stats_.collective_entry = engine.now();
    if (tracer_ != nullptr)
      tracer_->begin(rank_, TraceCat::kSync, "collective", engine.now(),
                     static_cast<std::int64_t>(window_));
    comm_.enter_collective(window_, rank_, engine.now());
  }

  void advance(Engine& engine) {
    // Priority 1: drain pending sends (unblocks remote ranks).
    if (send_head_ < pending_sends_.size()) {
      promote_priority_send();
      // Per-peer aggregates are fused: each contributing block writes its
      // ghost slab straight into the peer buffer as part of stage-1
      // compute (the plan fixes the layout up front), so by the time the
      // last contributor finishes the aggregate is already packed and the
      // launch pays only the post overhead. Eager per-pair sends have no
      // pre-laid buffer and still pay the serial CPU pack here.
      const bool fused = pending_tags_[send_head_] == kPackedSendTag;
      const TimeNs pack =
          (fused ? 0 : pack_ns(pending_sends_[send_head_].bytes)) +
          params_.task_overhead;
      stats_.pack_ns += pack;
      state_ = State::kPostSend;
      if (tracer_ != nullptr)
        tracer_->complete(rank_, TraceCat::kPack, fused ? "launch" : "pack",
                          engine.now(), pack,
                          pending_sends_[send_head_].bytes,
                          pending_sends_[send_head_].dst_rank);
      engine.schedule_after(pack, this, 0);
      return;
    }
    // Priority 2: intra-rank ghost copies, once.
    if (!copy_charged_) {
      copy_charged_ = true;
      if (work_->local_copy_bytes > 0) {
        const auto copy = static_cast<TimeNs>(
                              static_cast<double>(work_->local_copy_bytes) /
                              params_.memcpy_gbytes_per_sec) +
                          params_.task_overhead;
        stats_.pack_ns += copy;
        state_ = State::kInCopy;
        if (tracer_ != nullptr)
          tracer_->complete(rank_, TraceCat::kPack, "local-copy",
                            engine.now(), copy, work_->local_copy_bytes,
                            work_->local_copy_msgs);
        engine.schedule_after(copy, this, 0);
        return;
      }
    }
    if (blocks_left_ > 0) {
      // Priority 3: stage-1 work (produces sends others wait on),
      // walked in the plan's aggregate-grouped order when it has one.
      for (std::size_t i = 0; i < work_->blocks.size(); ++i) {
        const std::size_t s =
            order_.empty() ? i : static_cast<std::size_t>(order_[i]);
        if (!stage1_ready(s)) continue;
        const BlockWork& b = work_->blocks[s];
        current_block_ = static_cast<std::int32_t>(s);
        // Single-stage blocks consume ghosts here: charge the unpack.
        // Aggregated arrivals are read in place (the plan fixes their
        // layout), so only the eager slice costs CPU.
        const TimeNs unpack =
            b.stage2_compute == 0
                ? pack_ns(b.recv_bytes - b.packed_recv_bytes)
                : 0;
        stats_.compute_ns += b.compute + params_.task_overhead;
        stats_.pack_ns += unpack;
        state_ = State::kComputingStage1;
        if (tracer_ != nullptr)
          tracer_->complete(
              rank_, TraceCat::kCompute,
              b.stage2_compute > 0 ? "compute-s1" : "compute",
              engine.now(), b.compute + unpack + params_.task_overhead,
              b.block, b.recv_bytes);
        engine.schedule_after(b.compute + unpack + params_.task_overhead,
                              this, 0);
        return;
      }
      // Priority 4: ready stage-2 work.
      for (std::size_t s = 0; s < work_->blocks.size(); ++s) {
        if (!stage2_ready(s)) continue;
        const BlockWork& b = work_->blocks[s];
        current_block_ = static_cast<std::int32_t>(s);
        // Eager slice only: aggregated ghosts are consumed in place.
        const TimeNs unpack =
            pack_ns(b.recv_bytes - b.packed_recv_bytes);
        stats_.compute_ns += b.stage2_compute + params_.task_overhead;
        stats_.pack_ns += unpack;
        state_ = State::kComputingStage2;
        if (tracer_ != nullptr)
          tracer_->complete(
              rank_, TraceCat::kCompute, "compute-s2", engine.now(),
              b.stage2_compute + unpack + params_.task_overhead, b.block,
              b.recv_bytes);
        engine.schedule_after(
            b.stage2_compute + unpack + params_.task_overhead, this, 0);
        return;
      }
      // Nothing runnable: stall until a message readies a block.
      wait_start_ = engine.now();
      state_ = State::kStalled;
      if (tracer_ != nullptr)
        tracer_->begin(rank_, TraceCat::kRecvWait, "stall", engine.now());
      return;
    }
    // All blocks done: drain send requests, then the collective.
    if (max_send_release_ > engine.now()) {
      wait_start_ = engine.now();
      state_ = State::kWaitingSends;
      if (tracer_ != nullptr)
        tracer_->begin(rank_, TraceCat::kSendWait, "send-wait",
                       engine.now());
      engine.schedule_at(max_send_release_, this, 0);
      return;
    }
    enter_collective(engine);
  }

  std::int32_t rank_;
  Comm& comm_;
  ExecParams params_;
  Tracer* tracer_;

  const OverlapRankWork* work_ = nullptr;
  std::uint64_t window_ = 0;
  State state_ = State::kIdle;
  std::vector<OutMessage> pending_sends_;
  std::vector<std::int64_t> pending_tags_;
  std::vector<std::int32_t> packed_remaining_;  ///< per packed_sends entry
  std::vector<std::int32_t> order_;  ///< stage-1 walk (priority-partitioned)
  std::int32_t priority_rank_ = -1;
  std::size_t send_head_ = 0;
  std::vector<std::int32_t> arrived_;
  std::vector<bool> stage1_done_;
  std::vector<bool> done_;
  std::size_t blocks_left_ = 0;
  std::int32_t current_block_ = -1;
  bool copy_charged_ = false;
  TimeNs max_send_release_ = 0;
  TimeNs wait_start_ = 0;
  RankStepStats stats_;
  bool step_done_ = false;
};

OverlapExecutor::OverlapExecutor(Engine& engine, Comm& comm,
                                 ExecParams params, Tracer* tracer)
    : engine_(engine), comm_(comm), tracer_(tracer) {
  runtimes_.reserve(static_cast<std::size_t>(comm.nranks()));
  for (std::int32_t r = 0; r < comm.nranks(); ++r)
    runtimes_.push_back(
        std::make_unique<OverlapRankRuntime>(r, comm, params, tracer));
}

OverlapExecutor::~OverlapExecutor() = default;

StepResult OverlapExecutor::execute(std::span<const OverlapRankWork> work,
                                    std::uint64_t window,
                                    std::int32_t priority_rank) {
  AMR_CHECK(work.size() == runtimes_.size());
  StepResult result;
  result.step_start = engine_.now();

  expected_scratch_.resize(work.size());
  for (std::size_t r = 0; r < work.size(); ++r)
    expected_scratch_[r] = work[r].expected_recvs;
  comm_.begin_exchange(window, expected_scratch_);

  for (std::size_t r = 0; r < work.size(); ++r) {
    runtimes_[r]->begin_step(work[r], window, result.step_start,
                             priority_rank);
    runtimes_[r]->start(engine_);
  }
  engine_.run();

  result.ranks.reserve(work.size());
  for (const auto& rt : runtimes_) {
    AMR_CHECK_MSG(rt->step_done(), "rank did not complete overlap step");
    result.ranks.push_back(rt->stats());
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
