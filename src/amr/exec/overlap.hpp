// Asynchronous (overlap) execution of a timestep (paper §IV-D, strategy
// "Overlapping computation to hide wait stalls"; §II-A task-based
// runtimes).
//
// Instead of the BSP schedule (compute everything, then wait for all
// ghosts), work is tracked per block and the single-core rank runs
// whichever block has its dependencies met, hiding remote stalls behind
// independent work — when any exists. This is exactly where the paper's
// counterintuitive locality tension appears: with strict locality
// preservation, all of a rank's blocks can be waiting on the same remote
// straggler, leaving nothing to overlap (bench_overlap measures this).
//
// Two dependency patterns are supported per block:
//  * single-stage: `compute` consumes ghost data sent up-front by the
//    rank (previous-step state); expected_recvs gates the compute.
//  * two-stage (stage2_compute > 0): stage 1 runs immediately and its
//    completion posts the block's `sends` (freshly produced ghosts);
//    expected_recvs then gates stage 2 — the produce-exchange-consume
//    chain of multi-stage integrators, where overlap actually matters.
//
// Rank-local scheduling priority: pending sends first (the paper's send
// prioritization), then stage-1 work (produces more sends), then ready
// stage-2 work; stall only when nothing is runnable.
//
// Arrivals are counted, not dispatched. Every overlap send is tagged
// (see eager_dst_tag / packed_dst_tag), so Comm hands it to the
// receiver's on_post hook at isend with its delivery (time, dispatch
// key) slot. The receiver folds it into a per-block record — posted
// count and latest (time, key) with its sender — found by the tag alone,
// with no search. A block's ghosts are in once its count is complete and
// its latest slot has dispatched. A stalled rank arms one wake at the
// earliest latest slot among its count-complete blocks (re-armed when a
// later post completes an earlier block; superseded wakes are dropped by
// a generation tag), so it resumes exactly where the releasing delivery
// would have dispatched, with that delivery's sender as the releasing
// rank (§IV-D).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "amr/exec/step_executor.hpp"

namespace amr {

/// dst_tag of an eager overlap send: the receiver's block slot (index
/// into its OverlapRankWork::blocks), doubled so the low bit is clear.
inline constexpr std::int64_t eager_dst_tag(std::int32_t slot) {
  return 2 * std::int64_t{slot};
}
/// dst_tag of a packed transfer, which carries messages for several
/// blocks: the index where its sender's run of credits starts in the
/// receiver's OverlapRankWork::agg_credits (a sender's credits are
/// contiguous), doubled plus one.
inline constexpr std::int64_t packed_dst_tag(std::int32_t credit_begin) {
  return 2 * std::int64_t{credit_begin} + 1;
}
inline constexpr bool is_packed_dst_tag(std::int64_t dst_tag) {
  return (dst_tag & 1) != 0;
}

/// Per-block work description for the overlap runtime.
struct BlockWork {
  std::int32_t block = -1;
  TimeNs compute = 0;           ///< stage-1 compute
  TimeNs stage2_compute = 0;    ///< 0 = single-stage block
  std::int32_t expected_recvs = 0;  ///< gates the ghost-consuming stage
  std::int64_t recv_bytes = 0;      ///< unpack volume (charged there)
  /// Slice of recv_bytes that arrives inside per-peer aggregates. The
  /// receiver's plan fixes the aggregate layout, so the ghost-consuming
  /// stage reads those slabs straight out of the receive buffer and only
  /// the eager remainder pays a CPU unpack.
  std::int64_t packed_recv_bytes = 0;
  std::vector<OutMessage> sends;    ///< posted after stage-1 completes
  std::vector<std::int64_t> send_dst_tags;  ///< eager_dst_tag per send
  /// Aggregates (indices into OverlapRankWork::packed_sends) this block
  /// contributes to; a two-stage aggregate launches incrementally, as
  /// soon as its last contributing block finishes stage 1.
  std::vector<std::int32_t> packed_out;
};

/// One per-destination aggregate of the step (OutMessage::msgs >= 2).
struct PackedSend {
  OutMessage msg;
  std::int64_t dst_tag = -1;  ///< packed_dst_tag of its credit run
  /// Distinct producing blocks gating the launch; 0 = no compute
  /// dependency (previous-step ghosts), queued at step start.
  std::int32_t contributors = 0;
};

/// Receiver-side credit of a packed transfer: `count` logical messages
/// for block slot `slot` arrive with the aggregate from `src_rank` (at
/// most one aggregate per sender per exchange window). Credits are
/// appended in sender order, so each sender's credits are contiguous.
struct AggCredit {
  std::int32_t src_rank = -1;
  std::int32_t slot = -1;
  std::int32_t count = 0;
};

struct OverlapRankWork {
  std::vector<BlockWork> blocks;
  std::vector<OutMessage> sends;        ///< posted up-front (prev state)
  std::vector<std::int64_t> send_dst_tags;  ///< eager_dst_tag per send
  std::vector<PackedSend> packed_sends;     ///< per-destination aggregates
  std::vector<AggCredit> agg_credits;   ///< arrivals owed by aggregates
  /// Stage-1 scheduling order (block slots). Contributors are grouped by
  /// aggregate, shortest contributor set first, so aggregates finish and
  /// launch throughout stage 1 instead of clustering at its end. Empty =
  /// slot order (plans without aggregates).
  std::vector<std::int32_t> stage1_order;
  std::int64_t local_copy_bytes = 0;
  std::int64_t local_copy_msgs = 0;
  std::int32_t expected_recvs = 0;      ///< total transfers (not logical)
};

/// Build single-stage per-block work from mesh + placement (the overlap
/// analogue of build_step_work; totals match it exactly).
std::vector<OverlapRankWork> build_overlap_work(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    const MessageSizeModel& sizes = {});

/// Adaptive variant: (src,dst) pairs the policy packs coalesce into one
/// PackedSend (queued at step start — previous-step ghosts have no
/// compute dependency) while eager pairs keep per-message sends;
/// receivers get one arrival per aggregate, credited to every
/// destination block via agg_credits. PackingPolicy::none() is
/// byte-identical to the plain build.
std::vector<OverlapRankWork> build_overlap_work(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    const MessageSizeModel& sizes, const PackingPolicy& packing);

/// Build two-stage work: each block spends stage1_frac of its cost in
/// stage 1, sends its ghosts, and the remainder in stage 2 gated on its
/// neighbors' arrivals. Also usable by the BSP executor via
/// two_stage_bsp_work (stage-2 computes land in computes_after_wait).
std::vector<OverlapRankWork> build_two_stage_work(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    double stage1_frac, const MessageSizeModel& sizes = {});

/// Adaptive two-stage variant: packed pairs become incremental
/// aggregates — each contributing block's stage-1 completion decrements
/// the aggregate's countdown and the transfer launches the moment the
/// last contributor finishes, instead of waiting for the whole step's
/// sends. Eager pairs attach to their producing block as usual.
std::vector<OverlapRankWork> build_two_stage_work(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    double stage1_frac, const MessageSizeModel& sizes,
    const PackingPolicy& packing);

/// The BSP rendering of the same two-stage step: stage-1 computes, sends,
/// wait-all, stage-2 computes, collective.
std::vector<RankStepWork> two_stage_bsp_work(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    double stage1_frac, const MessageSizeModel& sizes = {});

/// Executes steps under the overlap model. Produces the same StepResult
/// telemetry as StepExecutor (recv_wait_ns = rank idle time with no
/// runnable block).
class OverlapExecutor {
 public:
  /// `tracer` (optional) receives per-rank task spans (stage-1/stage-2
  /// compute, pack, stalls) and a per-window span on the driver track.
  OverlapExecutor(Engine& engine, Comm& comm, ExecParams params = {},
                  Tracer* tracer = nullptr);
  ~OverlapExecutor();

  /// `priority_rank` >= 0 applies critical-path send priority: every
  /// rank dispatches queued sends destined for that rank before its
  /// other pending sends (relative order otherwise preserved). -1 keeps
  /// the plain FIFO drain, byte-identical to prior behavior.
  StepResult execute(std::span<const OverlapRankWork> work,
                     std::uint64_t window, std::int32_t priority_rank = -1);

 private:
  class OverlapRankRuntime;
  Engine& engine_;
  Comm& comm_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<OverlapRankRuntime>> runtimes_;
  std::vector<std::int32_t> expected_scratch_;  // reused across steps
};

}  // namespace amr
