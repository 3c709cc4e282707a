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
// later post completes an earlier block; a superseded wake is dropped
// when it dispatches, because its slot is no longer the armed one), so
// it resumes exactly where the releasing delivery would have dispatched,
// with that delivery's sender as the releasing rank (§IV-D).
//
// Working set. At 2048 ranks a step dispatches millions of events in
// rank-interleaved order and a plan holds ~13K blocks and ~155K sends,
// so the cost of an event is the cache lines it touches. The plan is a
// handful of flat arrays (OverlapPlan) sliced per rank and per block by
// index ranges, rebuilt in place on a cache miss. The runtimes sit in
// one 64-byte-aligned array with the fields a dispatch or an on_post
// reads in their first line; per-block receive records, the pending-send
// queues and the aggregate countdowns are executor-owned arrays indexed
// like the plan. A dispatch touches its rank's hot line, the queue or
// block record under its cursor and the send or block it runs; on_post
// touches the receiver's hot line, one receive record and, for an
// aggregate, its credit run. Counters the plan alone decides are
// counted once per step when a rank is armed.
//
// Send priority without a search: a group of sends (the step-start
// sends, or what a stage-1 completion releases) is only ever queued
// onto an empty queue, because sends drain before any compute starts.
// Promoting the first send to the priority rank at every dispatch is
// therefore the same order as a stable partition of each group as it is
// queued, which is what the runtime does (and checks).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "amr/exec/step_executor.hpp"

namespace amr {

/// dst_tag of an eager overlap send: the receiver's block slot (its
/// index within the receiver's OverlapRankPlan::blocks), doubled so the
/// low bit is clear.
inline constexpr std::int32_t eager_dst_tag(std::int32_t slot) {
  return 2 * slot;
}
/// dst_tag of a packed transfer, which carries messages for several
/// blocks: the index where its sender's run of credits starts within the
/// receiver's OverlapRankPlan::credits (a sender's credits are
/// contiguous), doubled plus one.
inline constexpr std::int32_t packed_dst_tag(std::int32_t credit_begin) {
  return 2 * credit_begin + 1;
}
inline constexpr bool is_packed_dst_tag(std::int64_t dst_tag) {
  return (dst_tag & 1) != 0;
}

/// Half-open index range into one of OverlapPlan's arrays.
using OverlapRange = PlanRange;

/// One transfer of the step: an eager ghost message (msgs == 1) or a
/// per-destination aggregate (msgs >= 2, packed dst_tag).
struct OverlapSend {
  std::int64_t bytes = 0;
  std::int32_t dst = -1;   ///< destination rank
  std::int32_t msgs = 1;   ///< logical messages carried
  std::int32_t dst_tag = -1;  ///< eager_dst_tag / packed_dst_tag
  /// Aggregates only: distinct producing blocks gating the launch; 0 =
  /// no compute dependency (previous-step ghosts), queued at step start.
  std::int32_t contributors = 0;
  friend bool operator==(const OverlapSend&, const OverlapSend&) = default;
};
static_assert(sizeof(OverlapSend) == 24);

/// One block slot of a rank.
struct OverlapBlock {
  TimeNs compute = 0;           ///< stage-1 compute
  TimeNs stage2_compute = 0;    ///< 0 = single-stage block
  std::int64_t recv_bytes = 0;  ///< unpack volume (charged there)
  /// Slice of recv_bytes that arrives inside per-peer aggregates. The
  /// receiver's plan fixes the aggregate layout, so the ghost-consuming
  /// stage reads those slabs straight out of the receive buffer and only
  /// the eager remainder pays a CPU unpack.
  std::int64_t packed_recv_bytes = 0;
  std::int32_t block = -1;
  std::int32_t expected_recvs = 0;  ///< gates the ghost-consuming stage
  OverlapRange sends;       ///< eager sends posted after stage 1
  /// Into OverlapPlan::packed_out: the aggregates this block feeds; a
  /// two-stage aggregate launches as soon as its last contributing block
  /// finishes stage 1.
  OverlapRange packed_out;
  friend bool operator==(const OverlapBlock&, const OverlapBlock&) = default;
};

/// Set a block's compute from its cost: all of it (single-stage,
/// `stage1_frac == 0`), or `stage1_frac` of it in stage 1 and the rest
/// in stage 2. The builder and the plan cache's hit patch both use it, so
/// a patched plan equals a fresh build.
inline void set_block_cost(OverlapBlock& b, TimeNs cost,
                           double stage1_frac) {
  if (stage1_frac > 0.0) {
    const auto stage1 =
        static_cast<TimeNs>(static_cast<double>(cost) * stage1_frac);
    b.compute = stage1;
    b.stage2_compute = cost - stage1;
  } else {
    b.compute = cost;
  }
}

/// Receiver-side credit of a packed transfer: `count` logical messages
/// for block slot `slot` arrive with the aggregate from `src_rank` (at
/// most one aggregate per sender per exchange window). Credits are
/// appended in sender order, so each sender's credits are contiguous.
struct AggCredit {
  std::int32_t src_rank = -1;
  std::int32_t slot = -1;
  std::int32_t count = 0;
  friend bool operator==(const AggCredit&, const AggCredit&) = default;
};

/// One rank's slice of the plan. Its sends are one contiguous run of
/// OverlapPlan::sends: the up-front eager sends, then its blocks' eager
/// sends in slot order, then its aggregates.
struct OverlapRankPlan {
  OverlapRange blocks;   ///< block slots, into OverlapPlan::blocks
  OverlapRange upfront;  ///< eager sends posted at step start (prev state)
  OverlapRange packed;   ///< per-destination aggregates
  OverlapRange credits;  ///< arrivals owed by aggregates
  /// Stage-1 scheduling order (slots), into OverlapPlan::stage1_order.
  /// Contributors are grouped by aggregate, shortest contributor set
  /// first, so aggregates finish and launch throughout stage 1 instead of
  /// clustering at its end. Empty = slot order (plans without
  /// aggregates).
  OverlapRange order;
  std::int64_t local_copy_bytes = 0;
  std::int64_t local_copy_msgs = 0;

  /// The rank's whole send run.
  OverlapRange sends() const { return {upfront.begin, packed.end}; }
  friend bool operator==(const OverlapRankPlan&,
                         const OverlapRankPlan&) = default;
};

/// A step's overlap work for every rank, as flat arrays sliced per rank
/// by OverlapRankPlan (and per block by OverlapBlock). Slots, tags and
/// credits are rank-relative; packed_out holds indices into `sends`. The
/// expected receive counts are one contiguous array, as in BspPlan, so
/// Comm::begin_exchange takes it directly.
struct OverlapPlan {
  std::vector<OverlapRankPlan> ranks;
  std::vector<OverlapBlock> blocks;
  std::vector<OverlapSend> sends;
  std::vector<AggCredit> credits;
  std::vector<std::int32_t> packed_out;
  std::vector<std::int32_t> stage1_order;
  /// Per rank: transfers in (an aggregate counts once, not per logical
  /// message).
  std::vector<std::int32_t> expected_recvs;

  std::size_t nranks() const { return ranks.size(); }
  /// Heap bytes held (capacity, not size).
  std::size_t bytes() const;

  template <typename T>
  static std::span<const T> slice(const std::vector<T>& v, OverlapRange r) {
    return std::span<const T>(v).subspan(static_cast<std::size_t>(r.begin),
                                         static_cast<std::size_t>(r.size()));
  }

  friend bool operator==(const OverlapPlan&, const OverlapPlan&) = default;
};

/// Working arrays of the plan builder. A caller that rebuilds plans
/// (ExchangePlanCache) keeps one, so a rebuild allocates nothing once
/// the arrays have grown to the run's size. They grow with ranks and
/// blocks, not with messages: the builder gathers one source rank's
/// messages at a time, and its pair totals are indexed by destination
/// rank, so the largest array is the busiest rank's message list.
struct OverlapBuildScratch {
  /// One cross-rank boundary message of the current source rank.
  struct Msg {
    std::int64_t bytes;
    std::int32_t dst;       ///< destination rank
    std::int32_t dst_slot;  ///< into OverlapPlan::blocks
    std::int32_t src_slot;  ///< into OverlapPlan::blocks
  };
  /// The current source's step totals toward one destination rank, and
  /// its pack decision.
  struct Pair {
    std::int64_t bytes = 0;
    std::int32_t msgs = 0;
    std::int32_t send = -1;       ///< the aggregate, into sends
    std::int32_t last_src = -1;   ///< producer slot last counted
    bool packed = false;
  };
  std::vector<std::int32_t> slot_of_block;  ///< into OverlapPlan::blocks
  /// The current source's messages in emission order (slot, then
  /// neighbor).
  std::vector<Msg> msgs;
  std::vector<Pair> pairs;              ///< per destination rank
  std::vector<std::int32_t> touched;    ///< destinations `msgs` reach
  std::vector<std::int32_t> credit_src;   ///< per slot: last crediting src
  std::vector<std::int32_t> credit_at;    ///< per slot: its credit index
  std::vector<std::int32_t> cursor;       ///< per rank fill position
  std::vector<std::int64_t> order_key;    ///< stage-1 order sort keys

  /// Heap bytes held (capacity, not size).
  std::size_t bytes() const;
};

/// Build the overlap plan of (mesh, placement) into `out`, rewriting
/// every array. An array keeps its capacity unless it must grow, and
/// then frees the old buffer first; the result equals a build into fresh
/// storage.
///
/// `stage1_frac == 0` builds single-stage work: `compute` consumes the
/// ghosts every rank sends up-front (previous-step state). `stage1_frac`
/// in (0, 1) builds two-stage work: each block spends that share of its
/// cost in stage 1, sends its ghosts, and the remainder in stage 2 gated
/// on its neighbors' arrivals.
///
/// With `pack`, every (src, dst) pair with two or more messages in the
/// step coalesces them into one aggregate (first-touch order); receivers
/// get one arrival per aggregate, credited to every destination block
/// via the credits. Single-stage aggregates have no compute dependency
/// and queue at step start; two-stage aggregates launch incrementally,
/// the moment their last contributing block finishes stage 1. Eager
/// pairs (a single message, or every pair without `pack`) keep one send
/// per message, posted up-front (single-stage) or by the producing block
/// (two-stage). Totals match build_bsp_plan exactly.
void build_overlap_plan(const AmrMesh& mesh, const Placement& placement,
                        std::span<const TimeNs> block_costs,
                        std::int32_t nranks, const MessageSizeModel& sizes,
                        bool pack, double stage1_frac, OverlapPlan& out,
                        OverlapBuildScratch& scratch);

/// The same build into fresh storage.
OverlapPlan build_overlap_plan(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    const MessageSizeModel& sizes = {}, bool pack = false,
    double stage1_frac = 0.0);

/// The BSP rendering of the same two-stage step, compute-first: stage-1
/// computes, sends, wait-all, stage-2 computes, collective.
BspPlan two_stage_bsp_work(
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
  OverlapExecutor(const OverlapExecutor&) = delete;  // runtimes point at ctx_
  OverlapExecutor& operator=(const OverlapExecutor&) = delete;

  /// `priority_rank` >= 0 applies critical-path send priority: every
  /// rank dispatches queued sends destined for that rank before its
  /// other pending sends (relative order otherwise preserved), and runs
  /// the stage-1 blocks feeding that rank first. -1 keeps the plain
  /// FIFO drain, byte-identical to prior behavior.
  StepResult execute(const OverlapPlan& plan, std::uint64_t window,
                     std::int32_t priority_rank = -1);

 private:
  class OverlapRankRuntime;
  struct BlockRecv;
  /// What every rank of one executor shares, refreshed per step.
  struct Context {
    Comm* comm = nullptr;
    ExecParams params;
    Tracer* tracer = nullptr;
    const OverlapPlan* plan = nullptr;
    BlockRecv* recvs = nullptr;        ///< per plan block slot
    std::int32_t* queue = nullptr;     ///< per plan send: pending sends
    std::int32_t* remaining = nullptr;  ///< per plan send: countdowns
    std::int32_t* order = nullptr;  ///< priority-partitioned stage1_order
    const std::int32_t* node_of = nullptr;  ///< per rank: its node
    std::uint64_t window = 0;
    std::int32_t priority_rank = -1;
  };

  Engine& engine_;
  Comm& comm_;
  Tracer* tracer_;
  Context ctx_;
  // One contiguous array, never resized: the comm holds each runtime's
  // endpoint pointer.
  std::vector<OverlapRankRuntime> runtimes_;
  std::vector<std::int32_t> node_of_;
  // Per-step rank state, sliced by the plan's ranges.
  std::vector<BlockRecv> recvs_;
  std::vector<std::int32_t> queue_;
  std::vector<std::int32_t> remaining_;
  std::vector<std::int32_t> order_;
};

}  // namespace amr
