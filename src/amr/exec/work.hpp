// A BSP timestep's work for every rank, as one flat plan built from a
// mesh + placement.
//
// A timestep's work on a rank (paper §II-B): compute kernels on local
// blocks, boundary-exchange messages to neighbor blocks (memcpy when
// co-located, MPI otherwise), a wait for the rank's expected receives,
// and the unpack of what arrived. Where the sends sit relative to the
// computes (TaskOrdering) is the Fig 3/Fig 4b tuning lever.
//
// Layout. The plan is one array of 16-byte tasks, every rank's tasks one
// contiguous run in the order the rank executes them:
//
//   send-first:    sends local-copy computes wait unpack [stage-2] wait-sends
//   compute-first: computes sends local-copy wait unpack [stage-2] wait-sends
//
// (local-copy and unpack only when they move bytes; stage-2 computes only
// in a two-stage plan). Per-rank records hold the run's ranges and the
// counters the plan alone decides; the expected receive counts are one
// contiguous array, so Comm::begin_exchange takes it directly. A rank
// runtime reads its run in place: arming a rank for a step copies
// nothing (rank_runtime.hpp), and a build, a cache hit's cost patch and a
// shared-store copy are the only writers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "amr/common/time.hpp"
#include "amr/mesh/mesh.hpp"
#include "amr/placement/metrics.hpp"
#include "amr/placement/policy.hpp"

namespace amr {

/// Task ordering policies (paper §IV-B "Task Reordering", Fig 4b).
enum class TaskOrdering {
  kComputeFirst,  ///< untuned: sends dispatched after compute
  kSendFirst,     ///< tuned: prioritize sends to unblock remote waiters
};

constexpr const char* to_string(TaskOrdering o) {
  return o == TaskOrdering::kComputeFirst ? "compute-first" : "send-first";
}

/// Half-open index range into one of a flat plan's arrays.
struct PlanRange {
  std::int32_t begin = 0;
  std::int32_t end = 0;

  std::int32_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
  friend bool operator==(const PlanRange&, const PlanRange&) = default;
};

enum class BspTaskKind : std::uint8_t {
  kCompute,    ///< a block's kernel
  kPackSend,   ///< pack a transfer, then post its isend
  kLocalCopy,  ///< the rank's intra-rank ghost memcpy, one task
  kWaitRecvs,  ///< park until every expected receive has arrived
  kUnpack,     ///< unpack everything received, one task
  kWaitSends,  ///< park until every posted send has been handed off
};

/// One task of a rank's step. 16 bytes, so a rank's ~60 tasks span 15
/// cache lines. A compute carries its block and that block's cost (the
/// runtime adds its per-task dispatch overhead); a send, copy or unpack
/// carries its bytes, and its duration follows from the executor's
/// ExecParams when it runs.
struct BspTask {
  std::int64_t value = 0;   ///< compute: block cost; otherwise: bytes
  std::int32_t dst = -1;    ///< send: target rank; compute: block id
  std::uint16_t msgs = 1;   ///< logical messages in a kPackSend transfer
  BspTaskKind kind = BspTaskKind::kCompute;
  friend bool operator==(const BspTask&, const BspTask&) = default;
};
static_assert(sizeof(BspTask) == 16);

/// One rank's slice of a BspPlan. Every range indexes BspPlan::tasks and
/// lies inside `tasks`.
struct BspRankPlan {
  PlanRange tasks;     ///< the rank's whole run, in execution order
  PlanRange sends;     ///< its kPackSend tasks, in posting order
  PlanRange computes;  ///< computes before the receive wait, block order
  /// Computes after the receive wait (stage-2 kernels of a two-stage
  /// plan, one per stage-1 compute, same order); empty otherwise.
  PlanRange computes_after_wait;
  TimeNs compute_ns = 0;  ///< sum of the compute tasks' costs
  std::int64_t local_copy_msgs = 0;  ///< intra-rank neighbor pairs
  /// Logical messages absorbed into aggregated transfers (sum of
  /// msgs - 1 over the sends) and the bytes those transfers carry.
  std::int64_t msgs_coalesced = 0;
  std::int64_t bytes_packed = 0;
  friend bool operator==(const BspRankPlan&, const BspRankPlan&) = default;
};
static_assert(sizeof(BspRankPlan) == 64);

/// A BSP step's work for every rank (see the layout at the top).
struct BspPlan {
  std::vector<BspRankPlan> ranks;
  std::vector<BspTask> tasks;
  std::vector<std::int32_t> expected_recvs;  ///< per rank: transfers in
  TaskOrdering ordering = TaskOrdering::kSendFirst;
  /// Stage-1 share of each block's cost in a two-stage plan; 0 = one
  /// compute per block before the wait.
  double stage1_frac = 0.0;
  /// Identity of everything but the compute costs: clear() draws a new
  /// one, copies keep it, cost patches leave it. An executor counts what
  /// depends on that content and on its own ExecParams once per serial;
  /// 0 (a plan never cleared) is recounted on every step.
  std::uint64_t serial = 0;

  std::size_t nranks() const { return ranks.size(); }
  /// Empty every array, keeping its capacity, and draw a new serial.
  void clear();
  /// Heap bytes held (capacity, not size).
  std::size_t bytes() const;

  std::span<const BspTask> slice(PlanRange r) const {
    return std::span<const BspTask>(tasks).subspan(
        static_cast<std::size_t>(r.begin), static_cast<std::size_t>(r.size()));
  }
  std::span<const BspTask> tasks_of(std::size_t rank) const {
    return slice(ranks[rank].tasks);
  }
  std::span<const BspTask> sends_of(std::size_t rank) const {
    return slice(ranks[rank].sends);
  }
  std::span<const BspTask> computes_of(std::size_t rank) const {
    return slice(ranks[rank].computes);
  }
  std::span<const BspTask> computes_after_wait_of(std::size_t rank) const {
    return slice(ranks[rank].computes_after_wait);
  }
  /// Sum of the values of `rank`'s tasks of `kind`: its send volume, its
  /// local-copy volume or its unpack (incoming ghost) volume.
  std::int64_t bytes_of(std::size_t rank, BspTaskKind kind) const;

  /// Equal content; the serial is not compared.
  friend bool operator==(const BspPlan& a, const BspPlan& b) {
    return a.ranks == b.ranks && a.tasks == b.tasks &&
           a.expected_recvs == b.expected_recvs &&
           a.ordering == b.ordering && a.stage1_frac == b.stage1_frac;
  }
};

/// Set every compute task's cost from `block_costs` (indexed by the
/// block id each compute carries) and refresh the per-rank compute sums.
/// In a two-stage plan a block's stage-1 compute gets `stage1_frac` of
/// its cost and its stage-2 compute the rest. The builder fills costs
/// with it and the plan cache's hit patch re-applies it, so a patched
/// plan equals a fresh build.
void set_bsp_costs(BspPlan& plan, std::span<const TimeNs> block_costs);

/// Working arrays of the plan builder. A caller that rebuilds plans
/// (ExchangePlanCache) keeps one, so a rebuild allocates nothing once
/// the arrays have grown to the run's size.
struct BspBuildScratch {
  /// One (src, dst) rank pair's step totals, indexed by dst while its
  /// source is built.
  struct Pair {
    std::int64_t bytes = 0;
    std::int32_t msgs = 0;
    bool emitted = false;  ///< its aggregate is in the plan
  };
  std::vector<std::int32_t> rank_begin;   ///< per rank + 1, into blocks
  std::vector<std::int32_t> rank_blocks;  ///< block ids grouped by rank
  std::vector<std::int64_t> recv_bytes;   ///< per rank: incoming volume
  std::vector<Pair> pairs;                ///< per destination rank
  std::vector<std::int32_t> touched;      ///< destinations of one source

  /// Heap bytes held (capacity, not size).
  std::size_t bytes() const;
};

/// Build the BSP plan of (mesh, placement) into `out`, which is cleared
/// first and keeps its capacity; the result equals a build into fresh
/// storage. Boundary exchange sends one message per directed neighbor
/// pair, sized by `sizes`; a rank's messages come in block order, then
/// neighbor order. With `include_flux`, fine blocks additionally send
/// flux corrections to their coarser face neighbors (paper §II-B) —
/// small peer-to-peer messages that exist only along refinement
/// boundaries.
///
/// With `pack`, every (src,dst) pair with two or more messages in the
/// step coalesces them into one per-destination packed transfer (how
/// real AMR frameworks pack all ghost data for a neighbor rank into one
/// buffer): bytes are summed, the logical message count rides in
/// BspTask::msgs, and the receiver expects one arrival for the pair
/// instead of one per block pair. A packed pair's transfer sits at the
/// pair's first message; a pair with one message, and every pair
/// without `pack`, sends eagerly in emission order. Byte totals and
/// unpack volumes are identical either way.
///
/// `ordering` lays each rank's run out in execution order.
/// `stage1_frac` in (0, 1) builds the two-stage rendering: each block's
/// compute splits into a stage-1 share before the wait and the rest
/// after it (two_stage_bsp_work).
void build_bsp_plan(const AmrMesh& mesh, const Placement& placement,
                    std::span<const TimeNs> block_costs, std::int32_t nranks,
                    const MessageSizeModel& sizes, bool include_flux,
                    bool pack, TaskOrdering ordering,
                    double stage1_frac, BspPlan& out,
                    BspBuildScratch& scratch);

/// The same build into fresh storage.
BspPlan build_bsp_plan(const AmrMesh& mesh, const Placement& placement,
                       std::span<const TimeNs> block_costs,
                       std::int32_t nranks, const MessageSizeModel& sizes = {},
                       bool include_flux = false, bool pack = false,
                       TaskOrdering ordering = TaskOrdering::kSendFirst,
                       double stage1_frac = 0.0);

}  // namespace amr
