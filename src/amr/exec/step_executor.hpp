// BSP step execution across all ranks.
//
// One call = one synchronization window: open the exchange, arm every
// rank on its run of the plan, drain the event queue, close the window.
// The result carries per-rank phase telemetry plus window timing for
// critical-path analysis.
//
// Per step the executor does O(ranks) work outside the events: the plan's
// expected counts go to Comm as they are, every runtime is armed on its
// run in place, and each rank's stats are assembled from three sources —
// the plan's own counters (compute sums, coalescing, packed bytes), the
// counters that also need this executor's ExecParams and topology (pack
// time, local/remote messages and bytes), summed once per plan serial,
// and the wait stats the events wrote. Send priority touches only the
// ranks that send to the priority rank: their runs are copied, with
// their sends stably partitioned (priority target first), into a
// per-step scratch array, found through a per-plan index of each rank's
// senders.
#pragma once

#include <cstdint>
#include <vector>

#include "amr/exec/rank_runtime.hpp"

namespace amr {

struct StepResult {
  std::vector<RankStepStats> ranks;
  TimeNs step_start = 0;
  TimeNs step_end = 0;  ///< collective completion (same for all ranks)

  TimeNs wall_ns() const { return step_end - step_start; }
};

class StepExecutor {
 public:
  /// `tracer` (optional) is forwarded to every rank runtime and receives
  /// a per-window span on the driver track.
  StepExecutor(Engine& engine, Comm& comm, ExecParams params = {},
               Tracer* tracer = nullptr);
  StepExecutor(const StepExecutor&) = delete;  // runtimes point at ctx_
  StepExecutor& operator=(const StepExecutor&) = delete;

  /// Execute one step of `plan` (in its TaskOrdering). `window` must be
  /// unique per call (use the step number). All ranks start
  /// simultaneously at engine.now(). `priority_rank` >= 0 schedules
  /// every rank's sends to that rank ahead of its other sends
  /// (critical-path send priority); -1 keeps the plan's order. The plan
  /// must stay alive and unchanged during the call.
  StepResult execute(const BspPlan& plan, std::uint64_t window,
                     std::int32_t priority_rank = -1);

  /// Heap bytes held: runtimes, wait stats, per-plan counters and the
  /// send-priority index and scratch (capacity, not size).
  std::size_t bytes() const;

 private:
  /// What a plan's sends and copies cost under this executor's
  /// ExecParams and topology; fixed for a plan serial.
  struct PlanCounters {
    TimeNs pack_ns = 0;
    std::int64_t msgs_local = 0;
    std::int64_t msgs_remote = 0;
    std::int64_t bytes_local = 0;
    std::int64_t bytes_remote = 0;
  };

  void count_plan(const BspPlan& plan);
  void index_senders(const BspPlan& plan);
  /// Re-arm the ranks that send to `priority_rank` on copies of their
  /// runs with the sends stably partitioned, priority target first.
  void arm_priority_senders(const BspPlan& plan, std::int32_t priority_rank,
                            TimeNs start);

  Engine& engine_;
  Comm& comm_;
  Tracer* tracer_;
  RankRuntime::Context ctx_;  // shared by every runtime
  // One contiguous array, never resized: the comm holds each runtime's
  // endpoint pointer, and rank-interleaved dispatch stays on
  // line-aligned neighbours instead of scattered heap objects.
  std::vector<RankRuntime> runtimes_;
  std::vector<RankWaitStats> waits_;
  std::vector<PlanCounters> counters_;
  std::uint64_t counted_serial_ = 0;  ///< plan serial counters_ is for
  // Send priority: each rank's distinct senders (CSR, per plan serial)
  // and the step's partitioned runs of the priority rank's senders.
  std::vector<std::int32_t> sender_begin_;
  std::vector<std::int32_t> senders_;
  std::uint64_t indexed_serial_ = 0;
  std::vector<BspTask> priority_tasks_;
};

}  // namespace amr
