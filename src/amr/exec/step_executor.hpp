// BSP step execution across all ranks.
//
// One call = one synchronization window: open the exchange, arm every
// rank's task list, drain the event queue, close the window. The result
// carries per-rank phase telemetry plus window timing for critical-path
// analysis.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "amr/des/sharded_engine.hpp"
#include "amr/exec/rank_runtime.hpp"

namespace amr {

struct StepResult {
  std::vector<RankStepStats> ranks;
  /// Per-shard dispatch statistics for this window (empty unless the
  /// comm runs on a sharded engine).
  std::vector<ShardEpochStats> shards;
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

  /// Execute one step. `window` must be unique per call (use the step
  /// number). All ranks start simultaneously at engine.now(). When the
  /// comm is sharded, each rank starts on its own shard engine and the
  /// window runs under the sharded epoch loop instead of engine.run().
  /// `priority_rank` >= 0 schedules every rank's sends to that rank
  /// ahead of its other sends (critical-path send priority); -1 keeps
  /// the legacy schedule bit-identical.
  StepResult execute(std::span<const RankStepWork> work,
                     TaskOrdering ordering, std::uint64_t window,
                     std::int32_t priority_rank = -1);

 private:
  Engine& engine_;
  Comm& comm_;
  Tracer* tracer_;
  RankRuntime::Context ctx_;  // shared by every runtime
  // One contiguous array, never resized: the comm holds each runtime's
  // endpoint pointer, and rank-interleaved dispatch stays on
  // line-aligned neighbours instead of scattered heap objects.
  std::vector<RankRuntime> runtimes_;
  std::vector<std::int32_t> expected_scratch_;  // reused across steps
};

}  // namespace amr
