// Per-rank execution state machine.
//
// Each rank runs its step's task list sequentially on the DES: compute
// kernels advance the rank's clock; pack+send tasks post messages to the
// simulated fabric; waits park the rank until the Comm layer signals
// arrivals; the closing blocking collective parks it until every rank has
// entered. The per-phase accumulators it keeps are exactly the telemetry
// the paper's collection layer records.
//
// Event working set. A BSP step dispatches tens of events per rank in
// rank-interleaved order, so at 8192 ranks what an event costs is the
// cache lines it touches, not its instructions. Each dispatch reads one
// line of rank state (the runtime is 64-byte aligned and its hot fields
// come first) plus the 16-byte task record under the cursor. Everything
// the plan alone decides — compute and pack time, local/remote message
// and byte counts, coalescing — is counted once in begin_step; events
// record only what depends on waiting: recv-wait, send-wait and sync.
#pragma once

#include <cstdint>
#include <vector>

#include "amr/des/engine.hpp"
#include "amr/exec/work.hpp"
#include "amr/simmpi/comm.hpp"

namespace amr {

/// Software-stack timing constants for task execution.
struct ExecParams {
  double pack_gbytes_per_sec = 6.0;    ///< ghost pack/unpack bandwidth
  double memcpy_gbytes_per_sec = 10.0; ///< intra-rank ghost copy bandwidth
  TimeNs task_overhead = us(0.2);      ///< per-task runtime dispatch cost
};

/// Telemetry accumulated by one rank over one step.
struct RankStepStats {
  TimeNs compute_ns = 0;
  TimeNs pack_ns = 0;        ///< pack + local copies (part of comm)
  TimeNs recv_wait_ns = 0;
  TimeNs send_wait_ns = 0;
  TimeNs sync_ns = 0;
  TimeNs collective_entry = 0;  ///< absolute entry time into the sync
  TimeNs done_at = 0;           ///< absolute completion time
  std::int64_t msgs_local = 0;    ///< intra-node (shm) sends
  std::int64_t msgs_remote = 0;   ///< inter-node sends
  std::int64_t bytes_local = 0;
  std::int64_t bytes_remote = 0;
  /// Logical boundary messages absorbed into aggregated transfers this
  /// step (sum of msgs - 1 over the rank's sends); 0 on the legacy path.
  std::int64_t msgs_coalesced = 0;
  std::int64_t bytes_packed = 0;  ///< bytes sent in aggregated transfers
  std::int32_t last_release_src = -1;  ///< sender ending the last stall

  TimeNs comm_ns() const { return pack_ns + recv_wait_ns + send_wait_ns; }
};

class alignas(64) RankRuntime final : public RankEndpoint,
                                     public EventHandler {
 public:
  /// What every rank of one executor shares.
  struct Context {
    Comm* comm = nullptr;
    ExecParams params;
    /// Optional: receives task-level spans on each rank's track —
    /// compute/pack/unpack spans (tagged with the step's TaskOrdering),
    /// isend instants, recv/send-wait stalls, and collective spans.
    Tracer* tracer = nullptr;
  };

  /// Runtimes live in one contiguous array owned by the executor, so
  /// they are default-constructed and then attached once. The comm keeps
  /// the endpoint pointer: a runtime never moves.
  RankRuntime() = default;
  RankRuntime(const RankRuntime&) = delete;
  RankRuntime& operator=(const RankRuntime&) = delete;
  /// Bind to `rank` and register as its comm endpoint. `ctx` must
  /// outlive the runtime.
  void attach(std::int32_t rank, const Context& ctx);

  /// Arm the rank for a step: build the task order from `work`, starting
  /// at absolute time `start`. Exchange and collective use window ids
  /// `window` (the executor opens/closes them). `priority_rank` >= 0
  /// applies critical-path send priority: sends destined for that rank
  /// are scheduled before the step's other sends (relative order
  /// otherwise preserved); -1 keeps the legacy order bit-identical.
  void begin_step(const RankStepWork& work, TaskOrdering ordering,
                  std::uint64_t window, TimeNs start,
                  std::int32_t priority_rank = -1);

  /// Kick off execution (schedules the first advance).
  void start(Engine& engine);

  bool step_done() const { return step_done_; }
  const RankStepStats& stats() const { return stats_; }
  std::int32_t rank() const { return rank_; }

  // RankEndpoint
  void on_recvs_ready(Engine& engine, std::uint64_t window, TimeNs t,
                      std::int32_t releasing_src) override;
  void on_collective_done(Engine& engine, std::uint64_t window,
                          TimeNs t) override;

  // EventHandler (self-scheduled continuations)
  void on_event(Engine& engine, std::uint64_t tag) override;

 private:
  enum class TaskKind : std::uint8_t {
    kCompute,
    kPackSend,
    kLocalCopy,
    kWaitRecvs,
    kUnpack,
    kWaitSends,
  };
  // 16 bytes, so a rank's ~56 sends span 14 lines, not 35. A compute
  // carries its duration; a send, copy or unpack carries its bytes and
  // its duration is computed when it starts (duration()).
  struct Task {
    std::int64_t value = 0;    // compute: duration; otherwise: bytes
    std::int32_t dst = -1;     // send target rank
    std::uint16_t msgs = 1;    // logical messages in a kPackSend transfer
    TaskKind kind = TaskKind::kCompute;
  };
  static_assert(sizeof(Task) == 16);
  enum class State : std::uint8_t {
    kIdle,
    kRunning,        // between events, advance() drives
    kInTask,         // a timed task is in flight (continuation event)
    kPostSend,       // pack done; isend fires on the continuation event
    kWaitingRecvs,
    kWaitingSends,
    kInCollective,
  };

  void advance(Engine& engine);
  /// Simulated duration of a timed task (0 for the waits).
  TimeNs duration(const Task& t) const;

  // Hot: read by every dispatch. With the two vtable pointers these
  // fill the first 64-byte line (checked in attach()).
  const Context* ctx_ = nullptr;
  const Task* cur_ = nullptr;  ///< task being run or next to run
  const Task* end_ = nullptr;
  TimeNs max_send_release_ = 0;
  std::int32_t rank_ = -1;
  std::uint32_t window_ = 0;
  std::int32_t priority_rank_ = -1;  ///< critical-path send target
  State state_ = State::kIdle;
  bool step_done_ = false;

  // Cold: touched at step set-up, wait edges and under tracing.
  TimeNs wait_start_ = 0;
  std::int64_t ordering_tag_ = 0;  ///< TaskOrdering of the current step
  std::vector<Task> tasks_;
  RankStepStats stats_;
};

}  // namespace amr
