// Per-rank execution state machine.
//
// Each rank runs its step's task list sequentially on the DES: compute
// kernels advance the rank's clock; pack+send tasks post messages to the
// simulated fabric; waits park the rank until the Comm layer signals
// arrivals; the closing blocking collective parks it until every rank has
// entered. Its wait times, with the plan's counters the executor adds,
// are exactly the telemetry the paper's collection layer records.
//
// Event working set. A BSP step dispatches tens of events per rank in
// rank-interleaved order, so at 8192 ranks what an event costs is the
// cache lines it touches, not its instructions. A runtime is exactly one
// 64-byte line, and it reads its task run in place from the BspPlan (or,
// for a rank that sends to the send-priority target, from the executor's
// partitioned copy): each dispatch touches that line plus the 16-byte
// task under the cursor, and arming a rank for a step is O(1). What is
// shared by every rank of a step — window, send-priority target,
// ordering — lives in the executor's Context. Nothing the plan alone
// decides is counted here (the executor does that once per plan); events
// record only what depends on waiting — recv-wait, send-wait and sync —
// into the executor's per-rank RankWaitStats.
#pragma once

#include <cstdint>
#include <span>

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

/// Simulated duration of a timed task under `params` (0 for the waits):
/// a compute's cost, or its bytes over the pack or memcpy bandwidth
/// (truncated per task), plus the per-task dispatch overhead.
TimeNs bsp_task_duration(const BspTask& t, const ExecParams& params);

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

/// The part of a rank's step telemetry that depends on waiting, written
/// by its runtime's events into an executor-owned array.
struct RankWaitStats {
  TimeNs recv_wait_ns = 0;
  TimeNs send_wait_ns = 0;
  TimeNs sync_ns = 0;
  TimeNs collective_entry = 0;  ///< absolute entry time into the sync
  TimeNs done_at = 0;           ///< absolute completion time
  std::int32_t last_release_src = -1;  ///< sender ending the last stall
};

class alignas(64) RankRuntime final : public RankEndpoint,
                                     public EventHandler {
 public:
  /// What every rank of one executor shares. The executor sets the
  /// per-step fields before it arms the ranks.
  struct Context {
    Comm* comm = nullptr;
    ExecParams params;
    /// Optional: receives task-level spans on each rank's track —
    /// compute/pack/unpack spans (tagged with the step's TaskOrdering),
    /// isend instants, recv/send-wait stalls, and collective spans.
    Tracer* tracer = nullptr;
    RankWaitStats* waits = nullptr;  ///< per rank, executor-owned
    std::uint64_t window = 0;        ///< this step's exchange window
    /// Critical-path send target (-1: none): transfers to it are
    /// posted as priority transfers.
    std::int32_t priority_rank = -1;
    std::int64_t ordering_tag = 0;  ///< TaskOrdering of the step's plan
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

  /// Arm the rank to run `tasks` (read in place; they must stay put
  /// until the step ends) from absolute time `start`. The rank's wait
  /// stats must have been reset by the caller.
  void begin_step(std::span<const BspTask> tasks, TimeNs start);

  /// Kick off execution (schedules the first advance).
  void start(Engine& engine);

  bool step_done() const { return step_done_; }
  std::int32_t rank() const { return rank_; }

  // RankEndpoint
  void on_recvs_ready(std::uint64_t window, TimeNs t,
                      std::int32_t releasing_src) override;
  void on_collective_done(std::uint64_t window, TimeNs t) override;

  // EventHandler (self-scheduled continuations)
  void on_event(Engine& engine, std::uint64_t tag) override;

 private:
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
  TimeNs duration(const BspTask& t) const;
  RankWaitStats& waits() const { return ctx_->waits[rank_]; }

  // With the two vtable pointers these fill the line exactly.
  const Context* ctx_ = nullptr;
  const BspTask* cur_ = nullptr;  ///< task being run or next to run
  const BspTask* end_ = nullptr;
  TimeNs max_send_release_ = 0;
  TimeNs wait_start_ = 0;
  std::int32_t rank_ = -1;
  State state_ = State::kIdle;
  bool step_done_ = false;
};
static_assert(sizeof(RankRuntime) == 64,
              "a rank runtime is one cache line");

}  // namespace amr
