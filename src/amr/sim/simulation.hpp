// End-to-end AMR simulation driver.
//
// Wires the full stack together the way the paper's runs were assembled:
// workload physics evolve the mesh; telemetry from executed steps feeds
// the placement policy's cost inputs (telemetry-driven placement — the
// policy never sees oracle costs, only what was measured, including any
// hardware-fault inflation); redistribution renumbers blocks along the
// SFC, invokes the policy, and charges migration; the step executor runs
// the BSP step on the simulated cluster.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "amr/common/time.hpp"
#include "amr/exec/critical_path.hpp"
#include "amr/exec/overlap.hpp"
#include "amr/exec/work.hpp"
#include "amr/faults/injector.hpp"
#include "amr/net/fabric.hpp"
#include "amr/placement/policy.hpp"
#include "amr/sim/triggers.hpp"
#include "amr/telemetry/collector.hpp"
#include "amr/trace/tracer.hpp"
#include "amr/workloads/workload.hpp"

namespace amr {

class SharedPlanStore;

/// Execution strategy for each BSP step (paper §II-A: task-based
/// runtimes mask residual imbalance by overlapping independent work).
enum class ExecutionMode : std::uint8_t { kBsp = 0, kOverlap = 1 };

constexpr const char* to_string(ExecutionMode m) {
  return m == ExecutionMode::kBsp ? "bsp" : "overlap";
}

struct SimulationConfig {
  std::int32_t nranks = 64;
  std::int32_t ranks_per_node = 16;
  RootGrid root_grid{4, 4, 4};
  std::int64_t steps = 50;
  TaskOrdering ordering = TaskOrdering::kSendFirst;
  ExecutionMode execution = ExecutionMode::kBsp;
  /// Fine->coarse flux-correction messages along refinement boundaries
  /// (paper §II-B).
  bool include_flux_correction = true;
  /// Per-peer message packing: each (src,dst) pair with two or more
  /// boundary sends in a step coalesces them into one packed transfer
  /// (Parthenon-style neighbor-buffer packing), under both BSP (the
  /// receiver waits for all arrivals, so deferral is free) and fused
  /// two-stage overlap (contributors write straight into the packed
  /// buffer, so packing costs no CPU); overlap receivers credit every
  /// destination block when the packed transfer arrives. The flag is in
  /// the snapshot fingerprint. Off = byte-identical legacy behavior.
  bool comm_adaptive = false;
  /// Critical-path-aware send priority (§IV critical-path model): each
  /// step schedules sends destined for the previous window's straggler
  /// rank — the predicted critical-path successor — before other sends.
  /// Off = legacy send order, byte-identical.
  bool send_priority = false;
  FabricParams fabric = FabricParams::tuned();
  std::uint64_t seed = 42;

  /// The paper's hard redistribution budget: placement computation must
  /// finish within placement_budget_ms of real time. With enforcement
  /// on, an over-budget result is discarded in favour of the cheap
  /// baseline split for that invocation (and counted in the report).
  double placement_budget_ms = 50.0;
  bool enforce_placement_budget = false;

  /// Auto-X: hand redistribution decisions to the self-tuning CPLX
  /// engine (placement/tuner.hpp). Each regrid epoch it scores, in
  /// parallel, the candidate X values that fit the paper's 50 ms budget
  /// under a modeled per-candidate cost (TunerConfig), picks the one
  /// whose predicted step time is lowest, and learns the predictor online
  /// from the run's own simulated telemetry. The configured policy still
  /// provides the initial placement and the CPLX chunk width; reports
  /// carry policy name "auto-cplx". Off = byte-identical legacy
  /// behaviour. Snapshot fingerprint axis (format v5); tuner state rides
  /// in the snapshot so restored runs decide identically.
  bool auto_cplx = false;

  /// When to redistribute beyond mandatory mesh changes.
  RebalanceTrigger trigger{};

  /// Record per-(step,rank) rows into the telemetry collector.
  bool collect_telemetry = true;

  /// Event-level tracing (off by default; see amr/trace/tracer.hpp).
  /// When enabled the run records task spans, message flows, fabric
  /// counters, fault transitions, and the critical-path overlay into a
  /// bounded ring buffer exposed via Simulation::tracer().
  bool trace_enabled = false;
  TraceConfig trace{};

  /// Checkpointing: every `checkpoint_every` steps (0 = never) write a
  /// snapshot `ckpt_<step>.amrs` into `checkpoint_dir`. Snapshots are
  /// taken at step boundaries (drained event queue); restoring one and
  /// continuing reproduces the uninterrupted run byte-for-byte (ctest
  /// checkpoint_determinism holds the stack to it).
  std::int64_t checkpoint_every = 0;
  std::string checkpoint_dir = ".";

  /// Cross-tenant exchange-plan sharing (amrcplx serve): when set, the
  /// run's plan cache consults this store on every version-key miss and
  /// publishes what it builds. Borrowed, thread-safe, and deliberately
  /// outside the snapshot fingerprint — hits only change who built a
  /// plan, never its bytes, so sharing is invisible to stdout, reports,
  /// tables, and checkpoints. Tenants may only share a store when their
  /// (topology, mode-matrix) fingerprints agree; SharedPlanStore
  /// re-verifies every axis per lookup regardless.
  SharedPlanStore* shared_plans = nullptr;

  FaultInjector faults;
};

/// Phase totals averaged across ranks, in seconds of simulated time.
struct PhaseBreakdown {
  double compute = 0.0;
  double comm = 0.0;
  double sync = 0.0;
  double rebalance = 0.0;

  double total() const { return compute + comm + sync + rebalance; }
};

struct RunReport {
  std::string policy;
  double wall_seconds = 0.0;       ///< simulated end-to-end runtime
  PhaseBreakdown phases;           ///< rank-averaged phase seconds
  std::int64_t steps = 0;
  std::int64_t lb_invocations = 0; ///< redistributions performed
  std::size_t initial_blocks = 0;
  std::size_t final_blocks = 0;
  std::int64_t msgs_local = 0;     ///< intra-node MPI messages
  std::int64_t msgs_remote = 0;    ///< inter-node MPI messages
  std::int64_t msgs_intra_rank = 0;  ///< memcpy'd neighbor pairs
  std::int64_t bytes_local = 0;
  std::int64_t bytes_remote = 0;
  /// Packing effect (0 unless comm_adaptive): logical messages
  /// absorbed into packed transfers, and the bytes those transfers moved.
  std::int64_t msgs_coalesced = 0;
  std::int64_t bytes_packed = 0;
  std::int64_t blocks_migrated = 0;
  std::int64_t budget_violations = 0;  ///< placements over the budget
  std::vector<double> rank_compute_seconds;  ///< per-rank compute totals
  std::vector<double> placement_ms;  ///< real wall-clock per invocation
  CriticalPathStats critical_path;
};

/// Incrementality counters for the last run() — diagnostics only, kept
/// out of RunReport so reports stay byte-identical across restores.
struct StepPipelineStats {
  std::int64_t plan_hits = 0;    ///< steps served from the plan cache
  std::int64_t plan_misses = 0;  ///< steps that (re)built plans
  /// Of the misses, how many were filled from a cross-tenant
  /// SharedPlanStore. A scheduling artifact (who built first), so unlike
  /// the counters above it is never serialized into snapshots and resets
  /// on restore.
  std::int64_t plan_share_hits = 0;
  /// Predictions from (mesh, placement) version changes; the actual
  /// counters must match these. Restores rebuild the live cache, so the
  /// trace's plan-cache counter track records these, not the actuals.
  std::int64_t predicted_hits = 0;
  std::int64_t predicted_misses = 0;
  std::int64_t telemetry_drops = 0;  ///< cost carries lost to aged remaps
};

struct SimState;
struct SimRuntime;

class Simulation {
 public:
  /// The workload and policy are borrowed for the lifetime of the run.
  Simulation(SimulationConfig config, Workload& workload,
             const PlacementPolicy& policy);
  ~Simulation();

  /// Execute the configured number of steps (or the remaining ones after
  /// restore_checkpoint). Telemetry accumulates in collector(); the
  /// report summarizes the run. The run loop is an explicit state
  /// machine — begin / advance* / finish — over SimState, and those
  /// pieces are public so a scheduler can time-slice the run:
  /// run() == begin(); advance(all); finish().
  RunReport run();

  /// Construct runtime + state and compute the initial placement. A
  /// no-op if the run is already begun (so restore_checkpoint composes);
  /// after finish() a further begin() starts over from scratch.
  void begin();

  /// Execute up to `max_steps` further steps (honouring the configured
  /// checkpoint cadence) and return how many actually ran — fewer only
  /// when the step horizon is reached. Implies begin(). A checkpoint
  /// that cannot be written throws io::SnapshotError naming its path.
  /// The quantum scheduler's slice primitive: any partition of the
  /// horizon into advance() calls is byte-identical to one run() (steps
  /// are the state-machine granularity; nothing carries across the
  /// boundary that is not in SimState).
  std::int64_t advance(std::int64_t max_steps);

  /// True once every configured step has executed (begun or finished).
  bool done() const;

  /// Seal and return the report; requires done(). Resets the begun flag
  /// so the next run()/begin() starts over.
  RunReport finish();

  /// Modeled resident-set estimate of a begun simulation in bytes: mesh
  /// + placement + carried telemetry + exchange plans + collector
  /// tables. Deterministic (capacity-based, no allocator introspection);
  /// the serve scheduler's eviction signal, not an exact RSS.
  std::size_t resident_bytes() const;

  /// Snapshot the full simulation (config fingerprint, SimState, DES
  /// clock, RNG streams, fabric dynamics, workload, telemetry, trace
  /// ring) at the current step boundary. Returns false on I/O failure.
  bool save_checkpoint(const std::string& path) const;

  /// Resume from a snapshot: the next run() continues at the saved step
  /// and produces output byte-identical to the uninterrupted run. The
  /// configured policy may differ from the saved one (the what-if); the
  /// config fingerprint must otherwise match or io::SnapshotError is
  /// thrown.
  void restore_checkpoint(const std::string& path);

  /// Steps completed so far (0 before any run; config.steps after one).
  std::int64_t current_step() const;

  const Collector& collector() const { return collector_; }

  /// Non-null iff config.trace_enabled; survives across run() calls so
  /// exporters can consume the buffer afterwards.
  const Tracer* tracer() const { return tracer_.get(); }

  /// Cache behaviour of the last run().
  const StepPipelineStats& pipeline_stats() const;

  /// Live shared-store fill count of the current run session (the serve
  /// scheduler harvests this before evicting, since eviction discards
  /// the plan cache along with the runtime).
  std::int64_t plan_share_hits() const;

 private:
  /// Construct runtime + state and compute the initial placement.
  void begin_run();
  /// Execute one full step (evolve, rebalance, faults, execute,
  /// telemetry) and advance state_->step.
  void step_once();
  /// Seal the report (wall clock, final blocks, critical path).
  RunReport finish_run();

  /// Fill per-block cost estimates for placement; false when telemetry
  /// is not yet available and the uniform default was used (the auto-X
  /// tuner must not scale-learn from such an epoch).
  bool estimated_costs(const AmrMesh& mesh, std::vector<TimeNs>& out);
  void remember_costs(const AmrMesh& mesh,
                      std::span<const TimeNs> measured);
  /// Carry state_->measured_flat forward to mesh.version() by composing
  /// the mesh's renumbering records; false if telemetry had to be
  /// dropped (no measurements yet, or a remap aged out of the history).
  bool sync_measured_costs(const AmrMesh& mesh);
  /// prev_rank[b] = rank block b had under `placement` computed at mesh
  /// version `from_version` (-1 if b did not exist then): the carried-only
  /// composition of the renumbering records from that version to now.
  void previous_ranks(const AmrMesh& mesh, std::uint64_t from_version,
                      const Placement& placement,
                      std::vector<std::int32_t>& prev_rank);

  SimulationConfig config_;
  Workload& workload_;
  const PlacementPolicy& policy_;
  Collector collector_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<SimRuntime> runtime_;
  std::unique_ptr<SimState> state_;
  /// True between begin_run/restore_checkpoint and the end of run();
  /// run() on a finished simulation starts over from scratch.
  bool begun_ = false;
};

}  // namespace amr
