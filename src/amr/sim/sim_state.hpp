// Explicit simulation state: the SimState/SimRuntime split behind the
// resumable run loop (DESIGN.md "State model & snapshot format").
//
// SimState is every piece of information that crosses a step boundary —
// the mesh and its renumbering history, the current placement and the
// version pair keying the plan cache, carried telemetry costs, the
// accumulating RunReport, fault edges, pipeline counters. SimRuntime is
// the machinery that is *reconstructed*, not restored: topology, DES
// engine, fabric, comm, executors, plan cache, and the per-step scratch
// buffers. A checkpoint serializes SimState plus the small dynamic parts
// of the runtime that cannot be recomputed (DES clock, RNG streams,
// fabric NIC/queue occupancy) — everything else is rebuilt
// deterministically from the config.
//
// Snapshots are taken only at step boundaries, where the event queue is
// drained (executors run each window to completion), so the DES engine
// reduces to its clock and no pending event — which holds a raw handler
// pointer — ever needs to be serialized.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "amr/des/engine.hpp"
#include "amr/exec/plan_cache.hpp"
#include "amr/exec/step_executor.hpp"
#include "amr/par/thread_pool.hpp"
#include "amr/placement/tuner.hpp"
#include "amr/sim/simulation.hpp"

namespace amr {

namespace io {
class SnapshotReader;
class SnapshotWriter;
}  // namespace io

/// Cross-step simulation state. Everything here (plus the runtime's
/// clock/RNG/fabric dynamics) is what a snapshot captures.
struct SimState {
  explicit SimState(const SimulationConfig& config)
      : mesh(config.root_grid), placement_mesh_version(mesh.version()) {}

  std::int64_t step = 0;
  AmrMesh mesh;
  Placement placement;
  /// (mesh.version(), placement_version) keys the exchange-plan cache;
  /// placement_mesh_version remembers which numbering the current
  /// placement refers to, for migration accounting across regrids.
  std::uint64_t placement_version = 0;
  std::uint64_t placement_mesh_version = 0;
  bool have_plan_key = false;
  std::uint64_t last_plan_mesh = 0;
  std::uint64_t last_plan_placement = 0;
  double last_imbalance = 1.0;  ///< measured max/mean compute of last step
  /// Straggler rank of the last executed window (-1 before the first
  /// step): the predicted critical-path successor that send_priority
  /// schedules toward. Serialized so restored runs prioritize
  /// identically.
  std::int32_t last_straggler = -1;
  std::vector<ActiveFault> prev_faults;  ///< for fault-edge trace instants

  // Measured per-block costs in block-ID order at mesh version
  // measured_version, carried across renumberings (simulation.cpp sync).
  std::vector<TimeNs> measured_flat;
  std::uint64_t measured_version = 0;
  bool measured_valid = false;

  /// Auto-X tuner state plus the simulated-time accumulators feeding it
  /// (executed-window wall of the current placement epoch). Serialized
  /// in the snapshot's "tuner" section (format v5) so a restored run
  /// makes byte-identical tuning decisions. Untouched unless auto_cplx.
  TunerState tuner;
  std::int64_t epoch_steps = 0;
  TimeNs epoch_wall_ns = 0;

  StepPipelineStats pipeline_stats;
  /// Plan-cache hit/miss counts accumulated before the last restore; the
  /// live cache counts only since then (it is rebuilt, which costs one
  /// extra miss per restore — diagnostics only, never printed).
  std::int64_t plan_hits_base = 0;
  std::int64_t plan_misses_base = 0;

  RunReport report;
};

/// Run-scoped machinery, heap-allocated for address stability (the
/// fabric references the topology; comm references engine and fabric).
/// Reconstructed from the config on restore, then patched with the
/// snapshot's clock/RNG/fabric dynamics.
struct SimRuntime {
  SimRuntime(const SimulationConfig& config, Tracer* tracer);

  ClusterTopology topo;
  Engine engine;
  Rng rng;  ///< root stream (already split for the fabric)
  Fabric fabric;
  Comm comm;
  // Exactly one executor registers rank endpoints on the comm.
  std::unique_ptr<StepExecutor> bsp_executor;
  std::unique_ptr<OverlapExecutor> overlap_executor;
  CriticalPathAnalyzer critical_path;
  ExchangePlanCache plan_cache;

  /// Auto-X only (null/inert otherwise). The engine gets its OWN pool:
  /// sweeps run whole Simulations inside worker tasks, and
  /// ThreadPool::parallel_for is not reentrant, so borrowing an outer
  /// pool would deadlock.
  std::unique_ptr<ThreadPool> placement_pool;
  PlacementEngine placement_engine;
  std::unique_ptr<AutoXTuner> auto_tuner;  ///< auto_cplx only
  // Auto-X per-epoch scratch, reused across all epochs.
  std::vector<CandidateEval> cand_evals;
  std::vector<std::int32_t> cand_indices;
  std::vector<double> cand_xs;

  // Step-loop scratch, reused across all steps.
  std::vector<TimeNs> est;
  std::vector<double> est_d;
  std::vector<std::int32_t> prev_rank;
  std::vector<std::int64_t> migrate_bytes;
  std::vector<TimeNs> costs;
  std::vector<TimeNs> cost_scratch;
  std::vector<std::int32_t> rank_scratch_a;
  std::vector<std::int32_t> rank_scratch_b;
};

/// Serialize the full simulation to `path`. The tracer may be null.
/// Returns false on file I/O failure.
bool save_snapshot(const std::string& path, const SimulationConfig& config,
                   const SimState& state, const SimRuntime& runtime,
                   const Workload& workload, const Collector& collector,
                   const Tracer* tracer);

/// Restore a snapshot into freshly begun state/runtime. Throws
/// io::SnapshotError if the file is malformed or its config fingerprint
/// (cluster shape, seed, modes, workload and its parameters, fault
/// schedule) does not match `config`. The policy and the step horizon
/// are deliberately NOT part of the fingerprint: a restore under
/// another policy is the what-if, and a cooling run may continue to a
/// different step count (a Sedov run may not: its front's time scale is
/// its step count).
void restore_snapshot(const std::string& path,
                      const SimulationConfig& config, SimState& state,
                      SimRuntime& runtime, Workload& workload,
                      Collector& collector, Tracer* tracer);

/// The snapshot's "fabric" section: the field list of one Fabric::State,
/// walked by an io::SnapshotWriter (const state) or io::SnapshotReader.
/// Exposed for round-trip tests.
template <class Ar, class S>
void fabric_section(Ar& ar, S& fab);

/// The snapshot's "collector" section: the four telemetry tables as
/// stored (format v9; v11 dropped the block-records flag before them).
/// The reader throws io::SnapshotError on any inconsistent chunk.
/// Exposed for malformed-input tests.
void write_collector_section(io::SnapshotWriter& w,
                             const Collector& collector);
void read_collector_section(io::SnapshotReader& r, Collector& collector);

}  // namespace amr
