// The ledger's four workloads, driven only through the library's public
// entry points (job_config, Simulation::begin/advance/finish, make_policy,
// QuantumScheduler, run_table_query, save/restore_checkpoint). Every
// timing here is taken by the benchmark's own clock around those calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace ledger {

/// Per-layer counters of one pass, summed over every simulation in it.
struct Layers {
  std::int64_t placement_calls = 0;
  double placement_ms_total = 0.0;
  std::int64_t blocks_migrated = 0;
  std::int64_t budget_violations = 0;
  std::int64_t chunks_reused = 0;
  std::int64_t chunks_total = 0;
  std::int64_t placement_rows = 0;  ///< Collector `placement` rows
  double candidates_sum = 0.0;
  double err_ewma_final = 0.0;
  std::int64_t plan_hits = 0;
  std::int64_t plan_misses = 0;
  std::int64_t plan_share_hits = 0;
  std::int64_t msgs_local = 0;
  std::int64_t msgs_remote = 0;
  std::int64_t msgs_memcpy = 0;
  std::int64_t msgs_coalesced = 0;
  std::int64_t bytes_remote = 0;
  std::int64_t telemetry_rows = 0;
  std::int64_t telemetry_bytes = 0;
  std::vector<double> query_ms;  ///< CPU ms per query
  std::int64_t query_errors = 0;
  std::int64_t blocks_initial = 0;
  std::int64_t blocks_final = 0;
  std::int64_t serve_slices = 0;
  std::int64_t serve_evictions = 0;
  std::int64_t serve_restores = 0;
  std::int64_t store_hits = 0;
  std::int64_t store_lookups = 0;
  /// Set only by the traced run's extra passes (see Bench::extras).
  double io_save_ms = 0.0;
  double io_restore_ms = 0.0;
  double io_snapshot_mb = 0.0;
  std::int64_t trace_events = 0;
  std::int64_t trace_dropped = 0;
  double trace_overhead_ratio = 0.0;

  /// Logical messages: transfers plus the sends packed into them.
  std::int64_t logical_msgs() const {
    return msgs_local + msgs_remote + msgs_memcpy + msgs_coalesced;
  }
};

/// One run of the workload's fixed horizon (a serve session for serve).
/// Host times are process CPU time (every thread) unless named wall:
/// on a shared virtual machine, wall time also counts the time the
/// hypervisor gave the vCPU to someone else.
struct Pass {
  double run_ms = 0.0;      ///< wall time of the timed part
  double run_cpu_ms = 0.0;  ///< CPU time of the timed part
  std::int64_t steps = 0;   ///< simulated steps (tenant-steps on serve)
  std::vector<double> step_ms;  ///< CPU ms of each advance(1)
  /// RunReport::placement_ms (the library's wall clock per
  /// redistribution), in report order, every report of the pass.
  std::vector<double> placement_ms;
  std::string answer;  ///< simulated answers, checked against the record
  OpCount ops;
  Layers layers;
};

/// One set-up, from the job spec to the first runnable step, in CPU ms.
struct Setup {
  double total_ms = 0.0;
  double construct_ms = 0.0;  ///< workload + policy + Simulation (serve:
                              ///< scheduler construction)
  double begin_ms = 0.0;      ///< begin() (serve: submitting the fleet)
};

class Bench {
 public:
  virtual ~Bench() = default;
  /// Set-ups made before each pass; setup_s is the median of all of them.
  virtual int setup_reps() const = 0;
  /// Build and free one set-up.
  virtual Setup setup_once() = 0;
  /// Run the fixed horizon once; `spans` is null in the untraced run.
  virtual Pass pass(SpanRecorder* spans) = 0;
  /// Traced-run-only measurements that are no part of the timed pass
  /// (library tracer cost, snapshot I/O). `untraced` is the run's
  /// untraced pass, the base of overhead ratios. Adds its operations to
  /// `ops`.
  virtual void extras(const Pass& untraced, SpanRecorder* spans,
                      Layers& out, OpCount& ops) {
    (void)untraced, (void)spans, (void)out, (void)ops;
  }
};

/// nullptr for an unknown name. `work_dir` holds serve spills and
/// snapshot files; it must exist.
std::unique_ptr<Bench> make_bench(const std::string& name, std::uint64_t seed,
                                  const std::string& work_dir);

}  // namespace ledger
