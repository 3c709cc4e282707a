// Quantum scheduler of the multi-tenant simulation service.
//
// Thousands of submitted sims multiplex over one process: each tenant
// advances `quantum_steps` per slice, batches of `serve_jobs` tenants
// slice concurrently on one amr::par::ThreadPool, and a configurable
// resident-memory budget evicts cold tenants to amr::io snapshots (the
// checkpoint format — eviction IS a checkpoint) until their next slice
// restores them.
//
// The hard contract is determinism: a job's report text is byte-
// identical whether it ran standalone (`amrcplx run`), multiplexed with
// any tenant mix, or was evicted and restored mid-run. Three properties
// carry it:
//   1. simulated time — a tenant's steps depend only on its own config,
//      never on wall-clock or co-tenants (amr/sim's core invariant);
//   2. snapshot round-trips resume byte-identically (the checkpoint
//      determinism guarantee), so eviction is invisible to output;
//   3. cross-tenant plan sharing is content-keyed (SharedPlanStore), so
//      a shared hit yields the very plan the tenant would have built.
// Scheduling choices (slice interleaving, who builds a shared plan
// first, eviction victims) may vary counters in stats(), never output.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "amr/exec/shared_plan_store.hpp"
#include "amr/sim/sim_driver.hpp"
#include "amr/telemetry/table.hpp"

namespace amr {
class ThreadPool;
}

namespace amr::serve {

struct ServeOptions {
  /// Steps a tenant advances per slice. Large values approach run-to-
  /// completion (fewer scheduling points); small values interleave
  /// tenants finely and surface eviction/restore churn.
  std::int64_t quantum_steps = 16;
  /// Tenants sliced concurrently per batch (width of the pool).
  int serve_jobs = 1;
  /// Resident-memory budget in MiB: -1 = unlimited, 0 = evict every
  /// tenant not in the running batch (the forced-eviction test hook).
  std::int64_t max_resident_mb = -1;
  /// Where eviction snapshots live (removed when their job finishes).
  std::string spill_dir = ".";
  /// Content-keyed exchange-plan sharing across tenants.
  bool share_plans = true;
};

struct SchedulerStats {
  std::int64_t jobs = 0;       ///< submitted
  std::int64_t slices = 0;     ///< tenant-quanta executed
  std::int64_t evictions = 0;  ///< tenants spilled to snapshots
  std::int64_t restores = 0;   ///< tenants revived from spills
  std::int64_t plan_hits = 0;      ///< summed tenant plan-cache hits
  std::int64_t plan_misses = 0;    ///< summed tenant plan-cache misses
  std::int64_t plan_share_hits = 0;  ///< misses filled from the store
  SharedPlanStore::Stats store;  ///< the shared store's own counters
};

/// Everything that outlives a finished tenant: its report, its stdout
/// block, and (when telemetry was collected) copies of its tables for
/// the query endpoint.
struct JobResult {
  bool ok = false;
  std::string error;  ///< set when !ok (construction/validation failure)
  std::string text;   ///< the job's stdout block (compact report text)
  RunReport report;
  std::unique_ptr<Table> phases, comm, blocks, placement;
  /// Always null: kept for ledger/ until a benchmark PR drops it.
  std::unique_ptr<Table> shards;
};

class QuantumScheduler {
 public:
  explicit QuantumScheduler(ServeOptions opts);
  ~QuantumScheduler();

  QuantumScheduler(const QuantumScheduler&) = delete;
  QuantumScheduler& operator=(const QuantumScheduler&) = delete;

  /// Queue a job; returns its dense id (submission order). Specs are
  /// validated here so a bad job surfaces at submit, not mid-drain.
  std::int64_t submit(JobSpec spec);

  /// Run every unfinished tenant to completion.
  void drain();

  std::size_t job_count() const { return tenants_.size(); }

  /// Result for a drained job; nullptr for an unknown or unfinished id.
  const JobResult* result(std::int64_t id) const;

  SchedulerStats stats() const;

 private:
  enum class State { kPending, kResident, kEvicted, kDone };

  struct Tenant {
    std::int64_t id = 0;
    JobSpec spec;
    State state = State::kPending;
    std::unique_ptr<SimDriver> driver;  ///< non-null iff kResident
    std::string spill;                  ///< snapshot path iff kEvicted
    std::int64_t last_slice = -1;       ///< LRU clock for eviction
    JobResult result;
  };

  /// Construct (kPending) or revive (kEvicted) the tenant's Simulation.
  /// Failures mark the tenant kDone with an error result.
  void make_resident(Tenant& t);
  void evict(Tenant& t);
  void finish(Tenant& t);
  /// Spill least-recently-sliced residents until under budget.
  void enforce_budget();

  ServeOptions opts_;
  std::unique_ptr<SharedPlanStore> store_;  ///< null when !share_plans
  std::unique_ptr<ThreadPool> pool_;        ///< null when serve_jobs == 1
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::size_t cursor_ = 0;       ///< round-robin position
  std::int64_t slice_clock_ = 0;
  SchedulerStats stats_;
};

}  // namespace amr::serve
