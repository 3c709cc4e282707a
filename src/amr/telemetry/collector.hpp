// In-situ telemetry collection facade.
//
// Plays the role of the paper's MPI/Kokkos-profiling-interface collection
// layer (§IV-C): the simulation driver records per-(step, rank) phase
// durations, per-(step, rank) message aggregates and, under auto-X, one
// placement row per redistribution into structured tables that the query
// engine analyzes and binary_io persists. The per-(step, block) cost
// table has a schema and an API but no simulation writer.
#pragma once

#include <cstdint>

#include "amr/common/time.hpp"
#include "amr/telemetry/table.hpp"

namespace amr {

/// Execution phases of a BSP AMR timestep (Fig 6a's decomposition).
enum class Phase : std::int64_t {
  kCompute = 0,    ///< physics kernels on local blocks
  kComm = 1,       ///< boundary exchange: packs, sends, recv waits
  kSync = 2,       ///< blocking collective wait
  kRebalance = 3,  ///< placement computation + block migration
};

constexpr const char* to_string(Phase p) {
  switch (p) {
    case Phase::kCompute: return "compute";
    case Phase::kComm: return "comm";
    case Phase::kSync: return "sync";
    case Phase::kRebalance: return "rebalance";
  }
  return "?";
}

class Collector {
 public:
  Collector();

  /// phases(step i64, rank i64, phase i64, dur_ns i64)
  void record_phase(std::int64_t step, std::int32_t rank, Phase phase,
                    TimeNs dur);

  /// comm(step, rank, msgs_local i64, msgs_remote i64, bytes_local i64,
  ///      bytes_remote i64, send_wait_ns i64, recv_wait_ns i64,
  ///      msgs_coalesced i64, bytes_packed i64)
  /// The last two count message aggregation (0 on the legacy path), so
  /// msgs_local/msgs_remote before vs after --comm-adaptive are directly
  /// queryable from the same table.
  void record_comm(std::int64_t step, std::int32_t rank,
                   std::int64_t msgs_local, std::int64_t msgs_remote,
                   std::int64_t bytes_local, std::int64_t bytes_remote,
                   TimeNs send_wait, TimeNs recv_wait,
                   std::int64_t msgs_coalesced = 0,
                   std::int64_t bytes_packed = 0);

  /// blocks(step, block i64, rank i64, cost_ns i64)
  void record_block(std::int64_t step, std::int32_t block,
                    std::int32_t rank, TimeNs cost);

  /// placement(step i64, x f64, mode i64, candidates i64,
  ///           chunks_reused i64, chunks_total i64, moved i64,
  ///           predicted_ns f64, measured_ns f64, err_ewma f64) — one
  /// row per auto-X redistribution (empty for other runs). `x` is the
  /// chosen CPLX X; `mode` is the tuner mode (0 surrogate, 1 measured
  /// probe); `chunks_reused` is always 0; `measured_ns` is the mean
  /// executed-window wall the tuner observed for the PREVIOUS epoch.
  /// All values are simulated/deterministic — no host wall-clock.
  void record_placement(std::int64_t step, double x, std::int64_t mode,
                        std::int64_t candidates, std::int64_t chunks_reused,
                        std::int64_t chunks_total, std::int64_t moved,
                        double predicted_ns, double measured_ns,
                        double err_ewma);

  const Table& phases() const { return phases_; }
  const Table& comm() const { return comm_; }
  const Table& blocks() const { return blocks_; }
  /// Always empty: kept for ledger/ until a benchmark PR drops it.
  const Table& shards() const { return shards_; }
  const Table& placement() const { return placement_; }

  /// Drop all recorded rows (schemas survive). Long sweeps and the
  /// trace->table exporters use this to reuse one collector per run.
  void clear();

  /// Replace all four tables with checkpointed copies. The tables must
  /// carry this collector's schemas (schema mismatch aborts).
  void restore(Table phases, Table comm, Table blocks, Table placement);

  /// Total heap bytes held by the tables' encoded column storage.
  std::size_t bytes_used() const;

 private:
  Table phases_;
  Table comm_;
  Table blocks_;
  Table shards_;
  Table placement_;
};

}  // namespace amr
