// Boundary-exchange round harness.
//
// Shared machinery behind commbench (paper §VI-C / Fig 7a) and the Fig 1/3
// tuning experiments: run repeated boundary-exchange rounds over a fixed
// mesh + placement, timing each barrier-to-barrier round, with optional
// per-block compute preceding the exchange (Fig 3 needs compute in the
// schedule to show the task-reordering effect).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "amr/common/rng.hpp"
#include "amr/exec/work.hpp"
#include "amr/net/fabric.hpp"
#include "amr/placement/policy.hpp"

namespace amr {

struct ExchangeRoundsConfig {
  std::int32_t nranks = 64;
  std::int32_t ranks_per_node = 16;
  FabricParams fabric = FabricParams::tuned();
  TaskOrdering ordering = TaskOrdering::kSendFirst;
  std::int32_t rounds = 100;
  std::int32_t warmup_rounds = 3;    ///< discarded cold-start rounds
  TimeNs outlier_cutoff = ms(10.0);  ///< discard rounds above (paper §VI-C)
  std::uint64_t seed = 7;

  /// Optional per-block compute cost preceding the exchange (Fig 3);
  /// zero = pure communication rounds (commbench).
  std::function<TimeNs(std::size_t block, std::int32_t round, Rng& rng)>
      compute_cost;
};

struct ExchangeRoundsResult {
  std::vector<double> round_latency_ms;   ///< kept rounds only
  std::int32_t rounds_discarded = 0;      ///< outliers above the cutoff
  /// Mean per-rank boundary communication time (pack+copy+waits) across
  /// kept rounds, indexed by rank — the Fig 3 rankwise series.
  std::vector<double> rank_comm_ms;
  /// Per-rank coefficient of variation of comm time across rounds.
  std::vector<double> rank_comm_cv;
  /// Raw per-(round, rank) comm-time samples (kept rounds only),
  /// indexed [round][rank]. Includes passive recv-wait idle.
  std::vector<std::vector<double>> round_rank_comm_ms;
  /// Active MPI time per (round, rank): pack/unpack/copies + send-side
  /// MPI_Wait. This is the Fig 1a "communication time" — the passive
  /// recv idle equalizes across ranks in a BSP round and would mask the
  /// work->time relation for every configuration.
  std::vector<std::vector<double>> round_rank_active_ms;
  FabricStats fabric_stats;
};

/// Run `rounds` boundary-exchange rounds of `mesh` under `placement`.
ExchangeRoundsResult run_exchange_rounds(const AmrMesh& mesh,
                                         const Placement& placement,
                                         const ExchangeRoundsConfig& config);

}  // namespace amr
