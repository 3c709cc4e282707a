// Cross-tenant exchange-plan store for the multi-tenant serve scheduler.
//
// A single tenant's ExchangePlanCache is version-keyed: (mesh version,
// placement version) is enough because one simulation owns its own
// counters. Versions mean nothing across tenants — two fleets at "mesh
// v7 / placement v3" can hold arbitrarily different meshes — so the
// shared store keys on *content*: every input that shapes plan bytes
// other than the per-step compute durations (which every consumer
// re-patches, exactly as a private cache hit does).
//
//   key = (mode, nranks, flux, stage split, message-size model,
//          packing policy, mesh leaves, placement vector)
//
// Identical-fingerprint tenant fleets — policy sweeps fanned out over
// the same workload, what-if replays of one snapshot, N users running
// the same scenario — walk identical (mesh, placement) sequences, so
// the first tenant through a regrid epoch builds the plan and the rest
// copy it out instead of re-running neighbor collection. Lookups
// compare the full key (hash prefilter, then exact vector equality):
// a hit is provably the plan the consumer would have built, which is
// what keeps shared results byte-identical to private-cache runs. Any
// mode-matrix mismatch — execution mode, packing threshold, flux
// flag, message sizes — simply never matches, isolating the tenants.
//
// Thread-safe (tenants slice concurrently on the serve pool); bounded
// FIFO capacity so a long-lived server cannot hoard dead epochs. Hits
// and misses under capacity pressure depend on tenant interleaving, but
// only perf and stats do — plan bytes never.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "amr/exec/overlap.hpp"
#include "amr/exec/work.hpp"
#include "amr/mesh/coords.hpp"
#include "amr/placement/metrics.hpp"

namespace amr {

class SharedPlanStore {
 public:
  struct Stats {
    std::int64_t hits = 0;       ///< lookups served from the store
    std::int64_t misses = 0;     ///< lookups that found no entry
    std::int64_t published = 0;  ///< plans inserted
    std::int64_t evicted = 0;    ///< entries dropped to the capacity cap
  };

  /// Everything that shapes plan bytes except compute durations. The
  /// blocks/placement vectors are owned copies: the store must outlive
  /// any mesh epoch it has seen.
  struct Key {
    bool overlap = false;  ///< overlap_work vs step_work shape
    std::int32_t nranks = 0;
    bool include_flux = false;  ///< BSP only (overlap builds carry none)
    double stage1_frac = 0.0;   ///< overlap two-stage split (0 = legacy)
    MessageSizeModel sizes;
    PackingPolicy packing;
    std::vector<BlockCoord> blocks;
    std::vector<std::int32_t> placement;

    friend bool operator==(const Key&, const Key&) = default;
    std::uint64_t hash() const;
  };

  /// At most `max_entries` plans are retained (oldest-published first
  /// out). The default comfortably covers the live regrid epochs of a
  /// few distinct fleets without letting a day-long server accumulate
  /// every epoch it ever saw.
  explicit SharedPlanStore(std::size_t max_entries = 64);

  /// Copy the stored BSP plan for `key` into `out` (true on a hit).
  /// Durations in `out` are the publisher's — the caller re-patches
  /// them, same as a private-cache hit.
  bool lookup_bsp(const Key& key, std::vector<RankStepWork>& out);
  /// Overlap analogue.
  bool lookup_overlap(const Key& key, std::vector<OverlapRankWork>& out);

  /// Insert a freshly built plan (no-op if the key is already present —
  /// two tenants can race to build the same epoch; first insert wins and
  /// both results are identical by construction).
  void publish_bsp(Key key, const std::vector<RankStepWork>& plan);
  void publish_overlap(Key key, const std::vector<OverlapRankWork>& plan);

  /// Snapshot of the counters (mutex-consistent copy).
  Stats stats() const;

  /// Entries currently held.
  std::size_t size() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    Key key;
    // Exactly one is populated, per key.overlap.
    std::vector<RankStepWork> bsp;
    std::vector<OverlapRankWork> overlap;
  };

  const Entry* find_locked(std::uint64_t hash, const Key& key) const;
  void publish_locked(std::uint64_t hash, Key&& key,
                      std::vector<RankStepWork> bsp,
                      std::vector<OverlapRankWork> overlap);

  mutable std::mutex mu_;
  std::size_t max_entries_;
  std::deque<Entry> entries_;  ///< publication order (FIFO eviction)
  Stats stats_;
};

}  // namespace amr
