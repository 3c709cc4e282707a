// Hierarchically chunked CDP (paper §V-C, "Scaling CDP With Chunking").
//
// Divides the SFC-ordered blocks into contiguous chunks of approximately
// equal total cost, assigns each chunk a contiguous group of ranks, and
// runs restricted CDP independently per chunk. At 4096 ranks with
// chunk_ranks=512 this yields 8 independent sub-problems, solved
// concurrently when a pool is supplied — the complexity reduction is what
// matters for the placement-overhead budget.
#pragma once

#include "amr/placement/policy.hpp"

namespace amr {

class ThreadPool;

/// Number of chunks (rank groups of `chunk_ranks`, the last one possibly
/// narrower) the split of `nranks` solves independently.
std::int32_t chunk_count(std::int32_t nranks, std::int32_t chunk_ranks);

/// The chunked-CDP split: cut the block range at the rank groups'
/// proportional cost shares via one sequential prefix-sum scan, then
/// solve each chunk with restricted CDP over its rank group. A non-null
/// `pool` solves the chunks concurrently; each writes only its own block
/// range, so the output bytes never depend on the pool. ChunkedCdpPolicy,
/// CplxPolicy's base and the placement engine all call this one function.
Placement chunked_cdp_split(std::span<const double> costs,
                            std::int32_t nranks, std::int32_t chunk_ranks,
                            ThreadPool* pool = nullptr);

class ChunkedCdpPolicy final : public PlacementPolicy {
 public:
  explicit ChunkedCdpPolicy(std::int32_t chunk_ranks = 512)
      : chunk_ranks_(chunk_ranks) {}

  std::string name() const override;
  Placement place(std::span<const double> costs,
                  std::int32_t nranks) const override;

  std::int32_t chunk_ranks() const { return chunk_ranks_; }

 private:
  std::int32_t chunk_ranks_;
};

}  // namespace amr
