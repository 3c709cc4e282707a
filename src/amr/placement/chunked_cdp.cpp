#include "amr/placement/chunked_cdp.hpp"

#include <algorithm>

#include "amr/common/check.hpp"
#include "amr/par/thread_pool.hpp"
#include "amr/placement/cdp.hpp"

namespace amr {

std::string ChunkedCdpPolicy::name() const {
  return "chunked-cdp/" + std::to_string(chunk_ranks_);
}

namespace {

/// One contiguous chunk of the SFC block range paired with its contiguous
/// rank group.
struct ChunkSpan {
  std::size_t block_begin = 0;
  std::size_t block_end = 0;  ///< exclusive
  std::int32_t rank_begin = 0;
  std::int32_t group_ranks = 0;
};

/// The chunk decomposition: cut the block range at the rank groups'
/// proportional cost shares via one sequential prefix-sum scan.
std::vector<ChunkSpan> chunk_spans(std::span<const double> costs,
                                   std::int32_t nranks,
                                   std::int32_t chunk_ranks) {
  const std::int32_t num_chunks = chunk_count(nranks, chunk_ranks);
  std::vector<ChunkSpan> spans;
  if (num_chunks <= 1) {
    spans.push_back(ChunkSpan{0, costs.size(), 0, nranks});
    return spans;
  }
  spans.reserve(static_cast<std::size_t>(num_chunks));

  double total = 0.0;
  for (const double c : costs) total += c;

  std::size_t block_at = 0;
  std::int32_t rank_at = 0;
  double cost_seen = 0.0;
  for (std::int32_t chunk = 0; chunk < num_chunks; ++chunk) {
    // Contiguous rank group for this chunk.
    const std::int32_t group_ranks =
        std::min(chunk_ranks, nranks - rank_at);
    // Cut the block range where cumulative cost reaches the group's
    // proportional share (last chunk takes the remainder).
    std::size_t block_end = costs.size();
    if (chunk + 1 < num_chunks) {
      const double target =
          total * static_cast<double>(rank_at + group_ranks) /
          static_cast<double>(nranks);
      block_end = block_at;
      double acc = cost_seen;
      while (block_end < costs.size() && acc + costs[block_end] <= target) {
        acc += costs[block_end];
        ++block_end;
      }
      cost_seen = acc;
      // Leave enough blocks for later chunks only if they'd otherwise be
      // starved of even one block per remaining chunk (degenerate but
      // keeps CDP well-formed for zero-cost tails).
      block_end = std::min(block_end, costs.size());
    }
    spans.push_back(ChunkSpan{block_at, block_end, rank_at, group_ranks});
    block_at = block_end;
    rank_at += group_ranks;
  }
  AMR_CHECK(block_at == costs.size());
  return spans;
}

}  // namespace

std::int32_t chunk_count(std::int32_t nranks, std::int32_t chunk_ranks) {
  AMR_CHECK(nranks > 0 && chunk_ranks > 0);
  return (nranks + chunk_ranks - 1) / chunk_ranks;
}

Placement chunked_cdp_split(std::span<const double> costs,
                            std::int32_t nranks, std::int32_t chunk_ranks,
                            ThreadPool* pool) {
  const std::vector<ChunkSpan> spans =
      chunk_spans(costs, nranks, chunk_ranks);
  Placement out(costs.size(), 0);
  const auto solve = [&](std::size_t c) {
    const ChunkSpan& s = spans[c];
    const CdpPolicy cdp(CdpMode::kRestricted);
    const Placement local = cdp.place(
        costs.subspan(s.block_begin, s.block_end - s.block_begin),
        s.group_ranks);
    AMR_CHECK(local.size() == s.block_end - s.block_begin);
    for (std::size_t i = 0; i < local.size(); ++i)
      out[s.block_begin + i] = s.rank_begin + local[i];
  };
  if (pool != nullptr && spans.size() > 1)
    pool->parallel_for(spans.size(), solve);
  else
    for (std::size_t c = 0; c < spans.size(); ++c) solve(c);
  return out;
}

Placement ChunkedCdpPolicy::place(std::span<const double> costs,
                                  std::int32_t nranks) const {
  return chunked_cdp_split(costs, nranks, chunk_ranks_);
}

}  // namespace amr
