#include "amr/placement/engine.hpp"

#include <algorithm>

#include "amr/common/check.hpp"
#include "amr/par/thread_pool.hpp"
#include "amr/placement/cdp.hpp"

namespace amr {

const Placement& PlacementEngine::base_split(std::span<const double> costs,
                                             std::int32_t nranks,
                                             std::int32_t chunk_ranks,
                                             std::uint64_t cost_epoch) {
  ++stats_.epochs;
  const bool config_same =
      nranks == prev_nranks_ && chunk_ranks == prev_chunk_ranks_;

  // Fast path: provably identical inputs (same mesh version + cost
  // provenance token). Skips even the content comparison.
  if (config_same && have_epoch_ && cost_epoch == prev_cost_epoch_ &&
      base_.size() == costs.size()) {
    ++stats_.base_reused;
    last_total_ = static_cast<std::int64_t>(chunks_.size());
    last_reused_ = last_total_;
    stats_.chunks_total += last_total_;
    stats_.chunks_reused += last_reused_;
    return base_;
  }

  // Canonical boundaries, always recomputed: any cost change shifts the
  // proportional targets, so boundary reuse would not be sound — but the
  // scan is O(n), cheap next to the per-chunk DP it gates.
  const std::vector<ChunkSpan> spans =
      chunk_spans(costs, nranks, chunk_ranks);

  // A chunk solve is reusable when its rank group and sub-cost content
  // match the previous epoch's record at the same chunk index. Rank
  // groups are positionally fixed for a given (nranks, chunk_ranks), and
  // restricted CDP is a pure function of (sub-costs, group_ranks), so a
  // content match guarantees an identical local solve even if the chunk's
  // absolute block offsets shifted.
  std::vector<std::uint8_t> reuse(spans.size(), 0);
  if (config_same) {
    const std::size_t overlap = std::min(spans.size(), chunks_.size());
    for (std::size_t i = 0; i < overlap; ++i) {
      const ChunkSpan& s = spans[i];
      const ChunkRecord& r = chunks_[i];
      const std::size_t len = s.block_end - s.block_begin;
      if (r.span.group_ranks == s.group_ranks && r.costs.size() == len &&
          std::equal(costs.begin() +
                         static_cast<std::ptrdiff_t>(s.block_begin),
                     costs.begin() +
                         static_cast<std::ptrdiff_t>(s.block_end),
                     r.costs.begin()))
        reuse[i] = 1;
    }
  }

  chunks_.resize(spans.size());
  const auto solve = [&](std::size_t i) {
    ChunkRecord& r = chunks_[i];
    if (reuse[i] != 0) {
      r.span = spans[i];  // offsets may have shifted; the solve has not
      return;
    }
    r.span = spans[i];
    r.costs.assign(
        costs.begin() + static_cast<std::ptrdiff_t>(spans[i].block_begin),
        costs.begin() + static_cast<std::ptrdiff_t>(spans[i].block_end));
    const CdpPolicy cdp(CdpMode::kRestricted);
    r.local = cdp.place(std::span<const double>(r.costs),
                        spans[i].group_ranks);
  };
  // Each task writes only its own record; the barrier in parallel_for
  // publishes every slot before the stitch below reads them.
  if (pool_ != nullptr && spans.size() > 1)
    pool_->parallel_for(spans.size(), solve);
  else
    for (std::size_t i = 0; i < spans.size(); ++i) solve(i);

  base_.assign(costs.size(), 0);
  last_total_ = static_cast<std::int64_t>(spans.size());
  last_reused_ = 0;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const ChunkRecord& r = chunks_[c];
    AMR_CHECK(r.local.size() == r.span.block_end - r.span.block_begin);
    for (std::size_t i = 0; i < r.local.size(); ++i)
      base_[r.span.block_begin + i] = r.span.rank_begin + r.local[i];
    if (reuse[c] != 0) ++last_reused_;
  }
  stats_.chunks_total += last_total_;
  stats_.chunks_reused += last_reused_;

  prev_nranks_ = nranks;
  prev_chunk_ranks_ = chunk_ranks;
  prev_cost_epoch_ = cost_epoch;
  have_epoch_ = true;
  return base_;
}

Placement PlacementEngine::place_cplx(std::span<const double> costs,
                                      std::int32_t nranks, double x_percent,
                                      std::int32_t chunk_ranks,
                                      std::uint64_t cost_epoch) {
  const Placement& base = base_split(costs, nranks, chunk_ranks, cost_epoch);
  // Whole-placement memo: every chunk reused means the cost content is
  // identical to the previous epoch's, and the rebalance is a pure
  // function of (costs, base, nranks, x) — the previous output IS the
  // full-rebuild answer.
  const bool content_unchanged =
      last_total_ > 0 && last_reused_ == last_total_;
  if (content_unchanged && out_valid_ && x_percent == prev_x_) {
    ++stats_.placements_reused;
    return out_;
  }
  if (scratch_.empty()) scratch_.resize(1);
  CplxPolicy::rebalance_into(costs, base, nranks, x_percent, out_,
                             scratch_[0], pool_);
  prev_x_ = x_percent;
  out_valid_ = true;
  return out_;
}

void PlacementEngine::evaluate_candidates(
    std::span<const double> costs, std::int32_t nranks,
    std::span<const double> xs, std::int32_t chunk_ranks,
    std::uint64_t cost_epoch, const AmrMesh& mesh,
    const ClusterTopology& topo, const MessageSizeModel& sizes,
    std::vector<CandidateEval>& out) {
  const Placement& base = base_split(costs, nranks, chunk_ranks, cost_epoch);
  // Candidate evals never feed the whole-placement memo (its content
  // check only reaches back one base_split), so invalidate it.
  out_valid_ = false;
  out.resize(xs.size());
  if (scratch_.size() < xs.size()) scratch_.resize(xs.size());
  // Materialize the mesh's lazily built neighbor cache on this thread:
  // comm_metrics reads it from every worker, and the first call mutates.
  mesh.neighbor_lists();
  // The X-independent rebalance work runs once, on this thread, where
  // its sorts may use the pool (parallel_for is not reentrant, so the
  // per-X tails below stay sequential inside each task).
  double max_x = 0.0;
  for (const double x : xs) max_x = std::max(max_x, x);
  CplxPolicy::rebalance_prefix(costs, base, nranks, max_x, prefix_, pool_);
  const auto eval = [&](std::size_t i) {
    CandidateEval& ce = out[i];
    ce.x_percent = xs[i];
    CplxPolicy::rebalance_tail(costs, base, xs[i], prefix_, ce.placement,
                               scratch_[i]);
    const LoadMetrics lm = load_metrics(costs, ce.placement, nranks);
    ce.makespan = lm.makespan;
    ce.mean_load = lm.mean_load;
    ce.imbalance = lm.mean_load > 0.0 ? lm.imbalance : 1.0;
    const CommMetrics cm = comm_metrics(mesh, ce.placement, topo, sizes);
    ce.remote_share = cm.remote_fraction();
  };
  if (pool_ != nullptr && xs.size() > 1)
    pool_->parallel_for(xs.size(), eval);
  else
    for (std::size_t i = 0; i < xs.size(); ++i) eval(i);
  stats_.candidates_evaluated += static_cast<std::int64_t>(xs.size());
}

}  // namespace amr
