#include "amr/placement/cplx.hpp"

#include <algorithm>
#include <cmath>

#include "amr/common/check.hpp"
#include "amr/par/parallel_sort.hpp"
#include "amr/placement/cdp_cache.hpp"
#include "amr/placement/chunked_cdp.hpp"
#include "amr/placement/lpt.hpp"

namespace amr {

CplxPolicy::CplxPolicy(double x_percent, std::int32_t chunk_ranks)
    : x_percent_(x_percent), chunk_ranks_(chunk_ranks) {
  AMR_CHECK(x_percent >= 0.0 && x_percent <= 100.0);
}

std::string CplxPolicy::name() const {
  return "cpl" + std::to_string(static_cast<int>(std::lround(x_percent_)));
}

Placement CplxPolicy::rebalance(std::span<const double> costs,
                                const Placement& base, std::int32_t nranks,
                                double x_percent) {
  Placement out;
  RebalanceScratch scratch;
  rebalance_into(costs, base, nranks, x_percent, out, scratch);
  return out;
}

namespace {

/// Key-descending, id-ascending: the shared order of both rebalance
/// sorts. Unique for distinct ids, so any correct sort (sequential or
/// parallel) yields the same sequence.
bool key_before(const RebalanceKey& a, const RebalanceKey& b) {
  return a.key != b.key ? a.key > b.key : a.id < b.id;
}

/// Ranks rebalanced for `x_percent`; at least one source and one
/// destination.
std::int32_t selected_count(double x_percent, std::int32_t nranks) {
  const auto k = static_cast<std::int32_t>(
      std::lround(x_percent / 100.0 * static_cast<double>(nranks)));
  return std::clamp(k, 2, nranks);
}

}  // namespace

void CplxPolicy::rebalance_into(std::span<const double> costs,
                                const Placement& base, std::int32_t nranks,
                                double x_percent, Placement& out,
                                RebalanceScratch& scratch,
                                ThreadPool* pool) {
  rebalance_prefix(costs, base, nranks, x_percent, scratch.prefix, pool);
  rebalance_tail(costs, base, x_percent, scratch.prefix, out, scratch);
}

void CplxPolicy::rebalance_prefix(std::span<const double> costs,
                                  const Placement& base, std::int32_t nranks,
                                  double max_x_percent,
                                  RebalancePrefix& prefix,
                                  ThreadPool* pool) {
  prefix.rebalance = false;
  prefix.blocks.clear();
  if (max_x_percent <= 0.0 || nranks < 2) return;

  // Accumulation order matches rank_loads exactly (ascending block id),
  // so the scratch path is bit-identical to the allocating one.
  auto& loads = prefix.loads;
  loads.assign(static_cast<std::size_t>(nranks), 0.0);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    AMR_CHECK(base[i] >= 0 && base[i] < nranks);
    loads[static_cast<std::size_t>(base[i])] += costs[i];
  }

  // Guard: when the contiguous placement is already balanced (flat cost
  // profiles, uniform default costs), breaking locality buys nothing —
  // LPT over near-equal loads would scatter blocks for free. Skip.
  {
    double max_load = 0.0;
    double sum = 0.0;
    for (const double l : loads) {
      max_load = std::max(max_load, l);
      sum += l;
    }
    const double mean = sum / static_cast<double>(nranks);
    if (mean <= 0.0 || max_load <= kRebalanceFloor * mean) return;
  }

  // Sort ranks by descending load (ties by rank id for determinism).
  // Both sorts run over packed (key, id) pairs: one contiguous array
  // instead of an id sort chasing a separate key vector, and a shape
  // parallel_sort can chunk.
  auto& keys = prefix.keys;
  keys.resize(static_cast<std::size_t>(nranks));
  for (std::size_t r = 0; r < keys.size(); ++r)
    keys[r] = {loads[r], static_cast<std::int32_t>(r)};
  parallel_sort(pool, keys, key_before);

  // k ranks are selected from both ends of that order, most-overloaded
  // first: the top (k+1)/2 and the bottom k/2. The rank at position p
  // (q from the bottom) is therefore selected exactly when
  // k >= min(2p+1, 2q+2).
  auto& select_k = prefix.select_k;
  select_k.resize(keys.size());
  for (std::int32_t p = 0; p < nranks; ++p) {
    const std::int32_t q = nranks - 1 - p;
    select_k[static_cast<std::size_t>(keys[static_cast<std::size_t>(p)].id)] =
        std::min(2 * p + 1, 2 * q + 2);
  }
  prefix.max_selected = selected_count(max_x_percent, nranks);

  // LPT order (cost descending, id ascending) of the largest X's moved
  // blocks, again via packed keys.
  keys.clear();
  for (std::size_t b = 0; b < base.size(); ++b)
    if (select_k[static_cast<std::size_t>(base[b])] <= prefix.max_selected)
      keys.push_back({costs[b], static_cast<std::int32_t>(b)});
  parallel_sort(pool, keys, key_before);
  prefix.blocks.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto b = static_cast<std::size_t>(keys[i].id);
    prefix.blocks[i] = {keys[i].id,
                        select_k[static_cast<std::size_t>(base[b])]};
  }
  prefix.rebalance = true;
}

void CplxPolicy::rebalance_tail(std::span<const double> costs,
                                const Placement& base, double x_percent,
                                const RebalancePrefix& prefix,
                                Placement& out, RebalanceScratch& scratch) {
  out = base;
  if (x_percent <= 0.0 || !prefix.rebalance) return;
  const auto nranks = static_cast<std::int32_t>(prefix.select_k.size());
  const std::int32_t k = selected_count(x_percent, nranks);
  AMR_CHECK(k <= prefix.max_selected);

  // Targets in ascending rank id, the order the LPT heap ties break on.
  auto& targets = scratch.targets;
  targets.clear();
  for (std::int32_t r = 0; r < nranks; ++r)
    if (prefix.select_k[static_cast<std::size_t>(r)] <= k)
      targets.push_back(r);

  // This X's moved blocks in LPT order: the prefix's order restricted to
  // its targets. The greedy heap loop itself is inherently sequential.
  auto& order = scratch.order;
  order.clear();
  for (const RebalancePrefix::Entry& e : prefix.blocks)
    if (e.select_k <= k) order.push_back(e.block);
  if (order.empty()) return;
  LptPolicy::assign_sorted(costs, order, targets, out, scratch.lpt);
}

Placement CplxPolicy::place(std::span<const double> costs,
                            std::int32_t nranks) const {
  // The contiguous base split depends only on (costs, nranks, chunk) —
  // shared across every X and across repeat invocations on unchanged
  // costs, so a policy sweep pays for the CDP prefix-sum DP once.
  const Placement base = CdpSplitCache::instance().get_or_compute(
      costs, nranks, chunk_ranks_, [&] {
        const ChunkedCdpPolicy cdp(chunk_ranks_);
        return cdp.place(costs, nranks);
      });
  return rebalance(costs, base, nranks, x_percent_);
}

}  // namespace amr
