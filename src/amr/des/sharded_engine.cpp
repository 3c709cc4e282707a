#include "amr/des/sharded_engine.hpp"

#include <algorithm>

#include "amr/par/thread_pool.hpp"

namespace amr {

ShardedEngine::ShardedEngine(const ClusterTopology& topo,
                             std::int32_t shards, TimeNs lookahead,
                             ThreadPool* pool)
    : topo_(topo), lookahead_(lookahead), pool_(pool) {
  AMR_CHECK_MSG(lookahead > 0,
                "sharded DES requires positive lookahead (the fabric's "
                "remote latency bounds cross-shard causality)");
  const std::int32_t nnodes = topo.num_nodes();
  const std::int32_t n =
      std::clamp(shards, std::int32_t{1}, nnodes);
  shards_.reserve(static_cast<std::size_t>(n));
  for (std::int32_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Engine>());
    shards_.back()->set_shard_id(s);
  }
  // Contiguous node blocks: node -> node * n / nnodes is monotone and
  // balanced to within one node, and keeps each shard's ranks a
  // contiguous range (ranks are packed densely onto nodes).
  node_shard_.resize(static_cast<std::size_t>(nnodes));
  shard_first_node_.assign(static_cast<std::size_t>(n) + 1, nnodes);
  for (std::int32_t node = 0; node < nnodes; ++node) {
    const std::int32_t s = static_cast<std::int32_t>(
        static_cast<std::int64_t>(node) * n / nnodes);
    node_shard_[static_cast<std::size_t>(node)] = s;
    shard_first_node_[static_cast<std::size_t>(s)] =
        std::min(shard_first_node_[static_cast<std::size_t>(s)], node);
  }
  shard_first_node_[static_cast<std::size_t>(n)] = nnodes;
  epoch_counts_.resize(static_cast<std::size_t>(n), 0);
  stats_.resize(static_cast<std::size_t>(n));
}

std::pair<std::int32_t, std::int32_t> ShardedEngine::rank_range(
    std::int32_t s) const {
  const std::int32_t first_node =
      shard_first_node_[static_cast<std::size_t>(s)];
  const std::int32_t end_node =
      shard_first_node_[static_cast<std::size_t>(s) + 1];
  const std::int32_t first = first_node * topo_.ranks_per_node();
  const std::int32_t last =
      std::min(end_node * topo_.ranks_per_node(), topo_.num_ranks());
  return {first, last};
}

std::uint64_t ShardedEngine::run_all() {
  for (ShardEpochStats& s : stats_) s = ShardEpochStats{};
  const std::size_t n = shards_.size();
  std::uint64_t total = 0;
  for (;;) {
    // Barrier work first: merged collective completions and receive
    // wakes may introduce new pending minima, so the horizon is computed
    // only after the callback has run.
    if (barrier_cb_) barrier_cb_();
    bool any = false;
    TimeNs horizon = 0;
    for (const std::unique_ptr<Engine>& e : shards_) {
      if (!e->has_pending()) continue;
      const TimeNs t = e->peek_next_time();
      if (!any || t < horizon) horizon = t;
      any = true;
    }
    if (!any) break;
    const TimeNs h_end = horizon + lookahead_;
    if (pool_ != nullptr && n > 1) {
      pool_->parallel_for(n, [this, h_end](std::size_t s) {
        epoch_counts_[s] = shards_[s]->run_before(h_end);
      });
    } else {
      for (std::size_t s = 0; s < n; ++s)
        epoch_counts_[s] = shards_[s]->run_before(h_end);
    }
    for (std::size_t s = 0; s < n; ++s) {
      stats_[s].events += static_cast<std::int64_t>(epoch_counts_[s]);
      stats_[s].epochs += 1;
      if (epoch_counts_[s] == 0) stats_[s].lookahead_stalls += 1;
      total += epoch_counts_[s];
    }
  }
  return total;
}

void ShardedEngine::run_until(TimeNs t) {
  for (const std::unique_ptr<Engine>& e : shards_) {
    AMR_CHECK_MSG(e->empty(),
                  "ShardedEngine::run_until requires drained shards");
    e->run_until(t);
  }
}

TimeNs ShardedEngine::now() const {
  TimeNs t = 0;
  for (const std::unique_ptr<Engine>& e : shards_)
    t = std::max(t, e->now());
  return t;
}

std::uint64_t ShardedEngine::events_processed() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<Engine>& e : shards_)
    total += e->events_processed();
  return total;
}

Engine::Clock ShardedEngine::clock() const {
  return Engine::Clock{now(), now(), 0, events_processed()};
}

void ShardedEngine::restore_clock(const Engine::Clock& c) {
  // Shard clocks agree at step boundaries, so one merged clock restores
  // any shard count. processed is carried on shard 0 (only the sum is
  // ever observed again, through clock()).
  for (std::size_t s = 0; s < shards_.size(); ++s)
    shards_[s]->restore_clock(
        Engine::Clock{c.now, c.now, 0, s == 0 ? c.processed : 0});
}

}  // namespace amr
