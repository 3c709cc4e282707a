// Sharded discrete-event engine: conservative parallel DES by node.
//
// Partitions the event space by cluster node into per-shard sequential
// Engines (contiguous node blocks, so shared-memory fabric traffic is
// intra-shard by construction) and executes the shards concurrently on
// an amr::par::ThreadPool under a conservative lookahead protocol
// (Chandy/Misra-style, specialized to this simulator's timing model):
//
//   epoch loop:
//     barrier callback   (merge shard-partitioned handler state;
//                         schedules e.g. collective completions and
//                         the receive wakes of cross-shard messages)
//     horizon  = min over shards of next pending event time
//     h_end    = horizon + lookahead
//     parallel: every shard dispatches its events with time < h_end
//
// The lookahead is the fabric's minimum inter-node latency: any event a
// shard can cause on another shard is a remote message delivery, and
// delivery >= post_time + remote_per_msg + remote_latency > h_end, so
// cross-shard events buffered during an epoch always land strictly
// beyond the epoch's horizon — no shard ever receives an event in its
// past. The engine itself carries no cross-shard traffic: a handler that
// produces work for another shard buffers it in shard-partitioned state
// and schedules it from the barrier callback (Comm keeps one outbox per
// source shard). Within a shard the monotone radix queue is reused
// unchanged.
//
// Determinism contract: each shard dispatches in (time, key) order with
// canonical content-derived keys (engine.hpp event_key), times are
// independent of the shard count (every event's time is computed from
// dispatch-ordered per-node state), and barrier-time buffering of
// cross-shard work only affects *insertion* order, which the keys make
// irrelevant. Hence the full simulation output is byte-identical for
// every shard count — the property ctest's par_des_determinism matrix
// enforces.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "amr/des/engine.hpp"
#include "amr/topo/topology.hpp"

namespace amr {

class ThreadPool;

/// Per-shard dispatch statistics for one run_all() (one BSP window).
struct ShardEpochStats {
  std::int64_t events = 0;  ///< events dispatched by this shard
  std::int64_t epochs = 0;  ///< lookahead epochs executed (same for all)
  std::int64_t lookahead_stalls = 0;  ///< epochs with zero dispatches
  /// Cross-shard message records merged into this shard at barriers.
  /// The engine has no mailbox of its own: the comm layer fills this.
  std::int64_t mailbox_events = 0;
};

class ShardedEngine {
 public:
  /// `shards` is clamped to [1, topo.num_nodes()]. `lookahead` must be
  /// positive (the epoch loop makes progress by processing events in
  /// [horizon, horizon + lookahead)). `pool` may be null: shards then
  /// execute inline on the caller's thread, with identical results —
  /// the determinism contract makes the thread count unobservable.
  ShardedEngine(const ClusterTopology& topo, std::int32_t shards,
                TimeNs lookahead, ThreadPool* pool);

  std::int32_t num_shards() const {
    return static_cast<std::int32_t>(shards_.size());
  }
  TimeNs lookahead() const { return lookahead_; }

  Engine& shard(std::int32_t s) { return *shards_[static_cast<std::size_t>(s)]; }
  const Engine& shard(std::int32_t s) const {
    return *shards_[static_cast<std::size_t>(s)];
  }

  std::int32_t shard_of_node(std::int32_t node) const {
    return node_shard_[static_cast<std::size_t>(node)];
  }
  std::int32_t shard_of_rank(std::int32_t rank) const {
    return shard_of_node(topo_.node_of(rank));
  }
  Engine& engine_for_rank(std::int32_t rank) {
    return shard(shard_of_rank(rank));
  }
  /// Contiguous [first, last) rank range owned by a shard.
  std::pair<std::int32_t, std::int32_t> rank_range(std::int32_t s) const;

  /// Invoked single-threaded at every epoch barrier, before the next
  /// horizon is computed — the merge point for handler state partitioned
  /// by shard (Comm merges collective entries and cross-shard message
  /// records here). The callback may schedule events into any shard.
  void set_barrier_callback(std::function<void()> cb) {
    barrier_cb_ = std::move(cb);
  }

  /// Run the epoch loop until every shard drains (and the barrier
  /// callback stops producing work). Returns events dispatched.
  std::uint64_t run_all();

  /// Advance every shard's clock to t (serial). Requires drained shards:
  /// the step loop uses this to charge rebalance time between windows,
  /// where no events are pending by construction.
  void run_until(TimeNs t);

  /// Common shard time. Outside run_all every shard agrees (run_all
  /// drains all queues, then run_until aligns the clocks); mid-epoch the
  /// shards legitimately diverge, so this is coordinator-only.
  TimeNs now() const;

  std::uint64_t events_processed() const;

  /// Merged scalar state for checkpoints, mirroring Engine::Clock. Taken
  /// at step boundaries where all shard clocks agree and no events are
  /// pending; next_seq is reset to zero on restore, which is unobservable
  /// in keyed mode (keys come from simulation content, and the per-shard
  /// schedule counter only feeds legacy keys and trace seq numbers).
  Engine::Clock clock() const;
  void restore_clock(const Engine::Clock& c);

  /// Per-shard statistics of the last run_all().
  const std::vector<ShardEpochStats>& last_stats() const { return stats_; }

 private:
  const ClusterTopology& topo_;
  TimeNs lookahead_;
  ThreadPool* pool_;
  /// Engines are not movable (internal raw buckets); unique_ptr keeps
  /// their addresses stable for handlers that cache Engine references.
  std::vector<std::unique_ptr<Engine>> shards_;
  std::vector<std::int32_t> node_shard_;   ///< node -> owning shard
  std::vector<std::int32_t> shard_first_node_;  ///< shard -> first node
  std::vector<std::uint64_t> epoch_counts_;     ///< per-shard scratch
  std::vector<ShardEpochStats> stats_;
  std::function<void()> barrier_cb_;
};

}  // namespace amr
