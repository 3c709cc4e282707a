#include "amr/net/fabric.hpp"

#include <algorithm>

#include "amr/common/check.hpp"
#include "amr/trace/tracer.hpp"

namespace amr {

FabricParams FabricParams::tuned() {
  FabricParams p;
  p.shm_queue_slots = 4096;
  p.ack_loss_prob = 0.0;
  p.drain_queue_enabled = true;
  return p;
}

FabricParams FabricParams::untuned() {
  FabricParams p;
  p.shm_queue_slots = 8;
  p.ack_loss_prob = 0.004;
  p.drain_queue_enabled = false;
  return p;
}

Fabric::Fabric(const ClusterTopology& topo, FabricParams params, Rng rng)
    : topo_(topo), params_(params), rng_(rng) {
  AMR_CHECK(params_.shm_queue_slots > 0);
  AMR_CHECK(params_.remote_gbytes_per_sec > 0.0);
  AMR_CHECK(params_.shm_gbytes_per_sec > 0.0);
  reset();
}

void Fabric::reset() {
  stats_ = FabricStats{};
  nic_busy_until_.assign(static_cast<std::size_t>(topo_.num_nodes()), 0);
  shm_.assign(static_cast<std::size_t>(topo_.num_nodes()),
              ShmQueue{params_.shm_queue_slots, 0, {}});
}

void Fabric::enable_sharding() {
  AMR_CHECK_MSG(tracer_ == nullptr && !observer_,
                "fabric sharding excludes tracer/observer taps");
  sharded_ = true;
  const auto nnodes = static_cast<std::size_t>(topo_.num_nodes());
  node_stats_.assign(nnodes, FabricStats{});
  node_rngs_.clear();
  node_rngs_.reserve(nnodes);
  for (std::size_t n = 0; n < nnodes; ++n)
    node_rngs_.push_back(rng_.split(static_cast<std::uint64_t>(n)));
}

FabricStats Fabric::merged_stats() const {
  if (!sharded_) return stats_;
  FabricStats total;
  for (const FabricStats& s : node_stats_) {
    total.remote_msgs += s.remote_msgs;
    total.shm_msgs += s.shm_msgs;
    total.remote_bytes += s.remote_bytes;
    total.shm_bytes += s.shm_bytes;
    total.shm_retries += s.shm_retries;
    total.acks_lost += s.acks_lost;
    total.ack_block_time += s.ack_block_time;
    total.packed_transfers += s.packed_transfers;
    total.coalesced_msgs += s.coalesced_msgs;
  }
  return total;
}

Fabric::State Fabric::export_state() const {
  State st;
  st.rng = rng_.state();
  st.stats = stats_;
  st.nic_busy_until = nic_busy_until_;
  st.shm_idle.reserve(shm_.size());
  st.shm_busy.reserve(shm_.size());
  st.shm_last_post.reserve(shm_.size());
  for (const ShmQueue& q : shm_) {
    const std::span<const TimeNs> busy = q.busy.items();
    st.shm_idle.push_back(q.idle);
    st.shm_busy.emplace_back(busy.begin(), busy.end());
    st.shm_last_post.push_back(q.last_post);
  }
  if (sharded_) {
    st.node_rngs.reserve(node_rngs_.size());
    for (const Rng& r : node_rngs_) st.node_rngs.push_back(r.state());
    st.node_stats = node_stats_;
  }
  return st;
}

void Fabric::import_state(const State& state) {
  const auto nnodes = static_cast<std::size_t>(topo_.num_nodes());
  AMR_CHECK_MSG(state.nic_busy_until.size() == nnodes &&
                    state.shm_idle.size() == nnodes &&
                    state.shm_busy.size() == nnodes &&
                    state.shm_last_post.size() == nnodes,
                "fabric state does not match this topology");
  rng_.set_state(state.rng);
  stats_ = state.stats;
  nic_busy_until_ = state.nic_busy_until;
  for (std::size_t n = 0; n < nnodes; ++n) {
    AMR_CHECK_MSG(state.shm_idle[n] >= 0 &&
                      state.shm_idle[n] +
                              static_cast<std::int64_t>(
                                  state.shm_busy[n].size()) ==
                          params_.shm_queue_slots,
                  "fabric state does not match the shm slot count");
    shm_[n].idle = state.shm_idle[n];
    shm_[n].busy.restore(state.shm_busy[n]);
    shm_[n].last_post = state.shm_last_post[n];
  }
  if (sharded_) {
    AMR_CHECK_MSG(state.node_rngs.size() == node_rngs_.size() &&
                      state.node_stats.size() == node_stats_.size(),
                  "fabric state does not match sharded mode");
    for (std::size_t n = 0; n < node_rngs_.size(); ++n)
      node_rngs_[n].set_state(state.node_rngs[n]);
    node_stats_ = state.node_stats;
  }
}

TimeNs Fabric::serialize_ns(std::int64_t bytes,
                            double gbytes_per_sec) const {
  return static_cast<TimeNs>(static_cast<double>(bytes) /
                             gbytes_per_sec);  // bytes/GBps = ns
}

TransferTiming Fabric::transfer(std::int32_t src_rank, std::int32_t dst_rank,
                                std::int64_t bytes, TimeNs post_time,
                                std::int32_t msgs) {
  AMR_CHECK_MSG(src_rank != dst_rank,
                "intra-rank copies bypass the fabric");
  AMR_CHECK(msgs >= 1);
  const std::int32_t src_node = topo_.node_of(src_rank);
  const std::int32_t dst_node = topo_.node_of(dst_rank);
  // All mutable state a transfer touches is owned by the source node in
  // sharded mode: its stats bucket, its RNG stream, its NIC busy time,
  // its shm slot heap. That partition is what makes concurrent shard
  // execution race-free.
  FabricStats& stats =
      sharded_ ? node_stats_[static_cast<std::size_t>(src_node)] : stats_;
  Rng& rng =
      sharded_ ? node_rngs_[static_cast<std::size_t>(src_node)] : rng_;
  // Aggregated transfers pay a per-carried-message processing cost beyond
  // the first; zero on the legacy path so msgs == 1 timings are bit-
  // identical to pre-aggregation builds.
  const TimeNs packed_cost = (msgs - 1) * params_.packed_msg_overhead;
  if (msgs > 1) {
    ++stats.packed_transfers;
    stats.coalesced_msgs += msgs - 1;
  }
  TransferTiming t;

  if (src_node == dst_node) {
    // Shared-memory path: take a free slot; if no slot is free at post
    // time, spin in retry_delay quanta until the earliest busy one is.
    t.used_shm = true;
    ShmQueue& q = shm_[static_cast<std::size_t>(src_node)];
    AMR_CHECK_MSG(post_time >= q.last_post,
                  "shm posts went back in time on a node");
    q.last_post = post_time;
    // Slots freed by now stay free for every later post of this node.
    while (!q.busy.empty() && q.busy.top() <= post_time) {
      q.busy.pop();
      ++q.idle;
    }
    if (tracer_ != nullptr) {
      // Queue occupancy at post time: the counter the paper's queue-size
      // tuning (Fig 3, right) was flying blind without.
      tracer_->counter(Tracer::fabric_track(src_node), TraceCat::kFabric,
                       "shm_queue_busy", post_time,
                       static_cast<std::int64_t>(q.busy.size()));
    }
    TimeNs start = post_time;
    if (q.idle == 0) {
      const TimeNs gap = q.busy.top() - post_time;
      const auto retries = static_cast<std::int32_t>(
          (gap + params_.shm_retry_delay - 1) / params_.shm_retry_delay);
      t.shm_retries = retries;
      stats.shm_retries += retries;
      start = post_time + retries * params_.shm_retry_delay;
      if (tracer_ != nullptr)
        tracer_->instant(Tracer::fabric_track(src_node), TraceCat::kFabric,
                         "shm-retry", post_time, retries, src_rank);
    }
    const TimeNs xfer =
        serialize_ns(bytes, params_.shm_gbytes_per_sec) + packed_cost;
    t.delivery = start + params_.shm_latency + xfer;
    if (q.idle > 0) {
      --q.idle;
      q.busy.push(t.delivery);
    } else {
      q.busy.replace_top(t.delivery);  // >= the slot's old free time
    }
    // Sender hands the buffer to the queue as soon as it has a slot.
    t.sender_release = start + params_.post_overhead;
    ++stats.shm_msgs;
    stats.shm_bytes += bytes;
  } else {
    // Remote path: serialize on the source NIC, then fly.
    auto& nic = nic_busy_until_[static_cast<std::size_t>(src_node)];
    const TimeNs begin = std::max(post_time, nic);
    if (tracer_ != nullptr)
      tracer_->counter(Tracer::fabric_track(src_node), TraceCat::kFabric,
                       "nic_backlog_ns", post_time, begin - post_time);
    const TimeNs depart =
        begin + params_.remote_per_msg + packed_cost +
        serialize_ns(bytes, params_.remote_gbytes_per_sec);
    nic = depart;
    const TimeNs jitter =
        params_.remote_jitter > 0
            ? static_cast<TimeNs>(rng.uniform() *
                                  static_cast<double>(params_.remote_jitter))
            : 0;
    t.delivery = depart + params_.remote_latency + jitter;
    t.sender_release = depart;
    if (params_.ack_loss_prob > 0.0 && rng.chance(params_.ack_loss_prob)) {
      t.ack_lost = true;
      ++stats.acks_lost;
      if (tracer_ != nullptr)
        tracer_->instant(Tracer::fabric_track(src_node), TraceCat::kFabric,
                         "ack-lost", depart, src_rank, dst_rank);
      if (!params_.drain_queue_enabled) {
        // PSM-like recovery: the sender's request stays pending until the
        // recovery timer fires, even though the receiver has the data —
        // and the NIC's send queue is blocked behind the recovery, so
        // unrelated traffic from the same node stalls too. This is what
        // decorrelates per-rank comm time from per-rank message volume
        // in the untuned Fig 1a telemetry: the delay lands on whoever
        // shares the NIC, not on the rank that caused it.
        t.sender_release = depart + params_.ack_recovery_delay;
        stats.ack_block_time += params_.ack_recovery_delay;
        nic = depart + params_.ack_recovery_delay;
        if (tracer_ != nullptr)
          tracer_->complete(Tracer::fabric_track(src_node),
                            TraceCat::kFabric, "ack-recovery", depart,
                            params_.ack_recovery_delay, src_rank,
                            dst_rank);
      }
      // With the drain queue, the blocked request is swapped for a fresh
      // one and drained in the background: no sender-visible delay and
      // no head-of-line blocking of the NIC.
    }
    ++stats.remote_msgs;
    stats.remote_bytes += bytes;
  }

  if (observer_) observer_(src_rank, dst_rank, bytes, t);
  return t;
}

}  // namespace amr
