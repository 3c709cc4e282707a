// Simulated interconnect fabric.
//
// Models the two MPI transport paths of the paper's cluster (§IV-B) with
// the tunables whose mis-configuration caused the observed telemetry
// anomalies:
//
//  * Shared-memory path (intra-node): a bounded per-node queue. When the
//    configured slot count is too small for the instantaneous message
//    load, senders spin on retries — the contention that destroyed the
//    work/comm-time correlation in Fig 1a until queue size was tuned
//    (Fig 3, right).
//  * Remote path (inter-node): per-node NIC serialization + base latency
//    + jitter. With probability ack_loss_prob a message's fabric-level ACK
//    goes missing; the default PSM-like recovery path then blocks the
//    *sender's* request for ack_recovery_delay even though the data
//    arrived — the MPI_Wait spikes of Fig 1b. The drain-queue mitigation
//    releases the sender immediately and recovers in the background.
//
// The fabric is a timing oracle with internal state (NIC busy times, shm
// slot occupancy): transfer() returns when the sender's request completes
// and when the message is delivered; the simmpi layer turns those into
// DES events.
//
// Shm slot occupancy is kept as a count of idle slots plus a heap of the
// busy slots' free times — not one entry per configured slot. Each shm
// post first retires busy entries whose free time has passed into the
// idle count. That is exact because a node's post times never decrease
// (checked) and a post's timing depends only on whether some slot is
// free at post time and, if none is, on the earliest busy free time. A
// tuned 4096-slot node therefore costs a few in-flight entries of memory
// and snapshot space instead of 32 KiB.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "amr/common/dary_heap.hpp"
#include "amr/common/rng.hpp"
#include "amr/common/time.hpp"
#include "amr/topo/topology.hpp"

namespace amr {

class Tracer;

struct FabricParams {
  // Remote (inter-node) path: 40 Gbps-class fabric. Effective per-NIC
  // goodput for small boundary messages sits well below line rate
  // (per-message processing, PSM header/ack overheads).
  TimeNs remote_latency = us(4.0);   ///< base one-way latency
  double remote_gbytes_per_sec = 6.0;  ///< per-NIC byte bandwidth
  /// Per-message NIC processing time (header/ACK handling, descriptor
  /// ring). Boundary exchanges are small-message dominated (paper §II-B:
  /// "latency-sensitive due to small message sizes"), so this — not byte
  /// bandwidth — is what congests when placement goes remote.
  TimeNs remote_per_msg = us(1.6);
  TimeNs remote_jitter = us(0.6);    ///< uniform [0, jitter) per message

  // Shared-memory (intra-node) path.
  TimeNs shm_latency = us(0.5);
  double shm_gbytes_per_sec = 8.0;
  std::int32_t shm_queue_slots = 64;  ///< per-node queue depth (the knob)
  TimeNs shm_retry_delay = us(8.0);  ///< backoff when all slots are busy

  // ACK pathology (Fig 1b).
  double ack_loss_prob = 0.0;
  TimeNs ack_recovery_delay = ms(2.0);
  bool drain_queue_enabled = false;   ///< our mitigation (§IV-B)

  // Fixed software overhead of posting a send/recv.
  TimeNs post_overhead = us(0.3);

  /// Per-coalesced-message processing cost inside an aggregated transfer
  /// (per-block header walk + descriptor on both the shm and remote
  /// paths), charged for every logical message beyond the first. This is
  /// what keeps per-destination aggregation a modeled trade rather than
  /// an accounting trick: a packed transfer still pays for each message
  /// it carries, just far less than the full per-message latency, NIC
  /// per_msg, and queue-slot payments it avoids. Never charged on the
  /// legacy path (msgs == 1).
  TimeNs packed_msg_overhead = us(0.25);

  /// Paper-cluster defaults after the tuning exercise: large shm queue,
  /// no ACK pathology (drain queue active as belt-and-braces).
  static FabricParams tuned();

  /// The untuned initial configuration: small shm queue, ACK loss with
  /// sender-blocking recovery.
  static FabricParams untuned();
};

/// Outcome of one message transfer.
struct TransferTiming {
  TimeNs sender_release = 0;  ///< sender's request completes (MPI_Wait)
  TimeNs delivery = 0;        ///< data available at the receiver
  bool used_shm = false;
  std::int32_t shm_retries = 0;
  bool ack_lost = false;
};

/// Aggregate fabric counters (per run).
struct FabricStats {
  std::int64_t remote_msgs = 0;
  std::int64_t shm_msgs = 0;
  std::int64_t remote_bytes = 0;
  std::int64_t shm_bytes = 0;
  std::int64_t shm_retries = 0;
  std::int64_t acks_lost = 0;
  TimeNs ack_block_time = 0;  ///< total sender time lost to ACK recovery
  std::int64_t packed_transfers = 0;  ///< transfers carrying msgs > 1
  std::int64_t coalesced_msgs = 0;    ///< sum of (msgs - 1) over transfers
};

class Fabric {
 public:
  Fabric(const ClusterTopology& topo, FabricParams params, Rng rng);

  /// Compute timings for a message posted at `post_time` from src to dst
  /// (ranks; must differ — intra-rank copies bypass the fabric). Advances
  /// internal NIC/queue state; calls must be issued in nondecreasing
  /// post_time order per source node (the DES guarantees this): the NIC
  /// model is physical only then, and the shm path checks it because its
  /// busy-only slot heap is exact only then. `msgs` > 1 marks an
  /// aggregated transfer carrying that many logical messages: it
  /// occupies one queue slot / NIC serialization window and pays latency
  /// once, plus (msgs - 1) * packed_msg_overhead of per-message
  /// processing.
  TransferTiming transfer(std::int32_t src_rank, std::int32_t dst_rank,
                          std::int64_t bytes, TimeNs post_time,
                          std::int32_t msgs = 1);

  const FabricStats& stats() const { return stats_; }
  /// Run counters regardless of mode: the global accumulator in the
  /// sequential case, the per-node counters summed in node order when
  /// sharding is enabled.
  FabricStats merged_stats() const;
  const FabricParams& params() const { return params_; }
  const ClusterTopology& topology() const { return topo_; }

  /// Switch to per-node RNG streams and per-node stats counters so that
  /// transfer() touches only src-node-owned state — the data partition
  /// that lets the sharded DES call the fabric from concurrent shard
  /// threads (shards own disjoint node ranges). Per-node streams are
  /// split off the root stream by node id, so every jitter/ACK draw
  /// depends only on the node and that node's own transfer order — both
  /// invariant under the shard count. Must be called before the first
  /// transfer; the mode is part of the run's fingerprint (sequential and
  /// sharded runs draw different jitter and are not comparable).
  /// Tracer and observer must stay unset in sharded mode (they funnel
  /// concurrent shards into shared sinks).
  void enable_sharding();
  bool sharded() const { return sharded_; }

  /// Optional per-message observer (telemetry taps for Fig 1/3 benches).
  using Observer = std::function<void(std::int32_t src, std::int32_t dst,
                                      std::int64_t bytes,
                                      const TransferTiming&)>;
  void set_observer(Observer obs) { observer_ = std::move(obs); }

  /// Attach an event tracer (nullptr detaches): per-node queue-occupancy
  /// counters, shm retry instants, and ACK-loss/recovery events on the
  /// node fabric tracks.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Reset dynamic state (NIC busy times, shm slots, stats) for a fresh
  /// measurement window without reconstructing the object.
  void reset();

  /// Full dynamic state for checkpoint/restart: the jitter RNG position,
  /// run counters, and the NIC/shm-queue occupancy model. Restoring it
  /// makes every subsequent transfer() bit-identical to an uninterrupted
  /// fabric.
  struct State {
    Rng::State rng;
    FabricStats stats;
    std::vector<TimeNs> nic_busy_until;  ///< per node
    /// Per node: slots idle as of the node's last shm post, the busy
    /// slots' free times (heap order), and that last post time.
    std::vector<std::int32_t> shm_idle;
    std::vector<std::vector<TimeNs>> shm_busy;
    std::vector<TimeNs> shm_last_post;
    /// Sharded mode only (empty otherwise): per-node stream positions
    /// and counters. Node-indexed, so state round-trips across runs with
    /// different shard counts.
    std::vector<Rng::State> node_rngs;
    std::vector<FabricStats> node_stats;
  };
  State export_state() const;
  /// Sizes must match this fabric's topology and slot count.
  void import_state(const State& state);

 private:
  TimeNs serialize_ns(std::int64_t bytes, double gbytes_per_sec) const;

  const ClusterTopology& topo_;
  FabricParams params_;
  Rng rng_;
  Tracer* tracer_ = nullptr;
  FabricStats stats_;
  bool sharded_ = false;
  std::vector<Rng> node_rngs_;          // per node (sharded mode)
  std::vector<FabricStats> node_stats_; // per node (sharded mode)
  std::vector<TimeNs> nic_busy_until_;  // per node
  // One node's shm queue (see the file comment). Slot identity never
  // affects timing, so a slot is either counted idle or has its free
  // time in `busy`; idle + busy.size() == shm_queue_slots.
  struct ShmQueue {
    std::int32_t idle = 0;
    TimeNs last_post = 0;
    DaryHeap<TimeNs> busy;  // min-heap of busy slots' free times
  };
  std::vector<ShmQueue> shm_;  // per node
  Observer observer_;
};

}  // namespace amr
