// Simulated MPI communication layer.
//
// Provides the communication semantics AMR codes actually use (paper
// §II-B): nonblocking point-to-point boundary exchanges awaited per
// synchronization window, plus blocking collectives whose completion is
// gated by the slowest rank — the straggler amplifier at the heart of the
// paper. Happened-before ordering is exact: a receiver can only resume
// after the sender's message physically departs and flies, which is what
// makes the two-rank critical-path principle (§IV-D) hold by construction.
//
// Exchanges are organized in "windows" (one per timestep phase): the
// driver declares how many messages each rank will receive, ranks post
// sends and then wait for their expected arrivals, and collectives close
// the window.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <unordered_map>
#include <vector>

#include "amr/des/engine.hpp"
#include "amr/net/fabric.hpp"

namespace amr {

class ShardedEngine;
class Tracer;

/// Callbacks into the per-rank runtime (implemented by exec::RankRuntime).
/// `engine` is the engine that dispatched the triggering event — under
/// sharding, the rank's own shard engine, which the endpoint must use for
/// any continuation it schedules (in the sequential case it is simply the
/// one global engine).
class RankEndpoint {
 public:
  virtual ~RankEndpoint() = default;
  /// All expected messages of `window` have arrived (rank had a pending
  /// wait). `t` is the completing delivery's time and `releasing_src` the
  /// sender of that final message — the second rank of a two-rank
  /// critical path (paper §IV-D).
  virtual void on_recvs_ready(Engine& engine, std::uint64_t window,
                              TimeNs t, std::int32_t releasing_src) = 0;
  /// The collective entered in `window` completed at time `t`.
  virtual void on_collective_done(Engine& engine, std::uint64_t window,
                                  TimeNs t) = 0;

  /// Every tagged message delivery (dst_tag != -1), before any
  /// on_recvs_ready. `dst_tag` is the sender-supplied routing tag (e.g.
  /// destination block id) — the hook the overlap runtime uses to track
  /// per-block readiness. Untagged deliveries (the BSP runtime's, which
  /// only cares about window completion) skip this call. Default:
  /// ignored.
  virtual void on_message(Engine& engine, std::uint64_t window, TimeNs t,
                          std::int32_t src, std::int64_t dst_tag) {
    (void)engine;
    (void)window;
    (void)t;
    (void)src;
    (void)dst_tag;
  }
};

/// Cost model for blocking collectives: completion = max(entry times)
/// + alpha + beta * ceil(log2(nranks)).
struct CollectiveParams {
  TimeNs alpha = us(20.0);
  TimeNs beta = us(4.0);
};

class Comm final : public EventHandler {
 public:
  /// With `sharded` non-null the comm routes events through the sharded
  /// engine instead of `engine`: deliveries and collective completions
  /// are scheduled with canonical dispatch keys (engine.hpp event_key)
  /// into the destination rank's shard — buffered through the sharded
  /// engine's mailbox when source and destination shards differ — and
  /// all mutable bookkeeping a shard thread touches is partitioned by
  /// rank or by shard (arrival counts, collective accumulators), with the
  /// merges happening in on_epoch_barrier(). The fabric must have
  /// sharding enabled so transfer() is per-node too. nranks must fit the
  /// delivery tag layout (at most kMaxRanks).
  Comm(Engine& engine, Fabric& fabric, std::int32_t nranks,
       CollectiveParams collective = {}, ShardedEngine* sharded = nullptr);

  /// Limits of the delivery tag layout (see kSlotShift below).
  static constexpr std::int32_t kMaxRanks = 1 << 24;
  static constexpr std::size_t kMaxOpenExchanges = 16;
  /// Smallest dst_tag a send may carry: -1 means untagged, and senders
  /// may use one more negative sentinel (exec's kPackedSendTag, -2).
  static constexpr std::int64_t kMinDstTag = -2;
  /// Largest dst_tag a send may carry; depends on nranks (the tag bits
  /// the rank fields leave). At least 2^31 - 3 up to 16384 ranks.
  std::int64_t max_dst_tag() const {
    return static_cast<std::int64_t>(dst_tag_mask_) + kMinDstTag;
  }

  std::int32_t nranks() const { return nranks_; }
  Engine& engine() { return engine_; }
  Fabric& fabric() { return fabric_; }
  ShardedEngine* sharded() { return sharded_; }

  /// Register the runtime object receiving callbacks for `rank`.
  void set_endpoint(std::int32_t rank, RankEndpoint* endpoint);

  /// Attach an event tracer (nullptr detaches): every P2P message gets a
  /// flow arrow from its isend post to its delivery. Sequential only.
  void set_tracer(Tracer* tracer);

  /// Open a P2P exchange window. expected[r] = number of messages rank r
  /// will receive in this window. Window ids must be unique while open,
  /// and at most kMaxOpenExchanges windows may be open at once.
  /// The expected counts are copied into pooled per-window state, so the
  /// steady-state cost is a memcpy — no allocation per step.
  void begin_exchange(std::uint64_t window,
                      std::span<const std::int32_t> expected);
  void begin_exchange(std::uint64_t window,
                      std::initializer_list<std::int32_t> expected) {
    begin_exchange(window,
                   std::span<const std::int32_t>(expected.begin(),
                                                 expected.size()));
  }

  /// Post a nonblocking send within a window. Returns the time at which
  /// an MPI_Wait on this send request would return (buffer handed off;
  /// inflated by ACK-recovery blocking when that pathology is active).
  /// `dst_tag` rides along to the receiver's on_message hook; it must lie
  /// in [kMinDstTag, max_dst_tag()], and -1 means untagged (no
  /// on_message call). `msgs` > 1 posts an aggregated transfer (one
  /// delivery event carrying that many logical boundary messages; counts
  /// as ONE arrival against the window's expected count, so aggregated
  /// windows must size `expected` per peer rather than per block pair). `priority` marks a transfer
  /// promoted by critical-path send ordering — timing is unchanged, but
  /// the trace flow is named "p2p-priority" so promotions are visible.
  TimeNs isend(std::int32_t src, std::int32_t dst, std::int64_t bytes,
               std::uint64_t window, TimeNs post_time,
               std::int64_t dst_tag = -1, std::int32_t msgs = 1,
               bool priority = false);

  /// Rank's waitall on its receives for the window. If all messages have
  /// already arrived, returns true (rank proceeds at wait_start). If not,
  /// registers the rank for on_recvs_ready and returns false.
  bool wait_recvs(std::int32_t rank, std::uint64_t window,
                  TimeNs wait_start);

  /// True once every expected message of the window has been delivered to
  /// every rank; the window can then be closed.
  bool exchange_complete(std::uint64_t window) const;

  /// Release a completed exchange window's bookkeeping.
  void end_exchange(std::uint64_t window);

  /// Enter a blocking collective (allreduce-style). Completion fires
  /// on_collective_done on every participating rank. Every rank must
  /// enter exactly once per window.
  void enter_collective(std::uint64_t window, std::int32_t rank,
                        TimeNs entry_time);

  // EventHandler: message deliveries and collective completions.
  void on_event(Engine& engine, std::uint64_t tag) override;

  /// Sharded mode: the sharded engine's epoch-barrier hook (registered
  /// by the owner via ShardedEngine::set_barrier_callback). Runs single-
  /// threaded between epochs: merges per-shard collective accumulators,
  /// scheduling a completion event into every shard once all ranks have
  /// entered (each shard then notifies its own contiguous rank range).
  void on_epoch_barrier();

 private:
  /// Pooled per-window exchange bookkeeping. Slots are recycled across
  /// windows (open flag, not erasure), so at steady state a step reuses
  /// the previous step's vectors at full capacity. Slot indices are
  /// stable for the lifetime of the Comm — pool growth only appends —
  /// which lets a delivery tag name its window by slot index.
  struct ExchangeState {
    std::uint64_t window = 0;
    bool open = false;
    std::vector<std::int32_t> expected;
    std::vector<std::int32_t> arrived;
    std::vector<std::uint8_t> waiting;
    // No aggregate outstanding counter: deliveries on different shards
    // would race on it. exchange_complete/end_exchange (coordinator-only
    // calls) sum expected - arrived on demand instead.
  };

  /// Active collectives (typically one): linear scan beats a hash map at
  /// this population and allocates nothing after the first window.
  struct CollectiveState {
    std::uint64_t window = 0;
    std::int32_t entered = 0;
    TimeNs max_entry = 0;
  };

  // Event tags carry the whole delivery, so dispatch reads nothing but
  // the engine's queue entry. Bit 63 selects delivery (0) vs collective
  // completion (1, bits 32..62 = window id). A delivery tag packs, from
  // the top: the exchange slot in bits 59..62, then dst and src in
  // rank_bits_ = bit_width(nranks - 1) bits each, then dst_tag -
  // kMinDstTag in the low dst_tag_bits_ = 59 - 2 * rank_bits_ bits.
  static constexpr std::uint64_t kCollectiveBit = 1ULL << 63;
  static constexpr unsigned kSlotShift = 59;

  std::uint64_t delivery_tag(std::size_t slot, std::int32_t src,
                             std::int32_t dst, std::int64_t dst_tag) const {
    return (static_cast<std::uint64_t>(slot) << kSlotShift) |
           (static_cast<std::uint64_t>(dst) << dst_shift_) |
           (static_cast<std::uint64_t>(src) << dst_tag_bits_) |
           static_cast<std::uint64_t>(dst_tag - kMinDstTag);
  }

  /// A traced message's flow arrow data, filed under the delivery
  /// event's schedule sequence number (Engine::next_seq at isend,
  /// Engine::dispatch_seq at delivery).
  struct TraceFlow {
    std::int64_t bytes;
    std::uint64_t flow_id;
  };

  Engine& engine_;
  Fabric& fabric_;
  ShardedEngine* sharded_;
  Tracer* tracer_ = nullptr;
  std::int32_t nranks_;
  CollectiveParams collective_params_;
  TimeNs collective_overhead_;  // alpha + beta*ceil(log2(nranks))
  // Delivery tag layout, fixed by nranks (see kSlotShift).
  unsigned rank_bits_;
  unsigned dst_tag_bits_;
  unsigned dst_shift_;
  std::uint64_t rank_mask_;
  std::uint64_t dst_tag_mask_;
  /// Index of the open window's slot in exchanges_; -1 if not open.
  std::ptrdiff_t find_exchange(std::uint64_t window) const;

  std::vector<RankEndpoint*> endpoints_;
  std::vector<ExchangeState> exchanges_;       // pooled, see ExchangeState
  std::vector<CollectiveState> collectives_;   // active only, swap-pop
  /// Per-source-rank monotone send counters, the per-class uniquifier of
  /// delivery dispatch keys. Not checkpointed: no delivery is in flight
  /// at a step boundary, so resetting them applies a common offset per
  /// source and preserves every relative order.
  std::vector<std::uint64_t> send_seq_;
  /// [shard] -> collective entries accumulated by that shard's ranks
  /// this epoch; merged (commutatively: counts add, max_entry maxes)
  /// into collectives_ at the barrier.
  std::vector<std::vector<CollectiveState>> shard_collectives_;
  /// Traced runs only: flow data of messages in flight.
  std::unordered_map<std::uint64_t, TraceFlow> trace_flows_;
};

}  // namespace amr
