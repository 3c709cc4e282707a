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
//
// Receives complete by count. By §IV-D only two things release a rank
// from its receive wait: its last arrival and that message's sender. So
// no message is a DES event: isend folds each one into the receiver's
// per-window record (posted count, and the latest (delivery time,
// dispatch key) with its sender), taking the dispatch key its delivery
// event would have had. A receiver parked in wait_recvs gets exactly one
// wake event, at that latest (time, key) slot, so it resumes where its
// last delivery would have dispatched. A tagged message (dst_tag != -1,
// the overlap runtime's kind) is also handed to the receiver's on_post
// hook with its (time, key) slot, synchronously, so the receiver can
// keep finer-grained counted records of its own (per block) and arm its
// own wakes.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "amr/des/engine.hpp"
#include "amr/net/fabric.hpp"

namespace amr {

class Tracer;

/// Callbacks into the per-rank runtime (implemented by exec::RankRuntime).
/// Every call comes from inside an event of the Comm's own engine, which
/// the endpoint uses for any continuation it schedules.
class RankEndpoint {
 public:
  virtual ~RankEndpoint() = default;
  /// All expected messages of `window` have arrived (rank had a pending
  /// wait). Called from the rank's wake event, which dispatches in the
  /// (time, key) slot of its last delivery. `t` is that delivery's time
  /// and `releasing_src` its sender — the second rank of a two-rank
  /// critical path (paper §IV-D).
  virtual void on_recvs_ready(std::uint64_t window, TimeNs t,
                              std::int32_t releasing_src) = 0;
  /// The collective entered in `window` completed at time `t`.
  virtual void on_collective_done(std::uint64_t window, TimeNs t) = 0;

  /// A tagged message (dst_tag != -1) was posted to this rank. It is
  /// not an event: the call comes when the message is counted (inside
  /// isend), and (t, key) is the dispatch slot its delivery would have
  /// had — `Engine::dispatched(t, key)` says whether it has landed, and
  /// a wake scheduled at (t, key) resumes the receiver exactly where that
  /// delivery would have. `dst_tag` is the sender-supplied routing tag —
  /// the hook the overlap runtime uses to track per-block readiness.
  /// Untagged messages (the BSP runtime's, which only cares about window
  /// completion) never reach this call. Default: ignored.
  virtual void on_post(std::uint64_t window, TimeNs t, std::uint64_t key,
                       std::int32_t src, std::int64_t dst_tag) {
    (void)window;
    (void)t;
    (void)key;
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
  /// nranks must fit the delivery tag layout (at most kMaxRanks).
  Comm(Engine& engine, Fabric& fabric, std::int32_t nranks,
       CollectiveParams collective = {});

  /// Limits of the delivery tag layout (see kSlotShift below).
  static constexpr std::int32_t kMaxRanks = 1 << 24;
  static constexpr std::size_t kMaxOpenExchanges = 16;
  /// Smallest dst_tag a send may carry: -1 means untagged.
  static constexpr std::int64_t kMinDstTag = -1;
  /// Largest dst_tag a send may carry; depends on nranks (the tag bits
  /// the rank fields leave). At least 2^31 - 2 up to 16384 ranks.
  std::int64_t max_dst_tag() const {
    return static_cast<std::int64_t>(dst_tag_mask_) + kMinDstTag;
  }

  std::int32_t nranks() const { return nranks_; }
  Engine& engine() { return engine_; }
  Fabric& fabric() { return fabric_; }

  /// Register the runtime object receiving callbacks for `rank`.
  void set_endpoint(std::int32_t rank, RankEndpoint* endpoint);

  /// Attach an event tracer (nullptr detaches): every P2P message gets a
  /// flow arrow from its isend post to its delivery, both recorded at
  /// isend.
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
  /// The message is counted against the receiver's expected count here
  /// (aborting if that count is exceeded); it never becomes a DES event.
  /// A tagged message's `dst_tag` is handed to the receiver's on_post hook
  /// as it is counted; it must lie in [kMinDstTag, max_dst_tag()], and -1
  /// means untagged: no on_post call. `msgs` > 1 posts an aggregated
  /// transfer (one delivery carrying that many logical boundary messages;
  /// counts as ONE arrival against the window's expected count, so
  /// aggregated windows must size `expected` per peer rather than per block
  /// pair).
  /// `priority` marks a transfer promoted by critical-path send ordering
  /// — timing is unchanged, but the trace flow is named "p2p-priority"
  /// so promotions are visible.
  TimeNs isend(std::int32_t src, std::int32_t dst, std::int64_t bytes,
               std::uint64_t window, TimeNs post_time,
               std::int64_t dst_tag = -1, std::int32_t msgs = 1,
               bool priority = false);

  /// Rank's waitall on its receives for the window, called from an event
  /// the Comm's engine is dispatching. Returns true when every expected
  /// message is counted and the latest one's (time, key) has dispatched
  /// (Engine::dispatched) — the rank proceeds at once. Otherwise the rank
  /// parks and returns false; once its count is complete, one wake event at
  /// the latest (time, key) calls on_recvs_ready, tagged or untagged.
  bool wait_recvs(std::int32_t rank, std::uint64_t window);

  /// True once every expected message of the window is counted and
  /// delivered by engine.now(); the window can then be closed.
  bool exchange_complete(std::uint64_t window) const;

  /// Release a completed exchange window's bookkeeping.
  void end_exchange(std::uint64_t window);

  /// Enter a blocking collective (allreduce-style). Completion fires
  /// on_collective_done on every participating rank. Every rank must
  /// enter exactly once per window.
  void enter_collective(std::uint64_t window, std::int32_t rank,
                        TimeNs entry_time);

  // EventHandler: receive wakes and collective completions.
  void on_event(Engine& engine, std::uint64_t tag) override;

 private:
  /// One receiver's messages in one window: everything its receive
  /// completion depends on, in one 32-byte record (isend touches one
  /// cache line of the receiver's state).
  struct RecvRecord {
    TimeNs t = 0;            ///< latest counted delivery time
    std::uint64_t key = 0;   ///< its dispatch key
    std::int32_t expected = 0;
    std::int32_t posted = 0;  ///< messages counted so far
    std::int32_t src = -1;   ///< its sender
    bool waiting = false;    ///< receiver parked in wait_recvs
  };
  static_assert(sizeof(RecvRecord) == 32);

  /// Pooled per-window exchange bookkeeping. Slots are recycled across
  /// windows (open flag, not erasure), so at steady state a step reuses
  /// the previous step's vectors at full capacity. Slot indices are
  /// stable for the lifetime of the Comm — pool growth only appends —
  /// which lets a delivery tag name its window by slot index.
  struct ExchangeState {
    std::uint64_t window = 0;
    bool open = false;
    // Indexed by receiver. exchange_complete/end_exchange scan the
    // records.
    std::vector<RecvRecord> recvs;
  };

  /// Active collectives (typically one): linear scan beats a hash map at
  /// this population and allocates nothing after the first window.
  struct CollectiveState {
    std::uint64_t window = 0;
    std::int32_t entered = 0;
    TimeNs max_entry = 0;
  };

  // A delivery tag names a whole message: a receive wake's event tag is its
  // last message's tag with the dst_tag field cleared, so dispatch reads
  // nothing but the engine's queue entry. Bit 63 selects wake (0) vs
  // collective completion (1, bits 32..62 = window id). A delivery tag
  // packs, from the top: the exchange slot in bits 59..62, then dst and src
  // in rank_bits_ = bit_width(nranks - 1) bits each, then dst_tag -
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

  std::size_t slot_of(std::uint64_t tag) const {
    return static_cast<std::size_t>(tag >> kSlotShift);
  }
  std::int32_t dst_of(std::uint64_t tag) const {
    return static_cast<std::int32_t>((tag >> dst_shift_) & rank_mask_);
  }
  std::int32_t src_of(std::uint64_t tag) const {
    return static_cast<std::int32_t>((tag >> dst_tag_bits_) & rank_mask_);
  }
  std::int64_t dst_tag_of(std::uint64_t tag) const {
    return static_cast<std::int64_t>(tag & dst_tag_mask_) + kMinDstTag;
  }

  /// Hand a message to its receiver: it is counted, schedules the
  /// receiver's wake when it completes a parked receive, and, if tagged,
  /// reaches on_post.
  void post(std::uint64_t tag, TimeNs t, std::uint64_t key);
  /// Count a message delivered at (t, key) from `src` into a record.
  static void count(RecvRecord& rv, TimeNs t, std::uint64_t key,
                    std::int32_t src);
  /// Schedule `rank`'s wake at its record's latest (t, key).
  void schedule_wake(std::size_t slot, std::int32_t rank,
                     const RecvRecord& rv);

  Engine& engine_;
  Fabric& fabric_;
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
};

}  // namespace amr
