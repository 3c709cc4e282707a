// Discrete-event simulation engine.
//
// A single-threaded, deterministic event loop over integer-nanosecond
// simulated time. Events at equal times fire in scheduling order (FIFO),
// which makes runs bit-reproducible — a requirement for the telemetry
// pipeline tests and for debugging placement effects.
//
// Hot paths (per-message events in boundary exchanges) use the
// EventHandler interface: an event is a (handler, 64-bit tag) pair that
// handlers encode their whole payload into, so nothing allocates per
// event. Convenience std::function callbacks are available for cold
// paths; each one is heap-allocated and freed at dispatch.
//
// The pending-event set is a monotone radix queue (Ahuja et al. 1990),
// exploiting the DES invariant that events are never scheduled into the
// past: 32-byte entries (time, dispatch key, handler, tag) live in 65
// buckets keyed by the highest bit in which the time differs from the
// current minimum. Each entry is the whole event — dispatch reads the
// entry it pops and nothing else. Scheduling is an O(1) append
// (amortized; an equal-minimum entry with an out-of-order key pays a
// sorted insert into the front bucket, which the monotone schedule keys
// never do); dispatch pops the equal-minimum bucket and refills it by
// redistributing the lowest non-empty bucket (each entry moves at most
// 64 times over its lifetime, amortized ~O(1) for the near-sorted
// schedules a DES produces).
//
// Determinism: equal-time entries always occupy the same bucket (bucket
// index depends only on (time, current-min)), appends and
// redistributions are order-stable, and the front bucket drains in
// ascending dispatch-key order — so dispatch order is exactly
// (time, key). The schedule_at path assigns the schedule sequence number
// as the key, which makes equal-time order exactly schedule
// FIFO, bit-identical to the std::priority_queue over (time, seq) this
// replaced, and ~35% faster at simulator event populations.
//
// Keyed scheduling (schedule_keyed) fills a dispatch slot taken earlier
// from reserve_key: Comm holds a counted message's slot open at isend and
// schedules the receiver's wake into it later, so every other event keeps
// the key it would have had.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "amr/common/check.hpp"
#include "amr/common/time.hpp"

namespace amr {

class Engine;
class Tracer;

/// Receiver of scheduled events. The 64-bit tag is caller-defined (e.g.
/// rank id, request id) and round-trips unchanged.
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void on_event(Engine& engine, std::uint64_t tag) = 0;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  /// Frees the callbacks of call_at events still pending.
  ~Engine();

  TimeNs now() const { return now_; }

  /// Schedule an event at absolute simulated time t (must be >= now()).
  void schedule_at(TimeNs t, EventHandler* handler, std::uint64_t tag = 0);

  /// Schedule with an explicit dispatch key. Equal-time events dispatch
  /// in ascending key order regardless of the order the schedule calls
  /// were made in. schedule_at is exactly schedule_keyed with
  /// reserve_key().
  void schedule_keyed(TimeNs t, std::uint64_t key, EventHandler* handler,
                      std::uint64_t tag = 0);

  /// Consume the next schedule key without scheduling anything: returns
  /// the key schedule_at would assign now. Every later key is the
  /// same as if an event had been scheduled, so a producer can hold the
  /// dispatch slot open and later fill it (schedule_keyed with the key)
  /// or leave it empty. Comm uses this for counted messages.
  std::uint64_t reserve_key() { return next_seq_++; }

  /// True when an event at (t, key) has been dispatched by now: inside a
  /// dispatch, it orders at or before the event being dispatched;
  /// outside one, t <= now().
  bool dispatched(TimeNs t, std::uint64_t key) const {
    if (!dispatching_) return t <= now_;
    return t < now_ || (t == now_ && key <= dispatch_key_);
  }

  /// Schedule an event dt nanoseconds from now.
  void schedule_after(TimeNs dt, EventHandler* handler,
                      std::uint64_t tag = 0) {
    schedule_at(now_ + dt, handler, tag);
  }

  /// Cold-path convenience: schedule an arbitrary callback.
  void call_at(TimeNs t, std::function<void(Engine&)> fn);
  void call_after(TimeNs dt, std::function<void(Engine&)> fn) {
    call_at(now_ + dt, std::move(fn));
  }

  /// Process one event; false if the queue is empty.
  bool step();

  /// Run until the queue drains. Returns events processed.
  std::uint64_t run();

  /// Run while events exist at time <= t_end; leaves now() at t_end if the
  /// queue drained earlier. Returns events processed.
  std::uint64_t run_until(TimeNs t_end);

  bool empty() const { return pending_ == 0; }
  bool has_pending() const { return pending_ != 0; }
  /// Earliest pending event time. Requires has_pending().
  TimeNs peek_next_time() {
    AMR_CHECK(pending_ != 0);
    return next_time();
  }
  std::uint64_t events_processed() const { return processed_; }

  /// Dispatch key of the event being dispatched (or last dispatched):
  /// its schedule sequence number, for schedule_at events.
  std::uint64_t dispatch_key() const { return dispatch_key_; }

  /// Pre-size the front bucket for a known pending-event population;
  /// optional, avoids growth reallocations mid-run.
  void reserve(std::size_t events) { front_.reserve(events); }

  /// Attach an event tracer (nullptr detaches). Dispatch instants are in
  /// the TraceCat::kDes category, which is off by default — enable it in
  /// the trace config to see raw event dispatch. Each instant carries the
  /// event's tag and its dispatch key.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Scalar engine state for checkpoint/restart. Checkpoints are taken at
  /// step boundaries, where the BSP/overlap executors have drained the
  /// queue (pending events hold raw handler pointers and cannot be
  /// serialized), so the clock is the engine's entire surviving state.
  struct Clock {
    TimeNs now = 0;
    TimeNs front_time = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t processed = 0;
  };
  Clock clock() const { return {now_, front_time_, next_seq_, processed_}; }
  /// Restore a checkpointed clock; the queue must be empty on both the
  /// saving and the restoring side.
  void restore_clock(const Clock& clock) {
    AMR_CHECK_MSG(pending_ == 0,
                  "restore_clock requires a drained event queue");
    now_ = clock.now;
    front_time_ = clock.front_time;
    next_seq_ = clock.next_seq;
    processed_ = clock.processed;
  }

 private:
  /// 64 key bits -> highest-differing-bit indices 1..64; index 0 is the
  /// separate front bucket. buckets_[0] is never used.
  static constexpr unsigned kNumBuckets = 65;

  /// Queue entry: the whole pending event. Time ordering comes from the
  /// radix structure; the key orders equal-time entries in the front
  /// bucket; (handler, tag) is the payload dispatch hands over.
  struct Entry {
    TimeNs time;
    std::uint64_t key;
    EventHandler* handler;
    std::uint64_t tag;
  };
  static_assert(sizeof(Entry) == 32);

  /// Adapter so call_at can reuse the POD event path: the tag is an
  /// owning pointer to a heap-allocated callback.
  using Fn = std::function<void(Engine&)>;
  class FnHandler final : public EventHandler {
   public:
    void on_event(Engine& engine, std::uint64_t tag) override;
  };

  /// Radix bucket index of time t relative to the current minimum:
  /// 0 iff t == min (the front bucket), else 1 + the highest differing
  /// bit. Monotonicity (t >= min_) keeps the index stable until min_
  /// catches up.
  static unsigned bucket_index(TimeNs t, TimeNs min);

  /// Stable-sort the front bucket by dispatch key.
  void sort_front();

  /// Ensure the front bucket holds the pending minimum (redistributes
  /// the lowest non-empty bucket when the front is drained). Requires
  /// pending_ > 0.
  void refill_front();

  /// Earliest pending time. Requires pending_ > 0.
  TimeNs next_time();

  /// Re-bucket every pending entry against new_min (< front_time_).
  /// Rare slow path: run_until can advance front_time_ past now_, and a
  /// later legal schedule_at below it must become the new reference.
  void rebucket_all(TimeNs new_min);

  TimeNs now_ = 0;
  Tracer* tracer_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatch_key_ = 0;  ///< key of the event in dispatch
  bool dispatching_ = false;        ///< inside a handler called by step()
  std::uint64_t processed_ = 0;
  std::uint64_t pending_ = 0;
  TimeNs front_time_ = 0;  ///< all entries in front_ carry this time
  /// Equal-minimum bucket; key-sorted ascending from front_head_ on.
  std::vector<Entry> front_;
  std::size_t front_head_ = 0;
  std::vector<Entry> buckets_[kNumBuckets];
  FnHandler fn_handler_;
};

}  // namespace amr
