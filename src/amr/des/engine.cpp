#include "amr/des/engine.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "amr/trace/tracer.hpp"

namespace amr {

Engine::~Engine() {
  const auto free_fn = [this](const Entry& e) {
    if (e.handler == &fn_handler_) delete reinterpret_cast<Fn*>(e.tag);
  };
  for (std::size_t i = front_head_; i < front_.size(); ++i) free_fn(front_[i]);
  for (const std::vector<Entry>& bucket : buckets_)
    for (const Entry& e : bucket) free_fn(e);
}

unsigned Engine::bucket_index(TimeNs t, TimeNs min) {
  return static_cast<unsigned>(std::bit_width(
      static_cast<std::uint64_t>(t) ^ static_cast<std::uint64_t>(min)));
}

void Engine::sort_front() {
  // Legacy keys arrive already sorted, so check before sorting: a
  // stable_sort call allocates its merge buffer even when it has nothing
  // to move.
  const auto by_key = [](const Entry& a, const Entry& b) {
    return a.key < b.key;
  };
  if (!std::is_sorted(front_.begin(), front_.end(), by_key))
    std::stable_sort(front_.begin(), front_.end(), by_key);
}

void Engine::refill_front() {
  if (front_head_ < front_.size()) return;
  front_.clear();
  front_head_ = 0;
  // Lowest non-empty bucket holds the next minimum (classical radix-heap
  // invariant: every pending entry sits in bucket_index(time, min) of
  // the *current* minimum, so lower bucket == strictly earlier time).
  unsigned j = 1;
  while (buckets_[j].empty()) ++j;
  TimeNs min = buckets_[j].front().time;
  for (const Entry& e : buckets_[j])
    if (e.time < min) min = e.time;
  front_time_ = min;
  // Stable redistribution: every entry lands strictly below j (it shares
  // bit j-1 of the time with the new minimum); equal-minimum entries
  // land in front_ in their original append order, then a stable sort
  // puts them in dispatch-key order. Legacy keys are monotone in append
  // order, so for the sequential schedule_at path the sort is an
  // already-sorted pass and the drain order stays exact schedule FIFO.
  for (const Entry& e : buckets_[j]) {
    const unsigned i = bucket_index(e.time, min);
    if (i == 0)
      front_.push_back(e);
    else
      buckets_[i].push_back(e);
  }
  buckets_[j].clear();
  sort_front();
}

TimeNs Engine::next_time() {
  refill_front();
  return front_time_;
}

void Engine::rebucket_all(TimeNs new_min) {
  // front_time_ is the reference every pending entry is bucketed
  // against, and the radix invariant needs it to stay a lower bound of
  // every schedulable time. run_until (via next_time/refill_front) can
  // advance it to the earliest *pending* time, which may sit above now_
  // when that event lies past t_end — so a later schedule_at(t) with
  // now_ <= t < front_time_ is legal yet cannot be bucketed against the
  // larger reference. Restore the invariant by re-bucketing everything
  // against t, the new global minimum. Equal-time entries always share
  // one bucket and are re-appended in order, so FIFO survives. Only
  // drivers that mix run_until with earlier re-scheduling reach this;
  // O(pending) is fine for that path.
  std::vector<Entry> live;
  live.reserve(pending_);
  live.insert(live.end(),
              front_.begin() + static_cast<std::ptrdiff_t>(front_head_),
              front_.end());
  front_.clear();
  front_head_ = 0;
  for (std::vector<Entry>& bucket : buckets_) {
    live.insert(live.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  front_time_ = new_min;
  for (const Entry& e : live) {
    const unsigned i = bucket_index(e.time, new_min);
    if (i == 0)
      front_.push_back(e);
    else
      buckets_[i].push_back(e);
  }
  sort_front();
}

void Engine::schedule_at(TimeNs t, EventHandler* handler,
                         std::uint64_t tag) {
  // The legacy key is the global schedule counter: monotone, so
  // equal-time dispatch order is exactly schedule FIFO.
  schedule_keyed(t, reserve_key(), handler, tag);
}

void Engine::schedule_keyed(TimeNs t, std::uint64_t key,
                            EventHandler* handler, std::uint64_t tag) {
  AMR_CHECK_MSG(t >= now_, "cannot schedule into the past");
  AMR_CHECK(handler != nullptr);
  if (t < front_time_) [[unlikely]]
    rebucket_all(t);
  const Entry entry{t, key, handler, tag};
  // Always bucket relative to front_time_, the one monotone reference
  // every pending entry was bucketed against (updated only by
  // refill_front, and by rebucket_all above when a legal earlier time
  // arrives). Mixing references would break the equal-time colocation
  // the key-order guarantee rests on. Entries at exactly the front time
  // join the front bucket at their key position — for monotone legacy
  // keys that is always the tail, a plain O(1) append.
  const unsigned i = bucket_index(t, front_time_);
  if (i == 0) {
    if (front_.empty() || key >= front_.back().key) {
      front_.push_back(entry);
    } else {
      auto it = std::upper_bound(
          front_.begin() + static_cast<std::ptrdiff_t>(front_head_),
          front_.end(), key,
          [](std::uint64_t k, const Entry& e) { return k < e.key; });
      front_.insert(it, entry);
    }
  } else {
    buckets_[i].push_back(entry);
  }
  ++pending_;
}

static_assert(sizeof(std::uintptr_t) <= sizeof(std::uint64_t),
              "call_at stores a callback pointer in an event tag");

void Engine::call_at(TimeNs t, Fn fn) {
  schedule_at(t, &fn_handler_,
              reinterpret_cast<std::uint64_t>(new Fn(std::move(fn))));
}

void Engine::FnHandler::on_event(Engine& engine, std::uint64_t tag) {
  // Own the callback for the duration of the call; it may schedule more.
  const std::unique_ptr<Fn> fn(reinterpret_cast<Fn*>(tag));
  (*fn)(engine);
}

bool Engine::step() {
  if (pending_ == 0) return false;
  refill_front();
  const Entry ev = front_[front_head_++];
  --pending_;
  AMR_CHECK(ev.time >= now_);
  now_ = ev.time;
  dispatch_key_ = ev.key;
  ++processed_;
  if (tracer_ != nullptr) [[unlikely]]
    tracer_->instant(Tracer::kTrackSim, TraceCat::kDes, "dispatch", now_,
                     static_cast<std::int64_t>(ev.tag),
                     static_cast<std::int64_t>(dispatch_seq()));
  dispatching_ = true;
  ev.handler->on_event(*this, ev.tag);
  dispatching_ = false;
  return true;
}

std::uint64_t Engine::run() {
  const std::uint64_t start = processed_;
  while (step()) {
  }
  return processed_ - start;
}

std::uint64_t Engine::run_until(TimeNs t_end) {
  const std::uint64_t start = processed_;
  while (pending_ != 0 && next_time() <= t_end) step();
  if (now_ < t_end) now_ = t_end;
  return processed_ - start;
}

}  // namespace amr
