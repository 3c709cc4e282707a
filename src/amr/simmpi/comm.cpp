#include "amr/simmpi/comm.hpp"

#include <bit>

#include "amr/common/check.hpp"
#include "amr/des/sharded_engine.hpp"
#include "amr/trace/tracer.hpp"

namespace amr {

namespace {
/// Width of one rank field in a delivery tag; checked before the Comm
/// sizes anything by nranks.
unsigned rank_bits_for(std::int32_t nranks) {
  AMR_CHECK(nranks > 0);
  AMR_CHECK_MSG(nranks <= Comm::kMaxRanks,
                "nranks exceeds the ranks a delivery tag can encode");
  return static_cast<unsigned>(
      std::bit_width(static_cast<std::uint64_t>(nranks - 1)));
}
}  // namespace

Comm::Comm(Engine& engine, Fabric& fabric, std::int32_t nranks,
           CollectiveParams collective, ShardedEngine* sharded)
    : engine_(engine), fabric_(fabric), sharded_(sharded), nranks_(nranks),
      collective_params_(collective), rank_bits_(rank_bits_for(nranks)),
      dst_tag_bits_(kSlotShift - 2 * rank_bits_),
      dst_shift_(dst_tag_bits_ + rank_bits_),
      rank_mask_((1ULL << rank_bits_) - 1),
      dst_tag_mask_((1ULL << dst_tag_bits_) - 1),
      endpoints_(static_cast<std::size_t>(nranks), nullptr) {
  // ceil(log2(nranks)) is exactly the rank field width.
  collective_overhead_ =
      collective_params_.alpha +
      collective_params_.beta * static_cast<TimeNs>(rank_bits_);
  send_seq_.assign(static_cast<std::size_t>(nranks), 0);
  if (sharded_ != nullptr) {
    AMR_CHECK_MSG(fabric_.sharded(),
                  "sharded comm requires a sharding-enabled fabric");
    shard_collectives_.resize(
        static_cast<std::size_t>(sharded_->num_shards()));
  }
}

void Comm::set_tracer(Tracer* tracer) {
  // Flow data is matched by schedule sequence number, which only the
  // sequential engine's schedule_at path assigns.
  AMR_CHECK_MSG(tracer == nullptr || sharded_ == nullptr,
                "sharded comm cannot be traced");
  tracer_ = tracer;
  trace_flows_.clear();
}

void Comm::set_endpoint(std::int32_t rank, RankEndpoint* endpoint) {
  AMR_CHECK(rank >= 0 && rank < nranks_);
  endpoints_[static_cast<std::size_t>(rank)] = endpoint;
}

std::ptrdiff_t Comm::find_exchange(std::uint64_t window) const {
  for (std::size_t i = 0; i < exchanges_.size(); ++i)
    if (exchanges_[i].open && exchanges_[i].window == window)
      return static_cast<std::ptrdiff_t>(i);
  return -1;
}

void Comm::begin_exchange(std::uint64_t window,
                          std::span<const std::int32_t> expected) {
  AMR_CHECK(window < (1ULL << 31));
  AMR_CHECK(expected.size() == static_cast<std::size_t>(nranks_));
  AMR_CHECK_MSG(find_exchange(window) < 0, "window id already open");
  std::size_t slot = exchanges_.size();
  for (std::size_t i = 0; i < exchanges_.size(); ++i) {
    if (!exchanges_[i].open) {
      slot = i;
      break;
    }
  }
  if (slot == exchanges_.size()) {
    AMR_CHECK_MSG(slot < kMaxOpenExchanges,
                  "too many open exchange windows for a delivery tag");
    exchanges_.emplace_back();
  }
  ExchangeState& state = exchanges_[slot];
  state.window = window;
  state.open = true;
  state.expected.assign(expected.begin(), expected.end());
  state.arrived.assign(static_cast<std::size_t>(nranks_), 0);
  state.waiting.assign(static_cast<std::size_t>(nranks_), 0);
  for (const std::int32_t e : state.expected) AMR_CHECK(e >= 0);
}

TimeNs Comm::isend(std::int32_t src, std::int32_t dst, std::int64_t bytes,
                   std::uint64_t window, TimeNs post_time,
                   std::int64_t dst_tag, std::int32_t msgs,
                   bool priority) {
  AMR_CHECK(src != dst);
  AMR_CHECK(src >= 0 && src < nranks_ && dst >= 0 && dst < nranks_);
  const std::ptrdiff_t xi = find_exchange(window);
  AMR_CHECK_MSG(xi >= 0, "isend outside an open exchange window");
  AMR_CHECK_MSG(dst_tag >= kMinDstTag && dst_tag <= max_dst_tag(),
                "dst_tag outside the range a delivery tag can encode");
  const TransferTiming t =
      fabric_.transfer(src, dst, bytes, post_time, msgs);
  std::uint64_t flow_id = 0;
  if (tracer_ != nullptr) {
    // Flow origin sits 1 ns inside the sender's pack span (which ends at
    // post_time) so Perfetto binds the arrow to that slice. Priority
    // promotions (critical-path send ordering) get their own flow name
    // so a trace shows which transfers jumped the queue.
    flow_id = tracer_->flow_begin(
        src, TraceCat::kMsg, priority ? "p2p-priority" : "p2p",
        post_time > 0 ? post_time - 1 : post_time, bytes, dst);
  }
  const std::uint64_t tag =
      delivery_tag(static_cast<std::size_t>(xi), src, dst, dst_tag);
  if (sharded_ == nullptr) {
    if (flow_id != 0)
      trace_flows_.emplace(engine_.next_seq(), TraceFlow{bytes, flow_id});
    engine_.schedule_at(t.delivery, this, tag);
    return t.sender_release;
  }
  // Sharded: key the delivery by (source rank, per-source send sequence)
  // so its equal-time dispatch position is independent of the shard
  // layout, and route cross-shard deliveries through the epoch mailbox.
  // The fabric guarantees cross-node delivery >= post_time + lookahead,
  // so a posted event always lands beyond the destination shard's
  // current epoch.
  const std::int32_t src_shard = sharded_->shard_of_rank(src);
  const std::int32_t dst_shard = sharded_->shard_of_rank(dst);
  const std::uint64_t key =
      event_key::delivery(src, send_seq_[static_cast<std::size_t>(src)]++);
  if (src_shard == dst_shard)
    sharded_->shard(src_shard).schedule_keyed(t.delivery, key, this, tag);
  else
    sharded_->post(src_shard, dst_shard, t.delivery, key, this, tag);
  return t.sender_release;
}

bool Comm::wait_recvs(std::int32_t rank, std::uint64_t window,
                      TimeNs wait_start) {
  const std::ptrdiff_t xi = find_exchange(window);
  AMR_CHECK(xi >= 0);
  ExchangeState& state = exchanges_[static_cast<std::size_t>(xi)];
  const auto r = static_cast<std::size_t>(rank);
  if (state.arrived[r] >= state.expected[r]) return true;
  (void)wait_start;
  AMR_CHECK_MSG(state.waiting[r] == 0, "rank already waiting on window");
  state.waiting[r] = 1;
  return false;
}

bool Comm::exchange_complete(std::uint64_t window) const {
  const std::ptrdiff_t xi = find_exchange(window);
  AMR_CHECK(xi >= 0);
  const ExchangeState& state = exchanges_[static_cast<std::size_t>(xi)];
  for (std::size_t r = 0; r < state.expected.size(); ++r)
    if (state.arrived[r] != state.expected[r]) return false;
  return true;
}

void Comm::end_exchange(std::uint64_t window) {
  const std::ptrdiff_t xi = find_exchange(window);
  AMR_CHECK(xi >= 0);
  ExchangeState& state = exchanges_[static_cast<std::size_t>(xi)];
  AMR_CHECK_MSG(exchange_complete(window),
                "closing window with undelivered messages");
  state.open = false;  // slot (and its vectors) recycled by the next open
}

void Comm::enter_collective(std::uint64_t window, std::int32_t rank,
                            TimeNs entry_time) {
  AMR_CHECK(window < (1ULL << 31));
  AMR_CHECK(rank >= 0 && rank < nranks_);
  if (sharded_ != nullptr) {
    // Accumulate on the caller's shard; the merge (and the completion
    // check) happens at the next epoch barrier, where it is both
    // race-free and order-independent (counts add, entries max).
    auto& list =
        shard_collectives_[static_cast<std::size_t>(
            sharded_->shard_of_rank(rank))];
    for (CollectiveState& c : list)
      if (c.window == window) {
        ++c.entered;
        c.max_entry = std::max(c.max_entry, entry_time);
        return;
      }
    list.push_back(CollectiveState{window, 1, entry_time});
    return;
  }
  CollectiveState* found = nullptr;
  for (auto& c : collectives_)
    if (c.window == window) {
      found = &c;
      break;
    }
  if (found == nullptr) {
    collectives_.push_back(CollectiveState{window, 0, 0});
    found = &collectives_.back();
  }
  CollectiveState& state = *found;
  ++state.entered;
  state.max_entry = std::max(state.max_entry, entry_time);
  AMR_CHECK_MSG(state.entered <= nranks_,
                "rank entered collective twice in one window");
  if (state.entered == nranks_) {
    const TimeNs done = state.max_entry + collective_overhead_;
    engine_.schedule_at(done, this, kCollectiveBit | (window << 32));
  }
}

void Comm::on_epoch_barrier() {
  // Merge per-shard collective entries (commutative, so the shard
  // iteration order cannot matter), then fire any completed collective
  // into every shard: each shard's dispatch notifies its own rank range.
  for (std::vector<CollectiveState>& list : shard_collectives_) {
    for (const CollectiveState& e : list) {
      CollectiveState* found = nullptr;
      for (CollectiveState& c : collectives_)
        if (c.window == e.window) {
          found = &c;
          break;
        }
      if (found == nullptr) {
        collectives_.push_back(e);
      } else {
        found->entered += e.entered;
        found->max_entry = std::max(found->max_entry, e.max_entry);
      }
    }
    list.clear();
  }
  for (std::size_t i = 0; i < collectives_.size();) {
    CollectiveState& c = collectives_[i];
    AMR_CHECK_MSG(c.entered <= nranks_,
                  "rank entered collective twice in one window");
    if (c.entered < nranks_) {
      ++i;
      continue;
    }
    const std::uint64_t window = c.window;
    const TimeNs done = c.max_entry + collective_overhead_;
    // Remove before scheduling: the sharded dispatch path does not
    // consult collectives_ (window and time ride in the tag and event).
    collectives_[i] = collectives_.back();
    collectives_.pop_back();
    for (std::int32_t s = 0; s < sharded_->num_shards(); ++s)
      sharded_->shard(s).schedule_keyed(done, event_key::collective(window),
                                        this,
                                        kCollectiveBit | (window << 32));
  }
}

void Comm::on_event(Engine& engine, std::uint64_t tag) {
  if (tag & kCollectiveBit) {
    const std::uint64_t window = (tag & ~kCollectiveBit) >> 32;
    if (sharded_ != nullptr) {
      // Per-shard completion event: notify only this shard's ranks (in
      // rank order; the global notification order across shards is not
      // observable — each rank's continuation stays in its own shard).
      const auto [first, last] = sharded_->rank_range(engine.shard_id());
      for (std::int32_t r = first; r < last; ++r) {
        RankEndpoint* ep = endpoints_[static_cast<std::size_t>(r)];
        AMR_CHECK(ep != nullptr);
        ep->on_collective_done(engine, window, engine.now());
      }
      return;
    }
    std::size_t ci = collectives_.size();
    for (std::size_t i = 0; i < collectives_.size(); ++i)
      if (collectives_[i].window == window) {
        ci = i;
        break;
      }
    AMR_CHECK(ci < collectives_.size());
    // Remove before the callbacks: a rank may re-enter the next window's
    // collective from on_collective_done.
    collectives_[ci] = collectives_.back();
    collectives_.pop_back();
    for (std::int32_t r = 0; r < nranks_; ++r) {
      RankEndpoint* ep = endpoints_[static_cast<std::size_t>(r)];
      AMR_CHECK(ep != nullptr);
      ep->on_collective_done(engine, window, engine.now());
    }
    return;
  }
  // Message delivery: everything it needs rides in the tag.
  const auto slot = static_cast<std::size_t>(tag >> kSlotShift);
  const auto r = static_cast<std::size_t>((tag >> dst_shift_) & rank_mask_);
  const auto src =
      static_cast<std::int32_t>((tag >> dst_tag_bits_) & rank_mask_);
  const std::int64_t dst_tag =
      static_cast<std::int64_t>(tag & dst_tag_mask_) + kMinDstTag;
  AMR_CHECK_MSG(slot < exchanges_.size() && exchanges_[slot].open,
                "delivery into a closed exchange window");
  const std::uint64_t window = exchanges_[slot].window;
  {
    ExchangeState& state = exchanges_[slot];
    ++state.arrived[r];
    if (tracer_ != nullptr) {
      const auto it = trace_flows_.find(engine.dispatch_seq());
      if (it != trace_flows_.end()) {
        tracer_->flow_end(static_cast<std::int32_t>(r), TraceCat::kMsg,
                          "p2p", engine.now(), it->second.flow_id,
                          it->second.bytes, src);
        trace_flows_.erase(it);
      }
    }
    AMR_CHECK_MSG(state.arrived[r] <= state.expected[r],
                  "more deliveries than expected; window mismatch");
  }
  if (dst_tag != -1) {
    if (RankEndpoint* ep = endpoints_[r]; ep != nullptr)
      ep->on_message(engine, window, engine.now(), src, dst_tag);
  }
  // Re-index after the callback: slot indices are stable, but the pool
  // vector may have grown if the endpoint opened a window.
  ExchangeState& state = exchanges_[slot];
  if (state.waiting[r] != 0 && state.arrived[r] == state.expected[r]) {
    state.waiting[r] = 0;
    RankEndpoint* ep = endpoints_[r];
    AMR_CHECK(ep != nullptr);
    ep->on_recvs_ready(engine, window, engine.now(), src);
  }
}

}  // namespace amr
