#include "amr/simmpi/comm.hpp"

#include <bit>

#include "amr/common/check.hpp"
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
           CollectiveParams collective)
    : engine_(engine), fabric_(fabric), nranks_(nranks),
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
}

void Comm::set_tracer(Tracer* tracer) { tracer_ = tracer; }

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
  state.recvs.resize(static_cast<std::size_t>(nranks_));
  for (std::size_t r = 0; r < state.recvs.size(); ++r) {
    AMR_CHECK(expected[r] >= 0);
    state.recvs[r] = RecvRecord{};
    state.recvs[r].expected = expected[r];
  }
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
  if (tracer_ != nullptr) {
    // Flow origin sits 1 ns inside the sender's pack span (which ends at
    // post_time) so Perfetto binds the arrow to that slice. Priority
    // promotions (critical-path send ordering) get their own flow name
    // so a trace shows which transfers jumped the queue. The arrow's end
    // is known now too: the delivery time, on the receiver's track.
    const std::uint64_t flow_id = tracer_->flow_begin(
        src, TraceCat::kMsg, priority ? "p2p-priority" : "p2p",
        post_time > 0 ? post_time - 1 : post_time, bytes, dst);
    tracer_->flow_end(dst, TraceCat::kMsg, "p2p", t.delivery, flow_id,
                      bytes, src);
  }
  const std::uint64_t tag =
      delivery_tag(static_cast<std::size_t>(xi), src, dst, dst_tag);
  // The message takes the legacy key its delivery event would have had,
  // so every other event keeps its key.
  post(tag, t.delivery, engine_.reserve_key());
  return t.sender_release;
}

void Comm::post(std::uint64_t tag, TimeNs t, std::uint64_t key) {
  const std::size_t slot = slot_of(tag);
  AMR_CHECK_MSG(slot < exchanges_.size() && exchanges_[slot].open,
                "delivery into a closed exchange window");
  const std::int32_t dst = dst_of(tag);
  const std::int32_t src = src_of(tag);
  RecvRecord& rv = exchanges_[slot].recvs[static_cast<std::size_t>(dst)];
  count(rv, t, key, src);
  if (rv.waiting && rv.posted == rv.expected)
    schedule_wake(slot, dst, rv);
  const std::int64_t dst_tag = dst_tag_of(tag);
  if (dst_tag == -1) return;
  RankEndpoint* ep = endpoints_[static_cast<std::size_t>(dst)];
  if (ep != nullptr)
    ep->on_post(engine_, exchanges_[slot].window, t, key, src, dst_tag);
}

void Comm::count(RecvRecord& rv, TimeNs t, std::uint64_t key,
                 std::int32_t src) {
  ++rv.posted;
  AMR_CHECK_MSG(rv.posted <= rv.expected,
                "more deliveries than expected; window mismatch");
  if (rv.posted == 1 || t > rv.t || (t == rv.t && key > rv.key)) {
    rv.t = t;
    rv.key = key;
    rv.src = src;
  }
}

void Comm::schedule_wake(std::size_t slot, std::int32_t rank,
                         const RecvRecord& rv) {
  engine_.schedule_keyed(rv.t, rv.key, this,
                        delivery_tag(slot, rv.src, rank, -1));
}

bool Comm::wait_recvs(Engine& engine, std::int32_t rank,
                      std::uint64_t window) {
  const std::ptrdiff_t xi = find_exchange(window);
  AMR_CHECK(xi >= 0);
  const auto slot = static_cast<std::size_t>(xi);
  RecvRecord& rv = exchanges_[slot].recvs[static_cast<std::size_t>(rank)];
  const bool counted = rv.posted == rv.expected;
  if (counted && (rv.posted == 0 || engine.dispatched(rv.t, rv.key)))
    return true;
  AMR_CHECK_MSG(!rv.waiting, "rank already waiting on window");
  rv.waiting = true;
  if (counted) schedule_wake(slot, rank, rv);
  return false;
}

bool Comm::exchange_complete(std::uint64_t window) const {
  const std::ptrdiff_t xi = find_exchange(window);
  AMR_CHECK(xi >= 0);
  const auto slot = static_cast<std::size_t>(xi);
  for (const RecvRecord& rv : exchanges_[slot].recvs)
    if (rv.posted != rv.expected || (rv.posted > 0 && rv.t > engine_.now()))
      return false;
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

void Comm::on_event(Engine& engine, std::uint64_t tag) {
  if (tag & kCollectiveBit) {
    const std::uint64_t window = (tag & ~kCollectiveBit) >> 32;
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
  // A receive wake: everything it needs rides in the tag.
  const std::size_t slot = slot_of(tag);
  const auto r = static_cast<std::size_t>(dst_of(tag));
  AMR_CHECK_MSG(slot < exchanges_.size() && exchanges_[slot].open,
                "delivery into a closed exchange window");
  RecvRecord& rv = exchanges_[slot].recvs[r];
  AMR_CHECK_MSG(rv.waiting, "receive wake for a rank that is not waiting");
  rv.waiting = false;
  RankEndpoint* ep = endpoints_[r];
  AMR_CHECK(ep != nullptr);
  ep->on_recvs_ready(engine, exchanges_[slot].window, engine.now(),
                     src_of(tag));
}

}  // namespace amr
