#include "amr/exec/rank_runtime.hpp"

#include <cstddef>
#include <cstdint>

#include "amr/common/check.hpp"
#include "amr/trace/tracer.hpp"

namespace amr {

void RankRuntime::attach(std::int32_t rank, const Context& ctx) {
  AMR_CHECK(ctx_ == nullptr && ctx.comm != nullptr);
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
#endif
  static_assert(offsetof(RankRuntime, step_done_) < 64,
                "dispatch-hot fields must share the first cache line");
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif
  rank_ = rank;
  ctx_ = &ctx;
  ctx.comm->set_endpoint(rank, this);
}

TimeNs RankRuntime::duration(const Task& t) const {
  switch (t.kind) {
    case TaskKind::kCompute:
      return t.value;
    case TaskKind::kPackSend:
    case TaskKind::kUnpack:
      return static_cast<TimeNs>(static_cast<double>(t.value) /
                                 ctx_->params.pack_gbytes_per_sec) +
             ctx_->params.task_overhead;
    case TaskKind::kLocalCopy:
      return static_cast<TimeNs>(static_cast<double>(t.value) /
                                 ctx_->params.memcpy_gbytes_per_sec) +
             ctx_->params.task_overhead;
    case TaskKind::kWaitRecvs:
    case TaskKind::kWaitSends:
      break;
  }
  return 0;
}

void RankRuntime::begin_step(const RankStepWork& work,
                             TaskOrdering ordering, std::uint64_t window,
                             TimeNs start, std::int32_t priority_rank) {
  AMR_CHECK(ctx_ != nullptr);
  AMR_CHECK(window <= UINT32_MAX);
  tasks_.clear();
  window_ = static_cast<std::uint32_t>(window);
  ordering_tag_ = static_cast<std::int64_t>(ordering);
  priority_rank_ = priority_rank;
  state_ = State::kIdle;
  max_send_release_ = start;
  step_done_ = false;
  stats_ = RankStepStats{};
  wait_start_ = start;

  // Every task runs exactly once per step, so the counters that depend
  // only on the plan are counted as the list is built; events add only
  // the waits.
  const ClusterTopology& topo = ctx_->comm->fabric().topology();
  const std::int32_t node = topo.node_of(rank_);
  auto add = [&](const Task& t) {
    tasks_.push_back(t);
    if (t.kind == TaskKind::kCompute) {
      stats_.compute_ns += t.value;
      return;
    }
    stats_.pack_ns += duration(t);
    if (t.kind != TaskKind::kPackSend) return;
    if (topo.node_of(t.dst) == node) {
      ++stats_.msgs_local;
      stats_.bytes_local += t.value;
    } else {
      ++stats_.msgs_remote;
      stats_.bytes_remote += t.value;
    }
    stats_.msgs_coalesced += t.msgs - 1;
    if (t.msgs > 1) stats_.bytes_packed += t.value;
  };
  auto add_send = [&](const OutMessage& m) {
    AMR_CHECK(m.msgs >= 1 && m.msgs <= UINT16_MAX);
    add(Task{m.bytes, m.dst_rank, static_cast<std::uint16_t>(m.msgs),
             TaskKind::kPackSend});
  };
  auto add_sends = [&] {
    // Critical-path priority: sends feeding the predicted critical rank
    // go first, relative order otherwise kept; without a target the
    // schedule is the legacy order.
    if (priority_rank >= 0)
      for (const OutMessage& m : work.sends)
        if (m.dst_rank == priority_rank) add_send(m);
    for (const OutMessage& m : work.sends)
      if (m.dst_rank != priority_rank) add_send(m);
    if (work.local_copy_bytes > 0)
      add(Task{work.local_copy_bytes, -1, 1, TaskKind::kLocalCopy});
  };
  const TimeNs overhead = ctx_->params.task_overhead;
  auto add_computes = [&](const std::vector<BlockCompute>& computes) {
    for (const BlockCompute& c : computes)
      add(Task{c.duration + overhead, -1, 1, TaskKind::kCompute});
  };

  // The tuning lever of Fig 3/4b: where sends sit in the task schedule.
  if (ordering == TaskOrdering::kSendFirst) {
    add_sends();
    add_computes(work.computes);
  } else {
    add_computes(work.computes);
    add_sends();
  }
  add(Task{0, -1, 1, TaskKind::kWaitRecvs});
  if (work.recv_bytes > 0)
    add(Task{work.recv_bytes, -1, 1, TaskKind::kUnpack});
  add_computes(work.computes_after_wait);
  add(Task{0, -1, 1, TaskKind::kWaitSends});
  cur_ = tasks_.data();
  end_ = cur_ + tasks_.size();
}

void RankRuntime::start(Engine& engine) {
  AMR_CHECK(state_ == State::kIdle);
  state_ = State::kRunning;
  // Begin at the configured start time (== engine.now() for lockstep
  // steps); schedule rather than recurse so all ranks start fairly.
  engine.schedule_at(engine.now(), this, 0);
}

void RankRuntime::on_event(Engine& engine, std::uint64_t /*tag*/) {
  switch (state_) {
    case State::kRunning:
      advance(engine);
      return;
    case State::kInTask:
      state_ = State::kRunning;
      ++cur_;
      advance(engine);
      return;
    case State::kPostSend: {
      // Pack finished at now; the isend posts here.
      const Task& t = *cur_;
      const TimeNs release = ctx_->comm->isend(
          rank_, t.dst, t.value, window_, engine.now(), -1, t.msgs,
          priority_rank_ >= 0 && t.dst == priority_rank_);
      max_send_release_ = std::max(max_send_release_, release);
      if (ctx_->tracer != nullptr)
        ctx_->tracer->instant(rank_, TraceCat::kSend, "isend", engine.now(),
                              t.value, t.dst);
      state_ = State::kRunning;
      ++cur_;
      advance(engine);
      return;
    }
    case State::kWaitingSends: {
      stats_.send_wait_ns += engine.now() - wait_start_;
      if (ctx_->tracer != nullptr)
        ctx_->tracer->end(rank_, TraceCat::kSendWait, "send-wait",
                          engine.now());
      state_ = State::kRunning;
      ++cur_;
      advance(engine);
      return;
    }
    case State::kIdle:
    case State::kWaitingRecvs:
    case State::kInCollective:
      AMR_CHECK_MSG(false, "unexpected continuation event");
  }
}

void RankRuntime::advance(Engine& engine) {
  Tracer* const tracer = ctx_->tracer;
  for (; cur_ != end_; ++cur_) {
    const Task& t = *cur_;
    switch (t.kind) {
      case TaskKind::kCompute:
        state_ = State::kInTask;
        if (tracer != nullptr)
          tracer->complete(rank_, TraceCat::kCompute, "compute",
                           engine.now(), t.value, ordering_tag_);
        engine.schedule_at(engine.now() + t.value, this, 0);
        return;
      case TaskKind::kLocalCopy:
      case TaskKind::kUnpack: {
        const TimeNs d = duration(t);
        state_ = State::kInTask;
        if (tracer != nullptr)
          tracer->complete(rank_, TraceCat::kPack,
                           t.kind == TaskKind::kUnpack ? "unpack"
                                                       : "local-copy",
                           engine.now(), d, t.value, ordering_tag_);
        engine.schedule_at(engine.now() + d, this, 0);
        return;
      }
      case TaskKind::kPackSend: {
        const TimeNs d = duration(t);
        state_ = State::kPostSend;
        if (tracer != nullptr)
          tracer->complete(rank_, TraceCat::kPack, "pack", engine.now(), d,
                           t.value, t.dst);
        engine.schedule_at(engine.now() + d, this, 0);
        return;
      }
      case TaskKind::kWaitRecvs:
        if (ctx_->comm->wait_recvs(engine, rank_, window_))
          continue;  // everything already arrived: zero wait
        wait_start_ = engine.now();
        state_ = State::kWaitingRecvs;
        if (tracer != nullptr)
          tracer->begin(rank_, TraceCat::kRecvWait, "recv-wait",
                        engine.now());
        return;
      case TaskKind::kWaitSends:
        if (max_send_release_ <= engine.now()) continue;
        wait_start_ = engine.now();
        state_ = State::kWaitingSends;
        if (tracer != nullptr)
          tracer->begin(rank_, TraceCat::kSendWait, "send-wait",
                        engine.now());
        engine.schedule_at(max_send_release_, this, 0);
        return;
    }
  }
  // All tasks done: enter the closing blocking collective.
  state_ = State::kInCollective;
  stats_.collective_entry = engine.now();
  if (tracer != nullptr)
    tracer->begin(rank_, TraceCat::kSync, "collective", engine.now(),
                  static_cast<std::int64_t>(window_));
  ctx_->comm->enter_collective(window_, rank_, engine.now());
}

void RankRuntime::on_recvs_ready(Engine& engine, std::uint64_t window,
                                 TimeNs t, std::int32_t releasing_src) {
  AMR_CHECK(window == window_);
  AMR_CHECK(state_ == State::kWaitingRecvs);
  stats_.recv_wait_ns += t - wait_start_;
  stats_.last_release_src = releasing_src;
  if (ctx_->tracer != nullptr)
    ctx_->tracer->end(rank_, TraceCat::kRecvWait, "recv-wait", t,
                      releasing_src);
  state_ = State::kRunning;
  ++cur_;
  // We are inside the wake event at time t; continue inline.
  advance(engine);
}

void RankRuntime::on_collective_done(Engine& /*engine*/,
                                     std::uint64_t window, TimeNs t) {
  AMR_CHECK(window == window_);
  AMR_CHECK(state_ == State::kInCollective);
  stats_.sync_ns += t - stats_.collective_entry;
  stats_.done_at = t;
  if (ctx_->tracer != nullptr)
    ctx_->tracer->end(rank_, TraceCat::kSync, "collective", t,
                      static_cast<std::int64_t>(window));
  state_ = State::kIdle;
  step_done_ = true;
}

}  // namespace amr
