#include "amr/exec/rank_runtime.hpp"

#include "amr/common/check.hpp"
#include "amr/trace/tracer.hpp"

namespace amr {

RankRuntime::RankRuntime(std::int32_t rank, Comm& comm, ExecParams params,
                         Tracer* tracer)
    : rank_(rank), comm_(comm), params_(params), tracer_(tracer) {
  comm_.set_endpoint(rank, this);
}

TimeNs RankRuntime::pack_ns(std::int64_t bytes) const {
  return static_cast<TimeNs>(static_cast<double>(bytes) /
                             params_.pack_gbytes_per_sec);
}

void RankRuntime::begin_step(const RankStepWork& work,
                             TaskOrdering ordering, std::uint64_t window,
                             TimeNs start, std::int32_t priority_rank) {
  tasks_.clear();
  pc_ = 0;
  window_ = window;
  ordering_tag_ = static_cast<std::int64_t>(ordering);
  priority_rank_ = priority_rank;
  state_ = State::kIdle;
  max_send_release_ = start;
  step_done_ = false;
  stats_ = RankStepStats{};
  wait_start_ = start;

  auto add_sends = [&] {
    // Critical-path priority: sends feeding the predicted critical rank
    // go first. With priority_rank == -1 the first pass matches nothing
    // and the schedule is bit-identical to the legacy order.
    for (const OutMessage& m : work.sends)
      if (m.dst_rank == priority_rank)
        tasks_.push_back(Task{TaskKind::kPackSend,
                              pack_ns(m.bytes) + params_.task_overhead,
                              m.dst_rank, m.bytes, m.msgs});
    for (const OutMessage& m : work.sends)
      if (m.dst_rank != priority_rank)
        tasks_.push_back(Task{TaskKind::kPackSend,
                              pack_ns(m.bytes) + params_.task_overhead,
                              m.dst_rank, m.bytes, m.msgs});
    if (work.local_copy_bytes > 0) {
      const auto copy = static_cast<TimeNs>(
          static_cast<double>(work.local_copy_bytes) /
          params_.memcpy_gbytes_per_sec);
      tasks_.push_back(Task{TaskKind::kLocalCopy,
                            copy + params_.task_overhead, -1,
                            work.local_copy_bytes});
    }
  };
  auto add_computes = [&] {
    for (const BlockCompute& c : work.computes)
      tasks_.push_back(Task{TaskKind::kCompute,
                            c.duration + params_.task_overhead, -1, 0});
  };

  // The tuning lever of Fig 3/4b: where sends sit in the task schedule.
  if (ordering == TaskOrdering::kSendFirst) {
    add_sends();
    add_computes();
  } else {
    add_computes();
    add_sends();
  }
  tasks_.push_back(Task{TaskKind::kWaitRecvs, 0, -1, 0});
  if (work.recv_bytes > 0)
    tasks_.push_back(Task{TaskKind::kUnpack,
                          pack_ns(work.recv_bytes) + params_.task_overhead,
                          -1, work.recv_bytes});
  for (const BlockCompute& c : work.computes_after_wait)
    tasks_.push_back(Task{TaskKind::kCompute,
                          c.duration + params_.task_overhead, -1, 0});
  tasks_.push_back(Task{TaskKind::kWaitSends, 0, -1, 0});
}

void RankRuntime::self_schedule(Engine& engine, TimeNs t) {
  if (comm_.sharded() != nullptr)
    engine.schedule_keyed(t, event_key::rank(rank_), this, 0);
  else
    engine.schedule_at(t, this, 0);
}

void RankRuntime::start(Engine& engine) {
  AMR_CHECK(state_ == State::kIdle);
  state_ = State::kRunning;
  // Begin at the configured start time (== engine.now() for lockstep
  // steps); schedule rather than recurse so all ranks start fairly.
  self_schedule(engine, engine.now());
}

void RankRuntime::on_event(Engine& engine, std::uint64_t /*tag*/) {
  switch (state_) {
    case State::kRunning:
      advance(engine);
      return;
    case State::kInTask:
      state_ = State::kRunning;
      ++pc_;
      advance(engine);
      return;
    case State::kPostSend: {
      // Pack finished at now; the isend posts here.
      const Task& t = tasks_[pc_];
      const TimeNs release =
          comm_.isend(rank_, t.dst, t.bytes, window_, engine.now(), -1,
                      t.msgs, priority_rank_ >= 0 && t.dst == priority_rank_);
      max_send_release_ = std::max(max_send_release_, release);
      if (tracer_ != nullptr)
        tracer_->instant(rank_, TraceCat::kSend, "isend", engine.now(),
                         t.bytes, t.dst);
      if (comm_.fabric().topology().same_node(rank_, t.dst)) {
        ++stats_.msgs_local;
        stats_.bytes_local += t.bytes;
      } else {
        ++stats_.msgs_remote;
        stats_.bytes_remote += t.bytes;
      }
      stats_.msgs_coalesced += t.msgs - 1;
      if (t.msgs > 1) stats_.bytes_packed += t.bytes;
      state_ = State::kRunning;
      ++pc_;
      advance(engine);
      return;
    }
    case State::kWaitingSends: {
      stats_.send_wait_ns += engine.now() - wait_start_;
      if (tracer_ != nullptr)
        tracer_->end(rank_, TraceCat::kSendWait, "send-wait", engine.now());
      state_ = State::kRunning;
      ++pc_;
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
  while (pc_ < tasks_.size()) {
    const Task& t = tasks_[pc_];
    switch (t.kind) {
      case TaskKind::kCompute:
        stats_.compute_ns += t.duration;
        state_ = State::kInTask;
        if (tracer_ != nullptr)
          tracer_->complete(rank_, TraceCat::kCompute, "compute",
                            engine.now(), t.duration, ordering_tag_);
        self_schedule(engine, engine.now() + t.duration);
        return;
      case TaskKind::kLocalCopy:
      case TaskKind::kUnpack:
        stats_.pack_ns += t.duration;
        state_ = State::kInTask;
        if (tracer_ != nullptr)
          tracer_->complete(rank_, TraceCat::kPack,
                            t.kind == TaskKind::kUnpack ? "unpack"
                                                        : "local-copy",
                            engine.now(), t.duration, t.bytes,
                            ordering_tag_);
        self_schedule(engine, engine.now() + t.duration);
        return;
      case TaskKind::kPackSend:
        stats_.pack_ns += t.duration;
        state_ = State::kPostSend;
        if (tracer_ != nullptr)
          tracer_->complete(rank_, TraceCat::kPack, "pack", engine.now(),
                            t.duration, t.bytes, t.dst);
        self_schedule(engine, engine.now() + t.duration);
        return;
      case TaskKind::kWaitRecvs:
        if (comm_.wait_recvs(engine, rank_, window_)) {
          ++pc_;
          continue;  // everything already arrived: zero wait
        }
        wait_start_ = engine.now();
        state_ = State::kWaitingRecvs;
        if (tracer_ != nullptr)
          tracer_->begin(rank_, TraceCat::kRecvWait, "recv-wait",
                         engine.now());
        return;
      case TaskKind::kWaitSends: {
        if (max_send_release_ <= engine.now()) {
          ++pc_;
          continue;
        }
        wait_start_ = engine.now();
        state_ = State::kWaitingSends;
        if (tracer_ != nullptr)
          tracer_->begin(rank_, TraceCat::kSendWait, "send-wait",
                         engine.now());
        self_schedule(engine, max_send_release_);
        return;
      }
    }
  }
  // All tasks done: enter the closing blocking collective.
  state_ = State::kInCollective;
  stats_.collective_entry = engine.now();
  if (tracer_ != nullptr)
    tracer_->begin(rank_, TraceCat::kSync, "collective", engine.now(),
                   static_cast<std::int64_t>(window_));
  comm_.enter_collective(window_, rank_, engine.now());
}

void RankRuntime::on_recvs_ready(Engine& engine, std::uint64_t window,
                                 TimeNs t, std::int32_t releasing_src) {
  AMR_CHECK(window == window_);
  AMR_CHECK(state_ == State::kWaitingRecvs);
  stats_.recv_wait_ns += t - wait_start_;
  stats_.last_release_src = releasing_src;
  if (tracer_ != nullptr)
    tracer_->end(rank_, TraceCat::kRecvWait, "recv-wait", t,
                 releasing_src);
  state_ = State::kRunning;
  ++pc_;
  // We are inside the wake event at time t; continue inline on the
  // dispatching engine (the rank's own shard under sharding).
  advance(engine);
}

void RankRuntime::on_collective_done(Engine& /*engine*/,
                                     std::uint64_t window, TimeNs t) {
  AMR_CHECK(window == window_);
  AMR_CHECK(state_ == State::kInCollective);
  stats_.sync_ns += t - stats_.collective_entry;
  stats_.done_at = t;
  if (tracer_ != nullptr)
    tracer_->end(rank_, TraceCat::kSync, "collective", t,
                 static_cast<std::int64_t>(window));
  state_ = State::kIdle;
  step_done_ = true;
}

}  // namespace amr
