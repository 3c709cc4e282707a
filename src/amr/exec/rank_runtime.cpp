#include "amr/exec/rank_runtime.hpp"

#include <cstdint>

#include "amr/common/check.hpp"
#include "amr/trace/tracer.hpp"

namespace amr {

void RankRuntime::attach(std::int32_t rank, const Context& ctx) {
  AMR_CHECK(ctx_ == nullptr && ctx.comm != nullptr);
  rank_ = rank;
  ctx_ = &ctx;
  ctx.comm->set_endpoint(rank, this);
}

TimeNs bsp_task_duration(const BspTask& t, const ExecParams& params) {
  switch (t.kind) {
    case BspTaskKind::kCompute:
      return t.value + params.task_overhead;
    case BspTaskKind::kPackSend:
    case BspTaskKind::kUnpack:
      return static_cast<TimeNs>(static_cast<double>(t.value) /
                                 params.pack_gbytes_per_sec) +
             params.task_overhead;
    case BspTaskKind::kLocalCopy:
      return static_cast<TimeNs>(static_cast<double>(t.value) /
                                 params.memcpy_gbytes_per_sec) +
             params.task_overhead;
    case BspTaskKind::kWaitRecvs:
    case BspTaskKind::kWaitSends:
      break;
  }
  return 0;
}

TimeNs RankRuntime::duration(const BspTask& t) const {
  return bsp_task_duration(t, ctx_->params);
}

void RankRuntime::begin_step(std::span<const BspTask> tasks, TimeNs start) {
  AMR_CHECK(ctx_ != nullptr);
  cur_ = tasks.data();
  end_ = cur_ + tasks.size();
  state_ = State::kIdle;
  max_send_release_ = start;
  wait_start_ = start;
  step_done_ = false;
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
      const BspTask& t = *cur_;
      const TimeNs release = ctx_->comm->isend(
          rank_, t.dst, t.value, ctx_->window, engine.now(), -1, t.msgs,
          ctx_->priority_rank >= 0 && t.dst == ctx_->priority_rank);
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
      waits().send_wait_ns += engine.now() - wait_start_;
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
    const BspTask& t = *cur_;
    switch (t.kind) {
      case BspTaskKind::kCompute: {
        const TimeNs d = duration(t);
        state_ = State::kInTask;
        if (tracer != nullptr)
          tracer->complete(rank_, TraceCat::kCompute, "compute",
                           engine.now(), d, ctx_->ordering_tag);
        engine.schedule_at(engine.now() + d, this, 0);
        return;
      }
      case BspTaskKind::kLocalCopy:
      case BspTaskKind::kUnpack: {
        const TimeNs d = duration(t);
        state_ = State::kInTask;
        if (tracer != nullptr)
          tracer->complete(rank_, TraceCat::kPack,
                           t.kind == BspTaskKind::kUnpack ? "unpack"
                                                          : "local-copy",
                           engine.now(), d, t.value, ctx_->ordering_tag);
        engine.schedule_at(engine.now() + d, this, 0);
        return;
      }
      case BspTaskKind::kPackSend: {
        const TimeNs d = duration(t);
        state_ = State::kPostSend;
        if (tracer != nullptr)
          tracer->complete(rank_, TraceCat::kPack, "pack", engine.now(), d,
                           t.value, t.dst);
        engine.schedule_at(engine.now() + d, this, 0);
        return;
      }
      case BspTaskKind::kWaitRecvs:
        if (ctx_->comm->wait_recvs(rank_, ctx_->window))
          continue;  // everything already arrived: zero wait
        wait_start_ = engine.now();
        state_ = State::kWaitingRecvs;
        if (tracer != nullptr)
          tracer->begin(rank_, TraceCat::kRecvWait, "recv-wait",
                        engine.now());
        return;
      case BspTaskKind::kWaitSends:
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
  waits().collective_entry = engine.now();
  if (tracer != nullptr)
    tracer->begin(rank_, TraceCat::kSync, "collective", engine.now(),
                  static_cast<std::int64_t>(ctx_->window));
  ctx_->comm->enter_collective(ctx_->window, rank_, engine.now());
}

void RankRuntime::on_recvs_ready(std::uint64_t window, TimeNs t,
                                 std::int32_t releasing_src) {
  AMR_CHECK(window == ctx_->window);
  AMR_CHECK(state_ == State::kWaitingRecvs);
  waits().recv_wait_ns += t - wait_start_;
  waits().last_release_src = releasing_src;
  if (ctx_->tracer != nullptr)
    ctx_->tracer->end(rank_, TraceCat::kRecvWait, "recv-wait", t,
                      releasing_src);
  state_ = State::kRunning;
  ++cur_;
  // We are inside the wake event at time t; continue inline.
  advance(ctx_->comm->engine());
}

void RankRuntime::on_collective_done(std::uint64_t window, TimeNs t) {
  AMR_CHECK(window == ctx_->window);
  AMR_CHECK(state_ == State::kInCollective);
  waits().sync_ns += t - waits().collective_entry;
  waits().done_at = t;
  if (ctx_->tracer != nullptr)
    ctx_->tracer->end(rank_, TraceCat::kSync, "collective", t,
                      static_cast<std::int64_t>(window));
  state_ = State::kIdle;
  step_done_ = true;
}

}  // namespace amr
