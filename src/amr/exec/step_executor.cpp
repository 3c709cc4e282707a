#include "amr/exec/step_executor.hpp"

#include <algorithm>
#include <utility>

#include "amr/common/capacity.hpp"
#include "amr/common/check.hpp"
#include "amr/trace/tracer.hpp"

namespace amr {

StepExecutor::StepExecutor(Engine& engine, Comm& comm, ExecParams params,
                           Tracer* tracer)
    : engine_(engine),
      comm_(comm),
      tracer_(tracer),
      ctx_{&comm, params, tracer},
      runtimes_(static_cast<std::size_t>(comm.nranks())),
      waits_(runtimes_.size()) {
  ctx_.waits = waits_.data();
  for (std::size_t r = 0; r < runtimes_.size(); ++r)
    runtimes_[r].attach(static_cast<std::int32_t>(r), ctx_);
}

std::size_t StepExecutor::bytes() const {
  return capacity_bytes(runtimes_, waits_, counters_, sender_begin_,
                        senders_, priority_tasks_);
}

void StepExecutor::count_plan(const BspPlan& plan) {
  if (plan.serial != 0 && plan.serial == counted_serial_) return;
  const ClusterTopology& topo = comm_.fabric().topology();
  counters_.assign(plan.nranks(), PlanCounters{});
  for (std::size_t r = 0; r < plan.nranks(); ++r) {
    PlanCounters& c = counters_[r];
    const std::int32_t node = topo.node_of(static_cast<std::int32_t>(r));
    for (const BspTask& t : plan.tasks_of(r)) {
      if (t.kind == BspTaskKind::kCompute) continue;
      c.pack_ns += bsp_task_duration(t, ctx_.params);
      if (t.kind != BspTaskKind::kPackSend) continue;
      if (topo.node_of(t.dst) == node) {
        ++c.msgs_local;
        c.bytes_local += t.value;
      } else {
        ++c.msgs_remote;
        c.bytes_remote += t.value;
      }
    }
  }
  counted_serial_ = plan.serial;
}

void StepExecutor::index_senders(const BspPlan& plan) {
  if (plan.serial != 0 && plan.serial == indexed_serial_) return;
  const std::size_t n = plan.nranks();
  // Two passes over the sends, counting then filling; `last` keeps a
  // rank from being listed twice as a sender to the same destination.
  std::vector<std::int32_t> last(n, -1);
  auto each_new_pair = [&](auto&& f) {
    std::fill(last.begin(), last.end(), -1);
    for (std::size_t src = 0; src < n; ++src) {
      const auto s = static_cast<std::int32_t>(src);
      for (const BspTask& t : plan.sends_of(src))
        if (std::exchange(last[static_cast<std::size_t>(t.dst)], s) != s)
          f(static_cast<std::size_t>(t.dst), s);
    }
  };
  sender_begin_.assign(n + 1, 0);
  each_new_pair(
      [&](std::size_t dst, std::int32_t) { ++sender_begin_[dst + 1]; });
  for (std::size_t r = 0; r < n; ++r) sender_begin_[r + 1] += sender_begin_[r];
  senders_.resize(static_cast<std::size_t>(sender_begin_[n]));
  std::vector<std::int32_t> fill(sender_begin_.begin(),
                                 sender_begin_.end() - 1);
  each_new_pair([&](std::size_t dst, std::int32_t src) {
    senders_[static_cast<std::size_t>(fill[dst]++)] = src;
  });
  indexed_serial_ = plan.serial;
}

void StepExecutor::arm_priority_senders(const BspPlan& plan,
                                        std::int32_t priority_rank,
                                        TimeNs start) {
  AMR_CHECK(priority_rank < static_cast<std::int32_t>(plan.nranks()));
  index_senders(plan);
  const auto p = static_cast<std::size_t>(priority_rank);
  const std::span<const std::int32_t> senders(
      senders_.data() + sender_begin_[p],
      static_cast<std::size_t>(sender_begin_[p + 1] - sender_begin_[p]));
  std::size_t total = 0;
  for (const std::int32_t s : senders)
    total += static_cast<std::size_t>(
        plan.ranks[static_cast<std::size_t>(s)].tasks.size());
  // Sized before any run is armed: the runtimes point into it.
  priority_tasks_.resize(total);
  BspTask* out = priority_tasks_.data();
  const BspTask* const tasks = plan.tasks.data();
  for (const std::int32_t s : senders) {
    const BspRankPlan& rp = plan.ranks[static_cast<std::size_t>(s)];
    BspTask* const begin = out;
    const BspTask* const sends = tasks + rp.sends.begin;
    const BspTask* const sends_end = tasks + rp.sends.end;
    out = std::copy(tasks + rp.tasks.begin, sends, out);
    out = std::copy_if(sends, sends_end, out, [&](const BspTask& t) {
      return t.dst == priority_rank;
    });
    out = std::copy_if(sends, sends_end, out, [&](const BspTask& t) {
      return t.dst != priority_rank;
    });
    out = std::copy(sends_end, tasks + rp.tasks.end, out);
    runtimes_[static_cast<std::size_t>(s)].begin_step(
        std::span<const BspTask>(begin, out), start);
  }
}

StepResult StepExecutor::execute(const BspPlan& plan, std::uint64_t window,
                                 std::int32_t priority_rank) {
  const std::size_t n = runtimes_.size();
  AMR_CHECK(plan.nranks() == n && plan.expected_recvs.size() == n);
  count_plan(plan);
  StepResult result;
  result.step_start = engine_.now();
  ctx_.window = window;
  ctx_.priority_rank = priority_rank;
  ctx_.ordering_tag = static_cast<std::int64_t>(plan.ordering);
  std::fill(waits_.begin(), waits_.end(), RankWaitStats{});

  comm_.begin_exchange(window, plan.expected_recvs);
  for (std::size_t r = 0; r < n; ++r)
    runtimes_[r].begin_step(plan.tasks_of(r), result.step_start);
  if (priority_rank >= 0)
    arm_priority_senders(plan, priority_rank, result.step_start);
  for (RankRuntime& rt : runtimes_) rt.start(engine_);
  engine_.run();

  const TimeNs overhead = ctx_.params.task_overhead;
  result.ranks.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    AMR_CHECK_MSG(runtimes_[r].step_done(), "rank did not complete the step");
    const BspRankPlan& rp = plan.ranks[r];
    const PlanCounters& c = counters_[r];
    const RankWaitStats& w = waits_[r];
    RankStepStats& s = result.ranks[r];
    s.compute_ns =
        rp.compute_ns +
        (rp.computes.size() + rp.computes_after_wait.size()) * overhead;
    s.pack_ns = c.pack_ns;
    s.recv_wait_ns = w.recv_wait_ns;
    s.send_wait_ns = w.send_wait_ns;
    s.sync_ns = w.sync_ns;
    s.collective_entry = w.collective_entry;
    s.done_at = w.done_at;
    s.msgs_local = c.msgs_local;
    s.msgs_remote = c.msgs_remote;
    s.bytes_local = c.bytes_local;
    s.bytes_remote = c.bytes_remote;
    s.msgs_coalesced = rp.msgs_coalesced;
    s.bytes_packed = rp.bytes_packed;
    s.last_release_src = w.last_release_src;
  }
  AMR_CHECK(comm_.exchange_complete(window));
  comm_.end_exchange(window);
  result.step_end = engine_.now();
  if (tracer_ != nullptr)
    tracer_->complete(Tracer::kTrackSim, TraceCat::kStep, "step",
                      result.step_start, result.wall_ns(),
                      static_cast<std::int64_t>(window),
                      static_cast<std::int64_t>(plan.ordering));
  return result;
}

}  // namespace amr
