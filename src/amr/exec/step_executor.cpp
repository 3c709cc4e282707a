#include "amr/exec/step_executor.hpp"

#include "amr/common/check.hpp"
#include "amr/trace/tracer.hpp"

namespace amr {

StepExecutor::StepExecutor(Engine& engine, Comm& comm, ExecParams params,
                           Tracer* tracer)
    : engine_(engine),
      comm_(comm),
      tracer_(tracer),
      ctx_{&comm, params, tracer},
      runtimes_(static_cast<std::size_t>(comm.nranks())) {
  for (std::size_t r = 0; r < runtimes_.size(); ++r)
    runtimes_[r].attach(static_cast<std::int32_t>(r), ctx_);
}

StepResult StepExecutor::execute(std::span<const RankStepWork> work,
                                 TaskOrdering ordering,
                                 std::uint64_t window,
                                 std::int32_t priority_rank) {
  AMR_CHECK(work.size() == runtimes_.size());
  ShardedEngine* sharded = comm_.sharded();
  StepResult result;
  result.step_start = sharded != nullptr ? sharded->now() : engine_.now();

  expected_scratch_.resize(work.size());
  for (std::size_t r = 0; r < work.size(); ++r)
    expected_scratch_[r] = work[r].expected_recvs;
  comm_.begin_exchange(window, expected_scratch_);

  for (std::size_t r = 0; r < work.size(); ++r) {
    runtimes_[r].begin_step(work[r], ordering, window, result.step_start,
                            priority_rank);
    runtimes_[r].start(
        sharded != nullptr
            ? sharded->engine_for_rank(static_cast<std::int32_t>(r))
            : engine_);
  }
  if (sharded != nullptr) {
    sharded->run_all();
    result.shards = sharded->last_stats();
    for (std::size_t s = 0; s < result.shards.size(); ++s)
      result.shards[s].mailbox_events =
          comm_.take_cross_shard_records(static_cast<std::int32_t>(s));
  } else {
    engine_.run();
  }

  result.ranks.reserve(work.size());
  for (const RankRuntime& rt : runtimes_) {
    AMR_CHECK_MSG(rt.step_done(), "rank did not complete the step");
    result.ranks.push_back(rt.stats());
  }
  AMR_CHECK(comm_.exchange_complete(window));
  comm_.end_exchange(window);
  result.step_end = sharded != nullptr ? sharded->now() : engine_.now();
  if (tracer_ != nullptr)
    tracer_->complete(Tracer::kTrackSim, TraceCat::kStep, "step",
                      result.step_start, result.wall_ns(),
                      static_cast<std::int64_t>(window),
                      static_cast<std::int64_t>(ordering));
  return result;
}

}  // namespace amr
