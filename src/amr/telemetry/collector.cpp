#include "amr/telemetry/collector.hpp"

#include <utility>

#include "amr/common/check.hpp"

namespace amr {
namespace {

bool same_schema(const Table& a, const Table& b) {
  if (a.name() != b.name() || a.schema().size() != b.schema().size())
    return false;
  for (std::size_t i = 0; i < a.schema().size(); ++i)
    if (a.schema()[i].name != b.schema()[i].name ||
        a.schema()[i].type != b.schema()[i].type)
      return false;
  return true;
}

}  // namespace

Collector::Collector()
    : phases_("phases", {{"step", ColType::kI64},
                         {"rank", ColType::kI64},
                         {"phase", ColType::kI64},
                         {"dur_ns", ColType::kI64}}),
      comm_("comm", {{"step", ColType::kI64},
                     {"rank", ColType::kI64},
                     {"msgs_local", ColType::kI64},
                     {"msgs_remote", ColType::kI64},
                     {"bytes_local", ColType::kI64},
                     {"bytes_remote", ColType::kI64},
                     {"send_wait_ns", ColType::kI64},
                     {"recv_wait_ns", ColType::kI64},
                     {"msgs_coalesced", ColType::kI64},
                     {"bytes_packed", ColType::kI64}}),
      blocks_("blocks", {{"step", ColType::kI64},
                         {"block", ColType::kI64},
                         {"rank", ColType::kI64},
                         {"cost_ns", ColType::kI64}}),
      placement_("placement", {{"step", ColType::kI64},
                               {"x", ColType::kF64},
                               {"mode", ColType::kI64},
                               {"candidates", ColType::kI64},
                               {"chunks_reused", ColType::kI64},
                               {"chunks_total", ColType::kI64},
                               {"moved", ColType::kI64},
                               {"predicted_ns", ColType::kF64},
                               {"measured_ns", ColType::kF64},
                               {"err_ewma", ColType::kF64}}) {}

void Collector::record_phase(std::int64_t step, std::int32_t rank,
                             Phase phase, TimeNs dur) {
  phases_.append(step, std::int64_t{rank}, static_cast<std::int64_t>(phase),
                 std::int64_t{dur});
}

void Collector::record_comm(std::int64_t step, std::int32_t rank,
                            std::int64_t msgs_local,
                            std::int64_t msgs_remote,
                            std::int64_t bytes_local,
                            std::int64_t bytes_remote, TimeNs send_wait,
                            TimeNs recv_wait, std::int64_t msgs_coalesced,
                            std::int64_t bytes_packed) {
  comm_.append(step, std::int64_t{rank}, msgs_local, msgs_remote,
               bytes_local, bytes_remote, std::int64_t{send_wait},
               std::int64_t{recv_wait}, msgs_coalesced, bytes_packed);
}

void Collector::clear() {
  phases_.clear();
  comm_.clear();
  blocks_.clear();
  placement_.clear();
}

void Collector::restore(Table phases, Table comm, Table blocks,
                        Table placement) {
  AMR_CHECK_MSG(same_schema(phases, phases_) && same_schema(comm, comm_) &&
                    same_schema(blocks, blocks_) &&
                    same_schema(placement, placement_),
                "restored telemetry tables do not match the collector schema");
  phases_ = std::move(phases);
  comm_ = std::move(comm);
  blocks_ = std::move(blocks);
  placement_ = std::move(placement);
}

std::size_t Collector::bytes_used() const {
  return phases_.bytes_used() + comm_.bytes_used() + blocks_.bytes_used() +
         placement_.bytes_used();
}

void Collector::record_block(std::int64_t step, std::int32_t block,
                             std::int32_t rank, TimeNs cost) {
  blocks_.append(step, std::int64_t{block}, std::int64_t{rank},
                 std::int64_t{cost});
}

void Collector::record_placement(std::int64_t step, double x,
                                 std::int64_t mode, std::int64_t candidates,
                                 std::int64_t chunks_reused,
                                 std::int64_t chunks_total,
                                 std::int64_t moved, double predicted_ns,
                                 double measured_ns, double err_ewma) {
  placement_.append(step, x, mode, candidates, chunks_reused, chunks_total,
                    moved, predicted_ns, measured_ns, err_ewma);
}

}  // namespace amr
