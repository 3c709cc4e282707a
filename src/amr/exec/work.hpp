// Per-rank, per-step work descriptions and their construction from a mesh
// + placement.
//
// A timestep's work on a rank (paper §II-B): compute kernels on local
// blocks, boundary-exchange messages to neighbor blocks (memcpy when
// co-located, MPI otherwise), and the count of messages the rank will
// receive. The task *ordering* is chosen later by the scheduler
// (TaskOrdering) — that choice is the Fig 3/Fig 4b tuning lever.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "amr/common/time.hpp"
#include "amr/mesh/mesh.hpp"
#include "amr/placement/metrics.hpp"
#include "amr/placement/policy.hpp"

namespace amr {

struct OutMessage {
  std::int32_t dst_rank;
  std::int64_t bytes;
  std::int32_t src_block;  ///< first contributing block when aggregated
  /// Logical boundary messages packed into this transfer. 1 on the legacy
  /// per-neighbor-pair path; the per-destination aggregate of an exchange
  /// window carries every same-(src,dst) message of the step.
  std::int32_t msgs = 1;
};

struct BlockCompute {
  std::int32_t block;
  TimeNs duration;
};

struct RankStepWork {
  std::vector<BlockCompute> computes;
  /// Computes that consume this step's arrivals (stage-2 kernels of a
  /// multi-stage integrator); scheduled after the receive wait.
  std::vector<BlockCompute> computes_after_wait;
  std::vector<OutMessage> sends;        ///< to other ranks (shm or fabric)
  std::int64_t local_copy_bytes = 0;    ///< intra-rank ghost memcpy volume
  std::int64_t local_copy_msgs = 0;     ///< intra-rank neighbor pairs
  std::int32_t expected_recvs = 0;
  std::int64_t recv_bytes = 0;          ///< incoming ghost volume (unpack)
};

/// Per-peer packing decision for the boundary exchange. A (src,dst)
/// pair's messages coalesce into one packed transfer when their *mean*
/// payload is at or below `threshold` — small messages amortize the
/// per-message launch cost by packing, large ones already pay mostly
/// serialization and go eagerly so receivers see their first ghost
/// sooner. The policy is a pure function of the run config, so plans
/// stay deterministic and checkpoint/replay-compatible.
struct PackingPolicy {
  /// Pack when mean bytes/msg <= threshold; <= 0 disables packing.
  /// Values at or above kPackAlways mean "always pack".
  std::int64_t threshold = 0;

  /// Sentinel large enough to dominate any real payload without risking
  /// signed overflow in `bytes <= threshold * msgs`.
  static constexpr std::int64_t kPackAlways = std::int64_t{1} << 40;

  static PackingPolicy none() { return {}; }
  static PackingPolicy all() { return {kPackAlways}; }

  bool active() const { return threshold > 0; }
  bool pack_all() const { return threshold >= kPackAlways; }
  /// Decision for one (src,dst) pair given its step totals.
  bool pack(std::int64_t bytes, std::int64_t msgs) const {
    if (msgs < 2) return false;  // nothing to coalesce
    return threshold > 0 && bytes <= threshold * msgs;
  }
  friend bool operator==(const PackingPolicy&,
                         const PackingPolicy&) = default;
};

/// Task ordering policies (paper §IV-B "Task Reordering", Fig 4b).
enum class TaskOrdering {
  kComputeFirst,  ///< untuned: sends dispatched after compute
  kSendFirst,     ///< tuned: prioritize sends to unblock remote waiters
};

constexpr const char* to_string(TaskOrdering o) {
  return o == TaskOrdering::kComputeFirst ? "compute-first" : "send-first";
}

/// Build every rank's step work from the mesh, a placement, and per-block
/// compute durations (already fault-adjusted). Boundary exchange sends one
/// message per directed neighbor pair; message sizes follow `sizes`.
/// With `include_flux`, fine blocks additionally send flux corrections to
/// their coarser face neighbors (paper §II-B) — small peer-to-peer
/// messages that exist only along refinement boundaries.
///
/// `packing` decides per (src,dst) pair whether the step's messages
/// coalesce into one per-destination packed transfer (how real AMR
/// frameworks pack all ghost data for a neighbor rank into one buffer):
/// bytes are summed, the logical message count rides in
/// OutMessage::msgs, and the receiver expects one arrival for the pair
/// instead of one per block pair. Packed pairs appear at their
/// first-touch (block-emission) position, eager pairs keep per-message
/// emission order, so the build stays deterministic. Byte totals and
/// recv_bytes are identical under every policy.
///
/// The build writes into `out` in place: it is resized to `nranks` and
/// every field of every rank is reset before the refill, so the result
/// equals a build into fresh storage while the per-rank vectors keep
/// their capacity (ExchangePlanCache rebuilds its plan this way on every
/// miss).
void build_step_work(const AmrMesh& mesh, const Placement& placement,
                     std::span<const TimeNs> block_costs,
                     std::int32_t nranks, const MessageSizeModel& sizes,
                     bool include_flux, const PackingPolicy& packing,
                     std::vector<RankStepWork>& out);

/// The same build into fresh storage.
std::vector<RankStepWork> build_step_work(
    const AmrMesh& mesh, const Placement& placement,
    std::span<const TimeNs> block_costs, std::int32_t nranks,
    const MessageSizeModel& sizes = {}, bool include_flux = false,
    const PackingPolicy& packing = PackingPolicy::none());

}  // namespace amr
