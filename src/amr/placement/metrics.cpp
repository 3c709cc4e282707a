#include "amr/placement/metrics.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "amr/common/check.hpp"
#include "amr/common/stats.hpp"

namespace amr {

LoadMetrics load_metrics(std::span<const double> costs,
                         const Placement& placement, std::int32_t nranks) {
  const auto loads = rank_loads(costs, placement, nranks);
  RunningStats s;
  for (const double l : loads) s.add(l);
  LoadMetrics m;
  m.makespan = s.max();
  m.mean_load = s.mean();
  m.imbalance = s.mean() > 0.0 ? s.max() / s.mean() : 0.0;
  m.stddev = s.stddev();
  return m;
}

CommMetrics comm_metrics(const AmrMesh& mesh, const Placement& placement,
                         const ClusterTopology& topo,
                         const MessageSizeModel& sizes) {
  AMR_CHECK(placement.size() == mesh.size());
  // Each block's rank and node side by side, resolved (and range-checked)
  // once per block rather than once per edge endpoint.
  struct Home {
    std::int32_t rank;
    std::int32_t node;
  };
  std::vector<Home> home(placement.size());
  for (std::size_t b = 0; b < placement.size(); ++b)
    home[b] = {placement[b], topo.node_of(placement[b])};

  // Edges counted per (class, kind); bytes are multiplied out at the
  // end. A shared rank implies a shared node, so the class is the number
  // of differing fields: 0 intra-rank, 1 intra-node, 2 inter-node.
  constexpr std::size_t kKinds = 3;
  std::array<std::array<std::int64_t, kKinds>, 3> counts{};
  const auto& lists = mesh.neighbor_lists();
  for (std::size_t b = 0; b < lists.size(); ++b) {
    const Home src = home[b];
    for (const Neighbor& n : lists[b]) {
      const Home dst = home[static_cast<std::size_t>(n.index)];
      const auto cls = static_cast<std::size_t>((src.rank != dst.rank) +
                                                (src.node != dst.node));
      ++counts[cls][static_cast<std::size_t>(n.kind)];
    }
  }
  std::array<std::int64_t, 3> msgs{};
  std::array<std::int64_t, 3> bytes{};
  for (std::size_t cls = 0; cls < counts.size(); ++cls) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      msgs[cls] += counts[cls][k];
      bytes[cls] += counts[cls][k] * sizes.bytes(static_cast<NeighborKind>(k));
    }
  }
  CommMetrics m;
  m.msgs_intra_rank = msgs[0];
  m.msgs_intra_node = msgs[1];
  m.msgs_inter_node = msgs[2];
  m.bytes_intra_rank = bytes[0];
  m.bytes_intra_node = bytes[1];
  m.bytes_inter_node = bytes[2];
  return m;
}

double contiguity_fraction(const Placement& placement) {
  if (placement.size() < 2) return 1.0;
  std::int64_t same = 0;
  for (std::size_t i = 0; i + 1 < placement.size(); ++i)
    if (placement[i] == placement[i + 1] ||
        placement[i] + 1 == placement[i + 1])
      ++same;
  return static_cast<double>(same) /
         static_cast<double>(placement.size() - 1);
}

std::int64_t moved_blocks(const Placement& before, const Placement& after) {
  AMR_CHECK(before.size() == after.size());
  std::int64_t moved = 0;
  for (std::size_t i = 0; i < before.size(); ++i)
    if (before[i] != after[i]) ++moved;
  return moved;
}

}  // namespace amr
