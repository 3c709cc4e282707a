// Block-based AMR mesh: a forest of octrees over a root grid, with leaf
// blocks ordered by a Z-order space-filling curve (paper §V-A, Fig 5).
//
// The mesh maintains full 2:1 balance across all 26 neighbor directions,
// so any two adjacent leaves differ by at most one refinement level. Block
// IDs are positions in the SFC-ordered leaf vector and are reassigned
// after every refine/coarsen, exactly as in the redistribution flow the
// paper describes (IDs first, then placement, then migration).
//
// Renumbering is incremental: the mesh caches each leaf's SFC key, and a
// refine/coarsen merges the (sorted) surviving leaves with the (sorted)
// newly created ones instead of re-sorting the whole forest — the
// Hilbert/Morton encode runs only for blocks that actually changed. Every
// regrid bumps a monotone version counter and records a MeshRemap
// (new block ID -> provenance in the previous numbering), which is what
// lets the simulation carry per-block telemetry and cached exchange plans
// across regrids without rebuilding them from scratch.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "amr/mesh/coords.hpp"

namespace amr {

/// Directed adjacency entry: block -> neighbor.
struct Neighbor {
  std::int32_t index = -1;      ///< Neighbor's block ID (SFC position).
  NeighborKind kind = NeighborKind::kFace;
  std::int8_t level_diff = 0;   ///< neighbor.level - block.level (-1,0,+1).
  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// Every block's neighbor list in one flat table: block b's neighbors
/// are entries()[offsets[b], offsets[b + 1]). `table[b]` is a view into
/// the mesh's table, valid until the next refine, coarsen or restore.
class NeighborTable {
 public:
  /// Most neighbors a leaf has under 2:1 balance: four finer blocks
  /// across each of 6 faces, two across each of 12 edges and one across
  /// each of 8 vertices.
  static constexpr std::size_t kMaxPerBlock = 56;

  std::size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::span<const Neighbor> operator[](std::size_t b) const {
    return {entries_.data() + offsets_[b], entries_.data() + offsets_[b + 1]};
  }
  /// Every block's entries, block by block.
  std::span<const Neighbor> entries() const { return entries_; }
  /// Heap bytes held (capacity, not size).
  std::size_t bytes() const;

 private:
  friend class AmrMesh;
  std::vector<std::int32_t> offsets_;  ///< per block, + 1
  std::vector<Neighbor> entries_;
};

/// Space-filling curve used for block ID assignment. Z-order is the
/// octree-DFS default of production frameworks (paper Fig 5); Hilbert
/// preserves strictly more locality at a higher indexing cost
/// (bench_sfc_ablation quantifies the difference).
enum class SfcKind : std::uint8_t { kZOrder = 0, kHilbert = 1 };

constexpr const char* to_string(SfcKind kind) {
  return kind == SfcKind::kZOrder ? "z-order" : "hilbert";
}

/// Provenance of a block across one regrid.
enum class RemapKind : std::uint8_t {
  kCarried = 0,    ///< same block; src = its ID in the previous numbering
  kRefined = 1,    ///< new child; src = old ID of the refined ancestor
  kCoarsened = 2,  ///< new parent; src = old ID of its first child (the
                   ///< eight collapsed children are SFC-consecutive, so
                   ///< they occupy old IDs src..src+7)
};

/// Per-regrid renumbering record: for every block ID in the new ordering,
/// where it came from in the previous one. Consumers compose consecutive
/// remaps to track blocks across several regrid epochs.
struct MeshRemap {
  std::uint64_t from_version = 0;
  std::uint64_t to_version = 0;
  std::vector<std::int32_t> src;  ///< per new ID, see RemapKind
  std::vector<RemapKind> kind;    ///< per new ID
  std::size_t carried = 0;        ///< count of kCarried entries
  std::size_t old_size = 0;       ///< leaf count before the regrid
};

class AmrMesh {
 public:
  /// Create a mesh whose leaves are exactly the root grid (all level 0).
  explicit AmrMesh(RootGrid grid, bool periodic = false,
                   SfcKind sfc = SfcKind::kZOrder);

  std::size_t size() const { return leaves_.size(); }
  const BlockCoord& block(std::size_t id) const { return leaves_[id]; }
  std::span<const BlockCoord> blocks() const { return leaves_; }
  const RootGrid& root_grid() const { return grid_; }
  bool periodic() const { return periodic_; }
  SfcKind sfc_kind() const { return sfc_; }

  /// Monotone counter bumped by every refine/coarsen that changes the
  /// leaf set. Together with a placement version it keys the exchange
  /// plan cache: equal versions guarantee identical blocks() and
  /// neighbor_lists().
  std::uint64_t version() const { return version_; }

  /// The renumbering record that produced `to_version`, or nullptr if it
  /// never existed or has aged out of the bounded history.
  const MeshRemap* remap_to(std::uint64_t to_version) const;

  /// The retained renumbering records, oldest first (checkpointing: the
  /// whole bounded history is what lets carried telemetry survive a
  /// restart exactly as it would an uninterrupted run).
  std::span<const MeshRemap> remap_history() const { return remaps_; }

  /// Adopt checkpointed state: `leaves` must already be in this mesh's
  /// exact SFC order (a snapshot of blocks() is). SFC keys and the leaf
  /// index are rebuilt; the SFC ordering, coverage, and balance
  /// invariants are re-validated, so a corrupt leaf set fails loudly
  /// instead of silently mis-simulating. The root grid, periodicity, and
  /// curve kind must match the constructed mesh.
  void restore_state(std::vector<BlockCoord> leaves, std::uint64_t version,
                     std::vector<MeshRemap> remaps);

  /// Block ID of the leaf with the given coordinates, or -1.
  std::int32_t find(const BlockCoord& c) const;

  /// Leaf covering the region of `c` (c itself, or an ancestor), or -1 if
  /// the region is outside the domain / not covered.
  std::int32_t find_covering(BlockCoord c) const;

  /// Physical bounds of a leaf block in the unit cube.
  Aabb bounds(std::size_t id) const { return block_bounds(leaves_[id], grid_); }

  int max_level_present() const;

  /// Refine the tagged leaves (by block ID). Additional blocks may be
  /// refined to restore 2:1 balance. Returns the total number of blocks
  /// refined. Invalidates all block IDs and neighbor lists.
  std::size_t refine(std::span<const std::int32_t> tagged);

  /// Coarsen tagged leaves. A sibling group collapses only if all eight
  /// siblings are tagged leaves and coarsening preserves 2:1 balance.
  /// Returns the number of groups collapsed. Invalidates block IDs.
  std::size_t coarsen(std::span<const std::int32_t> tagged);

  /// Uniformly refine every leaf `levels` times.
  void refine_all(int levels = 1);

  /// All 26-direction neighbors of every leaf, directed, deduplicated
  /// (a coarse block reachable through several directions is listed once,
  /// with its strongest adjacency), as one flat table. Built lazily per
  /// mesh version and rebuilt in place: the entries are reserved at the
  /// 2:1 bound (NeighborTable::kMaxPerBlock per block) before the fill,
  /// so a growing regrid never holds an old and a new copy, and the
  /// reserve never written costs no resident memory. Not thread-safe
  /// while stale: call it once on one thread before sharing the mesh.
  const NeighborTable& neighbor_lists() const;

  /// Heap bytes held (capacity, not size): leaves, SFC keys, the leaf
  /// index (buckets, plus each node's entry and link), the remap
  /// history and the neighbor table.
  std::size_t bytes() const;

  /// Invariant: adjacent leaves differ by at most one level.
  bool check_balance() const;

  /// Invariant: leaves tile the domain exactly (no gaps, no overlaps).
  bool check_coverage() const;

  /// Invariant: leaves_ is exactly the full SFC sort (keys recomputed
  /// from scratch, strictly increasing) and index_ matches. Test hook for
  /// the incremental renumbering path.
  bool check_sfc_order() const;

 private:
  /// SFC sort key: primary = curve key of the root octree, secondary =
  /// the block's position within its root tree. Padding the local key to
  /// kMaxLevel digits yields the index of the block's first descendant at
  /// kMaxLevel, which orders disjoint leaves exactly as a depth-first
  /// traversal does (valid for Hilbert too: every axis-aligned 2^k cube
  /// is a contiguous index range of the curve).
  struct SfcKey {
    std::uint64_t root;
    std::uint64_t path;

    friend bool operator<(const SfcKey& a, const SfcKey& b) {
      return a.root != b.root ? a.root < b.root : a.path < b.path;
    }
    friend bool operator==(const SfcKey& a, const SfcKey& b) {
      return a.root == b.root && a.path == b.path;
    }
  };

  static SfcKey sfc_key(const BlockCoord& c, SfcKind kind);

  /// Newly created leaf with its provenance, accumulated during a regrid.
  struct AddedLeaf {
    BlockCoord coord;
    RemapKind kind;
    std::int32_t src;
  };

  void rebuild_order();
  void rebuild_index();
  /// Replace leaves_ by merging the surviving old leaves with `added`
  /// (keys computed only for the latter), record the MeshRemap, and bump
  /// the version. `removed` flags old IDs that no longer exist.
  void apply_delta(const std::vector<char>& removed,
                   std::vector<AddedLeaf> added);
  std::int32_t covering_in(
      const std::unordered_map<std::uint64_t, std::int32_t>& index,
      BlockCoord c) const;
  /// Neighbor coordinates at the block's own level for direction d;
  /// returns false if outside a non-periodic domain.
  bool neighbor_coord(const BlockCoord& b, int dx, int dy, int dz,
                      BlockCoord& out) const;
  /// Append block `id`'s neighbors to `out`.
  void collect_neighbors(std::size_t id,
                         std::vector<Neighbor>& out) const;

  /// Regrids remembered for telemetry carry-over; older records age out.
  static constexpr std::size_t kMaxRemapHistory = 32;

  RootGrid grid_;
  bool periodic_;
  SfcKind sfc_;
  std::vector<BlockCoord> leaves_;                      // SFC order
  std::vector<SfcKey> keys_;                            // cached, ∥ leaves_
  std::unordered_map<std::uint64_t, std::int32_t> index_;  // key -> block ID
  std::uint64_t version_ = 0;
  std::vector<MeshRemap> remaps_;  // bounded at kMaxRemapHistory
  mutable NeighborTable neighbor_table_;
  mutable bool neighbor_table_valid_ = false;
};

}  // namespace amr
