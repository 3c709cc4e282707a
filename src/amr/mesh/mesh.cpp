#include "amr/mesh/mesh.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "amr/common/capacity.hpp"
#include "amr/mesh/hilbert.hpp"
#include "amr/mesh/morton.hpp"

namespace amr {
namespace {

constexpr int kStrength(NeighborKind k) { return static_cast<int>(k); }

}  // namespace

AmrMesh::SfcKey AmrMesh::sfc_key(const BlockCoord& c, SfcKind kind) {
  const std::uint32_t rx = c.x >> c.level;
  const std::uint32_t ry = c.y >> c.level;
  const std::uint32_t rz = c.z >> c.level;
  const std::uint32_t lx = c.x - (rx << c.level);
  const std::uint32_t ly = c.y - (ry << c.level);
  const std::uint32_t lz = c.z - (rz << c.level);
  if (kind == SfcKind::kHilbert) {
    const int pad = kMaxLevel - c.level;
    const std::uint64_t local = hilbert3_encode(
        lx << pad, ly << pad, lz << pad, kMaxLevel);
    return {morton3_encode(rx, ry, rz), local};
  }
  const std::uint64_t local = morton3_encode(lx, ly, lz);
  return {morton3_encode(rx, ry, rz),
          local << (3 * (kMaxLevel - c.level))};
}

AmrMesh::AmrMesh(RootGrid grid, bool periodic, SfcKind sfc)
    : grid_(grid), periodic_(periodic), sfc_(sfc) {
  AMR_CHECK(grid.nx > 0 && grid.ny > 0 && grid.nz > 0);
  leaves_.reserve(grid.count());
  for (std::uint32_t z = 0; z < grid.nz; ++z)
    for (std::uint32_t y = 0; y < grid.ny; ++y)
      for (std::uint32_t x = 0; x < grid.nx; ++x)
        leaves_.push_back(BlockCoord{0, x, y, z});
  rebuild_order();
}

void AmrMesh::rebuild_order() {
  // Full sort (construction only). Keys are computed once per leaf, not
  // once per comparison, and cached for later incremental merges.
  std::vector<std::pair<SfcKey, BlockCoord>> order;
  order.reserve(leaves_.size());
  for (const auto& b : leaves_) order.emplace_back(sfc_key(b, sfc_), b);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  keys_.clear();
  keys_.reserve(order.size());
  leaves_.clear();
  for (const auto& [key, b] : order) {
    keys_.push_back(key);
    leaves_.push_back(b);
  }
  rebuild_index();
}

void AmrMesh::rebuild_index() {
  index_.clear();
  index_.reserve(leaves_.size() * 2);
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    const bool inserted =
        index_.emplace(block_key(leaves_[i]), static_cast<std::int32_t>(i))
            .second;
    AMR_CHECK_MSG(inserted, "duplicate leaf");
  }
  neighbor_table_valid_ = false;
}

void AmrMesh::apply_delta(const std::vector<char>& removed,
                          std::vector<AddedLeaf> added) {
  // Encode SFC keys only for the blocks this regrid created, then merge
  // them into the surviving (already sorted) previous order.
  std::vector<std::pair<SfcKey, AddedLeaf>> incoming;
  incoming.reserve(added.size());
  for (const auto& a : added) incoming.emplace_back(sfc_key(a.coord, sfc_), a);
  std::sort(incoming.begin(), incoming.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  const std::size_t old_n = leaves_.size();
  MeshRemap remap;
  remap.from_version = version_;
  remap.to_version = version_ + 1;
  remap.old_size = old_n;

  std::vector<BlockCoord> new_leaves;
  std::vector<SfcKey> new_keys;
  const std::size_t new_n = old_n - static_cast<std::size_t>(std::count(
                                        removed.begin(), removed.end(), 1)) +
                            incoming.size();
  new_leaves.reserve(new_n);
  new_keys.reserve(new_n);
  remap.src.reserve(new_n);
  remap.kind.reserve(new_n);

  std::size_t ai = 0;
  auto take_added = [&]() {
    new_keys.push_back(incoming[ai].first);
    new_leaves.push_back(incoming[ai].second.coord);
    remap.src.push_back(incoming[ai].second.src);
    remap.kind.push_back(incoming[ai].second.kind);
    ++ai;
  };
  for (std::size_t i = 0; i < old_n; ++i) {
    if (removed[i]) continue;
    while (ai < incoming.size() && incoming[ai].first < keys_[i]) take_added();
    new_keys.push_back(keys_[i]);
    new_leaves.push_back(leaves_[i]);
    remap.src.push_back(static_cast<std::int32_t>(i));
    remap.kind.push_back(RemapKind::kCarried);
    ++remap.carried;
  }
  while (ai < incoming.size()) take_added();

  leaves_ = std::move(new_leaves);
  keys_ = std::move(new_keys);
  rebuild_index();
  ++version_;
  remaps_.push_back(std::move(remap));
  if (remaps_.size() > kMaxRemapHistory)
    remaps_.erase(remaps_.begin(),
                  remaps_.end() - static_cast<std::ptrdiff_t>(kMaxRemapHistory));
}

void AmrMesh::restore_state(std::vector<BlockCoord> leaves,
                            std::uint64_t version,
                            std::vector<MeshRemap> remaps) {
  AMR_CHECK_MSG(!leaves.empty(), "restored mesh has no leaves");
  leaves_ = std::move(leaves);
  keys_.clear();
  keys_.reserve(leaves_.size());
  for (const auto& b : leaves_) keys_.push_back(sfc_key(b, sfc_));
  for (std::size_t i = 1; i < keys_.size(); ++i)
    AMR_CHECK_MSG(keys_[i - 1] < keys_[i],
                  "restored leaves are not in SFC order");
  rebuild_index();
  AMR_CHECK_MSG(check_coverage() && check_balance(),
                "restored mesh violates coverage/balance invariants");
  version_ = version;
  remaps_ = std::move(remaps);
}

const MeshRemap* AmrMesh::remap_to(std::uint64_t to_version) const {
  for (auto it = remaps_.rbegin(); it != remaps_.rend(); ++it)
    if (it->to_version == to_version) return &*it;
  return nullptr;
}

std::int32_t AmrMesh::find(const BlockCoord& c) const {
  const auto it = index_.find(block_key(c));
  return it != index_.end() ? it->second : -1;
}

std::int32_t AmrMesh::covering_in(
    const std::unordered_map<std::uint64_t, std::int32_t>& index,
    BlockCoord c) const {
  for (;;) {
    const auto it = index.find(block_key(c));
    if (it != index.end()) return it->second;
    if (c.level == 0) return -1;
    c = c.parent();
  }
}

std::int32_t AmrMesh::find_covering(BlockCoord c) const {
  return covering_in(index_, c);
}

int AmrMesh::max_level_present() const {
  int lvl = 0;
  for (const auto& b : leaves_) lvl = std::max(lvl, b.level);
  return lvl;
}

bool AmrMesh::neighbor_coord(const BlockCoord& b, int dx, int dy, int dz,
                             BlockCoord& out) const {
  const std::int64_t ex = static_cast<std::int64_t>(grid_.nx) << b.level;
  const std::int64_t ey = static_cast<std::int64_t>(grid_.ny) << b.level;
  const std::int64_t ez = static_cast<std::int64_t>(grid_.nz) << b.level;
  std::int64_t nx = static_cast<std::int64_t>(b.x) + dx;
  std::int64_t ny = static_cast<std::int64_t>(b.y) + dy;
  std::int64_t nz = static_cast<std::int64_t>(b.z) + dz;
  if (periodic_) {
    nx = (nx + ex) % ex;
    ny = (ny + ey) % ey;
    nz = (nz + ez) % ez;
  } else if (nx < 0 || ny < 0 || nz < 0 || nx >= ex || ny >= ey ||
             nz >= ez) {
    return false;
  }
  out = BlockCoord{b.level, static_cast<std::uint32_t>(nx),
                   static_cast<std::uint32_t>(ny),
                   static_cast<std::uint32_t>(nz)};
  return true;
}

void AmrMesh::collect_neighbors(std::size_t id,
                                std::vector<Neighbor>& out) const {
  const BlockCoord& b = leaves_[id];
  const std::size_t first = out.size();
  auto add = [&](std::int32_t idx, NeighborKind kind, std::int8_t diff) {
    // Dedup against earlier directions: a coarse block can cover several
    // directions; keep the strongest adjacency (face < edge < vertex in
    // kStrength order, lower = stronger).
    for (std::size_t i = first; i < out.size(); ++i) {
      Neighbor& n = out[i];
      if (n.index == idx) {
        if (kStrength(kind) < kStrength(n.kind)) n.kind = kind;
        return;
      }
    }
    out.push_back(Neighbor{idx, kind, diff});
  };

  for (int dz = -1; dz <= 1; ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        BlockCoord nb;
        if (!neighbor_coord(b, dx, dy, dz, nb)) continue;
        const NeighborKind kind = classify_direction(dx, dy, dz);
        // Same level or coarser covering leaf.
        const std::int32_t same = find(nb);
        if (same >= 0) {
          if (same != static_cast<std::int32_t>(id))
            add(same, kind, 0);
          continue;
        }
        const std::int32_t coarse = find_covering(nb);
        if (coarse >= 0) {
          AMR_CHECK_MSG(leaves_[coarse].level == b.level - 1,
                        "2:1 balance violated (coarse side)");
          if (coarse != static_cast<std::int32_t>(id))
            add(coarse, kind, -1);
          continue;
        }
        // Neighbor region is refined: enumerate the children of nb that
        // touch this block (offset 0 on +axes, 1 on -axes, both on 0).
        const std::uint32_t cx_lo = dx == 1 ? 0 : dx == -1 ? 1 : 0;
        const std::uint32_t cx_hi = dx == 0 ? 1 : cx_lo;
        const std::uint32_t cy_lo = dy == 1 ? 0 : dy == -1 ? 1 : 0;
        const std::uint32_t cy_hi = dy == 0 ? 1 : cy_lo;
        const std::uint32_t cz_lo = dz == 1 ? 0 : dz == -1 ? 1 : 0;
        const std::uint32_t cz_hi = dz == 0 ? 1 : cz_lo;
        bool found_any = false;
        for (std::uint32_t cz = cz_lo; cz <= cz_hi; ++cz) {
          for (std::uint32_t cy = cy_lo; cy <= cy_hi; ++cy) {
            for (std::uint32_t cx = cx_lo; cx <= cx_hi; ++cx) {
              const std::int32_t fine = find(nb.child(cx, cy, cz));
              if (fine >= 0) {
                add(fine, kind, +1);
                found_any = true;
              }
            }
          }
        }
        AMR_CHECK_MSG(found_any, "2:1 balance violated (fine side)");
      }
    }
  }
}

std::size_t NeighborTable::bytes() const {
  return capacity_bytes(offsets_, entries_);
}

const NeighborTable& AmrMesh::neighbor_lists() const {
  if (!neighbor_table_valid_) {
    NeighborTable& t = neighbor_table_;
    const std::size_t n = leaves_.size();
    AMR_CHECK(n * NeighborTable::kMaxPerBlock <=
              static_cast<std::size_t>(INT32_MAX));
    t.entries_.clear();
    t.entries_.reserve(n * NeighborTable::kMaxPerBlock);
    t.offsets_.resize(n + 1);
    t.offsets_[0] = 0;
    for (std::size_t i = 0; i < n; ++i) {
      collect_neighbors(i, t.entries_);
      t.offsets_[i + 1] = static_cast<std::int32_t>(t.entries_.size());
    }
    neighbor_table_valid_ = true;
  }
  return neighbor_table_;
}

std::size_t AmrMesh::bytes() const {
  std::size_t remaps = capacity_bytes(remaps_);
  for (const MeshRemap& r : remaps_) remaps += capacity_bytes(r.src, r.kind);
  using IndexEntry = decltype(index_)::value_type;
  return capacity_bytes(leaves_, keys_) +
         index_.bucket_count() * sizeof(void*) +
         index_.size() * (sizeof(IndexEntry) + sizeof(void*)) + remaps +
         neighbor_table_.bytes();
}

std::size_t AmrMesh::refine(std::span<const std::int32_t> tagged) {
  // Working set keyed by coordinates; block IDs go stale as we mutate.
  std::unordered_set<std::uint64_t> to_refine;
  for (std::int32_t id : tagged) {
    AMR_CHECK(id >= 0 && static_cast<std::size_t>(id) < leaves_.size());
    if (leaves_[id].level < kMaxLevel)
      to_refine.insert(block_key(leaves_[id]));
  }
  if (to_refine.empty()) return 0;

  // Leaf set by key for in-place edits. leaves_/index_ stay untouched
  // until apply_delta, so original-leaf IDs remain valid throughout.
  std::unordered_map<std::uint64_t, BlockCoord> leafset;
  leafset.reserve(leaves_.size() * 2);
  for (const auto& b : leaves_) leafset.emplace(block_key(b), b);

  auto covering = [&](BlockCoord c) -> const BlockCoord* {
    for (;;) {
      const auto it = leafset.find(block_key(c));
      if (it != leafset.end()) return &it->second;
      if (c.level == 0) return nullptr;
      c = c.parent();
    }
  };

  // Delta bookkeeping: which original leaves disappeared, and which
  // blocks were created (with the old ID of the refined ancestor they
  // descend from — chain-refined grandchildren inherit the ancestor).
  std::vector<char> removed(leaves_.size(), 0);
  std::unordered_map<std::uint64_t, AddedLeaf> added_info;

  std::size_t refined = 0;
  std::vector<std::uint64_t> wave(to_refine.begin(), to_refine.end());
  std::unordered_set<std::uint64_t> scheduled = to_refine;
  while (!wave.empty()) {
    std::vector<std::uint64_t> next;
    for (std::uint64_t key : wave) {
      const auto it = leafset.find(key);
      if (it == leafset.end()) continue;  // already replaced by ripple
      const BlockCoord b = it->second;
      leafset.erase(it);
      ++refined;
      std::int32_t src;
      const auto ait = added_info.find(key);
      if (ait != added_info.end()) {
        src = ait->second.src;  // chain-refine of a block added this call
        added_info.erase(ait);
      } else {
        src = index_.at(key);
        removed[static_cast<std::size_t>(src)] = 1;
      }
      for (std::uint32_t c = 0; c < 8; ++c) {
        const BlockCoord ch = b.child(c & 1u, (c >> 1) & 1u, (c >> 2) & 1u);
        leafset.emplace(block_key(ch), ch);
        added_info.emplace(block_key(ch),
                           AddedLeaf{ch, RemapKind::kRefined, src});
      }
      // Ripple: any neighbor coarser than b now violates 2:1 against the
      // new children and must itself refine.
      for (int dz = -1; dz <= 1; ++dz) {
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0 && dz == 0) continue;
            BlockCoord nb;
            if (!neighbor_coord(b, dx, dy, dz, nb)) continue;
            const BlockCoord* cov = covering(nb);
            if (cov != nullptr && cov->level < b.level) {
              const std::uint64_t ck = block_key(*cov);
              if (scheduled.insert(ck).second) next.push_back(ck);
            }
          }
        }
      }
    }
    wave = std::move(next);
  }

  std::vector<AddedLeaf> added;
  added.reserve(added_info.size());
  for (const auto& [key, a] : added_info) added.push_back(a);
  apply_delta(removed, std::move(added));
  return refined;
}

std::size_t AmrMesh::coarsen(std::span<const std::int32_t> tagged) {
  // Group tagged leaves by parent; a group collapses only if all eight
  // siblings are tagged leaves.
  std::unordered_map<std::uint64_t, int> group_count;
  for (std::int32_t id : tagged) {
    AMR_CHECK(id >= 0 && static_cast<std::size_t>(id) < leaves_.size());
    const BlockCoord& b = leaves_[id];
    if (b.level == 0) continue;
    ++group_count[block_key(b.parent())];
  }

  std::vector<BlockCoord> parents;
  for (const auto& [pkey, count] : group_count) {
    if (count != 8) continue;
    const std::int32_t some_child_level =
        static_cast<std::int32_t>(pkey >> 57) + 1;
    BlockCoord parent{some_child_level - 1,
                      static_cast<std::uint32_t>((pkey >> 38) & 0x7ffff),
                      static_cast<std::uint32_t>((pkey >> 19) & 0x7ffff),
                      static_cast<std::uint32_t>(pkey & 0x7ffff)};
    // Balance: after collapsing, the parent must not touch any leaf finer
    // than level parent.level + 1, i.e. no child may currently have an
    // external neighbor one level finer than itself.
    bool ok = true;
    for (std::uint32_t c = 0; c < 8 && ok; ++c) {
      const BlockCoord ch =
          parent.child(c & 1u, (c >> 1) & 1u, (c >> 2) & 1u);
      for (int dz = -1; dz <= 1 && ok; ++dz) {
        for (int dy = -1; dy <= 1 && ok; ++dy) {
          for (int dx = -1; dx <= 1 && ok; ++dx) {
            if (dx == 0 && dy == 0 && dz == 0) continue;
            BlockCoord nb;
            if (!neighbor_coord(ch, dx, dy, dz, nb)) continue;
            if (nb.parent() == parent) continue;  // internal
            if (find(nb) >= 0) continue;          // same level: fine
            if (find_covering(nb) >= 0) continue; // coarser: fine
            // Region is refined below ch's level -> collapsing violates.
            ok = false;
          }
        }
      }
    }
    if (ok) parents.push_back(parent);
  }
  if (parents.empty()) return 0;

  std::vector<char> removed(leaves_.size(), 0);
  std::vector<AddedLeaf> added;
  added.reserve(parents.size());
  for (const auto& p : parents) {
    // The eight children are SFC-consecutive leaves; the parent's
    // provenance is the first (lowest old ID) of them.
    std::int32_t first = -1;
    for (std::uint32_t c = 0; c < 8; ++c) {
      const std::int32_t id =
          find(p.child(c & 1u, (c >> 1) & 1u, (c >> 2) & 1u));
      AMR_CHECK(id >= 0);
      removed[static_cast<std::size_t>(id)] = 1;
      if (first < 0 || id < first) first = id;
    }
    added.push_back(AddedLeaf{p, RemapKind::kCoarsened, first});
  }
  apply_delta(removed, std::move(added));
  return parents.size();
}

void AmrMesh::refine_all(int levels) {
  for (int i = 0; i < levels; ++i) {
    std::vector<std::int32_t> all(leaves_.size());
    for (std::size_t j = 0; j < all.size(); ++j)
      all[j] = static_cast<std::int32_t>(j);
    refine(all);
  }
}

bool AmrMesh::check_balance() const {
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    const BlockCoord& b = leaves_[i];
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          BlockCoord nb;
          if (!neighbor_coord(b, dx, dy, dz, nb)) continue;
          if (find(nb) >= 0) continue;
          const std::int32_t coarse = find_covering(nb);
          if (coarse >= 0) {
            if (leaves_[coarse].level < b.level - 1) return false;
            continue;
          }
          // Refined region: verify no descendant deeper than level+1
          // touches us. It suffices to check that all touching children
          // exist as leaves.
          const std::uint32_t cx_lo = dx == 1 ? 0 : dx == -1 ? 1 : 0;
          const std::uint32_t cx_hi = dx == 0 ? 1 : cx_lo;
          const std::uint32_t cy_lo = dy == 1 ? 0 : dy == -1 ? 1 : 0;
          const std::uint32_t cy_hi = dy == 0 ? 1 : cy_lo;
          const std::uint32_t cz_lo = dz == 1 ? 0 : dz == -1 ? 1 : 0;
          const std::uint32_t cz_hi = dz == 0 ? 1 : cz_lo;
          for (std::uint32_t cz = cz_lo; cz <= cz_hi; ++cz)
            for (std::uint32_t cy = cy_lo; cy <= cy_hi; ++cy)
              for (std::uint32_t cx = cx_lo; cx <= cx_hi; ++cx)
                if (find(nb.child(cx, cy, cz)) < 0) return false;
        }
      }
    }
  }
  return true;
}

bool AmrMesh::check_coverage() const {
  // Volumes must sum to the whole domain, and no leaf may be an ancestor
  // of another (the index would have caught exact duplicates already).
  long double volume = 0.0L;
  for (const auto& b : leaves_) {
    volume += 1.0L / static_cast<long double>(grid_.count() *
                                              (1ULL << (3 * b.level)));
    BlockCoord c = b;
    while (c.level > 0) {
      c = c.parent();
      if (find(c) >= 0) return false;
    }
  }
  return std::abs(static_cast<double>(volume) - 1.0) < 1e-9;
}

bool AmrMesh::check_sfc_order() const {
  if (keys_.size() != leaves_.size() || index_.size() != leaves_.size())
    return false;
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    const SfcKey fresh = sfc_key(leaves_[i], sfc_);
    if (!(fresh == keys_[i])) return false;
    if (i > 0 && !(keys_[i - 1] < keys_[i])) return false;
    const auto it = index_.find(block_key(leaves_[i]));
    if (it == index_.end() || it->second != static_cast<std::int32_t>(i))
      return false;
  }
  return true;
}

}  // namespace amr
