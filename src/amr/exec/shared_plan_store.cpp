#include "amr/exec/shared_plan_store.hpp"

namespace amr {

namespace {

/// FNV-1a 64-bit over raw bytes — a prefilter only; lookups always
/// confirm with exact key equality, so collisions cost a compare, never
/// a wrong plan.
std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::uint64_t fnv_pod(std::uint64_t h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv_bytes(h, &v, sizeof(T));
}

}  // namespace

std::uint64_t SharedPlanStore::Key::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv_pod(h, overlap);
  h = fnv_pod(h, nranks);
  h = fnv_pod(h, include_flux);
  h = fnv_pod(h, stage1_frac);
  h = fnv_pod(h, sizes.cells);
  h = fnv_pod(h, sizes.ghost);
  h = fnv_pod(h, sizes.nvars);
  h = fnv_pod(h, sizes.bytes_per_value);
  h = fnv_pod(h, packing.threshold);
  h = fnv_bytes(h, blocks.data(), blocks.size() * sizeof(BlockCoord));
  h = fnv_bytes(h, placement.data(),
                placement.size() * sizeof(std::int32_t));
  return h;
}

SharedPlanStore::SharedPlanStore(std::size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {}

const SharedPlanStore::Entry* SharedPlanStore::find_locked(
    std::uint64_t hash, const Key& key) const {
  for (const Entry& e : entries_)
    if (e.hash == hash && e.key == key) return &e;
  return nullptr;
}

bool SharedPlanStore::lookup_bsp(const Key& key,
                                 std::vector<RankStepWork>& out) {
  const std::uint64_t h = key.hash();
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = find_locked(h, key);
  if (e == nullptr) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  out = e->bsp;
  return true;
}

bool SharedPlanStore::lookup_overlap(const Key& key,
                                     std::vector<OverlapRankWork>& out) {
  const std::uint64_t h = key.hash();
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = find_locked(h, key);
  if (e == nullptr) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  out = e->overlap;
  return true;
}

void SharedPlanStore::publish_locked(std::uint64_t hash, Key&& key,
                                     std::vector<RankStepWork> bsp,
                                     std::vector<OverlapRankWork> overlap) {
  if (find_locked(hash, key) != nullptr) return;  // racing builder lost
  while (entries_.size() >= max_entries_) {
    entries_.pop_front();
    ++stats_.evicted;
  }
  Entry e;
  e.hash = hash;
  e.key = std::move(key);
  e.bsp = std::move(bsp);
  e.overlap = std::move(overlap);
  entries_.push_back(std::move(e));
  ++stats_.published;
}

void SharedPlanStore::publish_bsp(Key key,
                                  const std::vector<RankStepWork>& plan) {
  const std::uint64_t h = key.hash();
  std::lock_guard<std::mutex> lock(mu_);
  publish_locked(h, std::move(key), plan, {});
}

void SharedPlanStore::publish_overlap(
    Key key, const std::vector<OverlapRankWork>& plan) {
  const std::uint64_t h = key.hash();
  std::lock_guard<std::mutex> lock(mu_);
  publish_locked(h, std::move(key), {}, plan);
}

SharedPlanStore::Stats SharedPlanStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t SharedPlanStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace amr
