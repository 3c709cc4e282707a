// Heap bytes a holder keeps: the capacity of its arrays, not their size,
// since capacity is what stays allocated between rebuilds.
#pragma once

#include <cstddef>
#include <vector>

namespace amr {

template <typename T>
std::size_t capacity_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Empty `v` with room for n elements, for a caller that rewrites it in
/// full. A buffer too small is freed before the next is allocated, so a
/// growing rebuild never holds the old and the new one at once.
template <typename T>
std::vector<T>& reserve_fresh(std::vector<T>& v, std::size_t n) {
  if (n > v.capacity()) v = std::vector<T>();
  v.clear();
  v.reserve(n);
  return v;
}

/// Sum over several arrays.
template <typename... T>
std::size_t capacity_bytes(const std::vector<T>&... v)
  requires(sizeof...(T) > 1)
{
  return (capacity_bytes(v) + ...);
}

}  // namespace amr
