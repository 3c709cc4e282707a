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

/// Sum over several arrays.
template <typename... T>
std::size_t capacity_bytes(const std::vector<T>&... v)
  requires(sizeof...(T) > 1)
{
  return (capacity_bytes(v) + ...);
}

}  // namespace amr
