// The ledger's own arithmetic: percentiles with their sample counts,
// ratios with explicit zero-denominator handling, failure accounting and
// span self time. Kept header-only and free of library dependencies so
// ledger_stats_test can check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

/// A percentile together with the evidence behind it: how many samples
/// it was taken from and how many lie strictly beyond its rank. The
/// benchmark only reports a tail percentile whose `beyond` is >= 10.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Percentile q in [0, 1] by linear interpolation between closest ranks
/// (numpy's default). An empty input gives value 0 with 0 samples.
inline Percentile percentile(std::vector<double> v, double q) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  p.value = v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  const auto at_or_below =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  p.beyond = v.size() - std::min(at_or_below, v.size());
  return p;
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5).value;
}

/// Element-wise median of series that repeat the same sequence of timed
/// segments (one series per pass): the typical cost of each segment, so
/// a host burst that hits one pass does not move the result. Series
/// longer than the shortest one are cut to its length.
inline std::vector<double> elementwise_median(
    const std::vector<std::vector<double>>& series) {
  std::size_t n = series.empty() ? 0 : series.front().size();
  for (const auto& s : series) n = std::min(n, s.size());
  std::vector<double> out(n);
  std::vector<double> column(series.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < series.size(); ++k) column[k] = series[k][i];
    out[i] = median(column);
  }
  return out;
}

/// num / den, or 0 when the base is zero: a layer that did no work has
/// no ratio to report, and 0 keeps the output a plain number.
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Operations attempted and failed (steps, jobs, queries, answer checks).
struct OpCount {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void add(bool ok, std::int64_t n = 1) {
    attempted += n;
    if (!ok) failed += n;
  }
  void merge(const OpCount& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  double failed_ratio() const {
    return ratio(static_cast<double>(failed), static_cast<double>(attempted));
  }
};

/// A report line's host-timed field, masked so the text holds simulated
/// answers only: RunReport::budget_violations counts placements over the
/// wall-clock budget, so "N over budget" varies with host load while
/// every other field is simulated and exact.
inline std::string mask_host_timed(std::string text) {
  const std::string tag = " over budget";
  for (std::size_t at = text.find(tag); at != std::string::npos;
       at = text.find(tag, at + 1)) {
    std::size_t b = at;
    while (b > 0 && text[b - 1] >= '0' && text[b - 1] <= '9') --b;
    if (b < at) {
      text.erase(b, at - b - 1);
      text[b] = '*';
      at = b + 1;
    }
  }
  return text;
}

/// One recorded span: ids are dense indices into the recorder's vector,
/// parent -1 marks a root.
struct Span {
  std::string name;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children clipped to the parent and
/// overlaps between children counted once).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
      children[static_cast<std::size_t>(p)].push_back(i);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_a = 0;
    std::int64_t run_b = -1;
    for (const auto& [a, b] : iv) {
      if (run_b < a) {
        if (run_b > run_a) covered += run_b - run_a;
        run_a = a;
        run_b = b;
      } else {
        run_b = std::max(run_b, b);
      }
    }
    if (run_b > run_a) covered += run_b - run_a;
    self[i] = std::max<std::int64_t>(0, s.end_ns - s.start_ns - covered);
  }
  return self;
}

}  // namespace ledger
