// Checks of the ledger's own arithmetic (percentiles and their sample
// counts, segment medians, answer masking, ratio bases, failure
// accounting, span self time). Exits 1 and names each failed check.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentile() {
  using ledger::percentile;
  const ledger::Percentile med = percentile(one_to(10), 0.5);
  check(near(med.value, 5.5), "median of 1..10 is 5.5");
  check(med.samples == 10, "median of 1..10 counts 10 samples");
  check(med.beyond == 5, "median of 1..10 has 5 samples beyond");

  const ledger::Percentile p75 = percentile(one_to(40), 0.75);
  check(near(p75.value, 30.25), "p75 of 1..40 interpolates to 30.25");
  check(p75.beyond == 10, "p75 of 40 samples has 10 beyond");

  const ledger::Percentile p90 = percentile(one_to(40), 0.9);
  check(p90.beyond == 4, "p90 of 40 samples has 4 beyond");

  const ledger::Percentile empty = percentile({}, 0.5);
  check(empty.samples == 0 && empty.value == 0.0 && empty.beyond == 0,
        "empty input gives 0 with 0 samples");

  const ledger::Percentile single = percentile({7.0}, 0.75);
  check(near(single.value, 7.0) && single.samples == 1 && single.beyond == 0,
        "single sample is every percentile");

  check(near(percentile(one_to(5), 0.0).value, 1.0), "p0 is the minimum");
  check(near(percentile(one_to(5), 1.0).value, 5.0), "p100 is the maximum");
  check(near(ledger::median({3.0, 1.0, 2.0}), 2.0), "median of three");
}

void test_elementwise_median() {
  const std::vector<double> m = ledger::elementwise_median(
      {{1.0, 10.0, 5.0}, {2.0, 90.0, 5.0}, {3.0, 11.0, 5.0, 7.0}});
  check(m.size() == 3, "cut to the shortest series");
  check(near(m[0], 2.0) && near(m[1], 11.0) && near(m[2], 5.0),
        "a burst in one series does not move the median");
  check(ledger::elementwise_median({}).empty(), "no series, no medians");
}

void test_mask_host_timed() {
  const std::string a =
      "  blocks 1 -> 2 | 3 redistributions, 4 moved, 12 over budget\n"
      "  blocks 1 -> 2 | 3 redistributions, 4 moved, 0 over budget\n";
  const std::string want =
      "  blocks 1 -> 2 | 3 redistributions, 4 moved, * over budget\n"
      "  blocks 1 -> 2 | 3 redistributions, 4 moved, * over budget\n";
  check(ledger::mask_host_timed(a) == want, "every budget count masked");
  check(ledger::mask_host_timed("wall 0.1 s") == "wall 0.1 s",
        "text without the field is unchanged");
}

void test_ratio() {
  check(near(ledger::ratio(1.0, 4.0), 0.25), "1/4");
  check(ledger::ratio(5.0, 0.0) == 0.0, "zero base gives 0");
  check(ledger::ratio(0.0, 0.0) == 0.0, "0/0 gives 0");
}

void test_failures() {
  ledger::OpCount ops;
  check(ops.failed_ratio() == 0.0, "nothing attempted: ratio 0");
  ops.add(true);
  ops.add(false);
  ops.add(true, 6);
  check(ops.attempted == 8 && ops.failed == 1, "8 attempted, 1 failed");
  check(near(ops.failed_ratio(), 0.125), "failed ratio 1/8");
  ledger::OpCount more;
  more.add(false, 2);
  ops.merge(more);
  check(ops.attempted == 10 && ops.failed == 3, "merge sums both counts");
  check(near(ops.failed_ratio(), 0.3), "failed ratio 3/10");
}

void test_self_time() {
  std::vector<ledger::Span> s(6);
  s[0] = {"root", -1, 0, 100};
  s[1] = {"a", 0, 10, 30};   // overlaps b: the union 10..50 counts once
  s[2] = {"b", 0, 20, 50};
  s[3] = {"c", 0, 90, 120};  // clipped to the parent at 100
  s[4] = {"a.child", 1, 12, 18};
  s[5] = {"other_root", -1, 200, 260};
  const std::vector<std::int64_t> self = ledger::self_times(s);
  check(self[0] == 100 - 40 - 10, "root self = duration - children union");
  check(self[1] == 20 - 6, "a self excludes its own child only");
  check(self[2] == 30, "leaf self is its duration");
  check(self[3] == 30, "child running past its parent keeps its duration");
  check(self[4] == 6, "grandchild self");
  check(self[5] == 60, "second root is independent");

  std::vector<ledger::Span> nested(3);
  nested[0] = {"p", -1, 0, 50};
  nested[1] = {"x", 0, 0, 25};
  nested[2] = {"y", 0, 25, 50};
  const std::vector<std::int64_t> ns = ledger::self_times(nested);
  check(ns[0] == 0, "fully covered parent has no self time");
  check(ns[0] + ns[1] + ns[2] == 50, "self times sum to the root duration");
}

}  // namespace

int main() {
  test_percentile();
  test_elementwise_median();
  test_mask_host_timed();
  test_ratio();
  test_failures();
  test_self_time();
  if (failures == 0) std::printf("ledger_stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
