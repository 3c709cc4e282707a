// Serve throughput exhibit: multiplexed steps/s vs tenant count, the
// cross-tenant plan-store A/B, and the eviction-budget worst case —
// BENCH_serve.json.
//
// Each point drains a fleet of identical-fingerprint tenants (the
// policy-sweep/what-if shape the serve scheduler is built for) through
// QuantumScheduler and records aggregate simulated steps per wall
// second. Stdout includes host wall-clock values and is NOT
// byte-stable; the --json=FILE record (one object per invocation,
// appended) is what BENCH_serve.json tracks across commits.
//
// The bench also enforces the structural serve invariants and exits
// nonzero on any violation — on a single-core host the interesting
// claims are correctness ones, not parallel speedups:
//   * every tenant's report text equals the standalone SimDriver run;
//   * fleets of >= 2 identical tenants take shared-plan hits;
//   * disabling sharing changes counters, never bytes;
//   * a zero resident budget forces evict/restore churn with, again,
//     byte-identical output and no leaked spills.
//
// Flags: --steps=N (default 10) --max-tenants=N (default 8)
//        --quantum=N (default 4) --serve-jobs=N (default 2)
//        --quick --json=FILE
#include "bench_util.hpp"

#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "amr/serve/scheduler.hpp"

namespace {

using namespace amr;
using namespace amr::bench;
using amr::serve::QuantumScheduler;
using amr::serve::SchedulerStats;
using amr::serve::ServeOptions;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

JobSpec fleet_job(std::int64_t steps) {
  JobSpec spec;
  spec.policy = "cpl50";
  spec.ranks = 64;
  spec.steps = steps;
  spec.collect_telemetry = false;  // throughput, not the query endpoint
  return spec;
}

struct Point {
  std::string mode;  ///< "shared" | "private" | "evict"
  int tenants = 0;
  double wall_ms = 0.0;
  double steps_per_s = 0.0;
  SchedulerStats stats;
  bool identical = true;  ///< every tenant's text == standalone text
};

Point run_fleet(const std::string& mode, int tenants, const JobSpec& job,
                const ServeOptions& opts, const std::string& want_text) {
  Point p;
  p.mode = mode;
  p.tenants = tenants;
  QuantumScheduler sched(opts);
  for (int i = 0; i < tenants; ++i) sched.submit(job);
  const double t0 = now_ms();
  sched.drain();
  p.wall_ms = now_ms() - t0;
  p.steps_per_s = static_cast<double>(tenants * job.steps) /
                  (p.wall_ms > 0 ? p.wall_ms / 1000.0 : 1e-9);
  p.stats = sched.stats();
  for (int i = 0; i < tenants; ++i) {
    const serve::JobResult* r = sched.result(i);
    if (r == nullptr || !r->ok || r->text != want_text) p.identical = false;
  }
  return p;
}

void print_point(const Point& p) {
  std::printf("  %-7s tenants=%-3d %9.1f ms  %8.2f steps/s  "
              "share_hits=%-4lld evict/restore=%lld/%lld  identical:%s\n",
              p.mode.c_str(), p.tenants, p.wall_ms, p.steps_per_s,
              static_cast<long long>(p.stats.plan_share_hits),
              static_cast<long long>(p.stats.evictions),
              static_cast<long long>(p.stats.restores),
              p.identical ? "   yes" : "    NO");
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::int64_t steps =
      flags.get_int("steps", flags.quick() ? 6 : 10);
  const int max_tenants = static_cast<int>(flags.get_int_in(
      "max-tenants", flags.quick() ? 4 : 8, 1,
      std::numeric_limits<int>::max()));
  const std::int64_t quantum = flags.get_int("quantum", 4);
  const int serve_jobs = static_cast<int>(
      flags.get_int_in("serve-jobs", 2, 1, Flags::kMaxWorkers));
  const std::string json = flags.json_path();
  flags.done();

  const JobSpec job = fleet_job(steps);
  // The reference bytes every multiplexed tenant must reproduce.
  std::string want_text;
  {
    SimDriver driver(job);
    want_text = compact_report_text(driver.run(), false);
  }

  ServeOptions shared;
  shared.quantum_steps = quantum;
  shared.serve_jobs = serve_jobs;

  print_header("serve: multiplexed steps/s vs tenant count");
  std::printf("(identical-fingerprint fleet: %s, %lld ranks, %lld steps; "
              "quantum %lld, pool width %d)\n",
              job.policy.c_str(), static_cast<long long>(job.ranks),
              static_cast<long long>(steps),
              static_cast<long long>(quantum), serve_jobs);

  std::vector<Point> points;
  bool ok = true;
  for (int tenants = 1; tenants <= max_tenants; tenants *= 2) {
    points.push_back(
        run_fleet("shared", tenants, job, shared, want_text));
    const Point& p = points.back();
    print_point(p);
    ok = ok && p.identical;
    // Tenants beyond the first batch start every epoch after the store
    // already holds it, so they must hit. (First-batch tenants run the
    // same epochs concurrently and may legitimately race to build.)
    if (tenants > serve_jobs && p.stats.plan_share_hits <= 0) {
      std::printf("  ^ FAIL: no shared-plan hits in an identical fleet\n");
      ok = false;
    }
  }

  print_rule();
  ServeOptions isolated = shared;
  isolated.share_plans = false;
  points.push_back(
      run_fleet("private", max_tenants, job, isolated, want_text));
  print_point(points.back());
  ok = ok && points.back().identical;
  if (points.back().stats.store.hits != 0 ||
      points.back().stats.plan_share_hits != 0) {
    std::printf("  ^ FAIL: --no-share still hit the store\n");
    ok = false;
  }

  ServeOptions strapped = shared;
  strapped.max_resident_mb = 0;  // evict everything, every slice
  points.push_back(
      run_fleet("evict", max_tenants, job, strapped, want_text));
  print_point(points.back());
  ok = ok && points.back().identical;
  if (points.back().stats.evictions <= 0 ||
      points.back().stats.restores <= 0) {
    std::printf("  ^ FAIL: zero budget caused no eviction churn\n");
    ok = false;
  }

  std::printf("\nall tenants byte-identical to standalone runs: %s\n",
              ok ? "yes" : "NO");

  if (!json.empty()) {
    std::FILE* f = json == "-" ? stdout : std::fopen(json.c_str(), "a");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"bench\":\"serve\",\"steps\":%lld,\"quantum\":%lld,"
                   "\"serve_jobs\":%d,\"hw_cores\":%d,\"identical\":%s,"
                   "\"points\":[",
                   static_cast<long long>(steps),
                   static_cast<long long>(quantum), serve_jobs,
                   ThreadPool::hardware_jobs(), ok ? "true" : "false");
      for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        std::fprintf(
            f,
            "%s{\"mode\":\"%s\",\"tenants\":%d,\"wall_ms\":%.1f,"
            "\"steps_per_s\":%.2f,\"share_hits\":%lld,"
            "\"store_hits\":%lld,\"evictions\":%lld,\"restores\":%lld}",
            i == 0 ? "" : ",", p.mode.c_str(), p.tenants, p.wall_ms,
            p.steps_per_s,
            static_cast<long long>(p.stats.plan_share_hits),
            static_cast<long long>(p.stats.store.hits),
            static_cast<long long>(p.stats.evictions),
            static_cast<long long>(p.stats.restores));
      }
      std::fprintf(f, "]}\n");
      if (f != stdout) std::fclose(f);
    }
  }
  return ok ? 0 : 1;
}
