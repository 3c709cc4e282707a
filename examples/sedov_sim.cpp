// End-to-end Sedov blast wave simulation on the simulated cluster.
//
// Runs the full telemetry-driven pipeline: the blast front sweeps the
// domain, the mesh refines/coarsens around it, redistribution invokes the
// chosen placement policy with measured block costs, and the BSP executor
// runs every step on the discrete-event cluster. Prints a per-phase
// runtime breakdown and redistribution statistics.
//
// Usage: ./sedov_sim [policy[,policy...]] [ranks] [steps] [--flags]
//   policy  baseline | cpl0 | cpl25 | cpl50 | cpl75 | cpl100 | lpt | cdp
//           a comma-separated list runs each policy (in parallel with
//           --jobs>1; reports print in list order regardless)
//   ranks   simulated MPI ranks (default 64; 16 per node)
//   steps   timesteps (default 60)
// The positionals preset --policy, --ranks and --steps. Every job field
// of amr/sim/sim_driver.hpp is a flag (`--help` lists them); this
// binary adds --timing (host-measured placement wall-clock,
// nondeterministic), --trace-out=FILE (Perfetto / chrome://tracing,
// single-policy runs only) and --jobs=N.
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "amr/par/sweep.hpp"
#include "amr/sim/sim_driver.hpp"
#include "amr/trace/chrome_export.hpp"
#include "bench_util.hpp"

namespace {

using amr::bench::appendf;

std::int64_t parse_int(const std::string& v, const char* what) {
  std::int64_t out = 0;
  const char* begin = v.c_str();
  const char* end = begin + v.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || ptr != end) {
    std::fprintf(stderr, "sedov_sim: invalid %s: '%s'\n", what, v.c_str());
    std::exit(2);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amr;
  using namespace amr::bench;
  // Flags may appear anywhere; the rest are positional.
  const Flags flags(argc, argv);
  flags.about(
      "positionals: [policy[,policy...]] [ranks] [steps] preset --policy\n"
      "(a comma list runs each policy), --ranks and --steps\n");
  const std::vector<std::string> pos = flags.positionals();
  JobSpec spec;
  spec.steps = 60;
  spec.sedov_max_level = 1;
  spec.collect_telemetry = false;
  if (!pos.empty()) spec.policy = pos[0];
  if (pos.size() > 1) spec.ranks = parse_int(pos[1], "ranks");
  if (pos.size() > 2) spec.steps = parse_int(pos[2], "steps");
  flags.job(spec);
  const bool timing = flags.has(
      "timing", "add host-measured placement wall-clock (nondeterministic)");
  const std::string trace_out = flags.get_str(
      "trace-out", "", "write a Perfetto / chrome://tracing trace");
  const int jobs = flags.jobs();
  flags.done(spec);
  spec.trace = !trace_out.empty();

  const std::string& policy_arg = spec.policy;
  std::vector<std::string> policy_names;
  for (std::size_t at = 0; at <= policy_arg.size();) {
    const std::size_t comma = policy_arg.find(',', at);
    const std::size_t end =
        comma == std::string::npos ? policy_arg.size() : comma;
    if (end > at) policy_names.push_back(policy_arg.substr(at, end - at));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  if (policy_names.empty()) {
    std::fprintf(stderr, "no policy given\n");
    return 1;
  }
  if (!trace_out.empty() && policy_names.size() > 1) {
    std::fprintf(stderr,
                 "--trace-out requires a single policy (got %zu)\n",
                 policy_names.size());
    return 1;
  }
  if ((!spec.restore.empty() || !spec.replay.empty() ||
       spec.checkpoint_every > 0) &&
      policy_names.size() > 1) {
    std::fprintf(stderr,
                 "checkpoint/restore flags require a single policy "
                 "(got %zu)\n",
                 policy_names.size());
    return 1;
  }
  std::atomic<bool> failed{false};
  Sweep sweep(jobs);
  for (const std::string& policy_name : policy_names) {
    sweep.add(policy_name, [=, &failed] {
      JobSpec run = spec;
      run.policy = policy_name;

      std::string out;
      std::unique_ptr<SimDriver> driver;
      // Construction performs the restore; diagnostics go to stderr: a
      // restored run's stdout must stay byte-identical to the
      // uninterrupted run's (ctest checkpoint_determinism diffs them).
      try {
        driver = std::make_unique<SimDriver>(run);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "sedov_sim: %s\n", e.what());
        failed.store(true, std::memory_order_relaxed);
        return out;
      }
      if (!driver->restore_note().empty())
        std::fprintf(stderr, "%s\n", driver->restore_note().c_str());
      const SimulationConfig& cfg = driver->config();
      appendf(out,
              "running sedov3d: policy=%s ranks=%d steps=%lld "
              "grid=%ux%ux%u\n",
              driver->policy().name().c_str(), static_cast<int>(run.ranks),
              static_cast<long long>(run.steps), cfg.root_grid.nx,
              cfg.root_grid.ny, cfg.root_grid.nz);
      out += verbose_report_text(driver->run(), timing, cfg.comm_adaptive);
      if (run.trace) {
        const Tracer& tracer = *driver->sim().tracer();
        if (!write_chrome_trace(tracer, trace_out)) {
          appendf(out, "failed to write trace to %s\n", trace_out.c_str());
          failed.store(true, std::memory_order_relaxed);
        } else {
          appendf(out, "trace                %llu events (%llu dropped) "
                       "-> %s\n",
                  static_cast<unsigned long long>(tracer.size()),
                  static_cast<unsigned long long>(tracer.dropped()),
                  trace_out.c_str());
        }
      }
      return out;
    });
  }
  sweep.run();
  sweep.print();
  return failed.load(std::memory_order_relaxed) ? 1 : 0;
}
