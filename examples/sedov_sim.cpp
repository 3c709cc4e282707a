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
//   --timing    adds host-measured placement wall-clock (nondeterministic)
//   --overlap   task-graph execution with compute/communication overlap
//               instead of the default BSP step
//   --comm-adaptive  per-peer message packing: each (src,dst) pair's
//               boundary sends of a step coalesce into one packed
//               transfer. The modeled policy packs every multi-message
//               pair (BSP and --overlap); off by default — the legacy
//               path stays byte-identical
//   --aggregate second spelling of --comm-adaptive (same output, same
//               snapshots)
//   --pack-threshold=N  global packing-threshold override in mean
//               bytes/message (requires --comm-adaptive; -1 = modeled)
//   --send-priority  schedule sends destined for the previous window's
//               critical-path straggler rank before other sends
//   --des-shards=N  partition the DES by cluster node into N shards run
//               concurrently under conservative lookahead (BSP only).
//               0 (default) = legacy sequential engine. Output is
//               identical for every N >= 1 but not to N=0 (sharded runs
//               use per-node fabric RNG streams)
//   --auto-cplx self-tuning CPLX: pick the cluster size X per regrid
//               epoch from an online step-time surrogate fed by the
//               run's own (simulated) telemetry; reports print policy
//               "auto-cplx". Deterministic and checkpoint-stable
//   --cplx-budget-ms=N  auto-X evaluation budget (requires --auto-cplx;
//               default 50 ms, the paper's placement budget)
//   --placement-incremental  incremental parallel placement engine for
//               CPLX policies: reuse unchanged SFC-chunk solves across
//               regrid epochs, solve the rest concurrently. Output is
//               byte-identical to the full rebuild (ctest
//               placement_tuning_determinism diffs the two modes)
//   --trace-out=FILE writes an event-level Perfetto/chrome://tracing
//               trace (single-policy runs only)
//   --faults=N  throttle N nodes (x4 compute) for the middle half of the
//               run; victims are picked deterministically from the seed
//   --checkpoint-every=K  write ckpt_<step>.amrs every K steps into
//   --checkpoint-dir=D    (default ".")
//   --restore=FILE  resume from a snapshot and continue to `steps`;
//               stdout is byte-identical to the uninterrupted run
//               (restore diagnostics go to stderr)
//   --replay=FILE   like --restore, but intended for re-driving the run
//               with a different placement policy than the recorded one
//   --help      list all flags
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
  const bool timing = flags.has("timing");
  const bool overlap = flags.has("overlap");
  const bool aggregate = flags.has("aggregate");
  const bool comm_adaptive = flags.has("comm-adaptive");
  const bool send_priority = flags.has("send-priority");
  const std::int64_t pack_threshold = flags.get_int("pack-threshold", -1);
  const auto des_shards =
      static_cast<std::int32_t>(flags.get_int("des-shards", 0));
  const bool auto_cplx = flags.has("auto-cplx");
  const std::int64_t cplx_budget_ms = flags.get_int("cplx-budget-ms", -1);
  const bool placement_incremental = flags.has("placement-incremental");
  const std::string trace_out = flags.get_str("trace-out", "");
  const int jobs = flags.jobs();
  const std::int64_t checkpoint_every =
      flags.get_int("checkpoint-every", 0);
  const std::string checkpoint_dir = flags.get_str("checkpoint-dir", ".");
  const std::string restore = flags.get_str("restore", "");
  const std::string replay = flags.get_str("replay", "");
  const auto fault_nodes =
      static_cast<std::int32_t>(flags.get_int("faults", 0));
  flags.done();

  const std::vector<std::string> pos = flags.positionals();
  const std::string policy_arg = !pos.empty() ? pos[0] : "cpl50";
  const auto ranks = static_cast<std::int32_t>(
      pos.size() > 1 ? parse_int(pos[1], "ranks") : 64);
  const std::int64_t steps =
      pos.size() > 2 ? parse_int(pos[2], "steps") : 60;
  if (ranks <= 0 || (ranks & (ranks - 1)) != 0) {
    std::fprintf(stderr, "ranks must be a positive power of two\n");
    return 1;
  }
  const std::string snapshot = !restore.empty() ? restore : replay;

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
  if ((!snapshot.empty() || checkpoint_every > 0) &&
      policy_names.size() > 1) {
    std::fprintf(stderr,
                 "checkpoint/restore flags require a single policy "
                 "(got %zu)\n",
                 policy_names.size());
    return 1;
  }
  const bool tracing = !trace_out.empty();

  std::atomic<bool> failed{false};
  Sweep sweep(jobs);
  for (const std::string& policy_name : policy_names) {
    sweep.add(policy_name, [=, &failed] {
      JobSpec spec;
      spec.policy = policy_name;
      spec.ranks = ranks;
      spec.steps = steps;
      spec.overlap = overlap;
      spec.aggregate = aggregate;
      spec.comm_adaptive = comm_adaptive;
      spec.pack_threshold = pack_threshold;
      spec.send_priority = send_priority;
      spec.des_shards = des_shards;
      spec.auto_cplx = auto_cplx;
      spec.cplx_budget_ms = cplx_budget_ms;
      spec.placement_incremental = placement_incremental;
      spec.collect_telemetry = false;
      spec.sedov_max_level = 1;
      spec.checkpoint_every = checkpoint_every;
      spec.checkpoint_dir = checkpoint_dir;
      spec.restore = restore;
      spec.replay = replay;
      spec.fault_nodes = fault_nodes;
      spec.trace = tracing;

      std::string out;
      std::unique_ptr<SimDriver> driver;
      // Construction performs the restore; diagnostics go to stderr: a
      // restored run's stdout must stay byte-identical to the
      // uninterrupted run's (ctest checkpoint_determinism diffs them).
      try {
        driver = std::make_unique<SimDriver>(spec);
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
              driver->policy().name().c_str(), static_cast<int>(ranks),
              static_cast<long long>(steps), cfg.root_grid.nx,
              cfg.root_grid.ny, cfg.root_grid.nz);
      out += verbose_report_text(driver->run(), timing, cfg.comm_adaptive);
      if (tracing) {
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
