// amrcplx: a single CLI driver over the library's main entry points,
// mirroring the paper's released tooling. Subcommands:
//
//   run      simulate a workload end-to-end and print the run report
//   sweep    compare placement policies (default: the evaluation set)
//            on one configuration
//   serve    multiplex a batch of jobs over one process
//   mesh     build a mesh and print structure/locality statistics
//   policies list registered placement policies
//
// Every subcommand parses its flags strictly (an unknown flag exits 2)
// and answers --help. The job flags of run and sweep, and serve's job
// fields, are the job_fields() table of amr/sim/sim_driver.hpp.
//
// Examples:
//   amrcplx run --workload=sedov --policy=cpl50 --ranks=512 --steps=60
//   amrcplx run --workload=cooling --policy=lpt --execution=overlap
//   amrcplx sweep --ranks=256 --steps=40 --jobs=8
//   amrcplx sweep --policy=cpl50,lpt,baseline --ranks=32 --jobs=4
//   amrcplx mesh --ranks=512 --sfc=hilbert
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "amr/mesh/generators.hpp"
#include "amr/par/sweep.hpp"
#include "amr/placement/metrics.hpp"
#include "amr/placement/registry.hpp"
#include "amr/serve/sim_server.hpp"
#include "amr/sim/sim_driver.hpp"
#include "amr/simmpi/comm.hpp"
#include "amr/trace/chrome_export.hpp"
#include "bench_util.hpp"

namespace {

using namespace amr;
using bench::Flags;

int cmd_run(const Flags& flags) {
  JobSpec spec;
  flags.job(spec);
  const std::string trace_out = flags.get_str(
      "trace-out", "", "write a Perfetto / chrome://tracing trace");
  const std::int64_t trace_capacity = flags.get_int(
      "trace-capacity", 0, "trace ring capacity in events (0 = default)");
  flags.done(spec);
  spec.trace = !trace_out.empty();
  if (trace_capacity > 0)
    spec.trace_capacity = static_cast<std::size_t>(trace_capacity);

  std::unique_ptr<SimDriver> driver;
  std::string text;
  try {
    driver = std::make_unique<SimDriver>(spec);
    // Restore diagnostics go to stderr so a restored run's stdout stays
    // byte-identical to the uninterrupted run's.
    if (!driver->restore_note().empty())
      std::fprintf(stderr, "amrcplx: %s\n", driver->restore_note().c_str());
    text = compact_report_text(driver->run(), driver->config().comm_adaptive);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amrcplx: %s\n", e.what());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), stdout);
  if (!trace_out.empty()) {
    const Tracer& tracer = *driver->sim().tracer();
    if (!write_chrome_trace(tracer, trace_out)) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   trace_out.c_str());
      return 1;
    }
    std::printf("  trace: %llu events (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(tracer.size()),
                static_cast<unsigned long long>(tracer.dropped()),
                trace_out.c_str());
  }
  return 0;
}

int cmd_sweep(const Flags& flags) {
  // Snapshots and traces belong to one run; a sweep refuses them.
  const auto one_run = [&](std::string_view field) {
    const std::string flag = Flags::flag_name(field);
    if (!flags.given(flag)) return false;
    std::fprintf(stderr,
                 "amrcplx sweep: --%s names a single run; use `amrcplx "
                 "run`\n",
                 flag.c_str());
    return true;
  };
  for (const std::string_view field : kSingleRunFields)
    if (one_run(field)) return 2;
  if (one_run("trace_out")) return 2;
  flags.about(
      "run each policy of the --policy comma list (default: the evaluation\n"
      "set) on one configuration; blocks print in list order\n");
  JobSpec spec;
  spec.collect_telemetry = false;
  spec.policy.clear();
  for (const auto& name : evaluation_policy_names())
    spec.policy += (spec.policy.empty() ? "" : ",") + name;
  flags.job(spec, kSingleRunFields);
  const int jobs = flags.jobs();
  const std::string json = flags.json_path();
  flags.done(spec);
  // Every name must build before any run starts.
  std::vector<std::string> policies;
  for (std::size_t at = 0;;) {
    const std::size_t comma = spec.policy.find(',', at);
    policies.push_back(spec.policy.substr(at, comma - at));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  for (const std::string& name : policies) {
    std::string err;
    if (name.empty()) {
      err = "an empty name";
    } else {
      try {
        make_policy(name);
      } catch (const std::exception& e) {
        err = "'" + name + "': " + e.what();
      }
    }
    if (err.empty()) continue;
    std::fprintf(stderr, "amrcplx sweep: --policy names %s (got '%s')\n",
                 err.c_str(), spec.policy.c_str());
    return 2;
  }
  // Each policy's simulation is independent and fully deterministic in
  // simulated time, so the fan-out preserves serial output exactly.
  Sweep sweep(jobs);
  for (const std::string& name : policies) {
    sweep.add(name, [spec, name] {
      JobSpec run = spec;
      run.policy = name;
      SimDriver driver(run);
      return compact_report_text(driver.run(),
                                 driver.config().comm_adaptive);
    });
  }
  sweep.run();
  sweep.print();
  if (!json.empty()) sweep.write_json(json, "amrcplx/sweep");
  return 0;
}

int cmd_mesh(const Flags& flags) {
  const std::int64_t ranks =
      flags.get_int_in("ranks", 512, 1, Comm::kMaxRanks,
                       "mesh for this many ranks (Table I grid)");
  const std::string sfc_name =
      flags.get_str("sfc", "z-order", "z-order | hilbert");
  flags.done();
  const SfcKind sfc =
      sfc_name == "hilbert" ? SfcKind::kHilbert : SfcKind::kZOrder;

  AmrMesh mesh(grid_for_ranks(ranks), false, sfc);
  Rng rng(7);
  grow_to_block_count(mesh, rng, static_cast<std::size_t>(2 * ranks), 2);
  const ClusterTopology topo(static_cast<std::int32_t>(ranks), 16);
  const std::vector<double> uniform(mesh.size(), 1.0);
  const Placement p = make_policy("baseline")->place(
      uniform, static_cast<std::int32_t>(ranks));
  const CommMetrics comm = comm_metrics(mesh, p, topo);

  std::printf("mesh: %zu blocks (max level %d), curve %s\n", mesh.size(),
              mesh.max_level_present(), to_string(mesh.sfc_kind()));
  std::printf("boundary exchange under baseline placement: %lld memcpy, "
              "%lld shm, %lld remote (%.0f%% of MPI remote)\n",
              static_cast<long long>(comm.msgs_intra_rank),
              static_cast<long long>(comm.msgs_intra_node),
              static_cast<long long>(comm.msgs_inter_node),
              100 * comm.remote_fraction());
  return 0;
}

int cmd_serve(const Flags& flags) {
  // Serve consumes stdin: a silently ignored flag typo would hang
  // waiting for jobs, so done() rejecting unknown flags matters here.
  std::string about =
      "multiplex a batch of simulation jobs over one process; requests\n"
      "come one per line from stdin or --file:\n"
      "  {\"policy\": \"cpl50\", \"ranks\": 64, ...}  submit a job\n"
      "  query <job-id> select ...           results endpoint (README)\n"
      "  stats                               scheduler counters\n"
      "  # comment\n"
      "job fields (the `amrcplx run` flags, '_' for '-'):\n";
  for (const JobField& f : job_fields())
    about += std::string("  ") + f.name + " (" + job_field_kind(f) +
             ")\n      " + f.help + "\n";
  flags.about(std::move(about));
  serve::ServeOptions opts;
  const std::string file =
      flags.get_str("file", "", "read requests from this file, not stdin");
  opts.quantum_steps =
      flags.get_int("quantum-steps", 16, "steps per tenant slice");
  opts.serve_jobs = static_cast<int>(
      flags.get_int_in("serve-jobs", 1, 1, bench::Flags::kMaxWorkers,
                       "tenants sliced concurrently"));
  opts.max_resident_mb = flags.get_int(
      "max-resident", -1,
      "evict cold sims to snapshots beyond this many MiB (-1 unlimited, "
      "0 evicts all idle)");
  opts.spill_dir =
      flags.get_str("spill-dir", ".", "eviction snapshot directory");
  const bool stats =
      flags.has("stats", "print scheduler counters to stderr");
  flags.done();
  if (opts.quantum_steps <= 0) {
    std::fprintf(stderr, "amrcplx: --quantum-steps must be positive\n");
    return 2;
  }
  std::ifstream job_file;
  std::istream* in = &std::cin;
  if (!file.empty()) {
    job_file.open(file);
    if (!job_file) {
      std::fprintf(stderr, "amrcplx: cannot open job file %s\n",
                   file.c_str());
      return 1;
    }
    in = &job_file;
  }
  serve::SimServer server(opts);
  const int rc = server.run(*in, stdout);
  if (stats) {
    const serve::SchedulerStats s = server.stats();
    std::fprintf(stderr,
                 "serve: %lld jobs, %lld slices, %lld evictions, "
                 "%lld restores, plan cache %lld/%lld hit/miss "
                 "(%lld shared)\n",
                 static_cast<long long>(s.jobs),
                 static_cast<long long>(s.slices),
                 static_cast<long long>(s.evictions),
                 static_cast<long long>(s.restores),
                 static_cast<long long>(s.plan_hits),
                 static_cast<long long>(s.plan_misses),
                 static_cast<long long>(s.plan_share_hits));
  }
  return rc;
}

int cmd_policies(const Flags& flags) {
  flags.done();
  std::printf("policies: baseline lpt cdp cdp-general cdp-bsearch "
              "chunked-cdp[/N] cpl0..cpl100 zonal/N/<inner>\n");
  std::printf("(graphcut is mesh-bound: see GraphCutPolicy in the API)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  // Each subcommand parses its own argv slice, named "amrcplx <cmd>".
  const Flags flags(argc - 1, argv + 1, "amrcplx " + cmd);
  if (cmd == "run") return cmd_run(flags);
  if (cmd == "sweep") return cmd_sweep(flags);
  if (cmd == "serve") return cmd_serve(flags);
  if (cmd == "mesh") return cmd_mesh(flags);
  if (cmd == "policies") return cmd_policies(flags);
  std::fprintf(stderr,
               "usage: amrcplx <run|sweep|serve|mesh|policies> "
               "[--flag=value]\n"
               "  `amrcplx <command> --help` lists a command's flags\n");
  return cmd.empty() ? 1 : 2;
}
