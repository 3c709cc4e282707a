// amrcplx: a single CLI driver over the library's main entry points,
// mirroring the paper's released tooling. Subcommands:
//
//   run      simulate a workload end-to-end and print the run report
//   sweep    compare all evaluation policies on one configuration
//   mesh     build a mesh and print structure/locality statistics
//   policies list registered placement policies
//
// Examples:
//   amrcplx run --workload=sedov --policy=cpl50 --ranks=512 --steps=60
//   amrcplx run --workload=cooling --policy=lpt --execution=overlap
//   amrcplx sweep --ranks=256 --steps=40 --jobs=8
//   amrcplx mesh --ranks=512 --sfc=hilbert
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "amr/mesh/generators.hpp"
#include "amr/par/sweep.hpp"
#include "amr/par/thread_pool.hpp"
#include "amr/placement/metrics.hpp"
#include "amr/placement/registry.hpp"
#include "amr/serve/sim_server.hpp"
#include "amr/sim/sim_driver.hpp"
#include "amr/trace/chrome_export.hpp"

namespace {

using namespace amr;

bool has_flag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 2; i < argc; ++i)
    if (flag == argv[i]) return true;
  return false;
}

const char* arg_value(int argc, char** argv, const char* name,
                      const char* def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 2; i < argc; ++i)
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      return argv[i] + prefix.size();
  return def;
}

/// Strict integer parse: a malformed --ranks=1O aborts instead of
/// silently truncating like atoll.
std::int64_t arg_int(int argc, char** argv, const char* name,
                     std::int64_t def) {
  const char* v = arg_value(argc, argv, name, nullptr);
  if (v == nullptr) return def;
  std::int64_t out = 0;
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, out);
  if (ec != std::errc{} || ptr != end) {
    std::fprintf(stderr, "amrcplx: invalid value for --%s: '%s'\n", name,
                 v);
    std::exit(2);
  }
  return out;
}

int arg_jobs(int argc, char** argv) {
  const std::int64_t j = arg_int(argc, argv, "jobs", 1);
  if (j < 0) {
    std::fprintf(stderr, "amrcplx: --jobs must be >= 0\n");
    std::exit(2);
  }
  return j == 0 ? ThreadPool::hardware_jobs() : static_cast<int>(j);
}

void print_report(const RunReport& r, bool show_packing) {
  const std::string text = compact_report_text(r, show_packing);
  std::fwrite(text.data(), 1, text.size(), stdout);
}

/// Flag-to-spec mapping shared by `run` and (per job line) `serve`'s
/// defaults; validation lives in validate_job.
JobSpec spec_from_flags(int argc, char** argv) {
  JobSpec spec;
  spec.workload = arg_value(argc, argv, "workload", "sedov");
  spec.policy = arg_value(argc, argv, "policy", "cpl50");
  spec.ranks = arg_int(argc, argv, "ranks", 64);
  spec.steps = arg_int(argc, argv, "steps", 40);
  spec.overlap =
      std::string(arg_value(argc, argv, "execution", "bsp")) == "overlap";
  spec.aggregate = has_flag(argc, argv, "aggregate");
  spec.comm_adaptive = has_flag(argc, argv, "comm-adaptive");
  spec.pack_threshold = arg_int(argc, argv, "pack-threshold", -1);
  spec.send_priority = has_flag(argc, argv, "send-priority");
  spec.des_shards =
      static_cast<std::int32_t>(arg_int(argc, argv, "des-shards", 0));
  spec.auto_cplx = has_flag(argc, argv, "auto-cplx");
  spec.cplx_budget_ms = arg_int(argc, argv, "cplx-budget-ms", -1);
  spec.placement_incremental =
      has_flag(argc, argv, "placement-incremental");
  spec.checkpoint_every = arg_int(argc, argv, "checkpoint-every", 0);
  spec.checkpoint_dir = arg_value(argc, argv, "checkpoint-dir", ".");
  spec.restore = arg_value(argc, argv, "restore", "");
  spec.replay = arg_value(argc, argv, "replay", "");
  spec.fault_nodes =
      static_cast<std::int32_t>(arg_int(argc, argv, "faults", 0));
  spec.trace = *arg_value(argc, argv, "trace-out", "") != '\0';
  const std::int64_t cap = arg_int(argc, argv, "trace-capacity", 0);
  if (cap > 0) spec.trace_capacity = static_cast<std::size_t>(cap);
  return spec;
}

int cmd_run(int argc, char** argv) {
  if (has_flag(argc, argv, "help")) {
    std::printf(
        "usage: amrcplx run [--flag=value]\n"
        "  --workload=sedov|cooling (default sedov)\n"
        "  --policy=NAME            (default cpl50)\n"
        "  --ranks=N                (default 64)\n"
        "  --steps=N                (default 40)\n"
        "  --execution=bsp|overlap  (default bsp)\n"
        "  --comm-adaptive          (per-peer packing: coalesce every\n"
        "                            multi-message (src,dst) pair into\n"
        "                            one transfer; bsp and overlap)\n"
        "  --aggregate              (second spelling of --comm-adaptive)\n"
        "  --pack-threshold=N       (global threshold override in mean\n"
        "                            bytes/message; requires\n"
        "                            --comm-adaptive; -1 = modeled)\n"
        "  --send-priority          (schedule sends to the previous\n"
        "                            window's straggler rank first)\n"
        "  --des-shards=N           (parallel sharded DES; bsp only;\n"
        "                            0 = sequential legacy engine)\n"
        "  --auto-cplx              (self-tuning CPLX: pick X per regrid\n"
        "                            epoch from an online step-time\n"
        "                            surrogate; reports policy auto-cplx)\n"
        "  --cplx-budget-ms=N       (auto-X evaluation budget; requires\n"
        "                            --auto-cplx; default 50)\n"
        "  --placement-incremental  (incremental parallel placement\n"
        "                            engine for CPLX policies; output is\n"
        "                            byte-identical to the full rebuild)\n"
        "  --faults=N               (throttle N nodes x4 for the middle\n"
        "                            half of the run; deterministic)\n"
        "  --trace-out=FILE.json [--trace-capacity=N]\n"
        "  --checkpoint-every=K --checkpoint-dir=D\n"
        "  --restore=FILE | --replay=FILE\n");
    return 0;
  }
  const JobSpec spec = spec_from_flags(argc, argv);
  const std::string trace_out = arg_value(argc, argv, "trace-out", "");
  const std::string invalid = validate_job(spec);
  if (!invalid.empty()) {
    std::fprintf(stderr, "amrcplx: %s\n", invalid.c_str());
    return 2;
  }

  std::unique_ptr<SimDriver> driver;
  try {
    driver = std::make_unique<SimDriver>(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amrcplx: %s\n", e.what());
    return 1;
  }
  // Restore diagnostics go to stderr so a restored run's stdout stays
  // byte-identical to the uninterrupted run's.
  if (!driver->restore_note().empty())
    std::fprintf(stderr, "amrcplx: %s\n", driver->restore_note().c_str());
  print_report(driver->run(), driver->config().comm_adaptive);
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

int cmd_sweep(int argc, char** argv) {
  const std::int64_t ranks = arg_int(argc, argv, "ranks", 64);
  const std::int64_t steps = arg_int(argc, argv, "steps", 40);
  const bool aggregate = has_flag(argc, argv, "aggregate");
  const bool comm_adaptive = has_flag(argc, argv, "comm-adaptive");
  const bool send_priority = has_flag(argc, argv, "send-priority");
  const std::string execution = arg_value(argc, argv, "execution", "bsp");
  const auto des_shards =
      static_cast<std::int32_t>(arg_int(argc, argv, "des-shards", 0));
  const bool placement_incremental =
      has_flag(argc, argv, "placement-incremental");
  // Each policy's simulation is independent and fully deterministic in
  // simulated time, so the fan-out preserves serial output exactly.
  Sweep sweep(arg_jobs(argc, argv));
  for (const auto& name : evaluation_policy_names()) {
    sweep.add(name, [=] {
      JobSpec spec;
      spec.policy = name;
      spec.ranks = ranks;
      spec.steps = steps;
      spec.overlap = execution == "overlap";
      spec.aggregate = aggregate;
      spec.comm_adaptive = comm_adaptive;
      spec.send_priority = send_priority;
      spec.des_shards = des_shards;
      spec.placement_incremental = placement_incremental;
      spec.collect_telemetry = false;
      SimDriver driver(spec);
      return compact_report_text(driver.run(),
                                 driver.config().comm_adaptive);
    });
  }
  sweep.run();
  sweep.print();
  const std::string json = arg_value(argc, argv, "json", "");
  if (!json.empty()) sweep.write_json(json, "amrcplx/sweep");
  return 0;
}

int cmd_mesh(int argc, char** argv) {
  const std::int64_t ranks = arg_int(argc, argv, "ranks", 512);
  const std::string sfc_name = arg_value(argc, argv, "sfc", "z-order");
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

int cmd_serve(int argc, char** argv) {
  if (has_flag(argc, argv, "help")) {
    std::printf(
        "usage: amrcplx serve [--flag=value] < jobs  |  --file=JOBS\n"
        "multiplex a batch of simulation jobs over one process.\n"
        "protocol (one request per line):\n"
        "  {\"policy\": \"cpl50\", \"ranks\": 64, \"steps\": 40, ...}\n"
        "      submit a job; fields mirror `amrcplx run` flags\n"
        "      (id, workload, policy, ranks, steps, execution,\n"
        "       aggregate, comm_adaptive, pack_threshold, send_priority,\n"
        "       des_shards, auto_cplx, cplx_budget_ms,\n"
        "       placement_incremental, sedov_max_level, checkpoint_every,\n"
        "       checkpoint_dir, restore, replay, faults)\n"
        "  query <job-id> select ...   results endpoint (see README)\n"
        "  stats                       scheduler counters\n"
        "  # comment\n"
        "flags:\n"
        "  --file=JOBS          (read requests from a file, not stdin)\n"
        "  --quantum-steps=N    (steps per tenant slice; default 16)\n"
        "  --serve-jobs=N       (tenants sliced concurrently; default 1)\n"
        "  --max-resident=MB    (evict cold sims to snapshots beyond this\n"
        "                        budget; -1 unlimited, 0 evicts all idle)\n"
        "  --spill-dir=D        (eviction snapshot directory; default .)\n"
        "  --no-share           (disable cross-tenant plan sharing)\n"
        "  --stats              (print scheduler counters to stderr)\n");
    return 0;
  }
  // Unlike run/sweep, serve consumes stdin — a silently ignored flag
  // typo would hang waiting for jobs, so reject unknown flags here.
  static const char* const kServeFlags[] = {
      "file",     "quantum-steps", "serve-jobs", "max-resident",
      "spill-dir", "no-share",     "stats",      "help"};
  for (int i = 2; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.rfind("--", 0) != 0) continue;
    const std::string_view body = a.substr(2, a.find('=') - 2);
    bool known = false;
    for (const char* f : kServeFlags) known = known || body == f;
    if (!known) {
      std::fprintf(stderr,
                   "amrcplx serve: unrecognized flag --%.*s; see "
                   "`amrcplx serve --help`\n",
                   static_cast<int>(body.size()), body.data());
      return 2;
    }
  }
  serve::ServeOptions opts;
  opts.quantum_steps = arg_int(argc, argv, "quantum-steps", 16);
  opts.serve_jobs =
      static_cast<int>(arg_int(argc, argv, "serve-jobs", 1));
  opts.max_resident_mb = arg_int(argc, argv, "max-resident", -1);
  opts.spill_dir = arg_value(argc, argv, "spill-dir", ".");
  opts.share_plans = !has_flag(argc, argv, "no-share");
  if (opts.quantum_steps <= 0) {
    std::fprintf(stderr, "amrcplx: --quantum-steps must be positive\n");
    return 2;
  }
  if (opts.serve_jobs < 1) {
    std::fprintf(stderr, "amrcplx: --serve-jobs must be >= 1\n");
    return 2;
  }
  const std::string file = arg_value(argc, argv, "file", "");
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
  if (has_flag(argc, argv, "stats")) {
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

int cmd_policies() {
  std::printf("policies: baseline lpt cdp cdp-general cdp-bsearch "
              "chunked-cdp[/N] cpl0..cpl100 zonal/N/<inner>\n");
  std::printf("(graphcut is mesh-bound: see GraphCutPolicy in the API)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "run") return cmd_run(argc, argv);
  if (cmd == "sweep") return cmd_sweep(argc, argv);
  if (cmd == "serve") return cmd_serve(argc, argv);
  if (cmd == "mesh") return cmd_mesh(argc, argv);
  if (cmd == "policies") return cmd_policies();
  std::fprintf(stderr,
               "usage: amrcplx <run|sweep|serve|mesh|policies> "
               "[--flag=value]\n"
               "  run    --workload=sedov|cooling --policy=NAME "
               "--ranks=N --steps=N --execution=bsp|overlap\n"
               "         --trace-out=FILE.json [--trace-capacity=N] "
               "(Perfetto / chrome://tracing)\n"
               "         --checkpoint-every=K --checkpoint-dir=D "
               "--restore=FILE | --replay=FILE (see run --help)\n"
               "  sweep  --ranks=N --steps=N --jobs=N [--aggregate] "
               "[--comm-adaptive] [--send-priority]\n"
               "         [--execution=bsp|overlap] [--des-shards=N] "
               "[--placement-incremental] [--json=FILE]\n"
               "  serve  --file=JOBS --quantum-steps=N --serve-jobs=N "
               "--max-resident=MB (see serve --help)\n"
               "  mesh   --ranks=N --sfc=z-order|hilbert\n");
  return cmd.empty() ? 1 : 2;
}
