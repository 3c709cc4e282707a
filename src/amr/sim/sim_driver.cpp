#include "amr/sim/sim_driver.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "amr/faults/injector.hpp"
#include "amr/simmpi/comm.hpp"
#include "amr/workloads/cooling.hpp"
#include "amr/workloads/sedov.hpp"

namespace amr {

namespace {

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   args);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(args);
}

/// JobSpec::aggregate is a second spelling of `comm_adaptive` for API
/// callers; this is the one place it resolves.
bool packs_messages(const JobSpec& spec) {
  return spec.comm_adaptive || spec.aggregate;
}

constexpr JobField kJobFields[] = {
    {"id", &JobSpec::id, "label that `query <id>` lines name (serve)"},
    {"workload", &JobSpec::workload, "sedov | cooling"},
    {"policy", &JobSpec::policy,
     "placement policy (see `amrcplx policies`)"},
    {"ranks", &JobSpec::ranks,
     "simulated MPI ranks, a power of two (16 per node)"},
    {"steps", &JobSpec::steps, "timesteps"},
    {"execution", &JobSpec::overlap,
     "bsp, or overlap: task-graph steps that overlap compute and "
     "communication",
     "bsp", "overlap"},
    {"overlap", &JobSpec::overlap, "same as execution=overlap"},
    {"comm_adaptive", &JobSpec::comm_adaptive,
     "per-peer packing: coalesce each (src,dst) pair's boundary sends of "
     "a step into one transfer"},
    {"aggregate", &JobSpec::comm_adaptive, "same as comm_adaptive"},
    {"pack_threshold", &JobSpec::pack_threshold,
     "packing threshold in mean bytes/message (needs comm_adaptive; "
     "-1 = modeled)"},
    {"send_priority", &JobSpec::send_priority,
     "send to the previous window's critical-path straggler rank first"},
    {"auto_cplx", &JobSpec::auto_cplx,
     "self-tuning CPLX: pick X per regrid epoch from an online "
     "step-time model"},
    {"cplx_budget_ms", &JobSpec::cplx_budget_ms,
     "auto-X evaluation budget (needs auto_cplx; -1 = 50 ms)"},
    {"placement_incremental", &JobSpec::placement_incremental,
     "incremental parallel placement engine for CPLX policies (same "
     "output as a full rebuild)"},
    {"sedov_max_level", &JobSpec::sedov_max_level,
     "Sedov refinement depth (0 = workload default)"},
    {"checkpoint_every", &JobSpec::checkpoint_every,
     "write ckpt_<step>.amrs every K steps (0 = never)"},
    {"checkpoint_dir", &JobSpec::checkpoint_dir, "checkpoint directory"},
    {"restore", &JobSpec::restore,
     "resume from a snapshot; stdout matches the uninterrupted run"},
    {"replay", &JobSpec::replay,
     "like restore, to re-drive the run under another policy"},
    {"faults", &JobSpec::fault_nodes,
     "throttle N nodes x4 for the middle half of the run (victims from "
     "the seed)"},
};

}  // namespace

std::span<const JobField> job_fields() { return kJobFields; }

const JobField* find_job_field(std::string_view name) {
  for (const JobField& f : kJobFields)
    if (name == f.name) return &f;
  return nullptr;
}

std::string job_field_kind(const JobField& field) {
  if (field.on != nullptr)
    return std::string("\"") + field.off + "\" or \"" + field.on + "\"";
  if (std::holds_alternative<std::string JobSpec::*>(field.member))
    return "a string";
  if (std::holds_alternative<bool JobSpec::*>(field.member))
    return "a boolean";
  if (std::holds_alternative<std::int32_t JobSpec::*>(field.member))
    return "a 32-bit integer";
  return "an integer";
}

std::string set_job_field(JobSpec& spec, const JobField& field,
                          const JobValue& value) {
  const bool ok = std::visit(
      [&](auto JobSpec::* member) {
        auto& dst = spec.*member;
        using T = std::remove_reference_t<decltype(dst)>;
        if constexpr (std::is_same_v<T, bool>) {
          if (field.on != nullptr) {
            const auto* word = std::get_if<std::string>(&value);
            if (word == nullptr || (*word != field.off && *word != field.on))
              return false;
            dst = *word == field.on;
            return true;
          }
        }
        // Integers arrive as int64; an int32 member takes only values
        // that fit.
        using Want = std::conditional_t<std::is_same_v<T, std::int32_t>,
                                        std::int64_t, T>;
        const auto* v = std::get_if<Want>(&value);
        if (v == nullptr) return false;
        if constexpr (std::is_same_v<T, std::int32_t>)
          if (!std::in_range<T>(*v)) return false;
        dst = static_cast<T>(*v);
        return true;
      },
      field.member);
  return ok ? "" : "must be " + job_field_kind(field);
}

std::string job_field_text(const JobSpec& spec, const JobField& field) {
  return std::visit(
      [&](auto JobSpec::* member) -> std::string {
        const auto& v = spec.*member;
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>)
          return v.empty() ? "\"\"" : v;
        else if constexpr (std::is_same_v<T, bool>)
          return field.on != nullptr ? (v ? field.on : field.off)
                                     : (v ? "true" : "false");
        else
          return std::to_string(v);
      },
      field.member);
}

std::string validate_job(const JobSpec& spec) {
  if (spec.ranks <= 0) return "ranks must be positive";
  if (spec.ranks > Comm::kMaxRanks)
    return "ranks must be at most " + std::to_string(Comm::kMaxRanks);
  if ((spec.ranks & (spec.ranks - 1)) != 0)
    return "ranks must be a power of two";
  if (spec.steps <= 0) return "steps must be positive";
  if (spec.workload != "sedov" && spec.workload != "cooling")
    return "unknown workload " + spec.workload + " (sedov | cooling)";
  if (spec.fault_nodes < 0) return "--faults must be >= 0";
  if (spec.checkpoint_every < 0) return "--checkpoint-every must be >= 0";
  if (spec.sedov_max_level < 0) return "--sedov-max-level must be >= 0";
  if (spec.pack_threshold < -1) return "--pack-threshold must be >= -1";
  if (!spec.restore.empty() && !spec.replay.empty())
    return "--restore and --replay are mutually exclusive";
  if (spec.pack_threshold >= 0 && !packs_messages(spec))
    return "--pack-threshold requires --comm-adaptive";
  if (spec.cplx_budget_ms >= 0 && !spec.auto_cplx)
    return "--cplx-budget-ms requires --auto-cplx";
  if (spec.auto_cplx && spec.cplx_budget_ms == 0)
    return "--cplx-budget-ms must be positive";
  return "";
}

RootGrid grid_for_ranks(std::int64_t ranks) {
  std::uint32_t nx = 1;
  std::uint32_t ny = 1;
  std::uint32_t nz = 1;
  int axis = 2;  // grow z first: 8x8x16 at 1024 like the paper
  for (std::int64_t r = ranks; r > 1; r /= 2) {
    (axis == 0 ? nx : axis == 1 ? ny : nz) *= 2;
    axis = (axis + 2) % 3;
  }
  return RootGrid{nx, ny, nz};
}

SimulationConfig base_sim_config(std::int64_t ranks, std::int64_t steps) {
  SimulationConfig cfg;
  cfg.nranks = static_cast<std::int32_t>(ranks);
  cfg.ranks_per_node = 16;
  cfg.root_grid = grid_for_ranks(ranks);
  cfg.steps = steps;
  cfg.collect_telemetry = false;
  return cfg;
}

void add_fault_schedule(SimulationConfig& cfg, std::int32_t fault_nodes,
                        std::int64_t steps) {
  if (fault_nodes <= 0) return;
  const std::int32_t nodes = std::max(1, cfg.nranks / cfg.ranks_per_node);
  Rng victims(cfg.seed ^ 0xfa17u);
  ThrottleFault fault;
  fault.nodes =
      pick_victim_nodes(nodes, std::min(fault_nodes, nodes), victims);
  fault.factor = 4.0;
  fault.onset_step = steps / 4;
  fault.end_step = (3 * steps) / 4;
  cfg.faults.add_throttle(fault);
}

SimulationConfig job_config(const JobSpec& spec) {
  SimulationConfig cfg = base_sim_config(spec.ranks, spec.steps);
  cfg.collect_telemetry = spec.collect_telemetry;
  cfg.execution =
      spec.overlap ? ExecutionMode::kOverlap : ExecutionMode::kBsp;
  // The overlap builder has no flux path; keep the fingerprint honest so
  // restores cannot silently claim flux messages.
  cfg.include_flux_correction = cfg.execution == ExecutionMode::kBsp;
  cfg.comm_adaptive = packs_messages(spec);
  cfg.comm_pack_threshold = spec.pack_threshold;
  cfg.send_priority = spec.send_priority;
  cfg.auto_cplx = spec.auto_cplx;
  cfg.placement_incremental = spec.placement_incremental;
  if (spec.cplx_budget_ms > 0)
    cfg.cplx_budget_ms = static_cast<double>(spec.cplx_budget_ms);
  cfg.checkpoint_every = spec.checkpoint_every;
  cfg.checkpoint_dir = spec.checkpoint_dir;
  if (spec.trace) {
    cfg.trace_enabled = true;
    if (spec.trace_capacity > 0) cfg.trace.capacity = spec.trace_capacity;
  }
  add_fault_schedule(cfg, spec.fault_nodes, spec.steps);
  return cfg;
}

std::unique_ptr<Workload> make_job_workload(const JobSpec& spec) {
  if (spec.workload == "sedov") {
    SedovParams p;
    p.total_steps = spec.steps;
    if (spec.sedov_max_level > 0) p.max_level = spec.sedov_max_level;
    return std::make_unique<SedovWorkload>(p);
  }
  if (spec.workload == "cooling")
    return std::make_unique<CoolingWorkload>(CoolingParams{});
  return nullptr;
}

std::string compact_report_text(const RunReport& r, bool show_packing) {
  std::string out;
  const double total = r.phases.total();
  appendf(out,
          "policy %s: wall %.4f s | compute %.1f%% comm %.1f%% sync "
          "%.1f%% rebal %.1f%%\n",
          r.policy.c_str(), r.wall_seconds, 100 * r.phases.compute / total,
          100 * r.phases.comm / total, 100 * r.phases.sync / total,
          100 * r.phases.rebalance / total);
  appendf(out,
          "  blocks %zu -> %zu | %lld redistributions, %lld moved, "
          "%lld over budget\n",
          r.initial_blocks, r.final_blocks,
          static_cast<long long>(r.lb_invocations),
          static_cast<long long>(r.blocks_migrated),
          static_cast<long long>(r.budget_violations));
  appendf(out,
          "  msgs: %lld local, %lld remote, %lld memcpy | critical "
          "paths: %lld 1-rank, %lld 2-rank\n",
          static_cast<long long>(r.msgs_local),
          static_cast<long long>(r.msgs_remote),
          static_cast<long long>(r.msgs_intra_rank),
          static_cast<long long>(r.critical_path.one_rank_paths),
          static_cast<long long>(r.critical_path.two_rank_paths));
  // Only in packing modes: legacy stdout stays byte-identical.
  if (show_packing) {
    appendf(out,
            "  aggregation: %lld msgs coalesced, %lld bytes packed\n",
            static_cast<long long>(r.msgs_coalesced),
            static_cast<long long>(r.bytes_packed));
  }
  return out;
}

std::string verbose_report_text(const RunReport& report, bool timing,
                                bool show_packing) {
  std::string out;
  appendf(out, "\n== run report: %s ==\n", report.policy.c_str());
  appendf(out, "wall time            %10.3f s (simulated)\n",
          report.wall_seconds);
  const double total = report.phases.total();
  appendf(out, "  compute            %10.3f s (%4.1f%%)\n",
          report.phases.compute, 100 * report.phases.compute / total);
  appendf(out, "  communication      %10.3f s (%4.1f%%)\n",
          report.phases.comm, 100 * report.phases.comm / total);
  appendf(out, "  synchronization    %10.3f s (%4.1f%%)\n",
          report.phases.sync, 100 * report.phases.sync / total);
  appendf(out, "  rebalancing        %10.3f s (%4.1f%%)\n",
          report.phases.rebalance, 100 * report.phases.rebalance / total);
  appendf(out, "blocks               %zu -> %zu\n", report.initial_blocks,
          report.final_blocks);
  appendf(out, "redistributions      %lld (moved %lld blocks)\n",
          static_cast<long long>(report.lb_invocations),
          static_cast<long long>(report.blocks_migrated));
  // Placement wall-clock is host-measured (nondeterministic), so it only
  // prints under --timing; everything else is simulated time and
  // byte-stable across --jobs.
  if (timing && !report.placement_ms.empty()) {
    double max_ms = 0;
    double sum_ms = 0;
    for (const double m : report.placement_ms) {
      max_ms = std::max(max_ms, m);
      sum_ms += m;
    }
    appendf(out,
            "placement compute    mean %.3f ms, max %.3f ms "
            "(budget: 50 ms)\n",
            sum_ms / static_cast<double>(report.placement_ms.size()),
            max_ms);
  }
  appendf(out,
          "P2P messages         %lld local, %lld remote (%.0f%% remote), "
          "%lld memcpy'd\n",
          static_cast<long long>(report.msgs_local),
          static_cast<long long>(report.msgs_remote),
          100.0 * static_cast<double>(report.msgs_remote) /
              static_cast<double>(std::max<std::int64_t>(
                  1, report.msgs_local + report.msgs_remote)),
          static_cast<long long>(report.msgs_intra_rank));
  // Printed only in packing modes so legacy stdout stays byte-identical.
  if (show_packing) {
    const std::int64_t transfers = report.msgs_local + report.msgs_remote;
    appendf(out,
            "aggregation          %lld msgs coalesced into %lld transfers "
            "(%.2fx), %lld bytes packed\n",
            static_cast<long long>(report.msgs_coalesced),
            static_cast<long long>(transfers),
            static_cast<double>(report.msgs_coalesced + transfers) /
                static_cast<double>(std::max<std::int64_t>(1, transfers)),
            static_cast<long long>(report.bytes_packed));
  }
  appendf(out,
          "critical paths       %lld windows: %lld one-rank, "
          "%lld two-rank\n",
          static_cast<long long>(report.critical_path.windows),
          static_cast<long long>(report.critical_path.one_rank_paths),
          static_cast<long long>(report.critical_path.two_rank_paths));
  return out;
}

SimDriver::SimDriver(const JobSpec& spec, SharedPlanStore* shared_plans)
    : spec_(spec) {
  const std::string err = validate_job(spec_);
  if (!err.empty()) throw std::runtime_error(err);
  config_ = job_config(spec_);
  config_.shared_plans = shared_plans;
  workload_ = make_job_workload(spec_);  // validate_job knows the names
  policy_ = make_policy(spec_.policy);  // throws on an unknown policy
  sim_ = std::make_unique<Simulation>(config_, *workload_, *policy_);
  const std::string snapshot =
      !spec_.restore.empty() ? spec_.restore : spec_.replay;
  if (!snapshot.empty()) {
    sim_->restore_checkpoint(snapshot);  // throws SnapshotError on mismatch
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s %s at step %lld (policy=%s)",
                  spec_.replay.empty() ? "restored" : "replaying",
                  snapshot.c_str(),
                  static_cast<long long>(sim_->current_step()),
                  policy_->name().c_str());
    restore_note_ = buf;
  }
}

SimDriver::~SimDriver() = default;

}  // namespace amr
