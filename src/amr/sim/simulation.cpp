#include "amr/sim/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "amr/common/check.hpp"
#include "amr/common/log.hpp"
#include "amr/common/stats.hpp"
#include "amr/io/snapshot.hpp"
#include "amr/placement/baseline.hpp"
#include "amr/placement/chunked_cdp.hpp"
#include "amr/placement/cplx.hpp"
#include "amr/placement/metrics.hpp"
#include "amr/sim/sim_state.hpp"

namespace amr {
namespace {

/// Real (host) wall-clock of a placement computation, in milliseconds —
/// the quantity the paper's 50 ms budget constrains.
template <typename Fn>
double timed_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::string checkpoint_path(const std::string& dir, std::int64_t step) {
  return dir + "/ckpt_" + std::to_string(step) + ".amrs";
}

/// Stage-1 share of each block's compute when an overlap step runs
/// two-stage (packing active). Stage 1 is the interior update plus
/// ghost production; only the ghost-DEPENDENT boundary shell waits for
/// arrivals in stage 2. For a 64^3 block with a 2-cell ghost shell the
/// dependent fraction is ~1-(60/64)^3 ~ 18% of cells, so stage 1 gets
/// ~0.8 of the cost. A larger stage 1 shrinks the arrival-gated tail
/// that transfer latency can stall (the bench plateaus at ~0.8).
constexpr double kOverlapStageSplit = 0.8;

/// Boundary-exchange and migration message sizes (16^3 blocks, 2-cell
/// ghosts, 5 variables).
constexpr MessageSizeModel kMsgSizes{};

/// Deterministic rebalance-phase charge per invocation (placement
/// computation inside the run); real wall-clock placement times are
/// reported separately for the Fig 7c budget analysis. It is the
/// paper's 50 ms budget scaled to the simulator's time units (block
/// kernels run ~1000x faster than the 250 ms production timesteps).
constexpr TimeNs kPlacementCharge = us(50.0);

/// Block-migration bandwidth during redistribution.
constexpr double kMigrationGbytesPerSec = 4.0;

}  // namespace

Simulation::Simulation(SimulationConfig config, Workload& workload,
                       const PlacementPolicy& policy)
    : config_(std::move(config)), workload_(workload), policy_(policy) {
  if (config_.trace_enabled) {
    TraceConfig tc = config_.trace;
    tc.ranks_per_node = config_.ranks_per_node;
    tracer_ = std::make_unique<Tracer>(tc);
  }
}

Simulation::~Simulation() = default;

std::int64_t Simulation::current_step() const {
  return state_ ? state_->step : 0;
}

const StepPipelineStats& Simulation::pipeline_stats() const {
  static const StepPipelineStats kEmpty;
  return state_ ? state_->pipeline_stats : kEmpty;
}

std::int64_t Simulation::plan_share_hits() const {
  return runtime_ ? runtime_->plan_cache.stats().share_hits : 0;
}

bool Simulation::sync_measured_costs(const AmrMesh& mesh) {
  SimState& st = *state_;
  if (!st.measured_valid) return false;
  while (st.measured_version != mesh.version()) {
    const MeshRemap* r = mesh.remap_to(st.measured_version + 1);
    if (r == nullptr || r->old_size != st.measured_flat.size()) {
      // The regrid record aged out of the mesh's bounded history; the
      // carried telemetry can no longer be renumbered. Drop it — the
      // next placement sees uniform costs, exactly as on a cold start.
      st.measured_valid = false;
      ++st.pipeline_stats.telemetry_drops;
      return false;
    }
    auto& scratch = runtime_->cost_scratch;
    scratch.resize(r->src.size());
    for (std::size_t b = 0; b < r->src.size(); ++b) {
      const auto src = static_cast<std::size_t>(r->src[b]);
      switch (r->kind[b]) {
        case RemapKind::kCarried:
          scratch[b] = st.measured_flat[src];
          break;
        case RemapKind::kRefined:
          // Fresh refinement: inherit the measured cost of the ancestor.
          scratch[b] = st.measured_flat[src];
          break;
        case RemapKind::kCoarsened: {
          // Fresh coarsening: average of the eight collapsed children,
          // which occupy consecutive old IDs starting at src.
          TimeNs sum = 0;
          for (std::size_t c = 0; c < 8; ++c)
            sum += st.measured_flat[src + c];
          scratch[b] = sum / 8;
          break;
        }
      }
    }
    st.measured_flat.swap(scratch);
    ++st.measured_version;
  }
  return true;
}

bool Simulation::estimated_costs(const AmrMesh& mesh,
                                 std::vector<TimeNs>& out) {
  out.resize(mesh.size());
  if (!sync_measured_costs(mesh)) {
    // Framework default: every block costs 1 (paper §V-A3).
    std::fill(out.begin(), out.end(), TimeNs{1});
    return false;
  }
  std::copy(state_->measured_flat.begin(), state_->measured_flat.end(),
            out.begin());
  return true;
}

void Simulation::remember_costs(const AmrMesh& mesh,
                                std::span<const TimeNs> measured) {
  state_->measured_flat.assign(measured.begin(), measured.end());
  state_->measured_version = mesh.version();
  state_->measured_valid = true;
}

void Simulation::previous_ranks(const AmrMesh& mesh,
                                std::uint64_t from_version,
                                const Placement& placement,
                                std::vector<std::int32_t>& prev_rank) {
  // Compose the renumbering records forward from the version the
  // placement was computed at: a block keeps its previous rank only while
  // it is carried; blocks created by refine/coarsen have none (-1).
  auto& a = runtime_->rank_scratch_a;
  auto& b_scr = runtime_->rank_scratch_b;
  a.assign(placement.begin(), placement.end());
  for (std::uint64_t v = from_version + 1; v <= mesh.version(); ++v) {
    const MeshRemap* r = mesh.remap_to(v);
    if (r == nullptr || r->old_size != a.size()) {
      prev_rank.assign(mesh.size(), -1);
      return;
    }
    b_scr.resize(r->src.size());
    for (std::size_t b = 0; b < r->src.size(); ++b)
      b_scr[b] = r->kind[b] == RemapKind::kCarried
                     ? a[static_cast<std::size_t>(r->src[b])]
                     : -1;
    a.swap(b_scr);
  }
  prev_rank = a;
}

void Simulation::begin_run() {
  runtime_ = std::make_unique<SimRuntime>(config_, tracer_.get());
  state_ = std::make_unique<SimState>(config_);
  SimState& st = *state_;

  // Auto-X runs name the tuner, not the seed policy: the policy only
  // contributes the initial placement and the CPLX chunk width.
  st.report.policy = config_.auto_cplx ? "auto-cplx" : policy_.name();
  st.report.initial_blocks = st.mesh.size();
  st.report.rank_compute_seconds.assign(
      static_cast<std::size_t>(config_.nranks), 0.0);

  // Initial placement: no telemetry exists yet, costs default to uniform.
  {
    const std::vector<double> uniform(st.mesh.size(), 1.0);
    st.placement = policy_.place(uniform, config_.nranks);
  }
  begun_ = true;
}

void Simulation::step_once() {
  SimState& st = *state_;
  SimRuntime& rt = *runtime_;
  AmrMesh& mesh = st.mesh;
  Engine& engine = rt.engine;
  Tracer* const tracer = tracer_.get();
  RunReport& report = st.report;
  const std::int64_t step = st.step;

  // -- Mesh evolution + redistribution ------------------------------
  const std::uint64_t pre_evolve_version = mesh.version();
  const bool changed = workload_.evolve(mesh, step);
  if (tracer != nullptr && mesh.version() != pre_evolve_version) {
    // How much of the renumbering the delta merge preserved: carried
    // blocks re-keyed for free vs. total blocks, per regrid epoch.
    for (std::uint64_t v = pre_evolve_version + 1; v <= mesh.version();
         ++v) {
      const MeshRemap* r = mesh.remap_to(v);
      if (r != nullptr && !r->src.empty())
        tracer->counter(Tracer::kTrackSim, TraceCat::kRebalance,
                        "delta-carried-permille", engine.now(),
                        static_cast<std::int64_t>(r->carried * 1000 /
                                                  r->src.size()));
    }
  }
  if (changed || st.placement.size() != mesh.size() ||
      config_.trigger.fire(false, step, st.last_imbalance)) {
    ++report.lb_invocations;
    const bool costs_informative = estimated_costs(mesh, rt.est);
    rt.est_d.resize(rt.est.size());
    for (std::size_t i = 0; i < rt.est.size(); ++i)
      rt.est_d[i] = static_cast<double>(rt.est[i]);

    const auto* cplx = dynamic_cast<const CplxPolicy*>(&policy_);
    const std::int32_t chunk = cplx != nullptr ? cplx->chunk_ranks() : 512;

    AutoXTuner::Decision decision;
    double observed_ns = 0.0;
    Placement next;
    if (config_.auto_cplx) {
      AutoXTuner& tuner = *rt.auto_tuner;
      // Close the loop on the previous epoch: mean executed-window wall
      // (simulated ns per step) under the placement the tuner chose.
      if (st.epoch_steps > 0) {
        observed_ns = static_cast<double>(st.epoch_wall_ns) /
                      static_cast<double>(st.epoch_steps);
        tuner.observe(st.tuner, observed_ns);
      }
      st.epoch_steps = 0;
      st.epoch_wall_ns = 0;
      report.placement_ms.push_back(timed_ms([&] {
        tuner.budget_candidates(st.tuner, mesh.size(), rt.cand_indices);
        rt.cand_xs.resize(rt.cand_indices.size());
        for (std::size_t i = 0; i < rt.cand_indices.size(); ++i)
          rt.cand_xs[i] = tuner.config().candidates[static_cast<std::size_t>(
              rt.cand_indices[i])];
        rt.placement_engine.evaluate_candidates(
            rt.est_d, config_.nranks, rt.cand_xs, chunk, mesh, rt.topo,
            kMsgSizes, rt.cand_evals);
        decision = tuner.choose(st.tuner, rt.cand_indices, rt.cand_evals);
        // Uninformative (uniform-default) cost estimates make mean_load
        // a meaningless scale: keep the decision pending so the measured
        // table still learns, but mark it unscaled so one garbage-scale
        // sample cannot poison the RLS weights.
        if (!costs_informative) st.tuner.last_scale = 0.0;
        next = std::move(
            rt.cand_evals[static_cast<std::size_t>(decision.slot)].placement);
      }));
    } else {
      report.placement_ms.push_back(timed_ms(
          [&] { next = policy_.place(rt.est_d, config_.nranks); }));
    }
    AMR_CHECK(placement_valid(next, mesh.size(), config_.nranks));
    if (report.placement_ms.back() > config_.placement_budget_ms) {
      ++report.budget_violations;
      if (config_.enforce_placement_budget) {
        // Over budget: fall back to the always-cheap baseline split
        // for this invocation (the paper's hard 50 ms constraint).
        next = BaselinePolicy().place(rt.est_d, config_.nranks);
      }
    }

    // Migration: blocks whose rank changed move their payload; charge
    // the slowest rank's transfer plus the placement-computation
    // budget as the rebalance wall for this invocation. A block's
    // previous rank follows the renumbering records; freshly
    // refined/coarsened blocks have none and migrate for free.
    previous_ranks(mesh, st.placement_mesh_version, st.placement,
                   rt.prev_rank);
    rt.migrate_bytes.assign(static_cast<std::size_t>(config_.nranks), 0);
    const std::int64_t block_bytes = kMsgSizes.block_payload_bytes();
    std::int64_t moved = 0;
    for (std::size_t b = 0; b < mesh.size(); ++b) {
      const std::int32_t old_rank = rt.prev_rank[b];
      if (old_rank >= 0 && old_rank != next[b]) {
        ++moved;
        rt.migrate_bytes[static_cast<std::size_t>(old_rank)] +=
            block_bytes;
        rt.migrate_bytes[static_cast<std::size_t>(next[b])] +=
            block_bytes;
      }
    }
    report.blocks_migrated += moved;
    const std::int64_t max_bytes = *std::max_element(
        rt.migrate_bytes.begin(), rt.migrate_bytes.end());
    const TimeNs migration =
        static_cast<TimeNs>(static_cast<double>(max_bytes) /
                            kMigrationGbytesPerSec);
    const TimeNs rebalance_wall = migration + kPlacementCharge;
    if (tracer != nullptr)
      tracer->complete(Tracer::kTrackSim, TraceCat::kRebalance,
                       "rebalance", engine.now(), rebalance_wall, moved,
                       step);
    engine.run_until(engine.now() + rebalance_wall);

    const double rebalance_s = to_sec(rebalance_wall);
    report.phases.rebalance += rebalance_s;
    if (config_.collect_telemetry) {
      for (std::int32_t r = 0; r < config_.nranks; ++r)
        collector_.record_phase(step, r, Phase::kRebalance,
                                rebalance_wall);
    }

    // Placement-phase telemetry + trace counters: auto-X only, so other
    // runs' tables/traces (and serve's resident-bytes eviction signal)
    // stay byte-identical. Everything recorded is simulated/deterministic.
    if (config_.auto_cplx) {
      const double x_chosen =
          rt.auto_tuner->config()
              .candidates[static_cast<std::size_t>(decision.candidate)];
      if (config_.collect_telemetry) {
        // chunks_reused is always 0 (no chunk solve is reused); the
        // column stays for the table's readers.
        collector_.record_placement(
            step, x_chosen, decision.mode,
            static_cast<std::int64_t>(rt.cand_indices.size()), 0,
            chunk_count(config_.nranks, chunk), moved,
            decision.predicted_ns, observed_ns, st.tuner.err_ewma);
      }
      if (tracer != nullptr) {
        tracer->counter(Tracer::kTrackSim, TraceCat::kRebalance, "auto-x",
                        engine.now(), static_cast<std::int64_t>(x_chosen));
        tracer->counter(Tracer::kTrackSim, TraceCat::kRebalance,
                        "tuner-fallback-epochs", engine.now(),
                        st.tuner.fallback_epochs);
      }
    }

    // Plan-key skip: under auto-X, when redistribution reproduced the
    // current placement under an unchanged mesh numbering, keep the
    // (mesh, placement) version pair so the exchange-plan cache serves
    // the next step instead of rebuilding identical plans. Other runs
    // always bump.
    const bool plan_reusable = config_.auto_cplx &&
                               mesh.version() == st.placement_mesh_version &&
                               next == st.placement;
    st.placement = std::move(next);
    if (!plan_reusable) ++st.placement_version;
    st.placement_mesh_version = mesh.version();
  }

  // -- Fault transitions (trace instants at onset/clear edges) -------
  if (tracer != nullptr && !config_.faults.empty()) {
    const auto active = config_.faults.active_at(step);
    for (const ActiveFault& f : active) {
      const bool was_active = std::any_of(
          st.prev_faults.begin(), st.prev_faults.end(),
          [&](const ActiveFault& p) { return p.node == f.node; });
      if (!was_active)
        tracer->instant(Tracer::kTrackSim, TraceCat::kFault,
                        "fault-onset", engine.now(), f.node,
                        static_cast<std::int64_t>(f.factor * 100.0));
    }
    for (const ActiveFault& p : st.prev_faults) {
      const bool still_active = std::any_of(
          active.begin(), active.end(),
          [&](const ActiveFault& f) { return f.node == p.node; });
      if (!still_active)
        tracer->instant(Tracer::kTrackSim, TraceCat::kFault,
                        "fault-clear", engine.now(), p.node,
                        static_cast<std::int64_t>(p.factor * 100.0));
    }
    st.prev_faults = active;
  }

  // -- True per-block compute costs (workload x hardware faults) ----
  rt.costs.resize(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b) {
    const double factor = config_.faults.compute_multiplier(
        rt.topo.node_of(st.placement[b]), step);
    rt.costs[b] = static_cast<TimeNs>(
        static_cast<double>(workload_.block_cost(mesh, b, step)) * factor);
  }

  // -- Execute the step ----------------------------------------------
  // Predicted cache behaviour depends only on the version pair, so the
  // emitted counters stay byte-identical across checkpoint/restore,
  // where the live cache is rebuilt and misses once.
  const bool predicted_hit = st.have_plan_key &&
                             st.last_plan_mesh == mesh.version() &&
                             st.last_plan_placement == st.placement_version;
  ++(predicted_hit ? st.pipeline_stats.predicted_hits
                   : st.pipeline_stats.predicted_misses);
  st.have_plan_key = true;
  st.last_plan_mesh = mesh.version();
  st.last_plan_placement = st.placement_version;
  if (tracer != nullptr) {
    tracer->counter(Tracer::kTrackSim, TraceCat::kRebalance,
                    "plan-cache-hits", engine.now(),
                    st.pipeline_stats.predicted_hits);
    tracer->counter(Tracer::kTrackSim, TraceCat::kRebalance,
                    "plan-cache-misses", engine.now(),
                    st.pipeline_stats.predicted_misses);
  }

  const TimeNs exec_start = engine.now();
  StepResult result;
  std::int64_t intra_rank_msgs = 0;
  // Packing is on with comm_adaptive and packs every multi-message
  // pair. Under BSP the receiver waits for all arrivals anyway, so
  // deferring a message into a packed transfer is free. Overlap runs
  // two-stage with fused buffers: contributors write ghost slabs into
  // per-peer aggregates during stage-1 compute and receivers read them
  // in place, so packing costs no CPU on either side. Keeping a pair
  // eager saves at most its launch-delay serialization
  // (~bytes/wire_rate) but pays pack+unpack (~2*bytes/cpu_pack_rate);
  // with the CPU pack rate well below wire bandwidth that trade never
  // favors eager. Singleton pairs go eager: there is nothing to
  // coalesce.
  const bool pack = config_.comm_adaptive;
  // Critical-path send priority: the previous window's straggler is the
  // predicted critical-path successor; its feeders launch first.
  const std::int32_t priority_rank =
      config_.send_priority ? st.last_straggler : -1;
  if (config_.execution == ExecutionMode::kBsp) {
    const BspPlan& plan = rt.plan_cache.step_work(
        mesh, st.placement, st.placement_version, rt.costs, config_.nranks,
        kMsgSizes, config_.include_flux_correction, pack,
        config_.ordering);
    result = rt.bsp_executor->execute(
        plan, static_cast<std::uint64_t>(step), priority_rank);
    for (const auto& w : plan.ranks) intra_rank_msgs += w.local_copy_msgs;
  } else {
    // With packing active the step runs two-stage: stage-1 compute
    // produces the ghosts, so per-peer aggregates launch incrementally
    // as their last contributor finishes instead of queueing the whole
    // exchange at step start. Packing-off keeps the legacy single-stage
    // plan (previous-step ghosts), bit-identical to pre-adaptive runs.
    const double stage_frac = pack ? kOverlapStageSplit : 0.0;
    const OverlapPlan& plan = rt.plan_cache.overlap_work(
        mesh, st.placement, st.placement_version, rt.costs, config_.nranks,
        kMsgSizes, pack, stage_frac);
    result = rt.overlap_executor->execute(
        plan, static_cast<std::uint64_t>(step), priority_rank);
    for (const auto& w : plan.ranks) intra_rank_msgs += w.local_copy_msgs;
  }
  report.msgs_intra_rank += intra_rank_msgs;
  if (config_.auto_cplx) {
    // Executed-window wall feeds the tuner at the next redistribution
    // (simulated time: deterministic and checkpoint-stable).
    ++st.epoch_steps;
    st.epoch_wall_ns += engine.now() - exec_start;
  }
  const WindowPath path = rt.critical_path.observe(result);
  st.last_straggler = path.straggler;

  // -- Critical-path overlay (paper §IV-D) ---------------------------
  // A dedicated track carries one span per window naming the modeled
  // critical path; the straggler's own track gets an instant so the
  // path is visible in rank context too.
  if (tracer != nullptr && path.straggler >= 0) {
    const RankStepStats& straggler_stats =
        result.ranks[static_cast<std::size_t>(path.straggler)];
    tracer->complete(
        Tracer::kTrackCrit, TraceCat::kCritPath,
        path.two_rank ? "crit:2-rank" : "crit:1-rank", result.step_start,
        straggler_stats.collective_entry - result.step_start,
        path.straggler, path.release_src);
    tracer->instant(path.straggler, TraceCat::kCritPath,
                    "on-critical-path", straggler_stats.collective_entry,
                    step, path.release_src);
  }

  // Measured compute imbalance feeds the optional rebalance trigger.
  {
    RunningStats s;
    for (const auto& r : result.ranks)
      s.add(static_cast<double>(r.compute_ns));
    st.last_imbalance = s.mean() > 0.0 ? s.max() / s.mean() : 1.0;
  }

  // -- Telemetry ------------------------------------------------------
  // Measured cost = what the profiler sees: the fault-inflated kernel
  // time. Placement models are built from this, which is precisely why
  // fail-slow hardware must be pruned rather than "balanced around".
  remember_costs(mesh, rt.costs);

  const double inv_ranks = 1.0 / static_cast<double>(config_.nranks);
  for (std::size_t r = 0; r < result.ranks.size(); ++r) {
    const RankStepStats& s = result.ranks[r];
    report.phases.compute += to_sec(s.compute_ns) * inv_ranks;
    report.phases.comm += to_sec(s.comm_ns()) * inv_ranks;
    report.phases.sync += to_sec(s.sync_ns) * inv_ranks;
    report.rank_compute_seconds[r] += to_sec(s.compute_ns);
    report.msgs_local += s.msgs_local;
    report.msgs_remote += s.msgs_remote;
    report.bytes_local += s.bytes_local;
    report.bytes_remote += s.bytes_remote;
    report.msgs_coalesced += s.msgs_coalesced;
    report.bytes_packed += s.bytes_packed;
    if (config_.collect_telemetry) {
      const auto rank = static_cast<std::int32_t>(r);
      collector_.record_phase(step, rank, Phase::kCompute, s.compute_ns);
      collector_.record_phase(step, rank, Phase::kComm, s.comm_ns());
      collector_.record_phase(step, rank, Phase::kSync, s.sync_ns);
      collector_.record_comm(step, rank, s.msgs_local, s.msgs_remote,
                             s.bytes_local, s.bytes_remote, s.send_wait_ns,
                             s.recv_wait_ns, s.msgs_coalesced,
                             s.bytes_packed);
    }
  }

  // Cumulative packing counters on the sim track. Emitted only when
  // packing is on so legacy traces stay byte-identical.
  if (tracer != nullptr && config_.comm_adaptive) {
    tracer->counter(Tracer::kTrackSim, TraceCat::kMsg, "msgs_coalesced",
                    engine.now(), report.msgs_coalesced);
    tracer->counter(Tracer::kTrackSim, TraceCat::kMsg, "bytes_packed",
                    engine.now(), report.bytes_packed);
  }

  ++st.step;
}

RunReport Simulation::finish_run() {
  SimState& st = *state_;
  st.pipeline_stats.plan_hits =
      st.plan_hits_base + runtime_->plan_cache.stats().hits;
  st.pipeline_stats.plan_misses =
      st.plan_misses_base + runtime_->plan_cache.stats().misses;
  st.pipeline_stats.plan_share_hits =
      runtime_->plan_cache.stats().share_hits;

  st.report.steps = config_.steps;
  st.report.final_blocks = st.mesh.size();
  st.report.wall_seconds = to_sec(runtime_->engine.now());
  st.report.critical_path = runtime_->critical_path.stats();
  return st.report;
}

void Simulation::begin() {
  if (!begun_) begin_run();
}

bool Simulation::done() const {
  return state_ != nullptr && state_->step >= config_.steps;
}

std::int64_t Simulation::advance(std::int64_t max_steps) {
  begin();
  std::int64_t executed = 0;
  while (executed < max_steps && state_->step < config_.steps) {
    step_once();
    ++executed;
    if (config_.checkpoint_every > 0 &&
        state_->step % config_.checkpoint_every == 0 &&
        state_->step < config_.steps) {
      const std::string path =
          checkpoint_path(config_.checkpoint_dir, state_->step);
      if (!save_checkpoint(path))
        throw io::SnapshotError("cannot write snapshot file: " + path);
    }
  }
  return executed;
}

RunReport Simulation::finish() {
  AMR_CHECK_MSG(begun_ && done(),
                "finish() requires a begun run at its step horizon");
  RunReport report = finish_run();
  begun_ = false;  // a further run()/begin() starts over
  return report;
}

std::size_t Simulation::resident_bytes() const {
  if (state_ == nullptr) return 0;
  // Per-block: coords + placement + true/measured/estimated costs, plus
  // an allowance of 256 bytes for the exchange plan. The flat BSP plan
  // holds 21-27 16-byte tasks per block on Sedov with flux corrections
  // (sends dominate), 350-520 bytes per block with its per-rank
  // records, so the allowance undercounts it; it stays 256 because
  // serve evicts tenants against this estimate, and a new figure would
  // move its eviction schedule. Per-rank: fabric NIC/slot state and
  // executor endpoints. The constant covers topology, engine queue, and
  // scratch.
  const std::size_t per_block = sizeof(BlockCoord) +
                                sizeof(std::int32_t) + 3 * sizeof(TimeNs) +
                                256;
  return (std::size_t{1} << 16) + state_->mesh.size() * per_block +
         static_cast<std::size_t>(config_.nranks) * 512 +
         collector_.bytes_used();
}

RunReport Simulation::run() {
  begin();
  while (!done()) advance(config_.steps);
  return finish();
}

bool Simulation::save_checkpoint(const std::string& path) const {
  AMR_CHECK_MSG(begun_ && state_ != nullptr,
                "save_checkpoint requires a begun run");
  return save_snapshot(path, config_, *state_, *runtime_, workload_,
                       collector_, tracer_.get());
}

void Simulation::restore_checkpoint(const std::string& path) {
  begin_run();
  restore_snapshot(path, config_, *state_, *runtime_, workload_,
                   collector_, tracer_.get());
  // The active policy names the run: identical for a plain restore,
  // the replacement's name for a what-if under another policy. Auto-X
  // overrides either way (the tuner, not the seed policy, is making the
  // decisions).
  state_->report.policy =
      config_.auto_cplx ? "auto-cplx" : policy_.name();
}

}  // namespace amr
