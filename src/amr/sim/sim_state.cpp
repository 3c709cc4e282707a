#include "amr/sim/sim_state.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "amr/common/stats.hpp"
#include "amr/io/snapshot.hpp"

namespace amr {

SimRuntime::SimRuntime(const SimulationConfig& config, Tracer* tracer)
    : topo(config.nranks, config.ranks_per_node),
      rng(config.seed),
      fabric(topo, config.fabric, rng.split(0xfab)),
      comm(engine, fabric, config.nranks, config.collective) {
  engine.set_tracer(tracer);
  fabric.set_tracer(tracer);
  comm.set_tracer(tracer);
  if (config.execution == ExecutionMode::kBsp)
    bsp_executor =
        std::make_unique<StepExecutor>(engine, comm, config.exec, tracer);
  else
    overlap_executor =
        std::make_unique<OverlapExecutor>(engine, comm, config.exec, tracer);
  plan_cache.set_shared_store(config.shared_plans);
  if (config.auto_cplx || config.placement_incremental) {
    // Chunk solves and candidate scoring parallelize well up to the
    // candidate count; more workers than that only cost startup.
    placement_pool = std::make_unique<ThreadPool>(
        std::min(ThreadPool::hardware_jobs(), 8));
    placement_engine.set_parallel(placement_pool.get());
  }
  if (config.auto_cplx) {
    TunerConfig tuner_cfg;
    tuner_cfg.budget_ms = config.cplx_budget_ms;
    auto_tuner = std::make_unique<AutoXTuner>(tuner_cfg);
  }
}

namespace {

[[noreturn]] void mismatch(const char* field) {
  throw io::SnapshotError(std::string("snapshot: config mismatch on ") +
                          field +
                          " (restore requires the run configuration that "
                          "produced the checkpoint)");
}

void require(bool ok, const char* field) {
  if (!ok) mismatch(field);
}

void write_rng(io::SnapshotWriter& w, const Rng::State& s) {
  for (const std::uint64_t word : s.s) w.u64(word);
  w.f64(s.cached_normal);
  w.b(s.has_cached_normal);
}

Rng::State read_rng(io::SnapshotReader& r) {
  Rng::State s;
  for (std::uint64_t& word : s.s) word = r.u64();
  s.cached_normal = r.f64();
  s.has_cached_normal = r.b();
  return s;
}

void write_fabric_stats(io::SnapshotWriter& w, const FabricStats& s) {
  w.i64(s.remote_msgs);
  w.i64(s.shm_msgs);
  w.i64(s.remote_bytes);
  w.i64(s.shm_bytes);
  w.i64(s.shm_retries);
  w.i64(s.acks_lost);
  w.i64(s.ack_block_time);
  w.i64(s.packed_transfers);
  w.i64(s.coalesced_msgs);
}

FabricStats read_fabric_stats(io::SnapshotReader& r) {
  FabricStats s;
  s.remote_msgs = r.i64();
  s.shm_msgs = r.i64();
  s.remote_bytes = r.i64();
  s.shm_bytes = r.i64();
  s.shm_retries = r.i64();
  s.acks_lost = r.i64();
  s.ack_block_time = r.i64();
  s.packed_transfers = r.i64();
  s.coalesced_msgs = r.i64();
  return s;
}

void write_stats(io::SnapshotWriter& w, const RunningStats& s) {
  const RunningStats::Moments m = s.moments();
  w.u64(m.n);
  w.f64(m.mean);
  w.f64(m.m2);
  w.f64(m.min);
  w.f64(m.max);
  w.f64(m.sum);
}

RunningStats read_stats(io::SnapshotReader& r) {
  RunningStats::Moments m;
  m.n = static_cast<std::size_t>(r.u64());
  m.mean = r.f64();
  m.m2 = r.f64();
  m.min = r.f64();
  m.max = r.f64();
  m.sum = r.f64();
  return RunningStats::from_moments(m);
}

void write_table(io::SnapshotWriter& w, const Table& t) {
  w.u64(t.num_rows());
  w.u32(static_cast<std::uint32_t>(t.num_cols()));
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    w.u8(static_cast<std::uint8_t>(t.col_type(c)));
    if (t.col_type(c) == ColType::kI64)
      w.vec_pod(t.i64(c));
    else
      w.vec_pod(t.f64(c));
  }
}

/// Rebuild a table with `like`'s name and schema from serialized columns.
Table read_table(io::SnapshotReader& r, const Table& like) {
  Table t(like.name(), like.schema());
  const std::uint64_t rows = r.u64();
  const std::uint32_t cols = r.u32();
  if (cols != like.schema().size())
    throw io::SnapshotError("snapshot: table '" + like.name() +
                            "' column count does not match the schema");
  std::vector<std::vector<std::int64_t>> icols(cols);
  std::vector<std::vector<double>> fcols(cols);
  for (std::uint32_t c = 0; c < cols; ++c) {
    const auto type = static_cast<ColType>(r.u8());
    if (type != like.schema()[c].type)
      throw io::SnapshotError("snapshot: table '" + like.name() +
                              "' column type does not match the schema");
    const std::size_t got = type == ColType::kI64
                                ? (icols[c] = r.vec_pod<std::int64_t>()).size()
                                : (fcols[c] = r.vec_pod<double>()).size();
    if (got != rows)
      throw io::SnapshotError("snapshot: table '" + like.name() +
                              "' column length does not match the row count");
  }
  t.reserve(static_cast<std::size_t>(rows));
  std::vector<CellValue> cells(cols);
  for (std::uint64_t row = 0; row < rows; ++row) {
    for (std::uint32_t c = 0; c < cols; ++c)
      cells[c] = like.schema()[c].type == ColType::kI64
                     ? CellValue(icols[c][row])
                     : CellValue(fcols[c][row]);
    t.append_row(cells);
  }
  return t;
}

void write_meta(io::SnapshotWriter& w, const SimulationConfig& config,
                const SimState& state, const Workload& workload) {
  w.begin_section("meta");
  w.u32(static_cast<std::uint32_t>(config.nranks));
  w.u32(static_cast<std::uint32_t>(config.ranks_per_node));
  w.u32(config.root_grid.nx);
  w.u32(config.root_grid.ny);
  w.u32(config.root_grid.nz);
  w.u64(config.seed);
  w.u8(static_cast<std::uint8_t>(config.execution));
  w.u8(static_cast<std::uint8_t>(config.ordering));
  w.b(config.include_flux_correction);
  // Adaptive-comm axes (format v4): packing decisions and send order
  // shape every window, so mismatched restores must be refused.
  w.b(config.comm_adaptive);
  w.b(config.send_priority);
  w.i64(config.comm_pack_threshold);
  w.b(config.telemetry_driven_costs);
  // Placement-engine axes (format v5): both change which placements the
  // run computes, and the tuner budget shapes every auto-X decision.
  w.b(config.auto_cplx);
  w.b(config.placement_incremental);
  w.f64(config.cplx_budget_ms);
  w.b(config.collect_telemetry);
  w.b(config.collect_block_telemetry);
  w.b(config.trace_enabled);
  w.str(workload.name());
  w.str(state.report.policy);  // informational: replay may swap it
  const auto& faults = config.faults.throttles();
  w.u32(static_cast<std::uint32_t>(faults.size()));
  for (const ThrottleFault& f : faults) {
    w.vec_pod(f.nodes);
    w.f64(f.factor);
    w.i64(f.onset_step);
    w.i64(f.end_step);
  }
  w.end_section();
}

/// Verify the snapshot's config fingerprint against the live config.
/// The policy and step horizon are deliberately unchecked (replay swaps
/// the policy; a restored run may continue to a different horizon).
void check_meta(io::SnapshotReader& r, const SimulationConfig& config,
                const Workload& workload) {
  r.begin_section("meta");
  require(r.u32() == static_cast<std::uint32_t>(config.nranks), "nranks");
  require(r.u32() == static_cast<std::uint32_t>(config.ranks_per_node),
          "ranks_per_node");
  require(r.u32() == config.root_grid.nx, "root_grid.nx");
  require(r.u32() == config.root_grid.ny, "root_grid.ny");
  require(r.u32() == config.root_grid.nz, "root_grid.nz");
  require(r.u64() == config.seed, "seed");
  require(r.u8() == static_cast<std::uint8_t>(config.execution),
          "execution mode");
  require(r.u8() == static_cast<std::uint8_t>(config.ordering),
          "task ordering");
  require(r.b() == config.include_flux_correction, "flux correction");
  require(r.b() == config.comm_adaptive, "adaptive packing");
  require(r.b() == config.send_priority, "send priority");
  require(r.i64() == config.comm_pack_threshold, "packing threshold");
  require(r.b() == config.telemetry_driven_costs, "telemetry-driven costs");
  require(r.b() == config.auto_cplx, "auto-X tuning");
  require(r.b() == config.placement_incremental, "incremental placement");
  require(r.f64() == config.cplx_budget_ms, "auto-X budget");
  require(r.b() == config.collect_telemetry, "collect_telemetry");
  require(r.b() == config.collect_block_telemetry,
          "collect_block_telemetry");
  require(r.b() == config.trace_enabled, "trace_enabled");
  require(r.str() == workload.name(), "workload");
  r.str();  // policy: informational only
  const auto& faults = config.faults.throttles();
  require(r.u32() == static_cast<std::uint32_t>(faults.size()),
          "fault schedule size");
  for (const ThrottleFault& f : faults) {
    require(r.vec_pod<std::int32_t>() == f.nodes, "fault nodes");
    require(r.f64() == f.factor, "fault factor");
    require(r.i64() == f.onset_step, "fault onset step");
    require(r.i64() == f.end_step, "fault end step");
  }
  r.end_section();
}

}  // namespace

void write_fabric_section(io::SnapshotWriter& w, const Fabric::State& fab) {
  w.begin_section("fabric");
  write_rng(w, fab.rng);
  write_fabric_stats(w, fab.stats);
  w.vec_pod(fab.nic_busy_until);
  w.vec_pod(fab.shm_idle);
  w.vec_pod(fab.shm_last_post);
  for (const auto& busy : fab.shm_busy) w.vec_pod(busy);
  w.end_section();
}

Fabric::State read_fabric_section(io::SnapshotReader& r) {
  r.begin_section("fabric");
  Fabric::State fab;
  fab.rng = read_rng(r);
  fab.stats = read_fabric_stats(r);
  fab.nic_busy_until = r.vec_pod<TimeNs>();
  fab.shm_idle = r.vec_pod<std::int32_t>();
  fab.shm_last_post = r.vec_pod<TimeNs>();
  fab.shm_busy.resize(fab.shm_idle.size());
  for (auto& busy : fab.shm_busy) busy = r.vec_pod<TimeNs>();
  r.end_section();
  return fab;
}

bool save_snapshot(const std::string& path, const SimulationConfig& config,
                   const SimState& state, const SimRuntime& runtime,
                   const Workload& workload, const Collector& collector,
                   const Tracer* tracer) {
  io::SnapshotWriter w;
  write_meta(w, config, state, workload);

  w.begin_section("state");
  w.i64(state.step);
  w.vec_pod(state.placement);
  w.u64(state.placement_version);
  w.u64(state.placement_mesh_version);
  w.b(state.have_plan_key);
  w.u64(state.last_plan_mesh);
  w.u64(state.last_plan_placement);
  w.f64(state.last_imbalance);
  w.i32(state.last_straggler);
  w.u32(static_cast<std::uint32_t>(state.prev_faults.size()));
  for (const ActiveFault& f : state.prev_faults) {
    w.i32(f.node);
    w.f64(f.factor);
  }
  w.b(state.measured_valid);
  w.u64(state.measured_version);
  w.vec_pod(state.measured_flat);
  w.i64(state.pipeline_stats.predicted_hits);
  w.i64(state.pipeline_stats.predicted_misses);
  w.i64(state.pipeline_stats.telemetry_drops);
  // Effective plan-cache counters at checkpoint time (base + live cache).
  w.i64(state.plan_hits_base + runtime.plan_cache.stats().hits);
  w.i64(state.plan_misses_base + runtime.plan_cache.stats().misses);
  w.end_section();

  // Auto-X tuner state (format v5): everything the next tuning decision
  // depends on, so a restored run decides byte-identically. Written
  // unconditionally (defaults when auto_cplx is off) — the fingerprint
  // axis above already refuses cross-mode restores.
  const TunerState& ts = state.tuner;
  w.begin_section("tuner");
  w.i32(ts.mode);
  w.i32(ts.probe_at);
  w.i32(ts.last_choice);
  w.b(ts.pending);
  w.f64(ts.last_predicted);
  w.f64(ts.last_scale);
  for (const double f : ts.last_feat) w.f64(f);
  w.f64(ts.err_ewma);
  w.b(ts.have_err);
  w.i32(ts.err_samples);
  w.i64(ts.decisions);
  w.i64(ts.fallback_epochs);
  w.i64(ts.model_resets);
  for (const double v : ts.w) w.f64(v);
  for (const double v : ts.P) w.f64(v);
  for (const double v : ts.cand_step_ns) w.f64(v);
  for (const bool h : ts.cand_have) w.b(h);
  for (const double v : ts.resid) w.f64(v);
  for (const std::int64_t v : ts.last_chosen_at) w.i64(v);
  w.i64(state.epoch_steps);
  w.i64(state.epoch_wall_ns);
  w.end_section();

  const RunReport& rep = state.report;
  w.begin_section("report");
  w.str(rep.policy);
  w.f64(rep.phases.compute);
  w.f64(rep.phases.comm);
  w.f64(rep.phases.sync);
  w.f64(rep.phases.rebalance);
  w.i64(rep.lb_invocations);
  w.u64(rep.initial_blocks);
  w.i64(rep.msgs_local);
  w.i64(rep.msgs_remote);
  w.i64(rep.msgs_intra_rank);
  w.i64(rep.bytes_local);
  w.i64(rep.bytes_remote);
  w.i64(rep.msgs_coalesced);
  w.i64(rep.bytes_packed);
  w.i64(rep.blocks_migrated);
  w.i64(rep.budget_violations);
  w.vec_pod(rep.rank_compute_seconds);
  w.vec_pod(rep.placement_ms);
  const CriticalPathStats& cp = runtime.critical_path.stats();
  w.i64(cp.windows);
  w.i64(cp.one_rank_paths);
  w.i64(cp.two_rank_paths);
  write_stats(w, cp.straggler_wait_ms);
  write_stats(w, cp.straggler_compute_ms);
  write_stats(w, cp.window_ms);
  w.end_section();

  w.begin_section("mesh");
  w.u64(state.mesh.version());
  w.vec_pod(state.mesh.blocks());
  const auto remaps = state.mesh.remap_history();
  w.u32(static_cast<std::uint32_t>(remaps.size()));
  for (const MeshRemap& m : remaps) {
    w.u64(m.from_version);
    w.u64(m.to_version);
    w.vec_pod(m.src);
    w.vec_pod(m.kind);
    w.u64(m.carried);
    w.u64(m.old_size);
  }
  w.end_section();

  const Engine::Clock clock = runtime.engine.clock();
  w.begin_section("engine");
  w.i64(clock.now);
  w.i64(clock.front_time);
  w.u64(clock.next_seq);
  w.u64(clock.processed);
  w.end_section();

  w.begin_section("rng");
  write_rng(w, runtime.rng.state());
  w.end_section();

  write_fabric_section(w, runtime.fabric.export_state());

  std::vector<std::uint8_t> blob;
  workload.save_state(blob);
  w.begin_section("workload");
  w.vec_pod(blob);
  w.end_section();

  w.begin_section("collector");
  w.b(collector.block_records());
  write_table(w, collector.phases());
  write_table(w, collector.comm());
  write_table(w, collector.blocks());
  write_table(w, collector.placement());
  w.end_section();

  w.begin_section("tracer");
  w.b(tracer != nullptr);
  if (tracer != nullptr) {
    w.u64(tracer->dropped());
    w.u64(tracer->recorded());
    w.u64(tracer->next_flow_id());
    w.u32(static_cast<std::uint32_t>(tracer->size()));
    tracer->for_each([&](const TraceEvent& ev) {
      w.i64(ev.ts);
      w.i64(ev.dur);
      w.u64(ev.id);
      w.i64(ev.a);
      w.i64(ev.b);
      w.str(ev.name);
      w.i32(ev.track);
      w.u8(static_cast<std::uint8_t>(ev.type));
      w.u8(static_cast<std::uint8_t>(ev.cat));
    });
  }
  w.end_section();

  return w.write_file(path);
}

void restore_snapshot(const std::string& path,
                      const SimulationConfig& config, SimState& state,
                      SimRuntime& runtime, Workload& workload,
                      Collector& collector, Tracer* tracer) {
  io::SnapshotReader r(path);
  check_meta(r, config, workload);

  r.begin_section("state");
  state.step = r.i64();
  state.placement = r.vec_pod<std::int32_t>();
  state.placement_version = r.u64();
  state.placement_mesh_version = r.u64();
  state.have_plan_key = r.b();
  state.last_plan_mesh = r.u64();
  state.last_plan_placement = r.u64();
  state.last_imbalance = r.f64();
  state.last_straggler = r.i32();
  state.prev_faults.resize(r.u32());
  for (ActiveFault& f : state.prev_faults) {
    f.node = r.i32();
    f.factor = r.f64();
  }
  state.measured_valid = r.b();
  state.measured_version = r.u64();
  state.measured_flat = r.vec_pod<TimeNs>();
  state.pipeline_stats = {};
  state.pipeline_stats.predicted_hits = r.i64();
  state.pipeline_stats.predicted_misses = r.i64();
  state.pipeline_stats.telemetry_drops = r.i64();
  // The rebuilt cache restarts at zero; the saved effective counters
  // become the base (costs one extra recorded miss vs. uninterrupted —
  // diagnostics only, never part of the printed output).
  state.plan_hits_base = r.i64();
  state.plan_misses_base = r.i64();
  r.end_section();

  TunerState& ts = state.tuner;
  r.begin_section("tuner");
  ts.mode = r.i32();
  ts.probe_at = r.i32();
  ts.last_choice = r.i32();
  ts.pending = r.b();
  ts.last_predicted = r.f64();
  ts.last_scale = r.f64();
  for (double& f : ts.last_feat) f = r.f64();
  ts.err_ewma = r.f64();
  ts.have_err = r.b();
  ts.err_samples = r.i32();
  ts.decisions = r.i64();
  ts.fallback_epochs = r.i64();
  ts.model_resets = r.i64();
  for (double& v : ts.w) v = r.f64();
  for (double& v : ts.P) v = r.f64();
  for (double& v : ts.cand_step_ns) v = r.f64();
  for (bool& h : ts.cand_have) h = r.b();
  for (double& v : ts.resid) v = r.f64();
  for (std::int64_t& v : ts.last_chosen_at) v = r.i64();
  state.epoch_steps = r.i64();
  state.epoch_wall_ns = r.i64();
  r.end_section();

  RunReport& rep = state.report;
  r.begin_section("report");
  rep.policy = r.str();
  rep.phases.compute = r.f64();
  rep.phases.comm = r.f64();
  rep.phases.sync = r.f64();
  rep.phases.rebalance = r.f64();
  rep.lb_invocations = r.i64();
  rep.initial_blocks = static_cast<std::size_t>(r.u64());
  rep.msgs_local = r.i64();
  rep.msgs_remote = r.i64();
  rep.msgs_intra_rank = r.i64();
  rep.bytes_local = r.i64();
  rep.bytes_remote = r.i64();
  rep.msgs_coalesced = r.i64();
  rep.bytes_packed = r.i64();
  rep.blocks_migrated = r.i64();
  rep.budget_violations = r.i64();
  rep.rank_compute_seconds = r.vec_pod<double>();
  rep.placement_ms = r.vec_pod<double>();
  CriticalPathStats cp;
  cp.windows = r.i64();
  cp.one_rank_paths = r.i64();
  cp.two_rank_paths = r.i64();
  cp.straggler_wait_ms = read_stats(r);
  cp.straggler_compute_ms = read_stats(r);
  cp.window_ms = read_stats(r);
  runtime.critical_path.restore_stats(cp);
  r.end_section();

  r.begin_section("mesh");
  const std::uint64_t mesh_version = r.u64();
  std::vector<BlockCoord> leaves = r.vec_pod<BlockCoord>();
  std::vector<MeshRemap> remaps(r.u32());
  for (MeshRemap& m : remaps) {
    m.from_version = r.u64();
    m.to_version = r.u64();
    m.src = r.vec_pod<std::int32_t>();
    m.kind = r.vec_pod<RemapKind>();
    m.carried = static_cast<std::size_t>(r.u64());
    m.old_size = static_cast<std::size_t>(r.u64());
    if (m.kind.size() != m.src.size())
      throw io::SnapshotError(
          "snapshot: mesh remap kind/src length mismatch");
  }
  r.end_section();
  state.mesh.restore_state(std::move(leaves), mesh_version,
                           std::move(remaps));
  if (state.placement.size() != state.mesh.size())
    throw io::SnapshotError(
        "snapshot: placement size does not match the restored mesh");

  r.begin_section("engine");
  Engine::Clock clock;
  clock.now = r.i64();
  clock.front_time = r.i64();
  clock.next_seq = r.u64();
  clock.processed = r.u64();
  runtime.engine.restore_clock(clock);
  r.end_section();

  r.begin_section("rng");
  runtime.rng.set_state(read_rng(r));
  r.end_section();

  runtime.fabric.import_state(read_fabric_section(r));

  r.begin_section("workload");
  const std::vector<std::uint8_t> blob = r.vec_pod<std::uint8_t>();
  r.end_section();
  workload.restore_state(blob);

  r.begin_section("collector");
  collector.set_block_records(r.b());
  Table phases = read_table(r, collector.phases());
  Table comm = read_table(r, collector.comm());
  Table blocks = read_table(r, collector.blocks());
  Table placement_tab = read_table(r, collector.placement());
  collector.restore(std::move(phases), std::move(comm), std::move(blocks),
                    std::move(placement_tab));
  r.end_section();

  r.begin_section("tracer");
  const bool had_tracer = r.b();
  require(had_tracer == (tracer != nullptr), "tracer presence");
  if (had_tracer) {
    const std::uint64_t dropped = r.u64();
    const std::uint64_t recorded = r.u64();
    const std::uint64_t next_flow_id = r.u64();
    const std::uint32_t n = r.u32();
    std::vector<std::string> names(n);
    std::vector<TraceEvent> events(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      TraceEvent& ev = events[i];
      ev.ts = r.i64();
      ev.dur = r.i64();
      ev.id = r.u64();
      ev.a = r.i64();
      ev.b = r.i64();
      names[i] = r.str();
      ev.name = names[i].c_str();
      ev.track = r.i32();
      ev.type = static_cast<TraceEventType>(r.u8());
      ev.cat = static_cast<TraceCat>(r.u8());
    }
    tracer->restore(events, dropped, recorded, next_flow_id);
  }
  r.end_section();
}

}  // namespace amr
