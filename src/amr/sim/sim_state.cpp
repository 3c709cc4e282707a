#include "amr/sim/sim_state.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "amr/common/stats.hpp"
#include "amr/io/snapshot.hpp"
#include "amr/workloads/cooling.hpp"
#include "amr/workloads/sedov.hpp"

namespace amr {

SimRuntime::SimRuntime(const SimulationConfig& config, Tracer* tracer)
    : topo(config.nranks, config.ranks_per_node),
      rng(config.seed),
      fabric(topo, config.fabric, rng.split(0xfab)),
      comm(engine, fabric, config.nranks) {
  engine.set_tracer(tracer);
  fabric.set_tracer(tracer);
  comm.set_tracer(tracer);
  if (config.execution == ExecutionMode::kBsp)
    bsp_executor =
        std::make_unique<StepExecutor>(engine, comm, ExecParams{}, tracer);
  else
    overlap_executor =
        std::make_unique<OverlapExecutor>(engine, comm, ExecParams{}, tracer);
  plan_cache.set_shared_store(config.shared_plans);
  if (config.auto_cplx) {
    // Chunk solves and candidate scoring parallelize well up to the
    // candidate count; more workers than that only cost startup.
    placement_pool = std::make_unique<ThreadPool>(
        std::min(ThreadPool::hardware_jobs(), 8));
    placement_engine.set_parallel(placement_pool.get());
    auto_tuner = std::make_unique<AutoXTuner>(TunerConfig{});
  }
}

namespace {

// Each snapshot section is one field list over the archive
// (io/snapshot.hpp). A state parameter deduces const on save; steps that
// only a restore takes sit behind Ar::kReading.

template <class Ar, class S>
void rng_fields(Ar& ar, S& s) {
  ar.field(s.s);
  ar.field(s.cached_normal);
  ar.field(s.has_cached_normal);
}

/// A RunningStats, through its raw accumulator image.
template <class Ar>
void stats_fields(Ar& ar, RunningStats& s) {
  RunningStats::Moments m = s.moments();
  ar.field(m.n);
  ar.field(m.mean);
  ar.field(m.m2);
  ar.field(m.min);
  ar.field(m.max);
  ar.field(m.sum);
  if constexpr (Ar::kReading) s = RunningStats::from_moments(m);
}

/// One sealed chunk of a telemetry column (format v9).
template <class Ar, class C>
void chunk_fields(Ar& ar, C& ch) {
  ar.field(ch.base);
  ar.field(ch.max);
  ar.field(ch.width);
  ar.field(ch.words);
}

template <class Ar, class M>
void remap_fields(Ar& ar, M& m) {
  ar.field(m.from_version);
  ar.field(m.to_version);
  ar.field(m.src);
  ar.field(m.kind);
  ar.field(m.carried);
  ar.field(m.old_size);
}

/// One trace event. Its name travels as a string: the event's own on
/// save, a copy for the tracer to re-intern on restore.
template <class Ar, class E, class Name>
void event_fields(Ar& ar, E& ev, Name& name) {
  ar.field(ev.ts);
  ar.field(ev.dur);
  ar.field(ev.id);
  ar.field(ev.a);
  ar.field(ev.b);
  ar.field(name);
  ar.field(ev.track);
  ar.field(ev.type);
  ar.field(ev.cat);
}

/// A table as stored (format v9): per column its sealed chunks, then the
/// raw tail.
void write_table(io::SnapshotWriter& w, const Table& t) {
  w.field(t.num_rows());
  w.field(static_cast<std::uint32_t>(t.num_cols()));
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    w.field(t.col_type(c));
    const Table::Column& col = t.column(c);
    w.field(col.chunks.size());
    for (const Table::Chunk& ch : col.chunks) chunk_fields(w, ch);
    w.field(col.tail);
  }
}

/// Rebuild a table with `like`'s name and schema from its stored chunks.
Table read_table(io::SnapshotReader& r, const Table& like) {
  Table t(like.name(), like.schema());
  const std::string what = "snapshot: table '" + like.name() + "' ";
  std::uint64_t rows = 0;
  std::uint32_t cols = 0;
  r.field(rows);
  r.field(cols);
  if (cols != like.schema().size())
    throw io::SnapshotError(what + "column count does not match the schema");
  std::vector<Table::Column> stored(cols);
  for (std::uint32_t c = 0; c < cols; ++c) {
    ColType type{};
    r.field(type);
    if (type != like.schema()[c].type)
      throw io::SnapshotError(what + "column type does not match the schema");
    // Every chunk reads at least its 25-byte header, so a corrupt count
    // runs into the section's end instead of allocating.
    std::uint64_t chunks = 0;
    r.field(chunks);
    for (std::uint64_t k = 0; k < chunks; ++k)
      chunk_fields(r, stored[c].chunks.emplace_back());
    r.field(stored[c].tail);
  }
  const std::string err = t.load(rows, std::move(stored));
  if (!err.empty()) throw io::SnapshotError(what + err);
  return t;
}

/// Every Sedov parameter (format v12): each one moves the front or the
/// block costs. total_steps is the front's time scale, so a Sedov
/// restore keeps the step count it was saved under.
template <class Ar>
void sedov_fields(Ar& ar, const SedovParams& p) {
  ar.expect(p.center[0], "sedov.center.x");
  ar.expect(p.center[1], "sedov.center.y");
  ar.expect(p.center[2], "sedov.center.z");
  ar.expect(p.max_radius, "sedov.max_radius");
  ar.expect(p.total_steps, "sedov.total_steps");
  ar.expect(p.shell_half_width, "sedov.shell_half_width");
  ar.expect(p.coarsen_margin, "sedov.coarsen_margin");
  ar.expect(p.max_level, "sedov.max_level");
  ar.expect(p.check_period, "sedov.check_period");
  ar.expect(p.base_cost, "sedov.base_cost");
  ar.expect(p.front_boost, "sedov.front_boost");
  ar.expect(p.cost_sigma, "sedov.cost_sigma");
  ar.expect(p.noise_sigma, "sedov.noise_sigma");
  ar.expect(p.hot_fraction, "sedov.hot_fraction");
  ar.expect(p.hot_mu, "sedov.hot_mu");
  ar.expect(p.hot_sigma, "sedov.hot_sigma");
  ar.expect(p.jitter_sigma, "sedov.jitter_sigma");
  ar.expect(p.seed, "sedov.seed");
}

/// Every cooling parameter (format v12). None of them is a step count,
/// so a cooling restore may continue to a different horizon.
template <class Ar>
void cooling_fields(Ar& ar, const CoolingParams& p) {
  ar.expect(p.center[0], "cooling.center.x");
  ar.expect(p.center[1], "cooling.center.y");
  ar.expect(p.center[2], "cooling.center.z");
  ar.expect(p.clump_radius, "cooling.clump_radius");
  ar.expect(p.max_level, "cooling.max_level");
  ar.expect(p.base_cost, "cooling.base_cost");
  ar.expect(p.clump_boost, "cooling.clump_boost");
  ar.expect(p.falloff, "cooling.falloff");
  ar.expect(p.noise_sigma, "cooling.noise_sigma");
  ar.expect(p.seed, "cooling.seed");
}

/// The config fingerprint: a restore under a different simulation mode
/// or workload parameter is refused, naming the entry. Each answer row
/// of the job-field table (sim/sim_driver.cpp) names the entry it
/// changes. The policy is informational (a what-if restores under
/// another), so it is read and never checked; the step horizon is not
/// stored (a cooling run may continue to a different horizon).
template <class Ar>
void meta_section(Ar& ar, const SimulationConfig& config,
                  const Workload& workload, std::string policy) {
  ar.begin_section("meta");
  ar.expect(static_cast<std::uint32_t>(config.nranks), "nranks");
  ar.expect(static_cast<std::uint32_t>(config.ranks_per_node),
            "ranks_per_node");
  ar.expect(config.root_grid.nx, "root_grid.nx");
  ar.expect(config.root_grid.ny, "root_grid.ny");
  ar.expect(config.root_grid.nz, "root_grid.nz");
  ar.expect(config.seed, "seed");
  ar.expect(static_cast<std::uint8_t>(config.execution), "execution mode");
  ar.expect(static_cast<std::uint8_t>(config.ordering), "task ordering");
  ar.expect(config.include_flux_correction, "flux correction");
  // Adaptive-comm axes (format v4): packing decisions and send order
  // shape every window.
  ar.expect(config.comm_adaptive, "adaptive packing");
  ar.expect(config.send_priority, "send priority");
  // Auto-X axis (format v5): auto-X changes which placements the run
  // computes.
  ar.expect(config.auto_cplx, "auto-X tuning");
  ar.expect(config.collect_telemetry, "collect_telemetry");
  ar.expect(config.trace_enabled, "trace_enabled");
  ar.expect(workload.name(), "workload");
  if (const auto* sedov = dynamic_cast<const SedovWorkload*>(&workload))
    sedov_fields(ar, sedov->params());
  else if (const auto* cool = dynamic_cast<const CoolingWorkload*>(&workload))
    cooling_fields(ar, cool->params());
  ar.field(policy);
  const auto& faults = config.faults.throttles();
  ar.expect(static_cast<std::uint32_t>(faults.size()), "fault schedule size");
  for (const ThrottleFault& f : faults) {
    ar.expect(f.nodes, "fault nodes");
    ar.expect(f.factor, "fault factor");
    ar.expect(f.onset_step, "fault onset step");
    ar.expect(f.end_step, "fault end step");
  }
  ar.end_section();
}

template <class Ar, class State>
void state_section(Ar& ar, State& s, const ExchangePlanCache::Stats& live) {
  ar.begin_section("state");
  ar.field(s.step);
  ar.field(s.placement);
  ar.field(s.placement_version);
  ar.field(s.placement_mesh_version);
  ar.field(s.have_plan_key);
  ar.field(s.last_plan_mesh);
  ar.field(s.last_plan_placement);
  ar.field(s.last_imbalance);
  ar.field(s.last_straggler);
  ar.count(s.prev_faults);
  for (auto& f : s.prev_faults) {
    ar.field(f.node);
    ar.field(f.factor);
  }
  ar.field(s.measured_valid);
  ar.field(s.measured_version);
  ar.field(s.measured_flat);
  if constexpr (Ar::kReading) s.pipeline_stats = {};
  ar.field(s.pipeline_stats.predicted_hits);
  ar.field(s.pipeline_stats.predicted_misses);
  ar.field(s.pipeline_stats.telemetry_drops);
  // Effective plan-cache counters (base + live cache). The rebuilt cache
  // restarts at zero, so a restore makes them the base (one extra
  // recorded miss vs. uninterrupted — diagnostics only, never part of
  // the printed output).
  std::int64_t plan_hits = s.plan_hits_base + live.hits;
  std::int64_t plan_misses = s.plan_misses_base + live.misses;
  ar.field(plan_hits);
  ar.field(plan_misses);
  if constexpr (Ar::kReading) {
    s.plan_hits_base = plan_hits;
    s.plan_misses_base = plan_misses;
  }
  ar.end_section();
}

/// Auto-X tuner state (format v5): everything the next tuning decision
/// depends on, so a restored run decides byte-identically. Stored
/// unconditionally (defaults when auto_cplx is off): the fingerprint
/// already refuses cross-mode restores.
template <class Ar, class State>
void tuner_section(Ar& ar, State& s) {
  auto& ts = s.tuner;
  ar.begin_section("tuner");
  ar.field(ts.mode);
  ar.field(ts.probe_at);
  ar.field(ts.last_choice);
  ar.field(ts.pending);
  ar.field(ts.last_predicted);
  ar.field(ts.last_scale);
  ar.field(ts.last_feat);
  ar.field(ts.err_ewma);
  ar.field(ts.have_err);
  ar.field(ts.err_samples);
  ar.field(ts.decisions);
  ar.field(ts.fallback_epochs);
  ar.field(ts.model_resets);
  ar.field(ts.w);
  ar.field(ts.P);
  ar.field(ts.cand_step_ns);
  ar.field(ts.cand_have);
  ar.field(ts.resid);
  ar.field(ts.last_chosen_at);
  ar.field(s.epoch_steps);
  ar.field(s.epoch_wall_ns);
  ar.end_section();
}

template <class Ar, class Report, class Analyzer>
void report_section(Ar& ar, Report& rep, Analyzer& critical_path) {
  ar.begin_section("report");
  ar.field(rep.policy);
  ar.field(rep.phases.compute);
  ar.field(rep.phases.comm);
  ar.field(rep.phases.sync);
  ar.field(rep.phases.rebalance);
  ar.field(rep.lb_invocations);
  ar.field(rep.initial_blocks);
  ar.field(rep.msgs_local);
  ar.field(rep.msgs_remote);
  ar.field(rep.msgs_intra_rank);
  ar.field(rep.bytes_local);
  ar.field(rep.bytes_remote);
  ar.field(rep.msgs_coalesced);
  ar.field(rep.bytes_packed);
  ar.field(rep.blocks_migrated);
  ar.field(rep.budget_violations);
  ar.field(rep.rank_compute_seconds);
  ar.field(rep.placement_ms);
  CriticalPathStats cp = critical_path.stats();
  ar.field(cp.windows);
  ar.field(cp.one_rank_paths);
  ar.field(cp.two_rank_paths);
  stats_fields(ar, cp.straggler_wait_ms);
  stats_fields(ar, cp.straggler_compute_ms);
  stats_fields(ar, cp.window_ms);
  if constexpr (Ar::kReading) critical_path.restore_stats(cp);
  ar.end_section();
}

/// The mesh's version, leaves and renumbering history. A restore
/// rebuilds the mesh from them, and the placement read before must fit.
template <class Ar, class State>
void mesh_section(Ar& ar, State& s) {
  ar.begin_section("mesh");
  if constexpr (Ar::kReading) {
    std::uint64_t version = 0;
    std::vector<BlockCoord> leaves;
    std::vector<MeshRemap> remaps;
    ar.field(version);
    ar.field(leaves);
    ar.count(remaps);
    for (MeshRemap& m : remaps) {
      remap_fields(ar, m);
      if (m.kind.size() != m.src.size())
        throw io::SnapshotError(
            "snapshot: mesh remap kind/src length mismatch");
    }
    ar.end_section();
    s.mesh.restore_state(std::move(leaves), version, std::move(remaps));
    if (s.placement.size() != s.mesh.size())
      throw io::SnapshotError(
          "snapshot: placement size does not match the restored mesh");
  } else {
    ar.field(s.mesh.version());
    ar.field(s.mesh.blocks());
    ar.count(s.mesh.remap_history());
    for (const MeshRemap& m : s.mesh.remap_history()) remap_fields(ar, m);
    ar.end_section();
  }
}

/// The trace ring, if tracing is on; a restore needs a tracer exactly
/// when the snapshot has one.
template <class Ar, class T>
void tracer_section(Ar& ar, T* tracer) {
  ar.begin_section("tracer");
  ar.expect(tracer != nullptr, "tracer presence");
  if (tracer != nullptr) {
    std::uint64_t dropped = tracer->dropped();
    std::uint64_t recorded = tracer->recorded();
    std::uint64_t next_flow_id = tracer->next_flow_id();
    ar.field(dropped);
    ar.field(recorded);
    ar.field(next_flow_id);
    if constexpr (Ar::kReading) {
      std::vector<TraceEvent> events;
      ar.count(events);
      std::vector<std::string> names(events.size());
      for (std::size_t i = 0; i < events.size(); ++i) {
        event_fields(ar, events[i], names[i]);
        events[i].name = names[i].c_str();
      }
      tracer->restore(events, dropped, recorded, next_flow_id);
    } else {
      ar.field(static_cast<std::uint32_t>(tracer->size()));
      tracer->for_each([&](const TraceEvent& ev) {
        std::string_view name = ev.name;
        event_fields(ar, ev, name);
      });
    }
  }
  ar.end_section();
}

/// Every section, in file order.
template <class Ar, class State, class Runtime, class W, class C, class T>
void snapshot_sections(Ar& ar, const SimulationConfig& config, State& state,
                       Runtime& runtime, W& workload, C& collector,
                       T* tracer) {
  meta_section(ar, config, workload, state.report.policy);
  state_section(ar, state, runtime.plan_cache.stats());
  tuner_section(ar, state);
  report_section(ar, state.report, runtime.critical_path);
  mesh_section(ar, state);

  // Runtime dynamics, each through a copy of its checkpoint state that a
  // restore hands back.
  Engine::Clock clock = runtime.engine.clock();
  ar.begin_section("engine");
  ar.field(clock.now);
  ar.field(clock.front_time);
  ar.field(clock.next_seq);
  ar.field(clock.processed);
  ar.end_section();
  Rng::State rng = runtime.rng.state();
  ar.begin_section("rng");
  rng_fields(ar, rng);
  ar.end_section();
  Fabric::State fab = runtime.fabric.export_state();
  fabric_section(ar, fab);
  if constexpr (Ar::kReading) {
    runtime.engine.restore_clock(clock);
    runtime.rng.set_state(rng);
    runtime.fabric.import_state(fab);
  }

  std::vector<std::uint8_t> blob;
  if constexpr (!Ar::kReading) workload.save_state(blob);
  ar.begin_section("workload");
  ar.field(blob);
  ar.end_section();
  if constexpr (Ar::kReading) workload.restore_state(blob);

  if constexpr (Ar::kReading)
    read_collector_section(ar, collector);
  else
    write_collector_section(ar, collector);
  tracer_section(ar, tracer);
}

}  // namespace

void write_collector_section(io::SnapshotWriter& w,
                             const Collector& collector) {
  w.begin_section("collector");
  write_table(w, collector.phases());
  write_table(w, collector.comm());
  write_table(w, collector.blocks());
  write_table(w, collector.placement());
  w.end_section();
}

void read_collector_section(io::SnapshotReader& r, Collector& collector) {
  r.begin_section("collector");
  Table phases = read_table(r, collector.phases());
  Table comm = read_table(r, collector.comm());
  Table blocks = read_table(r, collector.blocks());
  Table placement = read_table(r, collector.placement());
  r.end_section();
  collector.restore(std::move(phases), std::move(comm), std::move(blocks),
                    std::move(placement));
}

template <class Ar, class S>
void fabric_section(Ar& ar, S& fab) {
  ar.begin_section("fabric");
  rng_fields(ar, fab.rng);
  ar.field(fab.stats.remote_msgs);
  ar.field(fab.stats.shm_msgs);
  ar.field(fab.stats.remote_bytes);
  ar.field(fab.stats.shm_bytes);
  ar.field(fab.stats.shm_retries);
  ar.field(fab.stats.acks_lost);
  ar.field(fab.stats.ack_block_time);
  ar.field(fab.stats.packed_transfers);
  ar.field(fab.stats.coalesced_msgs);
  ar.field(fab.nic_busy_until);
  ar.field(fab.shm_idle);
  ar.field(fab.shm_last_post);
  // One busy-slot list per node, with no count of its own.
  if constexpr (Ar::kReading) fab.shm_busy.resize(fab.shm_idle.size());
  for (auto& busy : fab.shm_busy) ar.field(busy);
  ar.end_section();
}

template void fabric_section(io::SnapshotWriter&, const Fabric::State&);
template void fabric_section(io::SnapshotReader&, Fabric::State&);

bool save_snapshot(const std::string& path, const SimulationConfig& config,
                   const SimState& state, const SimRuntime& runtime,
                   const Workload& workload, const Collector& collector,
                   const Tracer* tracer) {
  io::SnapshotWriter w;
  snapshot_sections(w, config, state, runtime, workload, collector, tracer);
  return w.write_file(path);
}

void restore_snapshot(const std::string& path,
                      const SimulationConfig& config, SimState& state,
                      SimRuntime& runtime, Workload& workload,
                      Collector& collector, Tracer* tracer) {
  io::SnapshotReader r(path);
  snapshot_sections(r, config, state, runtime, workload, collector, tracer);
}

}  // namespace amr
