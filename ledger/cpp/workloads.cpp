#include "workloads.hpp"

#include <filesystem>
#include <initializer_list>

#include "amr/placement/registry.hpp"
#include "amr/serve/query_endpoint.hpp"
#include "amr/serve/scheduler.hpp"
#include "amr/sim/sim_driver.hpp"
#include "amr/sim/simulation.hpp"
#include "amr/telemetry/collector.hpp"
#include "amr/workloads/cooling.hpp"
#include "amr/workloads/sedov.hpp"

namespace ledger {

namespace {

double ms_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e6;
}

double cpu_since(double c0_ms) { return cpu_now_ms() - c0_ms; }

/// splitmix64: the seed stream for workload parameters and the serve mix
/// (std distributions are implementation-defined, this is not).
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed * 0x100000001b3ull + stream;
  return mix(s);
}

template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[mix(rng) % i]);
}

/// Counters every finished simulation contributes, from its report and
/// its telemetry tables.
void add_report(const amr::RunReport& r, Layers& l) {
  l.placement_calls += static_cast<std::int64_t>(r.placement_ms.size());
  for (const double ms : r.placement_ms) l.placement_ms_total += ms;
  l.blocks_migrated += r.blocks_migrated;
  l.budget_violations += r.budget_violations;
  l.msgs_local += r.msgs_local;
  l.msgs_remote += r.msgs_remote;
  l.msgs_memcpy += r.msgs_intra_rank;
  l.msgs_coalesced += r.msgs_coalesced;
  l.bytes_remote += r.bytes_remote;
  l.blocks_initial += static_cast<std::int64_t>(r.initial_blocks);
  l.blocks_final += static_cast<std::int64_t>(r.final_blocks);
}

void add_tables(std::initializer_list<const amr::Table*> tables, Layers& l) {
  for (const amr::Table* t : tables) {
    if (t == nullptr) continue;
    l.telemetry_rows += static_cast<std::int64_t>(t->num_rows());
    l.telemetry_bytes += static_cast<std::int64_t>(t->bytes_used());
  }
}

void add_placement_table(const amr::Table& t, Layers& l) {
  if (t.num_rows() == 0) return;
  const auto cand = t.i64("candidates");
  const auto reused = t.i64("chunks_reused");
  const auto total = t.i64("chunks_total");
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    l.candidates_sum += static_cast<double>(cand[i]);
    l.chunks_reused += reused[i];
    l.chunks_total += total[i];
  }
  l.placement_rows += static_cast<std::int64_t>(t.num_rows());
  l.err_ewma_final = t.f64("err_ewma")[t.num_rows() - 1];
}

std::unique_ptr<amr::Workload> make_workload(const amr::JobSpec& spec,
                                             std::uint64_t seed) {
  if (spec.workload == "sedov") {
    amr::SedovParams p;
    p.total_steps = spec.steps;
    p.seed = derive(seed, 1);
    return std::make_unique<amr::SedovWorkload>(p);
  }
  amr::CoolingParams p;
  p.seed = derive(seed, 2);
  return std::make_unique<amr::CoolingWorkload>(p);
}

/// One simulation, owned in construction order (workload and policy are
/// borrowed by the Simulation, so they must outlive it).
struct Rig {
  std::unique_ptr<amr::Workload> workload;
  amr::PolicyPtr policy;
  std::unique_ptr<amr::Simulation> sim;
};

struct SimCase {
  amr::JobSpec spec;
  bool imbalance_trigger = false;
  /// The traced run adds a pass with the library's own event tracer on.
  bool library_trace_pass = false;
  int setup_reps = 9;
};

class SimBench final : public Bench {
 public:
  SimBench(SimCase c, std::uint64_t seed) : case_(std::move(c)), seed_(seed) {}

  int setup_reps() const override { return case_.setup_reps; }

  Setup setup_once() override {
    Setup s;
    const double c0 = cpu_now_ms();
    Rig rig = construct(false);
    s.construct_ms = cpu_since(c0);
    const double c1 = cpu_now_ms();
    rig.sim->begin();
    s.begin_ms = cpu_since(c1);
    s.total_ms = s.construct_ms + s.begin_ms;
    return s;
  }

  Pass pass(SpanRecorder* spans) override { return run(spans, false); }

  void extras(const Pass& untraced, SpanRecorder* spans, Layers& out,
              OpCount& ops) override {
    if (!case_.library_trace_pass) return;
    SpanScope scope(spans, "library_trace_pass");
    // Tracing must not change a simulated answer.
    const Pass traced = run(nullptr, true);
    ops.merge(traced.ops);
    ops.add(traced.answer == untraced.answer);
    out.trace_events = traced.layers.trace_events;
    out.trace_dropped = traced.layers.trace_dropped;
    out.trace_overhead_ratio = ratio(traced.run_cpu_ms, untraced.run_cpu_ms);
  }

 private:
  Rig construct(bool library_trace) const {
    amr::SimulationConfig cfg = amr::job_config(case_.spec);
    cfg.seed = seed_;
    if (case_.imbalance_trigger)
      cfg.trigger.kind = amr::RebalanceTriggerKind::kImbalance;
    cfg.trace_enabled = library_trace;
    Rig rig;
    rig.workload = make_workload(case_.spec, seed_);
    rig.policy = amr::make_policy(case_.spec.policy);
    rig.sim = std::make_unique<amr::Simulation>(cfg, *rig.workload,
                                                *rig.policy);
    return rig;
  }

  Pass run(SpanRecorder* spans, bool library_trace) {
    Pass p;
    Rig rig;
    {
      SpanScope s(spans, "construct");
      rig = construct(library_trace);
    }
    {
      SpanScope s(spans, "begin");
      rig.sim->begin();
    }
    amr::RunReport report;
    {
      SpanScope horizon(spans, "horizon");
      const std::int64_t t0 = now_ns();
      const double c0 = cpu_now_ms();
      for (std::int64_t i = 0; i < case_.spec.steps; ++i) {
        SpanScope s(spans, "advance");
        const double cs = cpu_now_ms();
        const std::int64_t ran = rig.sim->advance(1);
        p.step_ms.push_back(cpu_since(cs));
        p.ops.add(ran == 1);
        if (ran != 1) break;
      }
      if (rig.sim->done()) {
        SpanScope s(spans, "finish");
        report = rig.sim->finish();
      }
      p.run_ms = ms_since(t0);
      p.run_cpu_ms = cpu_since(c0);
    }
    p.steps = report.steps;
    p.placement_ms = report.placement_ms;
    p.answer = mask_host_timed(amr::compact_report_text(
        report, case_.spec.aggregate || case_.spec.comm_adaptive));
    add_report(report, p.layers);
    const amr::StepPipelineStats& ps = rig.sim->pipeline_stats();
    p.layers.plan_hits = ps.plan_hits;
    p.layers.plan_misses = ps.plan_misses;
    p.layers.plan_share_hits = ps.plan_share_hits;
    const amr::Collector& c = rig.sim->collector();
    add_tables({&c.phases(), &c.comm(), &c.blocks(), &c.shards(),
                &c.placement()},
               p.layers);
    add_placement_table(c.placement(), p.layers);
    if (const amr::Tracer* tr = rig.sim->tracer()) {
      p.layers.trace_events = static_cast<std::int64_t>(tr->recorded());
      p.layers.trace_dropped = static_cast<std::int64_t>(tr->dropped());
    }
    return p;
  }

  SimCase case_;
  std::uint64_t seed_;
};

/// Valid queries only: an invalid aggregate column aborts the process
/// inside the query engine, which no benchmark can count as a failure.
const char* const kQueries[] = {
    "select sum(dur_ns) as total, p95(dur_ns) from phases where phase == 1 "
    "group by step order by step",
    "select mean(msgs_remote) as remote, max(bytes_remote) from comm "
    "group by step order by step",
    "select * from comm where step == 3 order by rank limit 4",
    "select count, mean(dur_ns) as mean_ns from phases group by phase "
    "order by phase",
};

class ServeBench final : public Bench {
 public:
  ServeBench(std::uint64_t seed, std::string work_dir)
      : work_dir_(std::move(work_dir)) {
    opts_.quantum_steps = 4;
    opts_.serve_jobs = 2;
    opts_.max_resident_mb = kResidentMb;
    opts_.spill_dir = work_dir_;
    fleet_ = make_fleet(seed);
  }

  int setup_reps() const override { return 200; }

  Setup setup_once() override {
    Setup s;
    const double c0 = cpu_now_ms();
    amr::serve::QuantumScheduler sched(opts_);
    s.construct_ms = cpu_since(c0);
    const double c1 = cpu_now_ms();
    for (const amr::JobSpec& spec : fleet_) sched.submit(spec);
    s.begin_ms = cpu_since(c1);
    s.total_ms = s.construct_ms + s.begin_ms;
    return s;
  }

  Pass pass(SpanRecorder* spans) override {
    Pass p;
    std::unique_ptr<amr::serve::QuantumScheduler> sched;
    {
      SpanScope s(spans, "construct");
      sched = std::make_unique<amr::serve::QuantumScheduler>(opts_);
    }
    {
      SpanScope session(spans, "session");
      const std::int64_t t0 = now_ns();
      const double c0 = cpu_now_ms();
      {
        SpanScope s(spans, "submit");
        for (const amr::JobSpec& spec : fleet_) sched->submit(spec);
      }
      {
        SpanScope s(spans, "drain");
        sched->drain();
      }
      for (std::size_t id = 0; id < fleet_.size(); ++id) {
        const amr::serve::JobResult* r =
            sched->result(static_cast<std::int64_t>(id));
        const bool ok = r != nullptr && r->ok;
        p.ops.add(ok);
        p.answer += "job " + fleet_[id].id + "\n";
        if (!ok) {
          p.answer += r != nullptr ? r->error + "\n" : "missing\n";
          continue;
        }
        p.answer += mask_host_timed(r->text);
        p.steps += r->report.steps;
        p.placement_ms.insert(p.placement_ms.end(),
                              r->report.placement_ms.begin(),
                              r->report.placement_ms.end());
        add_report(r->report, p.layers);
        add_tables({r->phases.get(), r->comm.get(), r->blocks.get(),
                    r->shards.get(), r->placement.get()},
                   p.layers);
        if (r->placement) add_placement_table(*r->placement, p.layers);
        const amr::serve::JobTables jt{r->phases.get(), r->comm.get(),
                                       r->blocks.get(), r->shards.get(),
                                       r->placement.get()};
        for (const char* q : kQueries) {
          SpanScope s(spans, "query");
          std::string out;
          const double cq = cpu_now_ms();
          const std::string err = amr::serve::run_table_query(jt, q, out);
          p.layers.query_ms.push_back(cpu_since(cq));
          p.ops.add(err.empty());
          if (!err.empty()) ++p.layers.query_errors;
          p.answer += err.empty() ? out : "error: " + err + "\n";
        }
      }
      p.run_ms = ms_since(t0);
      p.run_cpu_ms = cpu_since(c0);
    }
    const amr::serve::SchedulerStats st = sched->stats();
    p.layers.plan_hits = st.plan_hits;
    p.layers.plan_misses = st.plan_misses;
    p.layers.plan_share_hits = st.plan_share_hits;
    p.layers.serve_slices = st.slices;
    p.layers.serve_evictions = st.evictions;
    p.layers.serve_restores = st.restores;
    p.layers.store_hits = st.store.hits;
    p.layers.store_lookups = st.store.hits + st.store.misses;
    return p;
  }

  /// Snapshot I/O on one tenant-sized simulation, outside the session:
  /// the median of repeated saves and of repeated restores into fresh
  /// simulations. The restored run must finish with the same answer as
  /// the uninterrupted one.
  void extras(const Pass&, SpanRecorder* spans, Layers& out,
              OpCount& ops) override {
    SpanScope scope(spans, "snapshot_io");
    amr::JobSpec spec;
    spec.workload = "sedov";
    spec.ranks = 512;
    spec.steps = 16;
    const std::string path = work_dir_ + "/ledger_io.amrs";
    std::string want;
    {
      amr::SimDriver d(spec);
      want = mask_host_timed(amr::compact_report_text(d.run(), false));
    }
    std::vector<double> save_ms;
    std::vector<double> restore_ms;
    {
      amr::SimDriver d(spec);
      d.sim().advance(spec.steps / 2);
      for (int i = 0; i < kIoReps; ++i) {
        SpanScope s(spans, "save");
        const double c0 = cpu_now_ms();
        ops.add(d.sim().save_checkpoint(path));
        save_ms.push_back(cpu_since(c0));
      }
    }
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    out.io_snapshot_mb = ec ? 0.0 : static_cast<double>(bytes) / (1 << 20);
    for (int i = 0; i < kIoReps; ++i) {
      amr::SimDriver d(spec);
      {
        SpanScope s(spans, "restore");
        const double c0 = cpu_now_ms();
        d.sim().restore_checkpoint(path);
        restore_ms.push_back(cpu_since(c0));
      }
      if (i == 0)
        ops.add(mask_host_timed(amr::compact_report_text(d.run(), false)) ==
                want);
    }
    std::filesystem::remove(path, ec);
    out.io_save_ms = median(save_ms);
    out.io_restore_ms = median(restore_ms);
  }

 private:
  static constexpr std::int64_t kResidentMb = 8;
  static constexpr int kIoReps = 9;

  /// 24 tenants: every (workload, ranks, execution) cell three times and
  /// every policy three times (cpl50 six), so the fleet's make-up is the
  /// same on every seed; the seed pairs policies with tenants and picks
  /// the submission order.
  static std::vector<amr::JobSpec> make_fleet(std::uint64_t seed) {
    std::vector<const char*> policies;
    for (int copy = 0; copy < 3; ++copy)
      for (const char* p : {"baseline", "lpt", "cdp", "cpl0", "cpl25",
                            "cpl50", "cpl50", "cpl100"})
        policies.push_back(p);
    std::uint64_t rng = derive(seed, 3);
    shuffle(policies, rng);
    std::vector<amr::JobSpec> fleet;
    for (int copy = 0; copy < 3; ++copy)
      for (const char* workload : {"sedov", "cooling"})
        for (const std::int64_t ranks : {256, 512})
          for (const bool overlap : {false, true}) {
            amr::JobSpec s;
            s.workload = workload;
            s.ranks = ranks;
            s.steps = 16;
            s.overlap = overlap;
            s.policy = policies[fleet.size()];
            fleet.push_back(s);
          }
    shuffle(fleet, rng);
    for (std::size_t i = 0; i < fleet.size(); ++i)
      fleet[i].id = std::string(1, 't').append(std::to_string(i));
    return fleet;
  }

  std::string work_dir_;
  amr::serve::ServeOptions opts_;
  std::vector<amr::JobSpec> fleet_;
};

amr::JobSpec sim_spec(const char* workload, const char* policy,
                      std::int64_t ranks, std::int64_t steps) {
  amr::JobSpec s;
  s.workload = workload;
  s.policy = policy;
  s.ranks = ranks;
  s.steps = steps;
  return s;
}

}  // namespace

std::unique_ptr<Bench> make_bench(const std::string& name, std::uint64_t seed,
                                  const std::string& work_dir) {
  if (name == "sedov_bsp_8k") {
    SimCase c;
    c.spec = sim_spec("sedov", "cpl50", 8192, 12);
    c.setup_reps = 7;
    return std::make_unique<SimBench>(c, seed);
  }
  if (name == "sedov_overlap_2k") {
    SimCase c;
    c.spec = sim_spec("sedov", "cpl50", 2048, 40);
    c.spec.overlap = true;
    c.spec.comm_adaptive = true;
    c.spec.send_priority = true;
    c.library_trace_pass = true;
    c.setup_reps = 11;
    return std::make_unique<SimBench>(c, seed);
  }
  if (name == "cooling_rebalance_4k") {
    SimCase c;
    c.spec = sim_spec("cooling", "cpl100", 4096, 40);
    c.spec.auto_cplx = true;
    c.spec.placement_incremental = true;
    c.imbalance_trigger = true;
    c.setup_reps = 9;
    return std::make_unique<SimBench>(c, seed);
  }
  if (name == "serve_evict_24")
    return std::make_unique<ServeBench>(seed, work_dir);
  return nullptr;
}

}  // namespace ledger
