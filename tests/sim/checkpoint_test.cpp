// Checkpoint/restart equivalence, in-process: a run restored from a
// mid-run snapshot and continued to completion must match the
// uninterrupted run field-for-field — RunReport, telemetry tables, and
// the trace event stream (compared via the exported Chrome JSON, which
// is byte-stable).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "amr/faults/injector.hpp"
#include "amr/io/snapshot.hpp"
#include "amr/placement/registry.hpp"
#include "amr/sim/sim_state.hpp"
#include "amr/sim/simulation.hpp"
#include "amr/trace/chrome_export.hpp"
#include "amr/workloads/cooling.hpp"
#include "amr/workloads/sedov.hpp"

namespace amr {
namespace {

class CheckpointTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("amr_ckpt_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

SimulationConfig test_config(std::int64_t steps) {
  SimulationConfig cfg;
  cfg.nranks = 32;
  cfg.ranks_per_node = 16;
  cfg.root_grid = RootGrid{4, 4, 2};
  cfg.steps = steps;
  cfg.trace_enabled = true;
  // A fault window whose onset and clear edges straddle the checkpoint,
  // so the restored run must reproduce both transitions.
  ThrottleFault fault;
  fault.nodes = {1};
  fault.factor = 4.0;
  fault.onset_step = steps / 3;
  fault.end_step = (2 * steps) / 3;
  cfg.faults.add_throttle(fault);
  return cfg;
}

/// The Sedov parameters of a `steps`-step test run.
SedovParams test_sedov(std::int64_t steps) {
  SedovParams sp;
  sp.total_steps = steps;
  sp.max_level = 1;
  return sp;
}

RunReport run_sedov(const SimulationConfig& cfg, const std::string& policy,
                    std::string* trace_json, Table* phases,
                    const std::string& restore_from = "") {
  SedovWorkload sedov(test_sedov(cfg.steps));
  const PolicyPtr pol = make_policy(policy);
  Simulation sim(cfg, sedov, *pol);
  if (!restore_from.empty()) sim.restore_checkpoint(restore_from);
  const RunReport report = sim.run();
  if (trace_json != nullptr) *trace_json = chrome_trace_json(*sim.tracer());
  if (phases != nullptr) *phases = sim.collector().phases();
  return report;
}

void expect_reports_equal(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.phases.compute, b.phases.compute);
  EXPECT_EQ(a.phases.comm, b.phases.comm);
  EXPECT_EQ(a.phases.sync, b.phases.sync);
  EXPECT_EQ(a.phases.rebalance, b.phases.rebalance);
  EXPECT_EQ(a.initial_blocks, b.initial_blocks);
  EXPECT_EQ(a.final_blocks, b.final_blocks);
  EXPECT_EQ(a.lb_invocations, b.lb_invocations);
  EXPECT_EQ(a.blocks_migrated, b.blocks_migrated);
  EXPECT_EQ(a.msgs_local, b.msgs_local);
  EXPECT_EQ(a.msgs_remote, b.msgs_remote);
  EXPECT_EQ(a.msgs_intra_rank, b.msgs_intra_rank);
  EXPECT_EQ(a.bytes_local, b.bytes_local);
  EXPECT_EQ(a.bytes_remote, b.bytes_remote);
  EXPECT_EQ(a.msgs_coalesced, b.msgs_coalesced);
  EXPECT_EQ(a.bytes_packed, b.bytes_packed);
  EXPECT_EQ(a.critical_path.windows, b.critical_path.windows);
  EXPECT_EQ(a.critical_path.one_rank_paths, b.critical_path.one_rank_paths);
  EXPECT_EQ(a.critical_path.two_rank_paths, b.critical_path.two_rank_paths);
  EXPECT_EQ(a.rank_compute_seconds, b.rank_compute_seconds);
}

void expect_tables_equal(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_cols(), b.num_cols());
  for (std::size_t c = 0; c < a.num_cols(); ++c)
    for (std::size_t r = 0; r < a.num_rows(); ++r)
      EXPECT_EQ(a.value(c, r), b.value(c, r)) << "col " << c << " row " << r;
}

TEST_F(CheckpointTest, RestoredRunMatchesUninterrupted) {
  const std::int64_t steps = 18;

  std::string full_trace;
  Table full_phases;
  const RunReport full =
      run_sedov(test_config(steps), "cpl50", &full_trace, &full_phases);

  // Same run, snapshotting every 5 steps (5, 10, 15 — inside, at the
  // edge of, and after the fault window).
  SimulationConfig ck = test_config(steps);
  ck.checkpoint_every = 5;
  ck.checkpoint_dir = dir_;
  std::string ck_trace;
  Table ck_phases;
  const RunReport ck_report =
      run_sedov(ck, "cpl50", &ck_trace, &ck_phases);
  expect_reports_equal(full, ck_report);
  EXPECT_EQ(full_trace, ck_trace);
  expect_tables_equal(full_phases, ck_phases);

  for (const std::int64_t at : {5, 10, 15}) {
    const std::string path =
        dir_ + "/ckpt_" + std::to_string(at) + ".amrs";
    std::string trace;
    Table phases;
    const RunReport restored =
        run_sedov(test_config(steps), "cpl50", &trace, &phases, path);
    SCOPED_TRACE("restore at step " + std::to_string(at));
    expect_reports_equal(full, restored);
    EXPECT_EQ(full_trace, trace);
    expect_tables_equal(full_phases, phases);
  }
}

TEST_F(CheckpointTest, ReplaySwapsPlacementPolicy) {
  const std::int64_t steps = 14;
  SimulationConfig ck = test_config(steps);
  ck.checkpoint_every = 7;
  ck.checkpoint_dir = dir_;
  const RunReport original = run_sedov(ck, "cpl50", nullptr, nullptr);

  // Re-drive the second half under a different policy: the restore must
  // accept the snapshot (policy is not part of the config fingerprint)
  // and the report must carry the replayed policy's name.
  const RunReport replayed =
      run_sedov(test_config(steps), "baseline", nullptr, nullptr,
                dir_ + "/ckpt_7.amrs");
  EXPECT_EQ(replayed.policy, "baseline");
  EXPECT_EQ(replayed.steps, original.steps);
  EXPECT_EQ(replayed.initial_blocks, original.initial_blocks);
}

TEST_F(CheckpointTest, MismatchedConfigIsRejected) {
  SimulationConfig ck = test_config(12);
  ck.checkpoint_every = 6;
  ck.checkpoint_dir = dir_;
  run_sedov(ck, "cpl50", nullptr, nullptr);

  SimulationConfig other = test_config(12);
  other.nranks = 16;
  other.root_grid = RootGrid{4, 2, 2};
  EXPECT_THROW(run_sedov(other, "cpl50", nullptr, nullptr,
                         dir_ + "/ckpt_6.amrs"),
               io::SnapshotError);

  // Same shape but a different fault schedule is also a different run.
  SimulationConfig refault = test_config(12);
  ThrottleFault extra;
  extra.nodes = {0};
  extra.factor = 2.0;
  refault.faults.add_throttle(extra);
  EXPECT_THROW(run_sedov(refault, "cpl50", nullptr, nullptr,
                         dir_ + "/ckpt_6.amrs"),
               io::SnapshotError);
}

/// A whole file's bytes.
std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// Restore reads every field back into the member it came from: a
// snapshot restored into a fresh Simulation and saved at once is the
// same file, byte for byte. (Two runs' files cannot be compared: each
// records its own host placement ms.)
TEST_F(CheckpointTest, RestoreThenSaveIsByteIdentical) {
  struct Case {
    const char* name;
    SimulationConfig cfg;
    bool cooling = false;
  };
  // test_config traces and throttles a node over steps 4-8.
  std::vector<Case> cases(3);
  cases[0] = {"bsp, faults, trace", test_config(12)};
  cases[1] = {"overlap, adaptive packing, send priority", test_config(12)};
  cases[1].cfg.execution = ExecutionMode::kOverlap;
  cases[1].cfg.comm_adaptive = true;
  cases[1].cfg.send_priority = true;
  cases[2] = {"cooling, auto-X", test_config(12), /*cooling=*/true};
  cases[2].cfg.auto_cplx = true;
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    // A small trace ring keeps the files small: the default capacity
    // would store hundreds of thousands of events.
    c.cfg.trace.capacity = 20000;
    const std::string first = dir_ + "/first.amrs";
    const std::string second = dir_ + "/second.amrs";
    for (const std::string& path : {first, second}) {
      SedovWorkload sedov(test_sedov(c.cfg.steps));
      CoolingWorkload cooling(CoolingParams{});
      Workload& work = c.cooling ? static_cast<Workload&>(cooling) : sedov;
      const PolicyPtr pol = make_policy(c.cooling ? "cpl100" : "cpl50");
      Simulation sim(c.cfg, work, *pol);
      if (path == first) {
        sim.begin();
        ASSERT_EQ(sim.advance(6), 6);
      } else {
        sim.restore_checkpoint(first);
      }
      ASSERT_TRUE(sim.save_checkpoint(path));
    }
    const std::vector<char> saved = file_bytes(first);
    ASSERT_FALSE(saved.empty());
    EXPECT_TRUE(saved == file_bytes(second));
  }
}

TEST_F(CheckpointTest, AdaptiveCommRestoreMatchesUninterrupted) {
  // Adaptive packing + send priority across a mid-run restore: the
  // snapshot carries last_straggler, so the restored run must schedule
  // identically to the uninterrupted one.
  const std::int64_t steps = 14;
  auto adaptive_config = [&] {
    SimulationConfig cfg = test_config(steps);
    cfg.comm_adaptive = true;
    cfg.send_priority = true;
    return cfg;
  };
  std::string full_trace;
  const RunReport full =
      run_sedov(adaptive_config(), "cpl50", &full_trace, nullptr);
  EXPECT_GT(full.msgs_coalesced, 0);

  SimulationConfig ck = adaptive_config();
  ck.checkpoint_every = 7;
  ck.checkpoint_dir = dir_;
  run_sedov(ck, "cpl50", nullptr, nullptr);

  std::string trace;
  const RunReport restored = run_sedov(adaptive_config(), "cpl50", &trace,
                                       nullptr, dir_ + "/ckpt_7.amrs");
  expect_reports_equal(full, restored);
  EXPECT_EQ(full_trace, trace);
}

TEST_F(CheckpointTest, AutoCplxRestoreMatchesUninterrupted) {
  // Auto-X tuning across a mid-run restore: the snapshot's "tuner"
  // section carries the surrogate weights, error EWMA, and epoch
  // accumulators, so the restored run's tuning decisions — and thus its
  // placements, messages, and trace — must match the uninterrupted run.
  const std::int64_t steps = 18;
  auto auto_config = [&] {
    SimulationConfig cfg = test_config(steps);
    cfg.auto_cplx = true;
    return cfg;
  };
  std::string full_trace;
  Table full_phases;
  const RunReport full =
      run_sedov(auto_config(), "cpl50", &full_trace, &full_phases);
  EXPECT_EQ(full.policy, "auto-cplx");

  SimulationConfig ck = auto_config();
  ck.checkpoint_every = 5;
  ck.checkpoint_dir = dir_;
  run_sedov(ck, "cpl50", nullptr, nullptr);

  // Step 5 lands mid-tuning: decisions and observations both straddle
  // the snapshot; 15 exercises the tail end of the run.
  for (const std::int64_t at : {5, 10, 15}) {
    const std::string path =
        dir_ + "/ckpt_" + std::to_string(at) + ".amrs";
    std::string trace;
    Table phases;
    const RunReport restored =
        run_sedov(auto_config(), "cpl50", &trace, &phases, path);
    SCOPED_TRACE("restore at step " + std::to_string(at));
    expect_reports_equal(full, restored);
    EXPECT_EQ(full_trace, trace);
    expect_tables_equal(full_phases, phases);
  }
}

// A config fingerprint entry and an edit that changes that entry alone:
// an edit of the config, or of the restoring workload's parameters.
struct FingerprintRow {
  const char* entry;
  std::function<void(SimulationConfig&)> edit;
  bool cooling = false;  ///< restore under the cooling workload
  std::function<void(SedovParams&)> edit_sedov = nullptr;
  std::function<void(CoolingParams&)> edit_cooling = nullptr;
};

// Restores the snapshot at `path` under `base` and the workload it was
// saved with (test_sedov, or default cooling parameters) with each row's
// edit applied; every restore must be refused naming the row's entry.
void expect_refused_by_name(const std::string& path,
                            const std::function<SimulationConfig()>& base,
                            const std::vector<FingerprintRow>& rows) {
  for (const FingerprintRow& row : rows) {
    SCOPED_TRACE(row.entry);
    SimulationConfig cfg = base();
    row.edit(cfg);
    SedovParams sp = test_sedov(base().steps);
    if (row.edit_sedov) row.edit_sedov(sp);
    CoolingParams cp;
    if (row.edit_cooling) row.edit_cooling(cp);
    SedovWorkload sedov(sp);
    CoolingWorkload cooling(cp);
    Workload& work = row.cooling ? static_cast<Workload&>(cooling) : sedov;
    const PolicyPtr pol = make_policy("cpl50");
    Simulation sim(cfg, work, *pol);
    try {
      sim.restore_checkpoint(path);
      ADD_FAILURE() << "restore unexpectedly succeeded";
    } catch (const io::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("config mismatch on ") +
                                           row.entry + " ("),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(CheckpointTest, AdaptiveCommAxesArePartOfTheFingerprint) {
  const auto base = [] {
    SimulationConfig cfg = test_config(12);
    cfg.comm_adaptive = true;
    cfg.send_priority = true;
    return cfg;
  };
  SimulationConfig ck = base();
  ck.checkpoint_every = 6;
  ck.checkpoint_dir = dir_;
  run_sedov(ck, "cpl50", nullptr, nullptr);
  expect_refused_by_name(
      dir_ + "/ckpt_6.amrs", base,
      {// Adaptive off: replayed windows would pack differently.
       {"adaptive packing",
        [](SimulationConfig& c) { c.comm_adaptive = false; }},
       // Priority off: replayed windows would order sends differently.
       {"send priority",
        [](SimulationConfig& c) { c.send_priority = false; }}});
}

TEST_F(CheckpointTest, PlacementEngineAxesArePartOfTheFingerprint) {
  const auto base = [] {
    SimulationConfig cfg = test_config(12);
    cfg.auto_cplx = true;
    return cfg;
  };
  SimulationConfig ck = base();
  ck.checkpoint_every = 6;
  ck.checkpoint_dir = dir_;
  run_sedov(ck, "cpl50", nullptr, nullptr);
  // Tuning off: the remaining epochs would place with the static X.
  expect_refused_by_name(
      dir_ + "/ckpt_6.amrs", base,
      {{"auto-X tuning", [](SimulationConfig& c) { c.auto_cplx = false; }}});
}

// One row per config fingerprint entry: each changes that entry alone,
// and the restore must be refused naming it. The snapshot comes from a
// run with every mode switch on, so each row can turn one off.
TEST_F(CheckpointTest, EveryFingerprintAxisIsRefusedByName) {
  const auto base = [] {
    SimulationConfig cfg = test_config(12);
    cfg.comm_adaptive = true;
    cfg.send_priority = true;
    cfg.auto_cplx = true;
    return cfg;
  };
  SimulationConfig ck = base();
  ck.checkpoint_every = 6;
  ck.checkpoint_dir = dir_;
  run_sedov(ck, "cpl50", nullptr, nullptr);
  const std::string path = dir_ + "/ckpt_6.amrs";

  // Rebuild the one-throttle schedule with `edit` applied to it.
  const auto refault = [](std::function<void(ThrottleFault&)> edit) {
    return [edit](SimulationConfig& c) {
      ThrottleFault f = c.faults.throttles().front();
      edit(f);
      c.faults = FaultInjector{};
      c.faults.add_throttle(f);
    };
  };
  expect_refused_by_name(path, base, {
      {"nranks", [](SimulationConfig& c) { c.nranks = 16; }},
      {"ranks_per_node", [](SimulationConfig& c) { c.ranks_per_node = 8; }},
      {"root_grid.nx", [](SimulationConfig& c) { c.root_grid.nx = 2; }},
      {"root_grid.ny", [](SimulationConfig& c) { c.root_grid.ny = 2; }},
      {"root_grid.nz", [](SimulationConfig& c) { c.root_grid.nz = 4; }},
      {"seed", [](SimulationConfig& c) { c.seed += 1; }},
      {"execution mode",
       [](SimulationConfig& c) { c.execution = ExecutionMode::kOverlap; }},
      {"task ordering",
       [](SimulationConfig& c) { c.ordering = TaskOrdering::kComputeFirst; }},
      {"flux correction",
       [](SimulationConfig& c) { c.include_flux_correction = false; }},
      // Adaptive off: replayed windows would pack differently.
      {"adaptive packing",
       [](SimulationConfig& c) { c.comm_adaptive = false; }},
      // Priority off: replayed windows would order sends differently.
      {"send priority", [](SimulationConfig& c) { c.send_priority = false; }},
      // Tuning off: the remaining epochs would place with the static X.
      {"auto-X tuning", [](SimulationConfig& c) { c.auto_cplx = false; }},
      {"collect_telemetry",
       [](SimulationConfig& c) { c.collect_telemetry = false; }},
      {"trace_enabled", [](SimulationConfig& c) { c.trace_enabled = false; }},
      {"workload", [](SimulationConfig&) {}, /*cooling=*/true},
      {"fault schedule size",
       [](SimulationConfig& c) {
         ThrottleFault extra;
         extra.nodes = {0};
         extra.factor = 2.0;
         c.faults.add_throttle(extra);
       }},
      {"fault nodes", refault([](ThrottleFault& f) { f.nodes = {0}; })},
      {"fault factor", refault([](ThrottleFault& f) { f.factor = 2.0; })},
      {"fault onset step",
       refault([](ThrottleFault& f) { f.onset_step += 1; })},
      {"fault end step", refault([](ThrottleFault& f) { f.end_step += 1; })},
  });

  // Every workload parameter, against a snapshot of its own workload.
  const auto keep = [](SimulationConfig&) {};
  const auto sedov = [&](const char* entry,
                         std::function<void(SedovParams&)> edit) {
    return FingerprintRow{entry, keep, false, std::move(edit), nullptr};
  };
  expect_refused_by_name(path, base, {
      sedov("sedov.center.x", [](SedovParams& p) { p.center[0] = 0.4; }),
      sedov("sedov.center.y", [](SedovParams& p) { p.center[1] = 0.4; }),
      sedov("sedov.center.z", [](SedovParams& p) { p.center[2] = 0.4; }),
      sedov("sedov.max_radius", [](SedovParams& p) { p.max_radius = 0.8; }),
      // The front's time scale: a longer --steps moves it more slowly.
      sedov("sedov.total_steps", [](SedovParams& p) { p.total_steps += 8; }),
      sedov("sedov.shell_half_width",
            [](SedovParams& p) { p.shell_half_width = 0.05; }),
      sedov("sedov.coarsen_margin",
            [](SedovParams& p) { p.coarsen_margin = 3.0; }),
      sedov("sedov.max_level", [](SedovParams& p) { p.max_level = 2; }),
      sedov("sedov.check_period", [](SedovParams& p) { p.check_period = 4; }),
      sedov("sedov.base_cost", [](SedovParams& p) { p.base_cost = us(200.0); }),
      sedov("sedov.front_boost", [](SedovParams& p) { p.front_boost = 2.0; }),
      sedov("sedov.cost_sigma", [](SedovParams& p) { p.cost_sigma = 0.05; }),
      sedov("sedov.noise_sigma", [](SedovParams& p) { p.noise_sigma = 0.02; }),
      sedov("sedov.hot_fraction",
            [](SedovParams& p) { p.hot_fraction = 0.2; }),
      sedov("sedov.hot_mu", [](SedovParams& p) { p.hot_mu = 0.7; }),
      sedov("sedov.hot_sigma", [](SedovParams& p) { p.hot_sigma = 0.2; }),
      sedov("sedov.jitter_sigma",
            [](SedovParams& p) { p.jitter_sigma = 0.05; }),
      sedov("sedov.seed", [](SedovParams& p) { p.seed += 1; }),
  });

  SimulationConfig cool = base();
  cool.checkpoint_every = 6;
  cool.checkpoint_dir = dir_ + "/cooling";
  std::filesystem::create_directories(cool.checkpoint_dir);
  {
    CoolingWorkload cooling(CoolingParams{});
    const PolicyPtr pol = make_policy("cpl50");
    Simulation(cool, cooling, *pol).run();
  }
  const auto cooling = [&](const char* entry,
                           std::function<void(CoolingParams&)> edit) {
    return FingerprintRow{entry, keep, true, nullptr, std::move(edit)};
  };
  expect_refused_by_name(cool.checkpoint_dir + "/ckpt_6.amrs", base, {
      cooling("cooling.center.x", [](CoolingParams& p) { p.center[0] = 0.4; }),
      cooling("cooling.center.y", [](CoolingParams& p) { p.center[1] = 0.4; }),
      cooling("cooling.center.z", [](CoolingParams& p) { p.center[2] = 0.4; }),
      cooling("cooling.clump_radius",
              [](CoolingParams& p) { p.clump_radius = 0.2; }),
      cooling("cooling.max_level", [](CoolingParams& p) { p.max_level = 2; }),
      cooling("cooling.base_cost",
              [](CoolingParams& p) { p.base_cost = us(200.0); }),
      cooling("cooling.clump_boost",
              [](CoolingParams& p) { p.clump_boost = 4.0; }),
      cooling("cooling.falloff", [](CoolingParams& p) { p.falloff = 2.0; }),
      cooling("cooling.noise_sigma",
              [](CoolingParams& p) { p.noise_sigma = 0.2; }),
      cooling("cooling.seed", [](CoolingParams& p) { p.seed += 1; }),
  });
}

// Cooling has no step-count parameter, so its snapshot restores into a
// longer run and finishes it exactly as the uninterrupted longer run.
TEST_F(CheckpointTest, CoolingRestoreContinuesToALongerHorizon) {
  const auto cooling_run = [](SimulationConfig cfg, Table* phases,
                              const std::string& restore_from) {
    cfg.faults = FaultInjector{};  // its window would bind the step count
    CoolingWorkload cooling(CoolingParams{});
    const PolicyPtr pol = make_policy("cpl100");
    Simulation sim(cfg, cooling, *pol);
    if (!restore_from.empty()) sim.restore_checkpoint(restore_from);
    const RunReport report = sim.run();
    *phases = sim.collector().phases();
    return report;
  };
  SimulationConfig ck = test_config(12);
  ck.checkpoint_every = 6;
  ck.checkpoint_dir = dir_;
  Table phases;
  cooling_run(ck, &phases, "");

  Table full_phases;
  const RunReport full = cooling_run(test_config(18), &full_phases, "");
  Table restored_phases;
  const RunReport restored = cooling_run(test_config(18), &restored_phases,
                                         dir_ + "/ckpt_6.amrs");
  expect_reports_equal(full, restored);
  expect_tables_equal(full_phases, restored_phases);
}

TEST_F(CheckpointTest, CorruptSnapshotFailsWithDiagnostic) {
  SimulationConfig ck = test_config(12);
  ck.checkpoint_every = 6;
  ck.checkpoint_dir = dir_;
  run_sedov(ck, "cpl50", nullptr, nullptr);

  const std::string path = dir_ + "/ckpt_6.amrs";
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<long>(bytes.size()));
  }
  EXPECT_THROW(run_sedov(test_config(12), "cpl50", nullptr, nullptr, path),
               io::SnapshotError);
}

// The fabric section carries only busy shm slots (format v7). Fill a
// slow 8-slot queue past capacity, round-trip the section through an
// in-memory snapshot, and check the restored fabric times the same
// follow-on traffic as the original.
TEST(CheckpointFabric, SectionRoundTripsBusySlots) {
  const ClusterTopology topo(8, 4);
  FabricParams p = FabricParams::untuned();
  p.shm_gbytes_per_sec = 0.01;  // each 1 KB message holds a slot 100 us
  Fabric original(topo, p, Rng(5));
  for (std::int32_t i = 0; i < 12; ++i)
    original.transfer(i % 4, (i + 1) % 4, 1000, us(1) * i);
  original.transfer(4, 0, 1000, us(3));  // remote: NIC and RNG state
  const Fabric::State st = original.export_state();
  ASSERT_EQ(st.shm_idle[0], 0);
  ASSERT_EQ(st.shm_busy[0].size(), 8u);

  io::SnapshotWriter w;
  fabric_section(w, st);
  io::SnapshotReader r(w.finish());
  Fabric::State read;
  fabric_section(r, read);
  Fabric restored(topo, p, Rng(77));
  restored.import_state(read);
  EXPECT_TRUE(r.peek_section().empty());

  for (std::int32_t i = 0; i < 20; ++i) {
    const std::int32_t src = i % 8;
    const std::int32_t dst = (i * 3 + 1) % 8 == src ? (src + 1) % 8
                                                    : (i * 3 + 1) % 8;
    const TimeNs at = us(20) + us(7) * i;
    const TransferTiming a = original.transfer(src, dst, 1000, at);
    const TransferTiming b = restored.transfer(src, dst, 1000, at);
    EXPECT_EQ(a.sender_release, b.sender_release) << i;
    EXPECT_EQ(a.delivery, b.delivery) << i;
    EXPECT_EQ(a.shm_retries, b.shm_retries) << i;
    EXPECT_EQ(a.ack_lost, b.ack_lost) << i;
  }
  EXPECT_GT(restored.stats().shm_retries, 0);
  EXPECT_EQ(original.stats().shm_retries, restored.stats().shm_retries);
}

/// Write a checkpoint, relabel its header as format `version`, and
/// expect the restore to be refused by version, by name.
void expect_version_refused(const std::string& dir, std::uint32_t version) {
  SimulationConfig ck = test_config(12);
  ck.checkpoint_every = 6;
  ck.checkpoint_dir = dir;
  run_sedov(ck, "cpl50", nullptr, nullptr);

  const std::string path = dir + "/ckpt_6.amrs";
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 8u);
  std::memcpy(bytes.data() + 4, &version, sizeof(version));  // after magic
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<long>(bytes.size()));
  }
  try {
    run_sedov(test_config(12), "cpl50", nullptr, nullptr, path);
    FAIL() << "a v" << version << " snapshot was accepted";
  } catch (const io::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "snapshot: unsupported snapshot format version " +
                  std::to_string(version)),
              std::string::npos)
        << e.what();
  }
}

// A v6 file stored every shm slot's free time; its fabric section would
// misparse under v7, so the envelope refuses it by version, by name.
TEST_F(CheckpointTest, V6SnapshotIsRefused) {
  expect_version_refused(dir_, 6);
}

// A v8 file stored every telemetry cell as a raw 8-byte value; its
// collector section would misparse under v9.
TEST_F(CheckpointTest, V8SnapshotIsRefused) {
  expect_version_refused(dir_, 8);
}

// A v9 file's meta section carries the incremental-placement bit, which
// would misalign every later fingerprint field under v10.
TEST_F(CheckpointTest, V9SnapshotIsRefused) {
  expect_version_refused(dir_, 9);
}

// A v10 file's meta section carries the packing threshold, the auto-X
// budget and two telemetry switches, and its collector section a
// block-records flag, which would misalign every later field under v11.
TEST_F(CheckpointTest, V10SnapshotIsRefused) {
  expect_version_refused(dir_, 10);
}

// A v11 file's meta section ends its workload entry at the name; under
// v12 the workload's parameters follow it, so every later field would
// misalign.
TEST_F(CheckpointTest, V11SnapshotIsRefused) {
  expect_version_refused(dir_, 11);
}

/// The raw body of one named section of a snapshot file.
std::vector<char> section_body(const std::string& path,
                               const std::string& name) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  std::size_t at = 16;  // magic, version, payload size
  while (at + 4 <= bytes.size()) {
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + at, sizeof len);
    const std::string got(bytes.data() + at + 4, len);
    std::uint64_t body = 0;
    std::memcpy(&body, bytes.data() + at + 4 + len, sizeof body);
    at += 4 + len + 8;
    if (got == name)
      return {bytes.begin() + static_cast<std::ptrdiff_t>(at),
              bytes.begin() + static_cast<std::ptrdiff_t>(at + body)};
    at += body;
  }
  ADD_FAILURE() << "no section " << name << " in " << path;
  return {};
}

// Telemetry chunks are cut at fixed row multiples, so a run restored
// from a snapshot taken mid-chunk seals the same chunks as the
// uninterrupted run: every later snapshot's collector section is byte
// for byte the same. (Other sections may differ: the rebuilt plan cache
// counts one extra miss per restore.)
TEST_F(CheckpointTest, MidChunkRestoreKeepsLaterTelemetryBytes) {
  const std::int64_t steps = 48;
  SimulationConfig ck = test_config(steps);
  ck.checkpoint_every = 8;
  ck.checkpoint_dir = dir_ + "/full";
  std::filesystem::create_directories(ck.checkpoint_dir);
  Table full_phases;
  run_sedov(ck, "cpl50", nullptr, &full_phases);
  ASSERT_GT(full_phases.num_rows(), Table::kChunkRows);

  SimulationConfig resumed = test_config(steps);
  resumed.checkpoint_every = 8;
  resumed.checkpoint_dir = dir_ + "/resumed";
  std::filesystem::create_directories(resumed.checkpoint_dir);
  const std::string first = dir_ + "/full/ckpt_8.amrs";
  run_sedov(resumed, "cpl50", nullptr, nullptr, first);
  Collector at_first;
  {
    io::SnapshotReader r(first);
    while (r.peek_section() != "collector") r.skip_section();
    read_collector_section(r, at_first);
  }
  ASSERT_NE(at_first.phases().num_rows() % Table::kChunkRows, 0u);
  ASSERT_LT(at_first.phases().num_rows(), Table::kChunkRows);

  for (const std::int64_t at : {16, 24, 32, 40}) {
    const std::string name = "/ckpt_" + std::to_string(at) + ".amrs";
    SCOPED_TRACE(name);
    EXPECT_EQ(section_body(dir_ + "/full" + name, "collector"),
              section_body(dir_ + "/resumed" + name, "collector"));
  }
}

/// A collector section whose phases table holds `rows` rows stored as
/// `chunks` chunks of `width` bits (base 0, max 7) with `words` words
/// each; the other three tables are empty.
std::vector<std::uint8_t> collector_snapshot(std::uint64_t rows,
                                             std::uint64_t chunks,
                                             std::uint8_t width,
                                             std::uint64_t words) {
  const Collector schema;
  io::SnapshotWriter w;
  w.begin_section("collector");
  w.field(rows);
  w.field(std::uint32_t{4});
  for (int c = 0; c < 4; ++c) {
    w.field(ColType::kI64);
    w.field(chunks);
    for (std::uint64_t k = 0; k < chunks; ++k) {
      w.field(std::int64_t{0});
      w.field(std::int64_t{7});
      w.field(width);
      w.field(std::vector<std::uint64_t>(words, 0));
    }
    w.field(std::vector<std::uint64_t>(rows % Table::kChunkRows, 0));
  }
  for (const Table* t : {&schema.comm(), &schema.blocks(),
                         &schema.placement()}) {
    w.field(std::uint64_t{0});
    w.field(static_cast<std::uint32_t>(t->num_cols()));
    for (std::size_t c = 0; c < t->num_cols(); ++c) {
      w.field(t->col_type(c));
      w.field(std::uint64_t{0});
      w.field(std::vector<std::uint64_t>{});
    }
  }
  w.end_section();
  return w.finish();
}

std::string collector_error(std::vector<std::uint8_t> bytes) {
  try {
    io::SnapshotReader r(std::move(bytes));
    Collector c;
    read_collector_section(r, c);
  } catch (const io::SnapshotError& e) {
    return e.what();
  }
  return "";
}

TEST(CheckpointCollector, MalformedChunksAreRefusedByName) {
  constexpr std::uint64_t kRows = Table::kChunkRows + 1;
  {
    io::SnapshotReader r(collector_snapshot(kRows, 1, 3, 192));
    Collector c;
    read_collector_section(r, c);  // the well-formed baseline
    EXPECT_EQ(c.phases().num_rows(), kRows);
  }
  EXPECT_NE(collector_error(collector_snapshot(kRows, 1, 65, 65 * 64))
                .find("snapshot: table 'phases' column 'step' chunk 0: "
                      "width 65 exceeds 64"),
            std::string::npos);
  EXPECT_NE(collector_error(collector_snapshot(kRows, 1, 3, 191))
                .find("payload of 191 words, not 192"),
            std::string::npos);
  EXPECT_NE(collector_error(collector_snapshot(2 * kRows, 1, 3, 192))
                .find("do not match the row count"),
            std::string::npos);
  EXPECT_NE(collector_error(collector_snapshot(kRows, 1, 4, 256))
                .find("does not match its range"),
            std::string::npos);
}

}  // namespace
}  // namespace amr
