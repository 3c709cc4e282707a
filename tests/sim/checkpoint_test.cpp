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
#include <string>
#include <vector>

#include "amr/faults/injector.hpp"
#include "amr/io/snapshot.hpp"
#include "amr/placement/registry.hpp"
#include "amr/sim/sim_state.hpp"
#include "amr/sim/simulation.hpp"
#include "amr/trace/chrome_export.hpp"
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

RunReport run_sedov(const SimulationConfig& cfg, const std::string& policy,
                    std::string* trace_json, Table* phases,
                    const std::string& restore_from = "") {
  SedovParams sp;
  sp.total_steps = cfg.steps;
  sp.max_level = 1;
  SedovWorkload sedov(sp);
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

TEST_F(CheckpointTest, AdaptiveCommAxesArePartOfTheFingerprint) {
  SimulationConfig ck = test_config(12);
  ck.comm_adaptive = true;
  ck.send_priority = true;
  ck.checkpoint_every = 6;
  ck.checkpoint_dir = dir_;
  run_sedov(ck, "cpl50", nullptr, nullptr);
  const std::string path = dir_ + "/ckpt_6.amrs";

  auto expect_refused = [&](const SimulationConfig& cfg,
                            const std::string& field) {
    try {
      run_sedov(cfg, "cpl50", nullptr, nullptr, path);
      FAIL() << "restore unexpectedly succeeded (" << field << ")";
    } catch (const io::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  // Adaptive off: replayed windows would pack differently.
  SimulationConfig off = test_config(12);
  off.send_priority = true;
  expect_refused(off, "adaptive packing");
  // Priority off: replayed windows would order sends differently.
  SimulationConfig noprio = test_config(12);
  noprio.comm_adaptive = true;
  expect_refused(noprio, "send priority");
  // A different global threshold changes every packing decision.
  SimulationConfig threshold = test_config(12);
  threshold.comm_adaptive = true;
  threshold.send_priority = true;
  threshold.comm_pack_threshold = 4096;
  expect_refused(threshold, "packing threshold");
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
    cfg.placement_incremental = true;
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

TEST_F(CheckpointTest, PlacementEngineAxesArePartOfTheFingerprint) {
  SimulationConfig ck = test_config(12);
  ck.auto_cplx = true;
  ck.placement_incremental = true;
  ck.checkpoint_every = 6;
  ck.checkpoint_dir = dir_;
  run_sedov(ck, "cpl50", nullptr, nullptr);
  const std::string path = dir_ + "/ckpt_6.amrs";

  auto expect_refused = [&](const SimulationConfig& cfg,
                            const std::string& field) {
    try {
      run_sedov(cfg, "cpl50", nullptr, nullptr, path);
      FAIL() << "restore unexpectedly succeeded (" << field << ")";
    } catch (const io::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  // Tuning off: the remaining epochs would place with the static X.
  SimulationConfig off = test_config(12);
  off.placement_incremental = true;
  expect_refused(off, "auto-X tuning");
  // Engine off: a different (legacy) placement code path.
  SimulationConfig legacy = test_config(12);
  legacy.auto_cplx = true;
  expect_refused(legacy, "incremental placement");
  // A different budget trims a different candidate set every epoch.
  SimulationConfig budget = test_config(12);
  budget.auto_cplx = true;
  budget.placement_incremental = true;
  budget.cplx_budget_ms = 5.0;
  expect_refused(budget, "auto-X budget");
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
  write_fabric_section(w, st);
  io::SnapshotReader r(w.finish());
  Fabric restored(topo, p, Rng(77));
  restored.import_state(read_fabric_section(r));
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

// A v6 file stored every shm slot's free time; its fabric section would
// misparse under v7, so the envelope refuses it by version, by name.
TEST_F(CheckpointTest, V6SnapshotIsRefused) {
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
  ASSERT_GT(bytes.size(), 8u);
  const std::uint32_t v6 = 6;
  std::memcpy(bytes.data() + 4, &v6, sizeof(v6));  // header: magic, version
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<long>(bytes.size()));
  }
  try {
    run_sedov(test_config(12), "cpl50", nullptr, nullptr, path);
    FAIL() << "a v6 snapshot was accepted";
  } catch (const io::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "snapshot: unsupported snapshot format version 6"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace amr
