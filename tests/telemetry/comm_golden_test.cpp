// Golden-file lock on the comm table schema and contents, including the
// message-aggregation columns (msgs_coalesced, bytes_packed).
//
// A tiny deterministic Sedov run with --comm-adaptive records per-(step,
// rank) message counters into Collector's comm table; its CSV must match
// tests/telemetry/golden/comm_table.csv byte-for-byte. Any change to the
// table schema, the per-window counters the simulation feeds it, or the
// aggregation fold itself shows up as a diff here. The same run under
// overlap execution with send priority (comm_table_overlap.csv) pins the
// overlap runtime's simulated timings — its stall (recv_wait_ns) and
// send-wait columns — against a fixed reference. Regenerate with
// AMR_TELEMETRY_REGEN_GOLDEN=1 after an intentional change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "amr/placement/registry.hpp"
#include "amr/sim/simulation.hpp"
#include "amr/telemetry/csv_io.hpp"
#include "amr/workloads/sedov.hpp"

namespace amr {
namespace {

Table comm_table_from_tiny_run(bool overlap) {
  SimulationConfig cfg;
  // 8 root blocks over 4 ranks: every rank holds several blocks, so the
  // aggregation fold has same-destination sends to pack.
  cfg.nranks = 4;
  cfg.ranks_per_node = 2;
  cfg.steps = 4;
  cfg.root_grid = RootGrid{2, 2, 2};
  cfg.collect_telemetry = true;
  cfg.comm_adaptive = true;
  if (overlap) {
    cfg.execution = ExecutionMode::kOverlap;
    cfg.send_priority = true;
  }
  SedovParams sp;
  sp.total_steps = cfg.steps;
  sp.max_level = 1;
  SedovWorkload sedov(sp);
  const PolicyPtr policy = make_policy("cpl50");
  Simulation sim(cfg, sedov, *policy);
  (void)sim.run();
  Table copy = sim.collector().comm();
  return copy;
}

/// The comm table of `comm` as CSV text.
std::string csv_text(const Table& comm) {
  const std::string tmp =
      testing::TempDir() + "/comm_table_golden_test.csv";
  EXPECT_TRUE(write_csv(comm, tmp));
  std::ifstream got_in(tmp, std::ios::binary);
  EXPECT_TRUE(got_in);
  std::ostringstream got_buf;
  got_buf << got_in.rdbuf();
  std::remove(tmp.c_str());
  return got_buf.str();
}

/// Compares `got` with golden/`name`, or rewrites it under
/// AMR_TELEMETRY_REGEN_GOLDEN.
void expect_matches_golden(const std::string& got, const std::string& name) {
  const std::string path = std::string(AMR_TELEMETRY_GOLDEN_DIR) + "/" + name;
  if (std::getenv("AMR_TELEMETRY_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << got;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (run with AMR_TELEMETRY_REGEN_GOLDEN=1 to create)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

TEST(CommTable, AggregationColumnsMatchGoldenFile) {
  const std::string got = csv_text(comm_table_from_tiny_run(false));

  // The run actually exercised the aggregation path: the header carries
  // the new columns and at least one row coalesced something.
  EXPECT_NE(got.find("msgs_coalesced"), std::string::npos);
  EXPECT_NE(got.find("bytes_packed"), std::string::npos);
  expect_matches_golden(got, "comm_table.csv");
}

TEST(CommTable, OverlapTimingsMatchGoldenFile) {
  const Table comm = comm_table_from_tiny_run(true);
  // The reference is only worth pinning if the overlap runtime actually
  // stalled on a message somewhere.
  const auto wait = comm.i64("recv_wait_ns");
  EXPECT_TRUE(std::any_of(wait.begin(), wait.end(),
                          [](std::int64_t w) { return w > 0; }));
  expect_matches_golden(csv_text(comm), "comm_table_overlap.csv");
}

}  // namespace
}  // namespace amr
