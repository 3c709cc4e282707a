// Golden-file lock on the comm table schema and contents, including the
// message-aggregation columns (msgs_coalesced, bytes_packed).
//
// A tiny deterministic Sedov run with --comm-adaptive records per-(step,
// rank) message counters into Collector's comm table; its CSV must match
// tests/telemetry/golden/comm_table.csv byte-for-byte. Any change to the
// table schema, the per-window counters the simulation feeds it, or the
// aggregation fold itself shows up as a diff here. Regenerate with
// AMR_TELEMETRY_REGEN_GOLDEN=1 after an intentional change.
#include <gtest/gtest.h>

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

Table comm_table_from_tiny_run() {
  SimulationConfig cfg;
  // 8 root blocks over 4 ranks: every rank holds several blocks, so the
  // aggregation fold has same-destination sends to pack.
  cfg.nranks = 4;
  cfg.ranks_per_node = 2;
  cfg.steps = 4;
  cfg.root_grid = RootGrid{2, 2, 2};
  cfg.collect_telemetry = true;
  cfg.comm_adaptive = true;
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

TEST(CommTable, AggregationColumnsMatchGoldenFile) {
  const Table comm = comm_table_from_tiny_run();
  const std::string tmp =
      testing::TempDir() + "/comm_table_golden_test.csv";
  ASSERT_TRUE(write_csv(comm, tmp));
  std::ifstream got_in(tmp, std::ios::binary);
  ASSERT_TRUE(got_in);
  std::ostringstream got_buf;
  got_buf << got_in.rdbuf();
  const std::string got = got_buf.str();
  std::remove(tmp.c_str());

  // The run actually exercised the aggregation path: the header carries
  // the new columns and at least one row coalesced something.
  EXPECT_NE(got.find("msgs_coalesced"), std::string::npos);
  EXPECT_NE(got.find("bytes_packed"), std::string::npos);

  const std::string path =
      std::string(AMR_TELEMETRY_GOLDEN_DIR) + "/comm_table.csv";
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

}  // namespace
}  // namespace amr
