// The incremental step pipeline inside a run: between regrids the
// exchange-plan cache serves most steps, and its actual hit/miss counts
// follow the (mesh, placement) version-pair prediction that the trace's
// plan-cache counter track records. Plan-level byte identity against
// the from-scratch build functions is tests/exec/plan_cache_test.cpp's job.
#include <gtest/gtest.h>

#include "amr/placement/registry.hpp"
#include "amr/sim/simulation.hpp"
#include "amr/workloads/sedov.hpp"

namespace amr {
namespace {

SimulationConfig pipeline_config() {
  SimulationConfig cfg;
  cfg.nranks = 16;
  cfg.ranks_per_node = 4;
  cfg.root_grid = RootGrid{4, 2, 2};
  cfg.steps = 16;
  cfg.fabric.remote_jitter = 0;
  return cfg;
}

SedovParams pipeline_sedov() {
  SedovParams p;
  p.total_steps = 16;
  p.max_level = 1;
  p.base_cost = us(100);
  return p;
}

TEST(StepPipeline, CacheHitsDominateBetweenRegrids) {
  SedovWorkload sedov(pipeline_sedov());
  const PolicyPtr policy = make_policy("cpl50");
  Simulation sim(pipeline_config(), sedov, *policy);
  const RunReport r = sim.run();
  const StepPipelineStats& s = sim.pipeline_stats();
  EXPECT_EQ(s.plan_hits + s.plan_misses, r.steps);
  EXPECT_GT(s.plan_hits, 0);  // sedov's check period leaves steady steps
  EXPECT_GT(s.plan_misses, 0);  // and it does regrid/migrate
  EXPECT_EQ(s.plan_hits, s.predicted_hits);
  EXPECT_EQ(s.plan_misses, s.predicted_misses);
}

}  // namespace
}  // namespace amr
