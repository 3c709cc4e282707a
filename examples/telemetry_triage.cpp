// Telemetry triage: the paper's diagnosis workflow on a simulated run.
//
// Runs a Sedov job on a cluster with an injected throttled node and an
// untuned fabric, persists the telemetry to the binary columnar format,
// re-loads it, and walks the §IV analysis: query per-rank phase totals,
// detect the throttled node cluster, detect MPI_Wait spikes, and verify
// the work/comm-time correlation before recommending interventions.
//
// Usage: ./telemetry_triage [output_dir]
#include <cstdio>
#include <filesystem>
#include <string>

#include "amr/placement/registry.hpp"
#include "amr/sim/simulation.hpp"
#include "amr/telemetry/binary_io.hpp"
#include "amr/telemetry/detectors.hpp"
#include "amr/telemetry/query.hpp"
#include "amr/workloads/sedov.hpp"

int main(int argc, char** argv) {
  using namespace amr;
  const std::string out_dir =
      argc > 1 ? argv[1]
               : std::filesystem::temp_directory_path().string();

  // A 64-rank job with one thermally throttled node and the untuned
  // fabric configuration.
  SimulationConfig cfg;
  cfg.nranks = 64;
  cfg.ranks_per_node = 16;
  cfg.root_grid = RootGrid{4, 4, 4};
  cfg.steps = 30;
  cfg.fabric = FabricParams::untuned();
  cfg.faults.add_throttle({.nodes = {2}, .factor = 4.0});

  SedovParams sp;
  sp.total_steps = 30;
  SedovWorkload sedov(sp);
  const PolicyPtr policy = make_policy("baseline");
  Simulation sim(cfg, sedov, *policy);
  std::printf("running instrumented job (64 ranks, untuned fabric, one "
              "bad node)...\n");
  const RunReport report = sim.run();

  // Persist + reload through the binary columnar format, as the real
  // pipeline would between collection and analysis.
  const std::string phases_path = out_dir + "/triage_phases.bin";
  const std::string comm_path = out_dir + "/triage_comm.bin";
  if (!write_table(sim.collector().phases(), phases_path) ||
      !write_table(sim.collector().comm(), comm_path)) {
    std::fprintf(stderr, "cannot write telemetry to %s\n", out_dir.c_str());
    return 1;
  }
  const Table phases = read_table(phases_path);
  const Table comm = read_table(comm_path);
  std::printf("telemetry: %zu phase rows, %zu comm rows -> %s\n",
              phases.num_rows(), comm.num_rows(), out_dir.c_str());

  // Step 1: where does the time go? (query: phase share totals)
  std::printf("\n[1] phase totals (query: group by phase, sum dur)\n");
  const Table by_phase =
      Query(phases).group_by({"phase"}).agg({{"dur_ns", Agg::kSum, "ns"}});
  const auto phase_ids = by_phase.i64("phase");
  const auto phase_ns = by_phase.f64("ns");
  double total_ns = 0;
  for (const double v : phase_ns) total_ns += v;
  for (std::size_t r = 0; r < by_phase.num_rows(); ++r) {
    const auto phase = static_cast<Phase>(phase_ids[r]);
    std::printf("    %-10s %6.1f%%\n", to_string(phase),
                100.0 * phase_ns[r] / total_ns);
  }

  // Step 2: sync dominates -> who is the straggler? Throttle detection
  // over per-rank compute (the Fig 2 signature: clusters of 16).
  std::printf("\n[2] throttle scan over per-rank compute time\n");
  const ClusterTopology topo(cfg.nranks, cfg.ranks_per_node);
  const ThrottleReport throttle =
      detect_throttling(report.rank_compute_seconds, topo);
  std::printf("    flagged ranks: %zu (inflation %.1fx)\n",
              throttle.flagged_ranks.size(),
              throttle.flagged_mean_inflation);
  for (const auto node : throttle.flagged_nodes)
    std::printf("    -> node %d throttled: prune and blacklist\n", node);

  // Step 3: MPI_Wait spikes (Fig 1b) from per-step send waits.
  std::printf("\n[3] send-wait spike scan (drain-queue candidate)\n");
  const auto send_waits = Query(comm).values("send_wait_ns");
  const SpikeReport spikes = detect_spikes(send_waits);
  std::printf("    %zu spikes across %zu samples; mean with spikes %.0f "
              "ns, without %.0f ns\n",
              spikes.spike_indices.size(), send_waits.size(),
              spikes.mean_with_spikes, spikes.mean_without_spikes);
  if (spikes.mean_without_spikes > 0 &&
      spikes.mean_with_spikes > 1.5 * spikes.mean_without_spikes)
    std::printf("    -> ACK-recovery signature: enable the drain queue\n");

  // Step 4: does comm time track message volume? (Fig 1a)
  std::printf("\n[4] work vs comm-time correlation\n");
  std::vector<double> work;
  std::vector<double> time;
  const auto bytes_l = comm.i64("bytes_local");
  const auto bytes_r = comm.i64("bytes_remote");
  const auto sw = comm.i64("send_wait_ns");
  const auto rw = comm.i64("recv_wait_ns");
  for (std::size_t i = 0; i < comm.num_rows(); ++i) {
    work.push_back(static_cast<double>(bytes_l[i] + bytes_r[i]));
    time.push_back(static_cast<double>(sw[i] + rw[i]));
  }
  const CorrelationReport corr = correlation_report(work, time);
  std::printf("    pearson r = %.3f over %zu samples\n", corr.pearson,
              corr.n);
  if (corr.pearson < 0.7)
    std::printf("    -> telemetry unreliable: tune the stack (queue "
                "sizes, drain queue) before fitting placement models\n");

  std::printf("\ntriage complete. Interventions mirror paper §IV: prune "
              "node(s), enable drain queue, enlarge shm queue; then "
              "re-measure before running placement experiments.\n");
  return 0;
}
