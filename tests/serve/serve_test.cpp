// The serve stack in-process: the line protocol must parse exactly the
// documented dialect and reject everything else, the query endpoint must
// agree with the underlying Query engine, and the QuantumScheduler must
// honor the byte-identity contract — a job's report text is the same
// standalone, multiplexed with any tenant mix, with plan sharing on or
// off, and across eviction/restore cycles (including evictions landing
// inside a fault window).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "amr/serve/job_protocol.hpp"
#include "amr/serve/query_endpoint.hpp"
#include "amr/serve/scheduler.hpp"
#include "amr/simmpi/comm.hpp"
#include "amr/telemetry/query.hpp"

namespace amr::serve {
namespace {

// ---------------------------------------------------------------- protocol

TEST(JobProtocol, BlankAndCommentLinesAreIgnored) {
  EXPECT_EQ(parse_serve_line("").kind, ServeRequest::Kind::kNone);
  EXPECT_EQ(parse_serve_line("   \t ").kind, ServeRequest::Kind::kNone);
  EXPECT_EQ(parse_serve_line("# a comment").kind,
            ServeRequest::Kind::kNone);
}

TEST(JobProtocol, JobObjectPopulatesTheSpec) {
  const ServeRequest req = parse_serve_line(
      "{\"id\": \"what-if\", \"workload\": \"cooling\", \"policy\": "
      "\"lpt\", \"ranks\": 128, \"steps\": 12, \"execution\": "
      "\"overlap\", \"faults\": 2, \"send_priority\": true}");
  ASSERT_EQ(req.kind, ServeRequest::Kind::kJob);
  EXPECT_EQ(req.job.id, "what-if");
  EXPECT_EQ(req.job.workload, "cooling");
  EXPECT_EQ(req.job.policy, "lpt");
  EXPECT_EQ(req.job.ranks, 128);
  EXPECT_EQ(req.job.steps, 12);
  EXPECT_TRUE(req.job.overlap);
  EXPECT_EQ(req.job.fault_nodes, 2);
  EXPECT_TRUE(req.job.send_priority);
  // Untouched fields keep the `amrcplx run` defaults.
  EXPECT_FALSE(req.job.aggregate);
  EXPECT_FALSE(req.job.comm_adaptive);
}

TEST(JobProtocol, AggregateIsASecondSpellingOfCommAdaptive) {
  // The two fields must configure the same run: identical packing
  // fields in job_config, with or without a threshold override.
  for (const char* extra : {"", ", \"pack_threshold\": 2560"}) {
    const ServeRequest agg = parse_serve_line(
        std::string("{\"execution\": \"overlap\", \"aggregate\": true") +
        extra + "}");
    const ServeRequest adaptive = parse_serve_line(
        std::string("{\"execution\": \"overlap\", "
                    "\"comm_adaptive\": true") +
        extra + "}");
    ASSERT_EQ(agg.kind, ServeRequest::Kind::kJob) << agg.error;
    ASSERT_EQ(adaptive.kind, ServeRequest::Kind::kJob) << adaptive.error;
    EXPECT_EQ(validate_job(agg.job), "") << extra;
    EXPECT_EQ(validate_job(adaptive.job), "") << extra;
    const SimulationConfig a = job_config(agg.job);
    const SimulationConfig b = job_config(adaptive.job);
    EXPECT_TRUE(a.comm_adaptive) << extra;
    EXPECT_EQ(a.comm_adaptive, b.comm_adaptive) << extra;
    EXPECT_EQ(a.comm_pack_threshold, b.comm_pack_threshold) << extra;
    EXPECT_EQ(a.send_priority, b.send_priority) << extra;
  }
}

TEST(JobProtocol, UnknownAndMistypedFieldsAreRejected) {
  // A typo'd key must fail the line, not silently run a default config.
  const ServeRequest typo = parse_serve_line("{\"polcy\": \"lpt\"}");
  ASSERT_EQ(typo.kind, ServeRequest::Kind::kError);
  EXPECT_NE(typo.error.find("polcy"), std::string::npos);

  EXPECT_EQ(parse_serve_line("{\"ranks\": \"64\"}").kind,
            ServeRequest::Kind::kError);
  EXPECT_EQ(parse_serve_line("{\"execution\": \"fancy\"}").kind,
            ServeRequest::Kind::kError);
  EXPECT_EQ(parse_serve_line("{\"policy\": \"lpt\"} trailing").kind,
            ServeRequest::Kind::kError);
  EXPECT_EQ(parse_serve_line("{\"policy\" \"lpt\"}").kind,
            ServeRequest::Kind::kError);
}

TEST(JobProtocol, QueryAndStatsCommands) {
  const ServeRequest q =
      parse_serve_line("query sweep-3 select * from comm limit 5");
  ASSERT_EQ(q.kind, ServeRequest::Kind::kQuery);
  EXPECT_EQ(q.query_job, "sweep-3");
  EXPECT_EQ(q.query_text, "select * from comm limit 5");

  EXPECT_EQ(parse_serve_line("stats").kind, ServeRequest::Kind::kStats);
  EXPECT_EQ(parse_serve_line("query lonely").kind,
            ServeRequest::Kind::kError);
  EXPECT_EQ(parse_serve_line("frobnicate now").kind,
            ServeRequest::Kind::kError);
}

// ----------------------------------------------------------- query endpoint

Table phases_fixture() {
  Table t("phases", {{"step", ColType::kI64},
                     {"rank", ColType::kI64},
                     {"phase", ColType::kI64},
                     {"dur_ns", ColType::kI64},
                     {"ratio", ColType::kF64}});
  for (std::int64_t s = 0; s < 3; ++s)
    for (std::int64_t r = 0; r < 2; ++r)
      for (std::int64_t p = 0; p < 2; ++p)
        t.append_row({s, r, p, 1000 * s + 100 * r + p,
                      0.25 * static_cast<double>(p)});
  return t;
}

TEST(QueryEndpoint, SelectStarMatchesTheQueryEngine) {
  const Table t = phases_fixture();
  JobTables tables;
  tables.phases = &t;

  std::string out;
  ASSERT_EQ(run_table_query(
                tables, "select * from phases where rank == 1 and step >= 1",
                out),
            "");
  // The endpoint shapes order/limit with a second Query pass even when
  // both are absent, so mirror that exactly (it renames the table).
  const Table filtered =
      Query(t)
          .filter("rank", [](double r) { return r == 1.0; })
          .filter("step", [](double s) { return s >= 1.0; })
          .run();
  const Table want = Query(filtered).run();
  EXPECT_EQ(out, want.format(want.num_rows()));
}

TEST(QueryEndpoint, AggregatesMatchTheQueryEngine) {
  const Table t = phases_fixture();
  JobTables tables;
  tables.phases = &t;

  std::string out;
  ASSERT_EQ(run_table_query(tables,
                            "select sum(dur_ns) as total, count from phases "
                            "group by rank order by total desc",
                            out),
            "");
  Table grouped = Query(t).group_by({"rank"}).agg(
      {{"dur_ns", Agg::kSum, "total"}, {"", Agg::kCount, "count"}});
  Query shaper(grouped);
  shaper.sort_by("total", /*descending=*/true);
  const Table want = shaper.run();
  EXPECT_EQ(out, want.format(want.num_rows()));
}

TEST(QueryEndpoint, MalformedStatementsReportAndLeaveOutputUntouched) {
  const Table t = phases_fixture();
  JobTables tables;
  tables.phases = &t;

  const std::vector<std::string> bad = {
      "order by dur_ns",                         // no select
      "select * from nowhere",                   // unknown table
      "select * from shards",                    // table not collected
      "select sum(dur_ns) from phases",          // aggregate, no group by
      "select * from phases group by rank",      // star cannot group
      "select * from phases where nope == 1",    // unknown column
      "select * from phases where rank ~ 1",     // unknown operator
      "select * from phases where rank == one",  // non-numeric literal
      "select median(dur_ns) from phases group by rank",  // unknown agg
      "select * from phases limit -3",           // bad limit
      "select * from phases bonus tokens",       // trailing tokens
      "select mean(bogus) from phases group by step",  // unknown agg col
      "select count from phases group by ratio",   // f64 group key
      "select count from phases group by rank, rank",  // duplicate key
      "select sum(dur_ns) as rank from phases group by rank",  // clash
  };
  for (const std::string& text : bad) {
    std::string out;
    EXPECT_NE(run_table_query(tables, text, out), "") << text;
    EXPECT_TRUE(out.empty()) << text;
  }
}

// -------------------------------------------------- scheduler determinism

/// The reference rendering: the job run alone, straight through
/// SimDriver, exactly as `amrcplx run` would.
std::string standalone_text(const JobSpec& spec) {
  SimDriver driver(spec);
  return compact_report_text(driver.run(), driver.config().comm_adaptive);
}

std::vector<JobSpec> mixed_fleet() {
  // Two identical-fingerprint tenants (the plan-sharing case), a
  // different policy, and an overlap-mode tenant (the isolation case).
  JobSpec a;
  a.ranks = 64;
  a.steps = 8;
  a.policy = "cpl50";
  JobSpec b = a;
  JobSpec c = a;
  c.policy = "lpt";
  JobSpec d = a;
  d.overlap = true;
  return {a, b, c, d};
}

TEST(QuantumScheduler, MultiplexedOutputMatchesStandalone) {
  // Twins split across batches: batches are (a, c), (b, d), (a, c), ...
  // and a batch finishes before the next starts, so the first twin
  // always publishes an epoch's plans before the second needs them.
  // Twins sharing a batch run concurrently and can both miss.
  const std::vector<JobSpec> mixed = mixed_fleet();
  const std::vector<JobSpec> fleet = {mixed[0], mixed[2], mixed[1],
                                      mixed[3]};
  std::vector<std::string> want;
  for (const JobSpec& spec : fleet) want.push_back(standalone_text(spec));

  ServeOptions opts;
  opts.quantum_steps = 3;  // 8 steps -> 3 slices per tenant
  opts.serve_jobs = 2;
  QuantumScheduler sched(opts);
  for (const JobSpec& spec : fleet) sched.submit(spec);
  sched.drain();

  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const JobResult* r = sched.result(static_cast<std::int64_t>(i));
    ASSERT_NE(r, nullptr) << i;
    ASSERT_TRUE(r->ok) << r->error;
    EXPECT_EQ(r->text, want[i]) << "job " << i;
    // collect_telemetry defaults on: the query endpoint has tables.
    EXPECT_NE(r->phases, nullptr);
    EXPECT_NE(r->comm, nullptr);
  }

  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.jobs, 4);
  EXPECT_EQ(s.slices, 4 * 3);
  EXPECT_EQ(s.evictions, 0);
  // The identical-fingerprint pair shares plans; every epoch the second
  // tenant reaches is a store hit.
  EXPECT_GT(s.plan_share_hits, 0);
  EXPECT_GT(s.store.hits, 0);
}

TEST(QuantumScheduler, PlanSharingDoesNotChangeOutput) {
  const std::vector<JobSpec> fleet = mixed_fleet();

  ServeOptions shared;
  shared.quantum_steps = 4;
  QuantumScheduler with(shared);
  ServeOptions isolated = shared;
  isolated.share_plans = false;
  QuantumScheduler without(isolated);
  for (const JobSpec& spec : fleet) {
    with.submit(spec);
    without.submit(spec);
  }
  with.drain();
  without.drain();

  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    ASSERT_TRUE(with.result(id)->ok);
    ASSERT_TRUE(without.result(id)->ok);
    EXPECT_EQ(with.result(id)->text, without.result(id)->text) << i;
  }
  EXPECT_GT(with.stats().store.hits, 0);
  EXPECT_EQ(without.stats().store.hits, 0);
  EXPECT_EQ(without.stats().plan_share_hits, 0);
}

TEST(QuantumScheduler, EvictionInsideFaultWindowMatchesStandalone) {
  // Satellite contract: a tenant evicted between the fault onset and
  // clearance edges (steps/4 and 3*steps/4) must restore and finish
  // with byte-identical output. max_resident=0 forces an evict/restore
  // cycle around every slice.
  JobSpec faulty;
  faulty.ranks = 64;
  faulty.steps = 8;
  faulty.fault_nodes = 1;  // window: steps 2..6
  JobSpec plain = faulty;
  plain.fault_nodes = 0;
  const std::string want_faulty = standalone_text(faulty);
  const std::string want_plain = standalone_text(plain);
  // Faults must matter, or this test proves nothing.
  ASSERT_NE(want_faulty, want_plain);

  ServeOptions opts;
  opts.quantum_steps = 2;  // slice boundaries at steps 2, 4, 6 — inside
  opts.max_resident_mb = 0;
  opts.spill_dir = ::testing::TempDir();
  QuantumScheduler sched(opts);
  sched.submit(faulty);
  sched.submit(plain);
  sched.drain();

  ASSERT_TRUE(sched.result(0)->ok) << sched.result(0)->error;
  ASSERT_TRUE(sched.result(1)->ok) << sched.result(1)->error;
  EXPECT_EQ(sched.result(0)->text, want_faulty);
  EXPECT_EQ(sched.result(1)->text, want_plain);

  const SchedulerStats s = sched.stats();
  EXPECT_GT(s.evictions, 0);
  EXPECT_GT(s.restores, 0);
}

TEST(QuantumScheduler, InvalidSpecsFailAtSubmitWithoutPoisoningTheQueue) {
  JobSpec contradictory;
  contradictory.restore = "a.amrs";
  contradictory.replay = "b.amrs";
  JobSpec unknown_policy;
  unknown_policy.policy = "no-such-policy";
  unknown_policy.ranks = 64;
  unknown_policy.steps = 4;
  JobSpec fine;
  fine.ranks = 64;
  fine.steps = 4;

  QuantumScheduler sched(ServeOptions{});
  sched.submit(contradictory);
  sched.submit(unknown_policy);
  sched.submit(fine);
  sched.drain();

  ASSERT_NE(sched.result(0), nullptr);
  EXPECT_FALSE(sched.result(0)->ok);
  EXPECT_EQ(sched.result(0)->error, validate_job(contradictory));
  // A rank count the message layer cannot address is refused up front.
  JobSpec huge = fine;
  huge.ranks = std::int64_t{Comm::kMaxRanks} + 1;
  EXPECT_NE(validate_job(huge), "");
  // The unknown policy passes validation but fails construction; the
  // error lands in the result instead of throwing out of drain().
  ASSERT_NE(sched.result(1), nullptr);
  EXPECT_FALSE(sched.result(1)->ok);
  EXPECT_FALSE(sched.result(1)->error.empty());
  ASSERT_NE(sched.result(2), nullptr);
  EXPECT_TRUE(sched.result(2)->ok);
  EXPECT_EQ(sched.result(2)->text, standalone_text(fine));
}

TEST(QuantumScheduler, RejectsIncoherentOptions) {
  ServeOptions zero_quantum;
  zero_quantum.quantum_steps = 0;
  EXPECT_THROW(QuantumScheduler{zero_quantum}, std::runtime_error);
  ServeOptions no_jobs;
  no_jobs.serve_jobs = 0;
  EXPECT_THROW(QuantumScheduler{no_jobs}, std::runtime_error);
}

}  // namespace
}  // namespace amr::serve
