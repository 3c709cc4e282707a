// The serve stack in-process: the line protocol must parse exactly the
// documented dialect and reject everything else, the query endpoint must
// agree with the underlying Query engine, and the QuantumScheduler must
// honor the byte-identity contract — a job's report text is the same
// standalone, multiplexed with any tenant mix, with plan sharing on or
// off, and across eviction/restore cycles (including evictions landing
// inside a fault window).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "amr/serve/job_protocol.hpp"
#include "amr/serve/query_endpoint.hpp"
#include "amr/serve/scheduler.hpp"
#include "amr/simmpi/comm.hpp"
#include "amr/telemetry/query.hpp"
#include "bench_util.hpp"

namespace amr::serve {
namespace {

// ---------------------------------------------------------------- protocol

TEST(JobProtocol, BlankAndCommentLinesAreIgnored) {
  EXPECT_EQ(parse_serve_line("").kind, ServeRequest::Kind::kNone);
  EXPECT_EQ(parse_serve_line("   \t ").kind, ServeRequest::Kind::kNone);
  EXPECT_EQ(parse_serve_line("# a comment").kind,
            ServeRequest::Kind::kNone);
}

TEST(JobProtocol, UnknownAndMistypedFieldsAreRejected) {
  // A typo'd key must fail the line, not silently run a default config.
  const ServeRequest typo = parse_serve_line("{\"polcy\": \"lpt\"}");
  ASSERT_EQ(typo.kind, ServeRequest::Kind::kError);
  EXPECT_NE(typo.error.find("polcy"), std::string::npos);
  // A removed field is refused by name like any other unknown key.
  const ServeRequest removed = parse_serve_line("{\"des_shards\": 2}");
  ASSERT_EQ(removed.kind, ServeRequest::Kind::kError);
  EXPECT_EQ(removed.error, "unknown field \"des_shards\"");

  EXPECT_EQ(parse_serve_line("{\"ranks\": \"64\"}").kind,
            ServeRequest::Kind::kError);
  EXPECT_EQ(parse_serve_line("{\"execution\": \"fancy\"}").kind,
            ServeRequest::Kind::kError);
  // A value an int32 field cannot hold is refused, not truncated.
  const ServeRequest wide = parse_serve_line("{\"faults\": 4294967297}");
  ASSERT_EQ(wide.kind, ServeRequest::Kind::kError);
  EXPECT_EQ(wide.error, "field \"faults\" must be a 32-bit integer");
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

// --------------------------------------------------------------- job fields

/// The CLI frontends' flag parser over `args` (program name excluded).
JobSpec spec_from_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "cli");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const bench::Flags flags(static_cast<int>(argv.size()), argv.data());
  JobSpec spec;
  flags.job(spec);
  return spec;
}

JobSpec spec_from_json(const std::string& line) {
  const ServeRequest req = parse_serve_line(line);
  EXPECT_EQ(req.kind, ServeRequest::Kind::kJob) << line << ": " << req.error;
  return req.job;
}

/// Every SimulationConfig field job_config sets, rendered for comparison.
std::string config_text(const SimulationConfig& c) {
  std::ostringstream o;
  o << c.nranks << ' ' << c.ranks_per_node << ' ' << c.root_grid.nx << 'x'
    << c.root_grid.ny << 'x' << c.root_grid.nz << ' ' << c.steps << ' '
    << c.collect_telemetry << ' ' << static_cast<int>(c.execution) << ' '
    << c.include_flux_correction << ' ' << c.comm_adaptive << ' '
    << c.comm_pack_threshold << ' ' << c.send_priority << ' '
    << c.auto_cplx << ' ' << c.cplx_budget_ms << ' '
    << c.placement_incremental << ' ' << c.checkpoint_every << ' '
    << c.checkpoint_dir << ' ' << c.trace_enabled << ' '
    << c.trace.capacity;
  for (const ThrottleFault& f : c.faults.throttles()) {
    o << " throttle " << f.factor << ' ' << f.onset_step << ' '
      << f.end_step;
    for (const std::int32_t n : f.nodes) o << ' ' << n;
  }
  return o.str();
}

/// `cli` args and the `json` line must build the same JobSpec and the
/// same job_config.
void expect_same_job(const std::vector<std::string>& cli,
                     const std::string& json) {
  const JobSpec a = spec_from_cli(cli);
  const JobSpec b = spec_from_json(json);
  EXPECT_TRUE(a == b) << json;
  EXPECT_EQ(config_text(job_config(a)), config_text(job_config(b)))
      << json;
}

#if defined(AMR_SEDOV_SIM) && defined(AMR_AMRCPLX)
std::string help_text(const std::string& command) {
  std::string out;
  FILE* pipe = popen((command + " --help").c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;)
    out.append(buf, n);
  EXPECT_EQ(pclose(pipe), 0) << command;
  return out;
}
#endif

TEST(JobProtocol, JobObjectPopulatesTheSpec) {
  // A whole job line, and its `amrcplx run` spelling builds the same job.
  const std::string what_if =
      "{\"id\": \"what-if\", \"workload\": \"cooling\", \"policy\": "
      "\"lpt\", \"ranks\": 128, \"steps\": 12, \"execution\": "
      "\"overlap\", \"faults\": 2, \"send_priority\": true}";
  const ServeRequest req = parse_serve_line(what_if);
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
  expect_same_job({"--id=what-if", "--workload=cooling", "--policy=lpt",
                   "--ranks=128", "--steps=12", "--execution=overlap",
                   "--faults=2", "--send-priority"},
                  what_if);
}

TEST(JobProtocol, AggregateIsASecondSpellingOfCommAdaptive) {
  // Aliases set the same member: "aggregate" is comm_adaptive and
  // "overlap" is execution=overlap, with or without a threshold, through
  // both the CLI and the JSON spelling.
  for (const char* extra : {"", ", \"pack_threshold\": 2560"}) {
    std::vector<std::string> alias = {"--overlap", "--aggregate"};
    if (*extra != '\0') alias.push_back("--pack-threshold=2560");
    const std::string adaptive =
        std::string("{\"execution\": \"overlap\", \"comm_adaptive\": true") +
        extra + "}";
    const std::string agg =
        std::string("{\"execution\": \"overlap\", \"aggregate\": true") +
        extra + "}";
    EXPECT_EQ(validate_job(spec_from_json(adaptive)), "") << extra;
    EXPECT_EQ(validate_job(spec_from_json(agg)), "") << extra;
    EXPECT_TRUE(job_config(spec_from_json(agg)).comm_adaptive) << extra;
    expect_same_job(alias, adaptive);
    expect_same_job(alias, agg);
    expect_same_job(alias, std::string("{\"overlap\": true, \"aggregate\": "
                                       "true") + extra + "}");
  }
}

TEST(JobFields, CliFlagsAndServeFieldsBuildTheSameSpec) {
  // Every row: one non-default value, spelled as a CLI flag and as a
  // serve JSON field.
  for (const JobField& f : job_fields()) {
    const std::string flag = "--" + bench::Flags::flag_name(f.name);
    std::vector<std::string> cli;
    std::string json;
    if (f.on != nullptr) {
      cli = {flag + "=" + f.on};
      json = std::string("\"") + f.on + "\"";
    } else if (std::holds_alternative<bool JobSpec::*>(f.member)) {
      cli = {flag};
      json = "true";
    } else if (std::holds_alternative<std::string JobSpec::*>(f.member)) {
      cli = {flag + "=x-" + f.name};
      json = std::string("\"x-") + f.name + "\"";
    } else {
      cli = {flag + "=3"};
      json = "3";
    }
    const std::string line =
        std::string("{\"") + f.name + "\": " + json + "}";
    EXPECT_FALSE(spec_from_json(line) == JobSpec{}) << f.name;
    expect_same_job(cli, line);
  }

#if defined(AMR_SEDOV_SIM) && defined(AMR_AMRCPLX)
  // Each frontend's --help lists every row.
  const std::string sedov = help_text(AMR_SEDOV_SIM);
  const std::string run = help_text(std::string(AMR_AMRCPLX) + " run");
  const std::string serve = help_text(std::string(AMR_AMRCPLX) + " serve");
  for (const JobField& f : job_fields()) {
    const std::string flag = "  --" + bench::Flags::flag_name(f.name);
    EXPECT_NE(sedov.find(flag), std::string::npos) << f.name;
    EXPECT_NE(run.find(flag), std::string::npos) << f.name;
    EXPECT_NE(serve.find(std::string("  ") + f.name + " ("),
              std::string::npos)
        << f.name;
  }
#endif
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
      "select * from comm",                      // table not collected
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
      "select * from phases where ratio < nan",     // not a finite number
      "select * from phases where ratio < inf",
      "select * from phases where ratio > -infinity",
      "select * from phases where dur_ns < 1e999",  // overflows to inf
      // Literals whose double is an integer up to 2^53 they are not.
      "select * from phases where dur_ns != 9007199254740993",
      "select * from phases where dur_ns == 9007199254740993.0",
      "select * from phases where dur_ns == 9.007199254740993e15",
      "select * from phases where dur_ns < 9007199254740990.7",
  };
  for (const std::string& text : bad) {
    std::string out;
    EXPECT_NE(run_table_query(tables, text, out), "") << text;
    EXPECT_TRUE(out.empty()) << text;
  }
  // A removed table's name is unknown, not "not collected".
  std::string out;
  EXPECT_EQ(run_table_query(tables, "select * from shards", out),
            "unknown table 'shards' (phases | comm | blocks | placement)");
  EXPECT_TRUE(out.empty());
}

TEST(QueryEndpoint, WhereLiteralsAreFiniteAndExactAgainstIntegers) {
  const Table t = phases_fixture();
  JobTables tables;
  tables.phases = &t;
  const auto error = [&](const std::string& text) {
    std::string out;
    return run_table_query(tables, text, out);
  };
  EXPECT_EQ(error("select * from phases where ratio < nan"),
            "non-finite number 'nan' in where clause");
  EXPECT_EQ(error("select * from phases where dur_ns < 1e999"),
            "non-finite number '1e999' in where clause");
  EXPECT_EQ(error("select * from phases where dur_ns == 9007199254740993"),
            "number '9007199254740993' cannot compare exactly against "
            "integer column 'dur_ns' (it rounds to 9007199254740992)");
  // Exactness is decided on the literal's value, not its spelling.
  for (const char* bad :
       {"9007199254740993.0", "9.007199254740993e15", "9007199254740990.7",
        "-9007199254740993", "2.0000000000000000001", "1e-400",
        "0x20000000000001", "0x1.00000000000001p0"}) {
    EXPECT_NE(error(std::string("select * from phases where dur_ns < ") +
                    bad),
              "")
        << bad;
  }
  // 2^53 itself is exact however it is spelled, a literal with a
  // fraction or beyond 2^53 has every column value on one side of it,
  // and a float column takes any finite literal.
  for (const char* ok :
       {"9007199254740992", "9007199254740992.0", "9.007199254740992e15",
        "0x20000000000000", "-9007199254740992", "1e18", "-1e300",
        "9007199254740994", "2.5", "0.1", "-0", "0x1p4", "0x1.8p1"}) {
    EXPECT_EQ(error(std::string("select * from phases where dur_ns < ") +
                    ok),
              "")
        << ok;
  }
  EXPECT_EQ(error("select * from phases where ratio < 1e300"), "");
  // Spellings of one integer answer alike.
  for (const char* op : {"==", "!=", "<", "<=", ">", ">="}) {
    std::string want;
    ASSERT_EQ(run_table_query(tables,
                              std::string("select * from phases where "
                                          "dur_ns ") +
                                  op + " 1001",
                              want),
              "");
    for (const char* same : {"1001.0", "1.001e3", "0x3e9", "100100e-2"}) {
      std::string out;
      ASSERT_EQ(run_table_query(tables,
                                std::string("select * from phases where "
                                            "dur_ns ") +
                                    op + " " + same,
                                out),
                "")
          << op << same;
      EXPECT_EQ(out, want) << op << same;
    }
  }
  // Every operator still answers as the query engine does.
  const std::pair<const char*, bool (*)(double)> ops[] = {
      {"==", [](double x) { return x == 1001.0; }},
      {"!=", [](double x) { return x != 1001.0; }},
      {"<", [](double x) { return x < 1001.0; }},
      {"<=", [](double x) { return x <= 1001.0; }},
      {">", [](double x) { return x > 1001.0; }},
      {">=", [](double x) { return x >= 1001.0; }},
  };
  for (const auto& [op, pred] : ops) {
    std::string out;
    ASSERT_EQ(run_table_query(tables,
                              std::string("select * from phases where "
                                          "dur_ns ") +
                                  op + " 1001",
                              out),
              "")
        << op;
    const Table want =
        Query(Query(t).filter("dur_ns", pred).run()).run();
    EXPECT_EQ(out, want.format(want.num_rows())) << op;
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

TEST(QuantumScheduler, OutOfRangeSpecsFailWithNamedErrors) {
  // validate_job is the one input check: each range gets its own
  // message, and a refused tenant leaves the next one untouched.
  JobSpec fine;
  fine.ranks = 64;
  fine.steps = 4;
  std::vector<std::pair<JobSpec, std::string>> cases;
  const auto add = [&](const char* want, auto edit) {
    JobSpec spec = fine;
    edit(spec);
    cases.emplace_back(spec, want);
  };
  // 3 ranks would build a 2-block root grid.
  add("ranks must be a power of two", [](JobSpec& s) { s.ranks = 3; });
  add("ranks must be a power of two", [](JobSpec& s) { s.ranks = 24; });
  add("--faults must be >= 0", [](JobSpec& s) { s.fault_nodes = -1; });
  add("--checkpoint-every must be >= 0",
      [](JobSpec& s) { s.checkpoint_every = -1; });
  add("--sedov-max-level must be >= 0",
      [](JobSpec& s) { s.sedov_max_level = -1; });
  add("--pack-threshold must be >= -1", [](JobSpec& s) {
    s.comm_adaptive = true;
    s.pack_threshold = -2;
  });
  add("unknown workload bogus (sedov | cooling)",
      [](JobSpec& s) { s.workload = "bogus"; });

  QuantumScheduler sched(ServeOptions{});
  for (const auto& [spec, want] : cases) {
    EXPECT_EQ(validate_job(spec), want);
    sched.submit(spec);
  }
  sched.submit(fine);
  sched.drain();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const JobResult* r = sched.result(static_cast<std::int64_t>(i));
    ASSERT_NE(r, nullptr) << i;
    EXPECT_FALSE(r->ok) << i;
    EXPECT_EQ(r->error, cases[i].second) << i;
  }
  const JobResult* last =
      sched.result(static_cast<std::int64_t>(cases.size()));
  ASSERT_NE(last, nullptr);
  ASSERT_TRUE(last->ok) << last->error;
  EXPECT_EQ(last->text, standalone_text(fine));
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
