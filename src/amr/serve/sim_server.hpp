// amrcplx serve: multiplex batches of parameterized jobs (policy
// sweeps, fault scenarios, what-if restores) over one process.
//
// SimServer owns the line protocol and output framing; the
// QuantumScheduler owns execution. Requests stream in (job file or
// stdin), job objects queue, and a `query`/`stats` line — or end of
// input — drains the queue. Every completed job then prints, in
// submission order, under its 0-based submission index (the job's
// "id" only addresses `query` lines):
//
//   == job <index> ==
//   <the job's report text, byte-identical to `amrcplx run`>
//
// followed by the query/stats responses in request order. All stdout is
// deterministic for a given request stream and scheduler options;
// scheduler-dependent counters only appear via the explicit `stats`
// request or the stats() accessor.
#pragma once

#include <cstdio>
#include <istream>
#include <map>
#include <string>

#include "amr/serve/job_protocol.hpp"
#include "amr/serve/scheduler.hpp"

namespace amr::serve {

class SimServer {
 public:
  explicit SimServer(const ServeOptions& opts);

  /// Process the request stream to EOF, writing responses to `out`.
  /// Returns 0 if every line parsed and every job ran; 1 if any was
  /// rejected (the server keeps going either way).
  int run(std::istream& in, std::FILE* out);

  SchedulerStats stats() const { return scheduler_.stats(); }

 private:
  /// Drain the scheduler and print newly finished jobs in id order.
  void flush(std::FILE* out);
  void handle_query(const ServeRequest& req, std::FILE* out);

  QuantumScheduler scheduler_;
  std::map<std::string, std::int64_t> label_to_id_;
  std::int64_t next_unprinted_ = 0;
  bool failed_ = false;
};

}  // namespace amr::serve
