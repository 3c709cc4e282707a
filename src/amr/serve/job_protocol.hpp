// Line protocol of `amrcplx serve`: one request per line.
//
//   {"policy": "cpl50", "ranks": 64, "steps": 40}   submit a job
//   query <job-id> select ...                       results endpoint
//   stats                                           scheduler counters
//   # anything                                      comment (ignored)
//
// Job lines are flat JSON objects — a deliberately minimal dialect
// (string / integer / boolean values, no nesting) parsed here without
// any external dependency. Keys are the job_fields() rows of
// amr/sim/sim_driver.hpp, the same table the CLI flags come from.
// Unknown keys are rejected rather than
// ignored: a typo'd "polcy" silently running the default policy would
// corrupt a whole sweep, the same reasoning as the strict bench flag
// parser.
#pragma once

#include <string>

#include "amr/sim/sim_driver.hpp"

namespace amr::serve {

struct ServeRequest {
  enum class Kind {
    kNone,   ///< blank line or comment
    kJob,    ///< `job` is populated
    kQuery,  ///< `query_job` + `query_text`
    kStats,
    kError,  ///< `error` explains the rejection
  };

  Kind kind = Kind::kNone;
  JobSpec job;
  std::string query_job;   ///< job id the query targets
  std::string query_text;  ///< "select ..." (see query_endpoint.hpp)
  std::string error;
};

/// Parse one protocol line. Never throws: malformed input comes back as
/// Kind::kError with a message (the server prints it and keeps going —
/// one bad line must not take down a thousand queued sims).
ServeRequest parse_serve_line(const std::string& line);

}  // namespace amr::serve
