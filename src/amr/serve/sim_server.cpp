#include "amr/serve/sim_server.hpp"

#include "amr/serve/query_endpoint.hpp"

namespace amr::serve {

SimServer::SimServer(const ServeOptions& opts) : scheduler_(opts) {}

void SimServer::flush(std::FILE* out) {
  scheduler_.drain();
  const auto n = static_cast<std::int64_t>(scheduler_.job_count());
  for (; next_unprinted_ < n; ++next_unprinted_) {
    const JobResult* r = scheduler_.result(next_unprinted_);
    // drain() leaves every submitted job done, so r is never null here.
    std::fprintf(out, "== job %lld ==\n",
                 static_cast<long long>(next_unprinted_));
    if (r->ok) {
      std::fwrite(r->text.data(), 1, r->text.size(), out);
    } else {
      std::fprintf(out, "error: %s\n", r->error.c_str());
      failed_ = true;
    }
  }
}

void SimServer::handle_query(const ServeRequest& req, std::FILE* out) {
  std::fprintf(out, "== query %s ==\n", req.query_job.c_str());
  const auto it = label_to_id_.find(req.query_job);
  if (it == label_to_id_.end()) {
    std::fprintf(out, "error: no job with id \"%s\"\n",
                 req.query_job.c_str());
    failed_ = true;
    return;
  }
  const JobResult* r = scheduler_.result(it->second);
  if (r == nullptr || !r->ok) {
    std::fprintf(out, "error: job \"%s\" did not finish cleanly\n",
                 req.query_job.c_str());
    failed_ = true;
    return;
  }
  JobTables tables;
  tables.phases = r->phases.get();
  tables.comm = r->comm.get();
  tables.blocks = r->blocks.get();
  tables.placement = r->placement.get();
  std::string text;
  const std::string err = run_table_query(tables, req.query_text, text);
  if (!err.empty()) {
    std::fprintf(out, "error: %s\n", err.c_str());
    failed_ = true;
    return;
  }
  std::fwrite(text.data(), 1, text.size(), out);
}

int SimServer::run(std::istream& in, std::FILE* out) {
  std::string line;
  while (std::getline(in, line)) {
    ServeRequest req = parse_serve_line(line);
    switch (req.kind) {
      case ServeRequest::Kind::kNone:
        break;
      case ServeRequest::Kind::kError:
        std::fprintf(out, "error: %s\n", req.error.c_str());
        failed_ = true;
        break;
      case ServeRequest::Kind::kJob: {
        // Address a job by its user-chosen id when given, else by its
        // submission index. First binding wins so a duplicate cannot
        // silently redirect someone else's queries.
        const std::string user_label = req.job.id;
        const std::int64_t id = scheduler_.submit(std::move(req.job));
        const std::string label =
            user_label.empty() ? std::to_string(id) : user_label;
        if (!label_to_id_.emplace(label, id).second) {
          std::fprintf(out, "error: duplicate job id \"%s\"\n",
                       label.c_str());
          failed_ = true;
        }
        break;
      }
      case ServeRequest::Kind::kQuery:
        flush(out);  // queries see a fully drained queue
        handle_query(req, out);
        break;
      case ServeRequest::Kind::kStats: {
        flush(out);
        const SchedulerStats s = stats();
        std::fprintf(out,
                     "== stats ==\n"
                     "jobs %lld | slices %lld | evictions %lld | "
                     "restores %lld\n"
                     "plan cache: %lld hits, %lld misses, %lld shared\n"
                     "plan store: %lld hits, %lld misses, %lld published, "
                     "%lld evicted\n",
                     static_cast<long long>(s.jobs),
                     static_cast<long long>(s.slices),
                     static_cast<long long>(s.evictions),
                     static_cast<long long>(s.restores),
                     static_cast<long long>(s.plan_hits),
                     static_cast<long long>(s.plan_misses),
                     static_cast<long long>(s.plan_share_hits),
                     static_cast<long long>(s.store.hits),
                     static_cast<long long>(s.store.misses),
                     static_cast<long long>(s.store.published),
                     static_cast<long long>(s.store.evicted));
        break;
      }
    }
  }
  flush(out);
  return failed_ ? 1 : 0;
}

}  // namespace amr::serve
