// In-memory span recorder for the traced run. Spans sit around the
// benchmark's calls into the library (construction, begin, each
// advance(1), finish, queries, snapshot save/restore, serve submit and
// drain); nothing inside the library is instrumented. Spans are kept in a
// vector and written out once, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "stats.hpp"

namespace ledger {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), in ms.
inline double cpu_now_ms() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

class SpanRecorder {
 public:
  SpanRecorder() : origin_ns_(now_ns()) {}

  /// Open a span under the innermost open span; returns its id.
  std::int64_t open(const char* name) {
    const auto id = static_cast<std::int64_t>(spans_.size());
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = now_ns() - origin_ns_;
    spans_.push_back(std::move(s));
    stack_.push_back(id);
    return id;
  }

  /// Close the innermost open span (which must be `id`).
  void close(std::int64_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns() - origin_ns_;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Write every span with its self time as JSON; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span; a null recorder (the untraced run) records nothing.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec != nullptr ? rec->open(name) : -1) {}
  ~SpanScope() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  std::int64_t id_;
};

}  // namespace ledger
