// Shared helpers for the per-figure bench harnesses and CLIs: strict
// flag parser, scale lists, the paper's rank->root-grid mapping
// (Table I: one 16^3-cell block per rank initially, so the root grid
// holds exactly `ranks` blocks), and printf-style string building for
// sweep tasks that buffer output instead of printing (amr/par/sweep).
#pragma once

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "amr/mesh/coords.hpp"
#include "amr/par/thread_pool.hpp"
#include "amr/sim/sim_driver.hpp"
#include "amr/sim/simulation.hpp"

namespace amr::bench {

/// --flag=value parser with self-registering help. Malformed values
/// abort with a usage message: a typo'd --trials=1O silently parsing as
/// 1 (the old std::atoll behaviour) corrupts a day of sweep data;
/// failing fast costs nothing.
///
/// Every getter registers its flag (name + default) as a side effect, so
/// after the main has read all its flags a single done() call can (a)
/// answer --help with the full flag list and defaults, and (b) reject
/// unrecognized --flags by listing the known ones — no per-binary usage
/// text to keep in sync. Every argument is a --flag: done() refuses a
/// positional one. Simulation frontends register the whole job-field
/// table with job().
class Flags {
 public:
  /// `prog` names the program in messages (default argv[0]); a
  /// subcommand passes its own argv slice and name.
  Flags(int argc, char** argv, std::string prog = "") : prog_(std::move(prog)) {
    if (prog_.empty()) prog_ = argc > 0 ? argv[0] : "bench";
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  bool has(const std::string& name, const char* help = "") const {
    note(name, "", true, help);
    return given(name);
  }

  /// True if --name or --name=VALUE appears (registers nothing).
  bool given(const std::string& name) const {
    return find(name) != nullptr || flag_set(name);
  }

  std::int64_t get_int(const std::string& name, std::int64_t def,
                       const char* help = "") const {
    note(name, std::to_string(def), false, help);
    const char* v = find(name);
    if (v == nullptr) return def;
    std::int64_t out = 0;
    const char* end = v + std::strlen(v);
    const auto [ptr, ec] = std::from_chars(v, end, out);
    if (ec != std::errc{} || ptr != end)
      die_invalid(name, v, "an integer");
    return out;
  }

  /// get_int, refusing a value outside [lo, hi] with exit 2 naming the
  /// flag, so a count narrowed to a smaller type cannot wrap.
  std::int64_t get_int_in(const std::string& name, std::int64_t def,
                          std::int64_t lo, std::int64_t hi,
                          const char* help = "") const {
    const std::int64_t out = get_int(name, def, help);
    if (out < lo || out > hi) {
      const std::string want = "an integer in [" + std::to_string(lo) +
                               ", " + std::to_string(hi) + "]";
      die_invalid(name, std::to_string(out).c_str(), want.c_str());
    }
    return out;
  }

  double get_double(const std::string& name, double def) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", def);
    note(name, buf, false, "");
    const char* v = find(name);
    if (v == nullptr) return def;
    // strtod rather than from_chars<double>: libstdc++'s FP from_chars
    // landed late; strtod with explicit end/errno checks is equivalent
    // and portable.
    errno = 0;
    char* end = nullptr;
    const double out = std::strtod(v, &end);
    if (errno != 0 || end == v || *end != '\0')
      die_invalid(name, v, "a number");
    return out;
  }

  std::string get_str(const std::string& name, const std::string& def,
                      const char* help = "") const {
    note(name, def.empty() ? "\"\"" : def, false, help);
    const char* v = find(name);
    return v != nullptr ? std::string(v) : def;
  }

  /// True if --quick was passed: benches shrink scales/steps for smoke
  /// runs while preserving orderings.
  bool quick() const {
    note("quick", "", true, "");
    return flag_set("quick");
  }

  /// Ceiling on any worker-count flag (--jobs, --serve-jobs): each
  /// worker is an OS thread, and a larger value is a typo, not a host.
  static constexpr std::int64_t kMaxWorkers = 256;

  /// Sweep parallelism from --jobs=N. Default 1 (serial); 0 means "one
  /// worker per hardware thread". Output is byte-identical across jobs
  /// values (see amr/par/sweep.hpp). Above kMaxWorkers exits 2.
  int jobs() const {
    const std::int64_t j = get_int_in(
        "jobs", 1, 0, kMaxWorkers,
        "parallel sweep workers (0 = one per hardware thread); output is "
        "identical for every N");
    if (j == 0) return ThreadPool::hardware_jobs();
    return static_cast<int>(j);
  }

  /// Machine-readable sweep record destination from --json=FILE
  /// (appended; "-" for stdout). Empty when absent.
  std::string json_path() const { return get_str("json", ""); }

  /// Text --help prints between the usage line and the flag list.
  void about(std::string text) const { about_ = std::move(text); }

  /// Register every job_fields() row (sim/sim_driver.hpp) except the
  /// JSON names in `skip` as --name, '-' for '_'; boolean rows are
  /// switches. `spec` holds the frontend's presets (the defaults --help
  /// shows) and receives the flags given. A value its row refuses exits
  /// 2 naming the flag.
  void job(JobSpec& spec, std::span<const std::string_view> skip = {}) const {
    for (const JobField& f : job_fields()) {
      if (std::find(skip.begin(), skip.end(), f.name) != skip.end())
        continue;
      const std::string name = flag_name(f.name);
      const bool is_switch =
          f.on == nullptr && std::holds_alternative<bool JobSpec::*>(f.member);
      note(name, is_switch ? "" : job_field_text(spec, f), is_switch, f.help);
      const char* text = find(name);
      if (text == nullptr && !flag_set(name)) continue;
      const std::string err = set_job_field(spec, f, cli_value(f, text));
      if (err.empty()) continue;
      std::fprintf(stderr, "%s: --%s %s", prog_.c_str(), name.c_str(),
                   err.c_str());
      if (text != nullptr) std::fprintf(stderr, " (got '%s')", text);
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }

  /// The CLI spelling of a job-field name: '-' for '_'.
  static std::string flag_name(std::string_view field) {
    std::string out(field);
    std::replace(out.begin(), out.end(), '_', '-');
    return out;
  }

  /// Call once after all flags have been read. --help prints every
  /// registered flag with its default and help and exits 0; an
  /// unrecognized --flag aborts listing the known ones, and a positional
  /// argument aborts naming it (exit 2 either way).
  void done() const {
    if (flag_set("help")) {
      std::printf("usage: %s [flags]\n%sflags:\n", prog_.c_str(),
                  about_.c_str());
      for (const auto& r : registered_) {
        if (r.is_switch)
          std::printf("  --%s\n", r.name.c_str());
        else
          std::printf("  --%s=<value>  (default %s)\n", r.name.c_str(),
                      r.def.c_str());
        if (*r.help != '\0') std::printf("      %s\n", r.help);
      }
      std::exit(0);
    }
    for (const auto& a : args_) {
      if (a.rfind("--", 0) != 0) {
        std::fprintf(stderr,
                     "%s: unexpected argument '%s'; every argument is a "
                     "--flag (--help lists them)\n",
                     prog_.c_str(), a.c_str());
        std::exit(2);
      }
      const std::string name = a.substr(2, a.find('=') - 2);
      if (name == "help" || known(name)) continue;
      std::fprintf(stderr, "%s: unrecognized flag --%s; known flags:\n",
                   prog_.c_str(), name.c_str());
      for (const auto& r : registered_)
        std::fprintf(stderr, "  --%s\n", r.name.c_str());
      std::exit(2);
    }
  }

  /// done(), then the job's validate_job: an incoherent job exits 2
  /// with the check's message.
  void done(const JobSpec& spec) const {
    done();
    const std::string err = validate_job(spec);
    if (err.empty()) return;
    std::fprintf(stderr, "%s: %s\n", prog_.c_str(), err.c_str());
    std::exit(2);
  }

 private:
  struct Registered {
    std::string name;
    std::string def;  ///< rendered default (empty for switches)
    bool is_switch;
    const char* help;
  };

  /// A job flag's text as the value its row takes: a bare switch is
  /// true, and integer and boolean rows parse their text strictly (text
  /// that does not parse stays a string, which the row refuses).
  static JobValue cli_value(const JobField& f, const char* text) {
    if (text == nullptr) return true;
    const std::string_view v = text;
    if (f.on == nullptr && std::holds_alternative<bool JobSpec::*>(f.member)) {
      if (v == "true" || v == "false") return v == "true";
    } else if (f.on == nullptr &&
               !std::holds_alternative<std::string JobSpec::*>(f.member)) {
      std::int64_t out = 0;
      const char* end = v.data() + v.size();
      const auto [ptr, ec] = std::from_chars(v.data(), end, out);
      if (ec == std::errc{} && ptr == end) return out;
    }
    return std::string(v);
  }

  bool known(const std::string& name) const {
    for (const auto& r : registered_)
      if (r.name == name) return true;
    return false;
  }
  void note(const std::string& name, std::string def, bool is_switch,
            const char* help) const {
    if (!known(name))
      registered_.push_back({name, std::move(def), is_switch, help});
  }
  const char* find(const std::string& name) const {
    const std::string prefix = "--" + name + "=";
    for (const auto& a : args_)
      if (a.rfind(prefix, 0) == 0) return a.c_str() + prefix.size();
    return nullptr;
  }
  bool flag_set(const std::string& name) const {
    const std::string flag = "--" + name;
    for (const auto& a : args_)
      if (a == flag) return true;
    return false;
  }
  [[noreturn]] void die_invalid(const std::string& name, const char* value,
                                const char* expected) const {
    std::fprintf(stderr, "%s: invalid value for --%s: '%s' (expected %s)\n",
                 prog_.c_str(), name.c_str(), value, expected);
    std::exit(2);
  }
  std::string prog_;
  std::vector<std::string> args_;
  mutable std::string about_;
  /// Flags seen by the getters, in first-read order (for done()).
  mutable std::vector<Registered> registered_;
};

// The paper's rank->root-grid mapping and the canonical run config now
// live in the shared driver (amr/sim/sim_driver.hpp) so the CLIs and
// the serve scheduler cannot drift from the benches; re-exported here
// to keep the ~20 bench mains unchanged.
using amr::base_sim_config;
using amr::grid_for_ranks;

/// printf into a growing string: sweep tasks build their report text
/// with this and return it instead of touching stdout.
inline void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
inline void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   args);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(args);
}

inline void print_header(const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

inline void print_rule() {
  std::printf("--------------------------------------------------------------\n");
}

/// appendf twins of print_header/print_rule for buffered task output.
inline void append_header(std::string& out, const char* title) {
  appendf(out,
          "\n==============================================================\n"
          "%s\n"
          "==============================================================\n",
          title);
}

inline void append_rule(std::string& out) {
  appendf(out,
          "--------------------------------------------------------------\n");
}

}  // namespace amr::bench
