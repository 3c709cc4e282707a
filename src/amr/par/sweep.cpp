#include "amr/par/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "amr/common/check.hpp"
#include "amr/common/rng.hpp"
#include "amr/par/thread_pool.hpp"

namespace amr {
namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal JSON string escape (quotes, backslashes, control chars).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::uint64_t sweep_task_seed(std::uint64_t base_seed,
                              std::uint64_t task_index) {
  // Two mix rounds decorrelate adjacent indices under any base seed.
  return hash64(hash64(base_seed) ^ (task_index * 0x9e3779b97f4a7c15ULL));
}

std::size_t Sweep::add(std::string label,
                       std::function<std::string()> task) {
  AMR_CHECK_MSG(!ran_, "Sweep::add after run()");
  results_.push_back(SweepResult{std::move(label), {}, 0.0});
  tasks_.push_back(std::move(task));
  return tasks_.size() - 1;
}

void Sweep::run() {
  AMR_CHECK_MSG(!ran_, "Sweep::run called twice");
  ran_ = true;
  const double t0 = now_ms();
  auto run_one = [this](std::size_t i) {
    const double s = now_ms();
    results_[i].output = tasks_[i]();
    results_[i].wall_ms = now_ms() - s;
  };
  if (jobs_ <= 1) {
    for (std::size_t i = 0; i < tasks_.size(); ++i) run_one(i);
  } else {
    // Oversubscribing cores is a pure loss for CPU-bound trials (a
    // 4-worker sweep on one CPU once ran at 0.71x the serial speed);
    // clamp and tell the user rather than silently running slower.
    const int hw = ThreadPool::hardware_jobs();
    if (jobs_ > hw) {
      std::fprintf(stderr,
                   "sweep: --jobs=%d exceeds hardware concurrency (%d); "
                   "clamping to %d\n",
                   jobs_, hw, hw);
      jobs_ = hw;
    }
    const int threads =
        std::min<std::size_t>(static_cast<std::size_t>(jobs_),
                              std::max<std::size_t>(1, tasks_.size()));
    ThreadPool pool(static_cast<int>(threads));
    for (std::size_t i = 0; i < tasks_.size(); ++i)
      pool.submit([&run_one, i] { run_one(i); });
    pool.wait_idle();
  }
  wall_ms_ = now_ms() - t0;
  tasks_.clear();  // release captured state
}

void Sweep::print(std::FILE* out) const {
  AMR_CHECK_MSG(ran_, "Sweep::print before run()");
  for (const SweepResult& r : results_)
    std::fwrite(r.output.data(), 1, r.output.size(), out);
  std::fflush(out);
}

double Sweep::task_ms_sum() const {
  double sum = 0.0;
  for (const SweepResult& r : results_) sum += r.wall_ms;
  return sum;
}

bool Sweep::write_json(const std::string& path,
                       const std::string& name) const {
  std::FILE* f =
      path == "-" ? stdout : std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"sweep\":\"%s\",\"jobs\":%d,\"tasks\":%zu,"
               "\"wall_ms\":%.3f,\"task_ms_sum\":%.3f,\"speedup\":%.3f,"
               "\"per_task\":[",
               json_escape(name).c_str(), jobs_, results_.size(),
               wall_ms_, task_ms_sum(),
               wall_ms_ > 0.0 ? task_ms_sum() / wall_ms_ : 0.0);
  for (std::size_t i = 0; i < results_.size(); ++i)
    std::fprintf(f, "%s{\"label\":\"%s\",\"ms\":%.3f}",
                 i == 0 ? "" : ",",
                 json_escape(results_[i].label).c_str(),
                 results_[i].wall_ms);
  std::fprintf(f, "]}\n");
  if (f != stdout) return std::fclose(f) == 0;
  std::fflush(f);
  return true;
}

}  // namespace amr
