#include "amr/serve/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "amr/par/thread_pool.hpp"
#include "amr/telemetry/collector.hpp"

namespace amr::serve {

QuantumScheduler::QuantumScheduler(ServeOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.quantum_steps <= 0)
    throw std::runtime_error("quantum_steps must be positive");
  if (opts_.serve_jobs < 1)
    throw std::runtime_error("serve_jobs must be >= 1");
  if (opts_.share_plans) store_ = std::make_unique<SharedPlanStore>();
  if (opts_.serve_jobs > 1)
    pool_ = std::make_unique<ThreadPool>(opts_.serve_jobs);
}

QuantumScheduler::~QuantumScheduler() {
  // Abandoned spills (drain never called, or a tenant errored while
  // evicted) must not outlive the server.
  for (const auto& t : tenants_)
    if (!t->spill.empty()) std::remove(t->spill.c_str());
}

std::int64_t QuantumScheduler::submit(JobSpec spec) {
  auto t = std::make_unique<Tenant>();
  t->id = static_cast<std::int64_t>(tenants_.size());
  t->spec = std::move(spec);
  ++stats_.jobs;
  const std::string invalid = validate_job(t->spec);
  if (!invalid.empty()) {
    t->state = State::kDone;
    t->result.ok = false;
    t->result.error = invalid;
  }
  tenants_.push_back(std::move(t));
  return tenants_.back()->id;
}

void QuantumScheduler::make_resident(Tenant& t) {
  if (t.state == State::kResident || t.state == State::kDone) return;
  JobSpec spec = t.spec;
  if (t.state == State::kEvicted) {
    // Revival is a pure resume of the spilled snapshot, which already
    // holds any restore the job named.
    spec.restore = t.spill;
  }
  try {
    t.driver = std::make_unique<SimDriver>(spec, store_.get());
  } catch (const std::exception& e) {
    fail(t, e.what());
    return;
  }
  if (t.state == State::kEvicted) {
    ++stats_.restores;
    std::remove(t.spill.c_str());
    t.spill.clear();
  }
  t.state = State::kResident;
}

void QuantumScheduler::fail(Tenant& t, std::string error) {
  t.driver.reset();
  t.state = State::kDone;
  t.result.ok = false;
  t.result.error = std::move(error);
  if (!t.spill.empty()) std::remove(t.spill.c_str());
  t.spill.clear();
}

void QuantumScheduler::evict(Tenant& t) {
  if (t.state != State::kResident) return;
  std::string path = opts_.spill_dir + "/serve_spill_" +
                     std::to_string(t.id) + ".amrs";
  // A tenant that never sliced has no begun run to snapshot; dropping
  // the Simulation and re-running make_resident later is equivalent
  // (construction is deterministic), so only begun runs spill.
  if (t.driver->sim().current_step() > 0 ||
      !t.driver->restore_note().empty()) {
    if (!t.driver->sim().save_checkpoint(path)) {
      std::fprintf(stderr,
                   "serve: failed to spill job %lld to %s; keeping it "
                   "resident\n",
                   static_cast<long long>(t.id), path.c_str());
      return;
    }
    t.spill = path;
    t.state = State::kEvicted;
  } else {
    t.state = State::kPending;
  }
  stats_.plan_share_hits += t.driver->sim().plan_share_hits();
  t.driver.reset();
  ++stats_.evictions;
}

void QuantumScheduler::finish(Tenant& t) {
  Simulation& sim = t.driver->sim();
  const RunReport report = sim.finish();
  stats_.plan_hits += sim.pipeline_stats().plan_hits;
  stats_.plan_misses += sim.pipeline_stats().plan_misses;
  stats_.plan_share_hits += sim.pipeline_stats().plan_share_hits;
  t.result.ok = true;
  t.result.report = report;
  t.result.text = compact_report_text(
      report, t.driver->config().comm_adaptive);
  if (t.spec.collect_telemetry) {
    const Collector& c = sim.collector();
    t.result.phases = std::make_unique<Table>(c.phases());
    t.result.comm = std::make_unique<Table>(c.comm());
    t.result.blocks = std::make_unique<Table>(c.blocks());
    t.result.placement = std::make_unique<Table>(c.placement());
  }
  if (!t.spill.empty()) {
    std::remove(t.spill.c_str());
    t.spill.clear();
  }
  t.driver.reset();
  t.state = State::kDone;
}

void QuantumScheduler::enforce_budget() {
  if (opts_.max_resident_mb < 0) return;
  const std::size_t budget =
      static_cast<std::size_t>(opts_.max_resident_mb) * (1u << 20);
  while (true) {
    std::size_t resident_bytes = 0;
    for (const auto& t : tenants_)
      if (t->state == State::kResident)
        resident_bytes += t->driver->sim().resident_bytes();
    if (resident_bytes <= budget) return;
    // Coldest resident first (smallest last_slice; ties by id, which the
    // iteration order supplies), so the next batch's tenants — the
    // hottest — go last.
    Tenant* victim = nullptr;
    for (const auto& t : tenants_)
      if (t->state == State::kResident &&
          (victim == nullptr || t->last_slice < victim->last_slice))
        victim = t.get();
    if (victim == nullptr) return;
    const State before = victim->state;
    evict(*victim);
    if (victim->state == before) return;  // spill failed; stop looping
  }
}

void QuantumScheduler::drain() {
  while (true) {
    // Next batch: up to serve_jobs unfinished tenants, round-robin from
    // the cursor in id order.
    std::vector<Tenant*> batch;
    const std::size_t n = tenants_.size();
    for (std::size_t scanned = 0;
         scanned < n &&
         batch.size() < static_cast<std::size_t>(opts_.serve_jobs);
         ++scanned) {
      Tenant& t = *tenants_[(cursor_ + scanned) % n];
      if (t.state != State::kDone) batch.push_back(&t);
    }
    if (batch.empty()) return;
    cursor_ = (static_cast<std::size_t>(batch.back()->id) + 1) % n;

    // Construction/restore stays on the coordinator: it mutates tenant
    // state and the spill files, and errors must resolve in id order.
    for (Tenant* t : batch) make_resident(*t);
    batch.erase(std::remove_if(batch.begin(), batch.end(),
                               [](Tenant* t) {
                                 return t->state != State::kResident;
                               }),
                batch.end());

    // The slice itself: independent Simulations, so batch members can
    // advance concurrently; the shared store is internally locked. A
    // failed slice (a checkpoint it cannot write) ends its tenant alone:
    // no exception crosses parallel_for.
    const std::int64_t quantum = opts_.quantum_steps;
    std::vector<std::string> errors(batch.size());
    const auto advance = [&](std::size_t i) {
      try {
        batch[i]->driver->sim().advance(quantum);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    };
    if (pool_ != nullptr && batch.size() > 1) {
      pool_->parallel_for(batch.size(), advance);
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i) advance(i);
    }
    for (Tenant* t : batch) {
      t->last_slice = slice_clock_;
      ++stats_.slices;
    }
    ++slice_clock_;

    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!errors[i].empty())
        fail(*batch[i], std::move(errors[i]));
      else if (batch[i]->driver->sim().done())
        finish(*batch[i]);
    }
    enforce_budget();
  }
}

const JobResult* QuantumScheduler::result(std::int64_t id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= tenants_.size())
    return nullptr;
  const Tenant& t = *tenants_[static_cast<std::size_t>(id)];
  return t.state == State::kDone ? &t.result : nullptr;
}

SchedulerStats QuantumScheduler::stats() const {
  SchedulerStats out = stats_;
  if (store_) out.store = store_->stats();
  return out;
}

}  // namespace amr::serve
