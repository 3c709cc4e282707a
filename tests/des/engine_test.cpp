#include "amr/des/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "amr/trace/tracer.hpp"

namespace amr {
namespace {

class Recorder final : public EventHandler {
 public:
  void on_event(Engine& engine, std::uint64_t tag) override {
    log.emplace_back(engine.now(), tag);
  }
  std::vector<std::pair<TimeNs, std::uint64_t>> log;
};

TEST(Engine, StartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  Recorder rec;
  engine.schedule_at(30, &rec, 3);
  engine.schedule_at(10, &rec, 1);
  engine.schedule_at(20, &rec, 2);
  engine.run();
  ASSERT_EQ(rec.log.size(), 3u);
  EXPECT_EQ(rec.log[0], std::make_pair(TimeNs{10}, std::uint64_t{1}));
  EXPECT_EQ(rec.log[1], std::make_pair(TimeNs{20}, std::uint64_t{2}));
  EXPECT_EQ(rec.log[2], std::make_pair(TimeNs{30}, std::uint64_t{3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, EqualTimesFireInScheduleOrder) {
  Engine engine;
  Recorder rec;
  for (std::uint64_t i = 0; i < 100; ++i) engine.schedule_at(5, &rec, i);
  engine.run();
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(rec.log[i].second, i);
}

TEST(Engine, HandlersCanScheduleMoreEvents) {
  Engine engine;
  class Chain final : public EventHandler {
   public:
    void on_event(Engine& engine, std::uint64_t tag) override {
      ++fired;
      if (tag > 0) engine.schedule_after(10, this, tag - 1);
    }
    int fired = 0;
  } chain;
  engine.schedule_at(0, &chain, 4);
  engine.run();
  EXPECT_EQ(chain.fired, 5);
  EXPECT_EQ(engine.now(), 40);
}

TEST(Engine, CallAtRunsCallbacksAndRecyclesSlots) {
  Engine engine;
  int calls = 0;
  for (int i = 0; i < 10; ++i)
    engine.call_at(i * 10, [&](Engine&) { ++calls; });
  engine.run();
  EXPECT_EQ(calls, 10);
  // More callbacks after a run still work.
  engine.call_after(5, [&](Engine&) { ++calls; });
  engine.run();
  EXPECT_EQ(calls, 11);
}

TEST(Engine, CallbackCanScheduleCallback) {
  Engine engine;
  std::vector<TimeNs> times;
  engine.call_at(10, [&](Engine& e) {
    times.push_back(e.now());
    e.call_after(15, [&](Engine& e2) { times.push_back(e2.now()); });
  });
  engine.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 10);
  EXPECT_EQ(times[1], 25);
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine engine;
  Recorder rec;
  engine.schedule_at(10, &rec, 1);
  engine.schedule_at(50, &rec, 2);
  engine.run_until(30);
  EXPECT_EQ(rec.log.size(), 1u);
  EXPECT_EQ(engine.now(), 30);
  engine.run();
  EXPECT_EQ(rec.log.size(), 2u);
}

TEST(Engine, ScheduleBelowPendingMinimumAfterRunUntil) {
  // run_until can advance the radix bucketing reference to the earliest
  // *pending* time (here 100) while now() stops at t_end (50). A later
  // schedule at now() <= t < 100 is legal and must still dispatch in
  // (time, schedule order) — this used to corrupt the bucket invariant
  // and abort.
  Engine engine;
  Recorder rec;
  engine.schedule_at(100, &rec, 100);
  engine.run_until(50);
  EXPECT_EQ(engine.now(), 50);
  EXPECT_EQ(rec.log.size(), 0u);
  engine.schedule_at(60, &rec, 60);
  engine.schedule_at(55, &rec, 55);
  engine.schedule_at(60, &rec, 61);  // equal-time FIFO across the rebucket
  engine.run();
  ASSERT_EQ(rec.log.size(), 4u);
  EXPECT_EQ(rec.log[0], std::make_pair(TimeNs{55}, std::uint64_t{55}));
  EXPECT_EQ(rec.log[1], std::make_pair(TimeNs{60}, std::uint64_t{60}));
  EXPECT_EQ(rec.log[2], std::make_pair(TimeNs{60}, std::uint64_t{61}));
  EXPECT_EQ(rec.log[3], std::make_pair(TimeNs{100}, std::uint64_t{100}));
}

TEST(Engine, FuzzRunUntilInterleavedSchedulesMatchStableSortReference) {
  // Drive the engine the way external harnesses do: bursts of schedules
  // (often below the advanced bucketing reference, always >= now()) and
  // run_until in small increments. Dispatch order must still equal a
  // stable sort by time of everything scheduled.
  for (const std::uint64_t seed : {3u, 11u, 2024u}) {
    std::mt19937_64 rng(seed);
    Engine engine;
    Recorder rec;
    std::vector<std::pair<TimeNs, std::uint64_t>> model;
    std::uint64_t tag = 0;
    TimeNs horizon = 0;
    for (int round = 0; round < 300; ++round) {
      const int burst = static_cast<int>(rng() % 4);
      for (int k = 0; k < burst; ++k) {
        const TimeNs t = engine.now() + static_cast<TimeNs>(rng() % 256);
        model.emplace_back(t, tag);
        engine.schedule_at(t, &rec, tag++);
      }
      horizon += static_cast<TimeNs>(rng() % 64);
      engine.run_until(horizon);
    }
    engine.run();
    std::stable_sort(
        model.begin(), model.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(rec.log.size(), model.size()) << "seed " << seed;
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(rec.log[i], model[i]) << "seed " << seed << " position "
                                      << i;
    }
  }
}

TEST(Engine, RunUntilOnEmptyQueueAdvancesClock) {
  Engine engine;
  engine.run_until(1000);
  EXPECT_EQ(engine.now(), 1000);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine engine;
  EXPECT_FALSE(engine.step());
  Recorder rec;
  engine.schedule_at(1, &rec, 0);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, CountsProcessedEvents) {
  Engine engine;
  Recorder rec;
  for (int i = 0; i < 7; ++i) engine.schedule_at(i, &rec, 0);
  EXPECT_EQ(engine.run(), 7u);
  EXPECT_EQ(engine.events_processed(), 7u);
}

TEST(Engine, FuzzDispatchOrderMatchesStableSortReference) {
  // The radix queue must dispatch in exactly (time, schedule order) —
  // the same order as a stable sort of everything ever scheduled. The
  // fuzzer records (time, tag) at schedule time, including events
  // scheduled from inside handlers mid-run (the monotone case the
  // bucket structure exploits), then replays the log against the
  // stable-sorted model.
  class Fuzzer final : public EventHandler {
   public:
    std::mt19937_64 rng;
    std::vector<std::pair<TimeNs, std::uint64_t>> model;
    std::vector<std::pair<TimeNs, std::uint64_t>> fired;
    std::uint64_t next_tag = 0;
    int budget = 0;

    void schedule(Engine& engine, TimeNs t) {
      model.emplace_back(t, next_tag);
      engine.schedule_at(t, this, next_tag);
      ++next_tag;
    }
    void on_event(Engine& engine, std::uint64_t tag) override {
      fired.emplace_back(engine.now(), tag);
      if (budget > 0 && rng() % 4 != 0) {
        --budget;
        const int extra = static_cast<int>(rng() % 3);
        for (int k = 0; k < extra; ++k)
          schedule(engine,
                   engine.now() + static_cast<TimeNs>(rng() % 128));
      }
    }
  };

  for (const std::uint64_t seed : {1u, 7u, 42u, 1337u}) {
    Engine engine;
    Fuzzer fuzz;
    fuzz.rng.seed(seed);
    fuzz.budget = 400;
    // Clustered initial times force equal-time FIFO and deep buckets.
    for (int i = 0; i < 300; ++i)
      fuzz.schedule(engine, static_cast<TimeNs>(fuzz.rng() % 1024));
    engine.run();

    auto expected = fuzz.model;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    ASSERT_EQ(fuzz.fired.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(fuzz.fired[i], expected[i])
          << "seed " << seed << " position " << i;
    }
  }
}

/// Records (time, handler, tag) so tests can see which handler a queue
/// entry carried, not just its tag.
struct Dispatch {
  TimeNs time;
  const EventHandler* handler;
  std::uint64_t tag;
  bool operator==(const Dispatch&) const = default;
};

class SharedLog final : public EventHandler {
 public:
  explicit SharedLog(std::vector<Dispatch>* log) : log_(log) {}
  void on_event(Engine& engine, std::uint64_t tag) override {
    log_->push_back({engine.now(), this, tag});
  }

 private:
  std::vector<Dispatch>* log_;
};

TEST(Engine, PayloadRoundTripsThroughRedistributionAndRebucket) {
  // Each queue entry carries its own (handler, tag). Full-width tags and
  // alternating handlers must survive every move the radix queue makes:
  // redistribution out of deep buckets, and the rebucket_all slow path
  // (run_until parks the bucketing reference at 5000, then an earlier
  // legal schedule re-buckets everything pending).
  std::vector<Dispatch> log;
  SharedLog a(&log);
  SharedLog b(&log);
  Engine engine;
  std::vector<Dispatch> model;
  std::mt19937_64 rng(5);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const TimeNs t = 5000 + static_cast<TimeNs>(rng() % 100000);
    const std::uint64_t tag = rng() | (i % 3 == 0 ? 1ULL << 63 : 0);
    SharedLog* h = i % 2 == 0 ? &a : &b;
    engine.schedule_at(t, h, tag);
    model.push_back({t, h, tag});
  }
  engine.run_until(100);
  ASSERT_TRUE(log.empty());
  engine.schedule_at(200, &b, ~0ULL);
  model.push_back({200, &b, ~0ULL});
  engine.run();
  std::stable_sort(model.begin(), model.end(),
                   [](const Dispatch& x, const Dispatch& y) {
                     return x.time < y.time;
                   });
  EXPECT_EQ(log, model);
}

TEST(Engine, KeyedEqualTimeEntriesDispatchInKeyOrder) {
  // Equal-time entries dispatch by key whatever the schedule order, both
  // when they land in the front bucket directly (sorted insert) and when
  // a redistribution moves them there (stable sort).
  std::vector<Dispatch> log;
  SharedLog h(&log);
  Engine engine;
  const std::vector<std::uint64_t> keys = {
      (1ULL << 62) | 3, (7ULL << 32) | 2, 2ULL << 62, (7ULL << 32) | 1,
      (2ULL << 32) | 9, 1ULL << 62};
  for (const std::uint64_t k : keys) engine.schedule_keyed(0, k, &h, k);
  for (const std::uint64_t k : keys) engine.schedule_keyed(900, k, &h, k);
  engine.run();
  auto sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(log.size(), 2 * keys.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].time, i < keys.size() ? 0 : 900);
    EXPECT_EQ(log[i].tag, sorted[i % keys.size()]) << "position " << i;
  }
}

TEST(Engine, KeyedScheduleBelowBucketReferenceKeepsKeyOrder) {
  // The keyed variant of the rebucket_all edge: run_until advances the
  // radix bucketing reference to the earliest pending time (100) while
  // now() stops at 50; later keyed schedules below the reference must
  // still dispatch in (time, key) order across the forced rebucket.
  Engine engine;
  Recorder rec;
  engine.schedule_keyed(100, 100, &rec, 100);
  engine.run_until(50);
  EXPECT_EQ(engine.now(), 50);
  engine.schedule_keyed(60, 9, &rec, 9);
  engine.schedule_keyed(55, 2, &rec, 2);
  engine.schedule_keyed(60, 4, &rec, 4);  // below key 9 at equal time
  engine.run();
  ASSERT_EQ(rec.log.size(), 4u);
  EXPECT_EQ(rec.log[0], std::make_pair(TimeNs{55}, std::uint64_t{2}));
  EXPECT_EQ(rec.log[1], std::make_pair(TimeNs{60}, std::uint64_t{4}));
  EXPECT_EQ(rec.log[2], std::make_pair(TimeNs{60}, std::uint64_t{9}));
  EXPECT_EQ(rec.log[3], std::make_pair(TimeNs{100}, std::uint64_t{100}));
}

TEST(Engine, FuzzKeyedDispatchMatchesTimeKeySortReference) {
  // Keyed analogue of the legacy-order fuzzer: bursts of schedule_keyed
  // (random unique keys, times often below the advanced bucketing
  // reference) interleaved with run_until. Dispatch must equal a sort of
  // everything scheduled by (time, key).
  for (const std::uint64_t seed : {5u, 23u, 4096u}) {
    std::mt19937_64 rng(seed);
    Engine engine;
    Recorder rec;
    std::vector<std::pair<TimeNs, std::uint64_t>> model;
    TimeNs horizon = 0;
    for (int round = 0; round < 300; ++round) {
      const int burst = static_cast<int>(rng() % 4);
      for (int k = 0; k < burst; ++k) {
        const TimeNs t = engine.now() + static_cast<TimeNs>(rng() % 256);
        // Key high bits random (collision-prone at equal times would be
        // ambiguous, so uniquify with a counter in the low bits).
        const std::uint64_t key =
            ((rng() % 16) << 32) | static_cast<std::uint64_t>(model.size());
        model.emplace_back(t, key);
        engine.schedule_keyed(t, key, &rec, key);
      }
      horizon += static_cast<TimeNs>(rng() % 64);
      engine.run_until(horizon);
    }
    engine.run();
    std::sort(model.begin(), model.end());
    ASSERT_EQ(rec.log.size(), model.size()) << "seed " << seed;
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(rec.log[i], model[i]) << "seed " << seed << " position "
                                      << i;
    }
  }
}

TEST(Engine, DesTraceCarriesTagAndScheduleSequence) {
  // The kDes dispatch instant records (tag, seq), seq being the event's
  // position in schedule order — the same numbering the legacy keys use.
  TraceConfig cfg;
  cfg.categories = kAllTraceCategories;
  Tracer tracer(cfg);
  Engine engine;
  engine.set_tracer(&tracer);
  Recorder rec;
  engine.schedule_at(30, &rec, 100);  // seq 0
  engine.schedule_at(10, &rec, 101);  // seq 1
  engine.schedule_at(10, &rec, 102);  // seq 2
  engine.call_at(20, [](Engine&) {});  // seq 3
  engine.run();
  std::vector<std::tuple<TimeNs, std::int64_t, std::int64_t>> got;
  tracer.for_each([&](const TraceEvent& ev) {
    if (ev.cat == TraceCat::kDes) got.emplace_back(ev.ts, ev.a, ev.b);
  });
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], std::make_tuple(TimeNs{10}, 101, 1));
  EXPECT_EQ(got[1], std::make_tuple(TimeNs{10}, 102, 2));
  EXPECT_EQ(std::get<2>(got[2]), 3);
  EXPECT_EQ(got[3], std::make_tuple(TimeNs{30}, 100, 0));
}

TEST(Engine, ReservedKeyLeavesLaterKeysAndDesInstantsUnchanged) {
  // reserve_key() is a schedule_at whose event does not exist (yet):
  // every later legacy key, and the (tag, seq) dispatch instants of the
  // remaining events, match a run that scheduled it. Filling the slot
  // later with schedule_keyed restores that run exactly.
  enum class Mode { kScheduled, kReserved, kFilledLate };
  const auto run = [](Mode mode) {
    TraceConfig cfg;
    cfg.categories = kAllTraceCategories;
    Tracer tracer(cfg);
    Engine engine;
    engine.set_tracer(&tracer);
    Recorder rec;
    engine.schedule_at(20, &rec, 1);
    std::uint64_t held = 0;
    if (mode == Mode::kScheduled)
      engine.schedule_at(10, &rec, 2);
    else
      held = engine.reserve_key();
    engine.schedule_at(10, &rec, 3);
    engine.schedule_at(5, &rec, 4);
    engine.schedule_at(10, &rec, 5);
    if (mode == Mode::kFilledLate) engine.schedule_keyed(10, held, &rec, 2);
    engine.run();
    std::vector<std::tuple<TimeNs, std::int64_t, std::int64_t>> got;
    tracer.for_each([&](const TraceEvent& ev) {
      if (ev.cat == TraceCat::kDes) got.emplace_back(ev.ts, ev.a, ev.b);
    });
    return got;
  };
  const auto scheduled = run(Mode::kScheduled);
  ASSERT_EQ(scheduled.size(), 5u);
  EXPECT_EQ(scheduled[1], std::make_tuple(TimeNs{10}, 2, 1));
  auto without = scheduled;
  without.erase(without.begin() + 1);
  EXPECT_EQ(run(Mode::kReserved), without);
  EXPECT_EQ(run(Mode::kFilledLate), scheduled);
}

TEST(Engine, DispatchedOrdersByTimeThenKey) {
  // Inside a dispatch, (t, key) has dispatched when it orders at or
  // before the event being dispatched; outside one, when t <= now().
  Engine engine;
  std::vector<bool> seen;
  engine.call_at(10, [&seen](Engine& e) {
    const std::uint64_t key = e.dispatch_key();
    seen.push_back(e.dispatched(9, ~0ULL));
    seen.push_back(e.dispatched(10, key - 1));
    seen.push_back(e.dispatched(10, key));
    seen.push_back(e.dispatched(10, key + 1));
    seen.push_back(e.dispatched(11, 0));
  });
  engine.run();
  EXPECT_EQ(seen, (std::vector<bool>{true, true, true, false, false}));
  EXPECT_TRUE(engine.dispatched(10, ~0ULL));
  EXPECT_FALSE(engine.dispatched(11, 0));
}

TEST(Engine, PendingCallbacksAreFreedWithTheEngine) {
  // A callback that never dispatches is still owned by the engine; its
  // captures are destroyed with it (the sanitizer trees catch a leak).
  auto token = std::make_shared<int>(0);
  {
    Engine engine;
    engine.call_at(10, [token](Engine&) {});
    engine.call_at(5000, [token](Engine&) {});
    engine.run_until(100);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EngineDeath, SchedulingIntoThePastAborts) {
  Engine engine;
  Recorder rec;
  engine.schedule_at(100, &rec, 0);
  engine.run();
  EXPECT_DEATH(engine.schedule_at(50, &rec, 0), "past");
}

}  // namespace
}  // namespace amr
