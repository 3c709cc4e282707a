#include "amr/simmpi/comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <vector>

namespace amr {
namespace {

FabricParams quiet_params() {
  FabricParams p = FabricParams::tuned();
  p.remote_jitter = 0;
  return p;
}

/// Minimal endpoint recording callbacks.
class TestEndpoint final : public RankEndpoint {
 public:
  void on_recvs_ready(Engine& /*engine*/, std::uint64_t window, TimeNs t,
                      std::int32_t releasing_src) override {
    recv_ready_time = t;
    recv_ready_window = window;
    release_src = releasing_src;
    ++recv_ready_calls;
  }
  void on_collective_done(Engine& /*engine*/, std::uint64_t window,
                          TimeNs t) override {
    collective_time = t;
    collective_window = window;
    ++collective_calls;
  }

  TimeNs recv_ready_time = -1;
  std::uint64_t recv_ready_window = 0;
  std::int32_t release_src = -1;
  int recv_ready_calls = 0;
  TimeNs collective_time = -1;
  std::uint64_t collective_window = 0;
  int collective_calls = 0;
};

struct Harness {
  explicit Harness(std::int32_t nranks, FabricParams params = quiet_params())
      : topo(nranks, 2), fabric(topo, params, Rng(1)),
        comm(engine, fabric, nranks), endpoints(nranks) {
    for (std::int32_t r = 0; r < nranks; ++r)
      comm.set_endpoint(r, &endpoints[static_cast<std::size_t>(r)]);
  }
  Engine engine;
  ClusterTopology topo;
  Fabric fabric;
  Comm comm;
  std::vector<TestEndpoint> endpoints;
};

TEST(Comm, DeliveryCompletesExchange) {
  // An untagged message is counted, not dispatched: the window completes
  // once the clock passes its delivery time.
  Harness h(4);
  h.comm.begin_exchange(1, {0, 1, 0, 0});
  h.comm.isend(0, 1, 1000, 1, 0);
  EXPECT_FALSE(h.comm.exchange_complete(1));
  h.engine.run_until(ms(1.0));
  EXPECT_TRUE(h.comm.exchange_complete(1));
  h.comm.end_exchange(1);
}

TEST(Comm, WaitBeforeArrivalParksThenNotifies) {
  Harness h(4);
  h.comm.begin_exchange(2, {0, 1, 0, 0});
  const TimeNs release = h.comm.isend(0, 1, 1000, 2, 0);
  EXPECT_GT(release, 0);
  EXPECT_FALSE(h.comm.wait_recvs(h.engine, 1, 2));
  h.engine.run();
  EXPECT_EQ(h.endpoints[1].recv_ready_calls, 1);
  EXPECT_EQ(h.endpoints[1].recv_ready_window, 2u);
  EXPECT_EQ(h.endpoints[1].release_src, 0);
  EXPECT_GT(h.endpoints[1].recv_ready_time, 0);
}

TEST(Comm, WaitAfterArrivalReturnsImmediately) {
  Harness h(4);
  h.comm.begin_exchange(3, {0, 1, 0, 0});
  h.comm.isend(0, 1, 1000, 3, 0);
  h.engine.run_until(ms(1.0));
  EXPECT_TRUE(h.comm.wait_recvs(h.engine, 1, 3));
  EXPECT_EQ(h.endpoints[1].recv_ready_calls, 0);  // no callback needed
}

TEST(Comm, MultipleMessagesReleaseOnLastArrival) {
  Harness h(4);
  h.comm.begin_exchange(4, {0, 3, 0, 0});
  h.comm.isend(0, 1, 1000, 4, 0);
  h.comm.isend(2, 1, 1000, 4, 0);
  h.comm.isend(3, 1, 500000, 4, 0);  // big message arrives last
  EXPECT_FALSE(h.comm.wait_recvs(h.engine, 1, 4));
  h.engine.run();
  EXPECT_EQ(h.endpoints[1].recv_ready_calls, 1);
  EXPECT_EQ(h.endpoints[1].release_src, 3);
}

TEST(Comm, CollectiveWaitsForAllRanksAndChargesOverhead) {
  Harness h(4);
  CollectiveParams cp;
  // Rebuild comm with known collective params (harness used defaults).
  Comm comm(h.engine, h.fabric, 4, cp);
  std::vector<TestEndpoint> eps(4);
  for (std::int32_t r = 0; r < 4; ++r) comm.set_endpoint(r, &eps[r]);

  comm.enter_collective(9, 0, 100);
  comm.enter_collective(9, 1, 400);
  comm.enter_collective(9, 2, 50);
  h.engine.run();
  EXPECT_EQ(eps[0].collective_calls, 0);  // rank 3 missing
  comm.enter_collective(9, 3, h.engine.now());
  h.engine.run();
  // ceil(log2(4)) = 2: overhead = alpha + 2*beta.
  const TimeNs expected =
      std::max<TimeNs>(400, 0) + cp.alpha + 2 * cp.beta;
  for (const auto& ep : eps) {
    EXPECT_EQ(ep.collective_calls, 1);
    EXPECT_EQ(ep.collective_time, expected);
    EXPECT_EQ(ep.collective_window, 9u);
  }
}

TEST(Comm, IndependentWindowsDoNotInterfere) {
  Harness h(4);
  h.comm.begin_exchange(10, {0, 1, 0, 0});
  h.comm.begin_exchange(11, {0, 0, 1, 0});
  h.comm.isend(0, 1, 100, 10, 0);
  h.comm.isend(0, 2, 100, 11, 0);
  EXPECT_FALSE(h.comm.wait_recvs(h.engine, 1, 10));
  EXPECT_FALSE(h.comm.wait_recvs(h.engine, 2, 11));
  h.engine.run();
  EXPECT_EQ(h.endpoints[1].recv_ready_window, 10u);
  EXPECT_EQ(h.endpoints[2].recv_ready_window, 11u);
  EXPECT_TRUE(h.comm.exchange_complete(10));
  EXPECT_TRUE(h.comm.exchange_complete(11));
  h.comm.end_exchange(10);
  h.comm.end_exchange(11);
}

TEST(Comm, SenderReleaseReflectsAckPathology) {
  FabricParams p = quiet_params();
  p.ack_loss_prob = 1.0;
  p.drain_queue_enabled = false;
  p.ack_recovery_delay = ms(2.0);
  Harness h(4, p);
  h.comm.begin_exchange(12, {0, 0, 1, 0});
  const TimeNs release = h.comm.isend(0, 2, 1000, 12, 0);
  EXPECT_GE(release, ms(2.0));
  EXPECT_FALSE(h.comm.wait_recvs(h.engine, 2, 12));
  h.engine.run();
  // The data arrived long before the sender's request completed.
  EXPECT_LT(h.endpoints[2].recv_ready_time, release);
  h.comm.end_exchange(12);
}

TEST(Comm, ZeroMessageWindowCompletesImmediately) {
  // A regrid step can produce a window where no rank exchanges anything
  // (e.g. every neighbor is intra-rank). The window must be complete
  // from the start, waits must return without parking, and closing it
  // must not trip the undelivered-messages check.
  Harness h(4);
  h.comm.begin_exchange(20, {0, 0, 0, 0});
  EXPECT_TRUE(h.comm.exchange_complete(20));
  for (std::int32_t r = 0; r < 4; ++r)
    EXPECT_TRUE(h.comm.wait_recvs(h.engine, r, 20));
  h.engine.run();
  for (const auto& ep : h.endpoints) EXPECT_EQ(ep.recv_ready_calls, 0);
  h.comm.end_exchange(20);
}

TEST(Comm, SenderWithNoRecvsNeverParks) {
  // Rank 0 only sends in this window; its wait must pass immediately
  // (expected[0] == 0) regardless of whether its own sends have landed.
  Harness h(4);
  h.comm.begin_exchange(21, {0, 2, 0, 0});
  h.comm.isend(0, 1, 1000, 21, 0);
  h.comm.isend(0, 1, 2000, 21, 0);
  EXPECT_TRUE(h.comm.wait_recvs(h.engine, 0, 21));
  EXPECT_FALSE(h.comm.exchange_complete(21));
  h.engine.run_until(ms(1.0));
  EXPECT_EQ(h.endpoints[0].recv_ready_calls, 0);
  EXPECT_TRUE(h.comm.exchange_complete(21));
  h.comm.end_exchange(21);
}

TEST(Comm, AggregatedSendCountsAsOneArrival) {
  // An aggregated isend (msgs > 1) is one packed transfer: one delivery
  // against the window's expected count, released later than the
  // equivalent single message by the fabric's per-message overhead.
  // Each delivery is observed through the receiver's wake, parked
  // before the run, so the clock stops at the delivery time.
  Harness h(4);
  TestEndpoint& rx = h.endpoints[1];
  h.comm.begin_exchange(22, {0, 1, 0, 0});
  h.comm.isend(0, 1, 4000, 22, 0, -1, 5);
  EXPECT_FALSE(h.comm.exchange_complete(22));
  EXPECT_FALSE(h.comm.wait_recvs(h.engine, 1, 22));
  h.engine.run();
  EXPECT_EQ(rx.recv_ready_calls, 1);
  EXPECT_TRUE(h.comm.exchange_complete(22));
  EXPECT_EQ(h.fabric.stats().packed_transfers, 1);
  EXPECT_EQ(h.fabric.stats().coalesced_msgs, 4);
  h.comm.end_exchange(22);

  // Same bytes unpacked: the packed delivery must land strictly later.
  h.comm.begin_exchange(23, {0, 1, 0, 0});
  h.comm.isend(0, 1, 4000, 23, h.engine.now());
  const TimeNs plain_start = h.engine.now();
  EXPECT_FALSE(h.comm.wait_recvs(h.engine, 1, 23));
  h.engine.run();
  const TimeNs plain = rx.recv_ready_time - plain_start;
  h.comm.end_exchange(23);
  h.comm.begin_exchange(24, {0, 1, 0, 0});
  h.comm.isend(0, 1, 4000, 24, h.engine.now(), -1, 5);
  const TimeNs packed_start = h.engine.now();
  EXPECT_FALSE(h.comm.wait_recvs(h.engine, 1, 24));
  h.engine.run();
  const TimeNs packed = rx.recv_ready_time - packed_start;
  h.comm.end_exchange(24);
  EXPECT_EQ(rx.recv_ready_calls, 3);
  EXPECT_EQ(packed, plain + 4 * quiet_params().packed_msg_overhead);
}

/// Endpoint recording every on_post call.
class MessageLog final : public RankEndpoint {
 public:
  struct Message {
    std::int32_t dst;
    std::uint64_t window;
    std::int32_t src;
    std::int64_t dst_tag;
    TimeNs t = 0;  ///< delivery slot; not compared
    std::uint64_t key = 0;
    bool operator==(const Message& o) const {
      return dst == o.dst && window == o.window && src == o.src &&
             dst_tag == o.dst_tag;
    }
  };
  MessageLog(std::vector<Message>* log, std::int32_t rank)
      : log_(log), rank_(rank) {}
  void on_recvs_ready(Engine&, std::uint64_t, TimeNs, std::int32_t src)
      override {
    last_release_src = src;
  }
  void on_collective_done(Engine&, std::uint64_t, TimeNs) override {}
  void on_post(Engine&, std::uint64_t window, TimeNs t, std::uint64_t key,
               std::int32_t src, std::int64_t dst_tag) override {
    log_->push_back({rank_, window, src, dst_tag, t, key});
  }
  std::int32_t last_release_src = -1;

 private:
  std::vector<Message>* log_;
  std::int32_t rank_;
};

TEST(Comm, ExtremeFieldValuesRoundTripThroughTheDeliveryTag) {
  // A delivery carries (exchange slot, src, dst, dst_tag) in its event
  // tag alone. The largest rank, the last window slot and both ends of
  // the dst_tag range must come back out unchanged.
  constexpr std::int32_t kRanks = 16384;
  Engine engine;
  ClusterTopology topo(kRanks, 16);
  Fabric fabric(topo, quiet_params(), Rng(1));
  Comm comm(engine, fabric, kRanks);
  EXPECT_EQ(comm.max_dst_tag(), (std::int64_t{1} << 31) - 2);
  std::vector<MessageLog::Message> log;
  std::vector<MessageLog> eps;
  eps.reserve(kRanks);
  for (std::int32_t r = 0; r < kRanks; ++r) {
    eps.emplace_back(&log, r);
    comm.set_endpoint(r, &eps.back());
  }
  constexpr std::int32_t kLast = kRanks - 1;
  std::vector<std::int32_t> idle(kRanks, 0);
  for (std::uint64_t w = 0; w + 1 < Comm::kMaxOpenExchanges; ++w)
    comm.begin_exchange(100 + w, idle);
  std::vector<std::int32_t> expected(kRanks, 0);
  expected[0] = 3;
  expected[kLast] = 1;
  const std::uint64_t window = (1ULL << 31) - 1;
  comm.begin_exchange(window, expected);  // occupies the last slot
  comm.isend(kLast, 0, 64, window, 0, comm.max_dst_tag());
  comm.isend(kLast, 0, 64, window, 10, 1);
  comm.isend(kLast, 0, 64, window, 20, 0);
  comm.isend(0, kLast, 64, window, 30, 77);
  // on_post runs inside isend, so the log is in post order.
  const std::vector<MessageLog::Message> want = {
      {0, window, kLast, comm.max_dst_tag()},
      {0, window, kLast, 1},
      {0, window, kLast, 0},
      {kLast, window, 0, 77}};
  EXPECT_EQ(log, want);
  EXPECT_FALSE(comm.wait_recvs(engine, 0, window));
  engine.run();
  EXPECT_EQ(log.size(), want.size());
  EXPECT_EQ(eps[0].last_release_src, kLast);
  EXPECT_TRUE(comm.exchange_complete(window));
}

TEST(Comm, UntaggedSendsSkipOnPost) {
  // dst_tag -1 marks a send nobody routes on (the BSP runtime's): it
  // still counts against the window but never calls on_post. A tagged
  // one reaches on_post inside isend, before anything dispatches, with
  // the delivery time and a fresh dispatch key.
  Engine engine;
  ClusterTopology topo(4, 2);
  Fabric fabric(topo, quiet_params(), Rng(1));
  Comm comm(engine, fabric, 4);
  std::vector<MessageLog::Message> log;
  std::vector<MessageLog> eps;
  for (std::int32_t r = 0; r < 4; ++r) eps.emplace_back(&log, r);
  for (std::int32_t r = 0; r < 4; ++r) comm.set_endpoint(r, &eps[r]);
  comm.begin_exchange(5, {0, 3, 0, 0});
  comm.isend(0, 1, 100, 5, 0);
  comm.isend(2, 1, 100, 5, 0, -1, 4);
  comm.isend(3, 1, 100, 5, 0, 9);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (MessageLog::Message{1, 5, 3, 9}));
  EXPECT_GT(log[0].t, 0);
  EXPECT_FALSE(engine.dispatched(log[0].t, log[0].key));
  EXPECT_FALSE(comm.wait_recvs(engine, 1, 5));
  engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(comm.exchange_complete(5));
  EXPECT_NE(eps[1].last_release_src, -1);
}

/// What a rank observed, in the order the endpoints saw it: 'p' an
/// on_post, 'r' an on_recvs_ready, 'w' a wait_recvs that returned true
/// at once. `key` is the posted message's dispatch key for 'p', and the
/// dispatch key of the event the call ran in otherwise — so an 'r'
/// shows the slot the wake landed in.
struct Observed {
  char kind;
  std::int32_t rank;
  TimeNs t;
  std::uint64_t key;
  std::int32_t src;
  std::int64_t dst_tag;
  bool operator==(const Observed&) const = default;
};

class ObservingEndpoint final : public RankEndpoint {
 public:
  ObservingEndpoint(std::vector<Observed>* log, std::int32_t rank)
      : log_(log), rank_(rank) {}
  void on_recvs_ready(Engine& engine, std::uint64_t, TimeNs t,
                      std::int32_t src) override {
    log_->push_back({'r', rank_, t, engine.dispatch_key(), src, -1});
  }
  void on_collective_done(Engine&, std::uint64_t, TimeNs) override {}
  void on_post(Engine&, std::uint64_t, TimeNs t, std::uint64_t key,
               std::int32_t src, std::int64_t dst_tag) override {
    log_->push_back({'p', rank_, t, key, src, dst_tag});
  }

 private:
  std::vector<Observed>* log_;
  std::int32_t rank_;
};

/// Integer-nanosecond fabric with no jitter and small constants, so
/// posts, deliveries and waits collide on equal nanoseconds.
FabricParams grid_params() {
  FabricParams p = quiet_params();
  p.remote_latency = 8;
  p.remote_per_msg = 2;
  p.remote_gbytes_per_sec = 1.0;
  p.shm_latency = 6;
  p.shm_gbytes_per_sec = 1.0;
  p.post_overhead = 1;
  return p;
}

constexpr std::uint64_t kFuzzWindow = 3;
constexpr std::int32_t kFuzzRanks = 8;

/// Test-only oracle: the eager per-message model that counted
/// completion replaces. Every message, tagged or not, is a DES event
/// scheduled at isend (a tagged one is also reported to on_post there,
/// with that event's slot), arrivals count at dispatch, and a parked
/// receiver wakes inline on its last delivery.
class EagerComm final : public EventHandler {
 public:
  EagerComm(Engine& engine, Fabric& fabric,
            std::vector<ObservingEndpoint>& eps,
            std::vector<std::int32_t> expected)
      : engine_(engine), fabric_(fabric), eps_(eps),
        expected_(std::move(expected)), arrived_(expected_.size(), 0),
        waiting_(expected_.size(), false) {}

  void isend(std::int32_t src, std::int32_t dst, std::int64_t bytes,
             std::int64_t dst_tag) {
    const TransferTiming t =
        fabric_.transfer(src, dst, bytes, engine_.now());
    deliveries.push_back({dst, t.delivery});
    const std::uint64_t key = engine_.reserve_key();
    if (dst_tag != -1)
      eps_[static_cast<std::size_t>(dst)].on_post(
          engine_, kFuzzWindow, t.delivery, key, src, dst_tag);
    engine_.schedule_keyed(t.delivery, key, this,
                           static_cast<std::uint64_t>(src) |
                               (static_cast<std::uint64_t>(dst) << 16));
  }
  bool wait_recvs(std::int32_t rank) {
    const auto r = static_cast<std::size_t>(rank);
    if (arrived_[r] >= expected_[r]) return true;
    waiting_[r] = true;
    return false;
  }
  bool complete() const { return arrived_ == expected_; }

  void on_event(Engine& engine, std::uint64_t tag) override {
    const auto src = static_cast<std::int32_t>(tag & 0xffff);
    const auto dst = static_cast<std::size_t>((tag >> 16) & 0xffff);
    ++arrived_[dst];
    if (waiting_[dst] && arrived_[dst] == expected_[dst]) {
      waiting_[dst] = false;
      eps_[dst].on_recvs_ready(engine, kFuzzWindow, engine.now(), src);
    }
  }

  /// (receiver, delivery time) of every message, for the tie census.
  std::vector<std::pair<std::int32_t, TimeNs>> deliveries;

 private:
  Engine& engine_;
  Fabric& fabric_;
  std::vector<ObservingEndpoint>& eps_;
  std::vector<std::int32_t> expected_;
  std::vector<std::int32_t> arrived_;
  std::vector<bool> waiting_;
};

/// One scripted action: a send (dst >= 0) or a rank's wait (dst == -1).
struct FuzzAction {
  TimeNs t;
  std::int32_t rank;
  std::int32_t dst;
  std::int64_t bytes;
  std::int64_t dst_tag;
};

struct FuzzScenario {
  std::vector<FuzzAction> actions;
  std::vector<std::size_t> order;  ///< schedule order of the actions
  std::vector<std::int32_t> expected;
};

FuzzScenario make_fuzz_scenario(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  FuzzScenario sc;
  sc.expected.assign(kFuzzRanks, 0);
  const int sends = static_cast<int>(rng() % 24);
  for (int i = 0; i < sends; ++i) {
    const auto src = static_cast<std::int32_t>(rng() % kFuzzRanks);
    const auto dst = static_cast<std::int32_t>(
        (src + 1 + static_cast<std::int32_t>(rng() % (kFuzzRanks - 1))) %
        kFuzzRanks);
    const auto t = static_cast<TimeNs>(2 * (rng() % 16));
    const auto bytes = static_cast<std::int64_t>(2 * (rng() % 4));
    const std::int64_t dst_tag =
        rng() % 3 == 0 ? static_cast<std::int64_t>(rng() % 5) : -1;
    sc.actions.push_back({t, src, dst, bytes, dst_tag});
    ++sc.expected[static_cast<std::size_t>(dst)];
  }
  for (std::int32_t r = 0; r < kFuzzRanks; ++r)
    sc.actions.push_back(
        {static_cast<TimeNs>(2 * (rng() % 30)), r, -1, 0, 0});
  sc.order.resize(sc.actions.size());
  for (std::size_t i = 0; i < sc.order.size(); ++i) sc.order[i] = i;
  std::shuffle(sc.order.begin(), sc.order.end(), rng);
  return sc;
}

/// Plays a scenario's actions as DES events against either model.
class ScriptPlayer final : public EventHandler {
 public:
  const std::vector<FuzzAction>* actions = nullptr;
  std::vector<Observed>* log = nullptr;
  std::function<void(const FuzzAction&)> send;
  std::function<bool(std::int32_t)> wait;

  void on_event(Engine& engine, std::uint64_t tag) override {
    const FuzzAction& a = (*actions)[tag];
    if (a.dst >= 0)
      send(a);
    else if (wait(a.rank))
      log->push_back({'w', a.rank, engine.now(), engine.dispatch_key(), -1,
                      -1});
  }
};

struct FuzzOutcome {
  std::vector<Observed> log;
  std::vector<bool> complete;  ///< exchange_complete at each checkpoint
  std::int64_t ties = 0;       ///< waits at one of their own deliveries
};

/// Runs the scenario against the counted Comm (eager == false) or the
/// eager oracle, polling completion at fixed clock checkpoints.
FuzzOutcome run_fuzz(const FuzzScenario& sc, bool eager) {
  Engine engine;
  ClusterTopology topo(kFuzzRanks, 4);
  Fabric fabric(topo, grid_params(), Rng(1));
  FuzzOutcome out;
  std::vector<ObservingEndpoint> eps;
  for (std::int32_t r = 0; r < kFuzzRanks; ++r) eps.emplace_back(&out.log, r);
  Comm comm(engine, fabric, kFuzzRanks);
  for (std::int32_t r = 0; r < kFuzzRanks; ++r)
    comm.set_endpoint(r, &eps[static_cast<std::size_t>(r)]);
  comm.begin_exchange(kFuzzWindow, sc.expected);
  EagerComm ref(engine, fabric, eps, sc.expected);
  ScriptPlayer player;
  player.actions = &sc.actions;
  player.log = &out.log;
  if (eager) {
    player.send = [&](const FuzzAction& a) {
      ref.isend(a.rank, a.dst, a.bytes, a.dst_tag);
    };
    player.wait = [&](std::int32_t r) { return ref.wait_recvs(r); };
  } else {
    player.send = [&](const FuzzAction& a) {
      comm.isend(a.rank, a.dst, a.bytes, kFuzzWindow, engine.now(),
                 a.dst_tag);
    };
    player.wait = [&](std::int32_t r) {
      return comm.wait_recvs(engine, r, kFuzzWindow);
    };
  }
  const auto complete = [&] {
    return eager ? ref.complete() : comm.exchange_complete(kFuzzWindow);
  };
  for (const std::size_t i : sc.order)
    engine.schedule_at(sc.actions[i].t, &player, i);
  for (TimeNs t = 0; t <= 120; t += 3) {
    engine.run_until(t);
    out.complete.push_back(complete());
  }
  engine.run();
  out.complete.push_back(complete());
  for (const FuzzAction& a : sc.actions)
    if (a.dst < 0)
      for (const auto& [dst, t] : ref.deliveries)
        if (dst == a.rank && t == a.t) ++out.ties;
  return out;
}

TEST(Comm, FuzzCountedCompletionMatchesEagerDeliveryModel) {
  // Counted completion must be unobservable: for any mix of tagged and
  // untagged sends, wake times and slots, releasing senders, the order
  // of every wake, on_post and immediate wait, and exchange_complete all
  // match the eager per-message model, on scripts dense in
  // equal-nanosecond ties.
  std::int64_t ties = 0;
  std::int64_t wakes = 0;
  std::int64_t tagged_wakes = 0;  ///< released by a tagged latest
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const FuzzScenario sc = make_fuzz_scenario(seed);
    const FuzzOutcome eager = run_fuzz(sc, true);
    const FuzzOutcome counted = run_fuzz(sc, false);
    ASSERT_EQ(counted.log, eager.log) << "seed " << seed;
    ASSERT_EQ(counted.complete, eager.complete) << "seed " << seed;
    ties += eager.ties;
    for (const Observed& o : eager.log) {
      if (o.kind != 'r') continue;
      ++wakes;
      tagged_wakes += std::count_if(
          eager.log.begin(), eager.log.end(), [&](const Observed& p) {
            return p.kind == 'p' && p.rank == o.rank && p.t == o.t &&
                   p.key == o.key;
          });
    }
  }
  EXPECT_GT(ties, 20) << "the fuzz no longer produces equal-time ties";
  EXPECT_GT(wakes, 300);
  EXPECT_GT(tagged_wakes, 50) << "too few wakes released by tagged sends";
}

TEST(Comm, MixedTaggedAndUntaggedWindowWakesAtTheLatest) {
  // Rank 1 waits on tagged and untagged messages. Tagged ones reach
  // on_post at isend; neither kind dispatches. Either way the one wake
  // lands in the latest message's own (time, key) slot, released by its
  // sender.
  const auto run = [](std::int64_t big_tag) {
    Engine engine;
    ClusterTopology topo(4, 2);
    Fabric fabric(topo, quiet_params(), Rng(1));
    Comm comm(engine, fabric, 4);
    std::vector<Observed> log;
    std::vector<ObservingEndpoint> eps;
    for (std::int32_t r = 0; r < 4; ++r) eps.emplace_back(&log, r);
    for (std::int32_t r = 0; r < 4; ++r) comm.set_endpoint(r, &eps[r]);
    comm.begin_exchange(6, {0, 3, 0, 0});
    comm.isend(0, 1, 100, 6, 0, 4);
    comm.isend(2, 1, 100, 6, 0);
    comm.isend(3, 1, 500000, 6, 0, big_tag);  // arrives last
    EXPECT_FALSE(comm.wait_recvs(engine, 1, 6));
    engine.run();
    EXPECT_EQ(engine.now(), log.back().t);
    EXPECT_TRUE(comm.exchange_complete(6));
    return log;
  };
  const std::vector<Observed> tagged = run(9);
  ASSERT_EQ(tagged.size(), 3u);
  EXPECT_EQ(tagged[0], (Observed{'p', 1, tagged[0].t, tagged[0].key, 0, 4}));
  EXPECT_EQ(tagged[1], (Observed{'p', 1, tagged[1].t, tagged[1].key, 3, 9}));
  EXPECT_EQ(tagged[2],
            (Observed{'r', 1, tagged[1].t, tagged[1].key, 3, -1}));
  EXPECT_LT(tagged[0].t, tagged[1].t);

  const std::vector<Observed> untagged = run(-1);
  ASSERT_EQ(untagged.size(), 2u);
  EXPECT_EQ(untagged[0], tagged[0]);
  // Same fabric calls and keys, so the big message lands in the slot it
  // had tagged.
  EXPECT_EQ(untagged[1], tagged[2]);
}

TEST(CommDeath, TooManyRanksForTheTagLayoutAborts) {
  Engine engine;
  ClusterTopology topo(4, 2);
  Fabric fabric(topo, quiet_params(), Rng(1));
  EXPECT_DEATH(Comm(engine, fabric, Comm::kMaxRanks + 1), "encode");
}

TEST(CommDeath, TooManyOpenWindowsAborts) {
  Harness h(4);
  for (std::uint64_t w = 0; w < Comm::kMaxOpenExchanges; ++w)
    h.comm.begin_exchange(w, {0, 0, 0, 0});
  EXPECT_DEATH(h.comm.begin_exchange(99, {0, 0, 0, 0}),
               "too many open exchange windows");
}

TEST(CommDeath, UnencodableDstTagAborts) {
  Harness h(4);
  h.comm.begin_exchange(17, {0, 1, 0, 0});
  EXPECT_DEATH(h.comm.isend(0, 1, 100, 17, 0, h.comm.max_dst_tag() + 1),
               "dst_tag");
  EXPECT_DEATH(h.comm.isend(0, 1, 100, 17, 0, Comm::kMinDstTag - 1),
               "dst_tag");
}

TEST(CommDeath, DoubleWaitOnSameWindowAborts) {
  Harness h(4);
  h.comm.begin_exchange(13, {0, 1, 0, 0});
  EXPECT_FALSE(h.comm.wait_recvs(h.engine, 1, 13));
  EXPECT_DEATH(h.comm.wait_recvs(h.engine, 1, 13), "waiting");
}

TEST(CommDeath, ClosingIncompleteWindowAborts) {
  Harness h(4);
  h.comm.begin_exchange(14, {0, 1, 0, 0});
  EXPECT_DEATH(h.comm.end_exchange(14), "undelivered");
}

TEST(CommDeath, UnexpectedDeliveryAborts) {
  // Messages are counted at isend, so the overflow aborts there.
  Harness h(4);
  h.comm.begin_exchange(15, {0, 0, 0, 0});
  EXPECT_DEATH(h.comm.isend(0, 1, 100, 15, 0), "expected");
}

TEST(CommDeath, DuplicateWindowAborts) {
  Harness h(4);
  h.comm.begin_exchange(16, {0, 0, 0, 0});
  EXPECT_DEATH(h.comm.begin_exchange(16, {0, 0, 0, 0}), "already");
}

}  // namespace
}  // namespace amr
