#include "amr/simmpi/comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "amr/exec/overlap.hpp"

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
  Harness h(4);
  h.comm.begin_exchange(1, {0, 1, 0, 0});
  h.comm.isend(0, 1, 1000, 1, 0);
  EXPECT_FALSE(h.comm.exchange_complete(1));
  h.engine.run();
  EXPECT_TRUE(h.comm.exchange_complete(1));
  h.comm.end_exchange(1);
}

TEST(Comm, WaitBeforeArrivalParksThenNotifies) {
  Harness h(4);
  h.comm.begin_exchange(2, {0, 1, 0, 0});
  const TimeNs release = h.comm.isend(0, 1, 1000, 2, 0);
  EXPECT_GT(release, 0);
  EXPECT_FALSE(h.comm.wait_recvs(1, 2, 0));
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
  h.engine.run();
  EXPECT_TRUE(h.comm.wait_recvs(1, 3, h.engine.now()));
  EXPECT_EQ(h.endpoints[1].recv_ready_calls, 0);  // no callback needed
}

TEST(Comm, MultipleMessagesReleaseOnLastArrival) {
  Harness h(4);
  h.comm.begin_exchange(4, {0, 3, 0, 0});
  h.comm.isend(0, 1, 1000, 4, 0);
  h.comm.isend(2, 1, 1000, 4, 0);
  h.comm.isend(3, 1, 500000, 4, 0);  // big message arrives last
  EXPECT_FALSE(h.comm.wait_recvs(1, 4, 0));
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
  h.engine.run();
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
  h.engine.run();
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
    EXPECT_TRUE(h.comm.wait_recvs(r, 20, 0));
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
  EXPECT_TRUE(h.comm.wait_recvs(0, 21, 0));
  EXPECT_FALSE(h.comm.exchange_complete(21));
  h.engine.run();
  EXPECT_EQ(h.endpoints[0].recv_ready_calls, 0);
  EXPECT_TRUE(h.comm.exchange_complete(21));
  h.comm.end_exchange(21);
}

TEST(Comm, AggregatedSendCountsAsOneArrival) {
  // An aggregated isend (msgs > 1) is one packed transfer: one delivery
  // against the window's expected count, released later than the
  // equivalent single message by the fabric's per-message overhead.
  Harness h(4);
  h.comm.begin_exchange(22, {0, 1, 0, 0});
  h.comm.isend(0, 1, 4000, 22, 0, -1, 5);
  EXPECT_FALSE(h.comm.exchange_complete(22));
  h.engine.run();
  EXPECT_TRUE(h.comm.exchange_complete(22));
  EXPECT_EQ(h.fabric.stats().packed_transfers, 1);
  EXPECT_EQ(h.fabric.stats().coalesced_msgs, 4);
  h.comm.end_exchange(22);

  // Same bytes unpacked: the packed delivery must land strictly later.
  h.comm.begin_exchange(23, {0, 1, 0, 0});
  h.comm.isend(0, 1, 4000, 23, h.engine.now());
  const TimeNs plain_start = h.engine.now();
  h.engine.run();
  const TimeNs plain = h.engine.now() - plain_start;
  h.comm.end_exchange(23);
  h.comm.begin_exchange(24, {0, 1, 0, 0});
  h.comm.isend(0, 1, 4000, 24, h.engine.now(), -1, 5);
  const TimeNs packed_start = h.engine.now();
  h.engine.run();
  const TimeNs packed = h.engine.now() - packed_start;
  h.comm.end_exchange(24);
  EXPECT_EQ(packed, plain + 4 * quiet_params().packed_msg_overhead);
}

/// Endpoint recording every on_message call.
class MessageLog final : public RankEndpoint {
 public:
  struct Message {
    std::int32_t dst;
    std::uint64_t window;
    std::int32_t src;
    std::int64_t dst_tag;
    bool operator==(const Message&) const = default;
  };
  MessageLog(std::vector<Message>* log, std::int32_t rank)
      : log_(log), rank_(rank) {}
  void on_recvs_ready(Engine&, std::uint64_t, TimeNs, std::int32_t src)
      override {
    last_release_src = src;
  }
  void on_collective_done(Engine&, std::uint64_t, TimeNs) override {}
  void on_message(Engine&, std::uint64_t window, TimeNs, std::int32_t src,
                  std::int64_t dst_tag) override {
    log_->push_back({rank_, window, src, dst_tag});
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
  EXPECT_EQ(comm.max_dst_tag(), (std::int64_t{1} << 31) - 3);
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
  comm.isend(kLast, 0, 64, window, 10, kPackedSendTag);
  comm.isend(kLast, 0, 64, window, 20, 0);
  comm.isend(0, kLast, 64, window, 30, 77);
  EXPECT_FALSE(comm.wait_recvs(0, window, 0));
  engine.run();
  const std::vector<MessageLog::Message> want = {
      {0, window, kLast, comm.max_dst_tag()},
      {0, window, kLast, kPackedSendTag},
      {0, window, kLast, 0},
      {kLast, window, 0, 77}};
  ASSERT_EQ(log.size(), want.size());  // arrival order is the fabric's
  EXPECT_TRUE(std::is_permutation(log.begin(), log.end(), want.begin()));
  EXPECT_EQ(eps[0].last_release_src, kLast);
  EXPECT_TRUE(comm.exchange_complete(window));
}

TEST(Comm, UntaggedDeliveriesSkipOnMessage) {
  // dst_tag -1 marks a send nobody routes on (the BSP runtime's): it
  // still counts against the window but never calls on_message.
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
  EXPECT_FALSE(comm.wait_recvs(1, 5, 0));
  engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (MessageLog::Message{1, 5, 3, 9}));
  EXPECT_TRUE(comm.exchange_complete(5));
  EXPECT_NE(eps[1].last_release_src, -1);
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
  EXPECT_FALSE(h.comm.wait_recvs(1, 13, 0));
  EXPECT_DEATH(h.comm.wait_recvs(1, 13, 0), "waiting");
}

TEST(CommDeath, ClosingIncompleteWindowAborts) {
  Harness h(4);
  h.comm.begin_exchange(14, {0, 1, 0, 0});
  EXPECT_DEATH(h.comm.end_exchange(14), "undelivered");
}

TEST(CommDeath, UnexpectedDeliveryAborts) {
  Harness h(4);
  h.comm.begin_exchange(15, {0, 0, 0, 0});
  h.comm.isend(0, 1, 100, 15, 0);
  EXPECT_DEATH(h.engine.run(), "expected");
}

TEST(CommDeath, DuplicateWindowAborts) {
  Harness h(4);
  h.comm.begin_exchange(16, {0, 0, 0, 0});
  EXPECT_DEATH(h.comm.begin_exchange(16, {0, 0, 0, 0}), "already");
}

}  // namespace
}  // namespace amr
