#include "amr/des/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "amr/des/engine.hpp"
#include "amr/par/thread_pool.hpp"
#include "amr/topo/topology.hpp"

namespace amr {
namespace {

class Recorder final : public EventHandler {
 public:
  void on_event(Engine& engine, std::uint64_t tag) override {
    log.emplace_back(engine.now(), tag);
  }
  std::vector<std::pair<TimeNs, std::uint64_t>> log;
};

TEST(ShardedEngine, ClampsShardCountToNodeCount) {
  const ClusterTopology topo(64, 16);  // 4 nodes
  ShardedEngine one(topo, 1, 10, nullptr);
  EXPECT_EQ(one.num_shards(), 1);
  ShardedEngine eight(topo, 8, 10, nullptr);
  EXPECT_EQ(eight.num_shards(), 4);
  ShardedEngine zero(topo, 0, 10, nullptr);
  EXPECT_EQ(zero.num_shards(), 1);
}

TEST(ShardedEngine, NodePartitionIsContiguousAndCoversAllRanks) {
  const ClusterTopology topo(96, 16);  // 6 nodes
  for (const std::int32_t shards : {1, 2, 3, 4, 6}) {
    ShardedEngine eng(topo, shards, 10, nullptr);
    // Node ownership is monotone in node id (contiguous blocks).
    std::int32_t prev = 0;
    for (std::int32_t node = 0; node < topo.num_nodes(); ++node) {
      const std::int32_t s = eng.shard_of_node(node);
      EXPECT_GE(s, prev) << "shards=" << shards << " node=" << node;
      EXPECT_LT(s, eng.num_shards());
      prev = s;
    }
    // Rank ranges tile [0, num_ranks) exactly, and agree with
    // shard_of_rank / engine_for_rank.
    std::int32_t expected_first = 0;
    for (std::int32_t s = 0; s < eng.num_shards(); ++s) {
      const auto [first, last] = eng.rank_range(s);
      EXPECT_EQ(first, expected_first) << "shards=" << shards;
      EXPECT_GT(last, first) << "every shard owns at least one rank";
      for (std::int32_t r = first; r < last; ++r) {
        EXPECT_EQ(eng.shard_of_rank(r), s);
        EXPECT_EQ(&eng.engine_for_rank(r), &eng.shard(s));
      }
      expected_first = last;
    }
    EXPECT_EQ(expected_first, topo.num_ranks());
  }
}

TEST(ShardedEngine, EqualTimeKeyedEventsDispatchInKeyOrder) {
  // Insertion order scrambled three ways (direct, reversed, via the
  // barrier callback): dispatch must always be ascending key.
  const ClusterTopology topo(32, 16);  // 2 nodes
  ShardedEngine eng(topo, 2, 10, nullptr);
  Recorder rec;
  bool injected = false;
  eng.set_barrier_callback([&] {
    if (injected) return;
    injected = true;
    eng.shard(0).schedule_keyed(100, 5, &rec, 5);
  });
  eng.shard(0).schedule_keyed(100, 7, &rec, 7);
  eng.shard(0).schedule_keyed(100, 3, &rec, 3);
  eng.shard(0).schedule_keyed(100, 1, &rec, 1);
  eng.run_all();
  ASSERT_EQ(rec.log.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(rec.log[i].first, 100);
  EXPECT_EQ(rec.log[0].second, 1u);
  EXPECT_EQ(rec.log[1].second, 3u);
  EXPECT_EQ(rec.log[2].second, 5u);
  EXPECT_EQ(rec.log[3].second, 7u);
}

TEST(ShardedEngine, RunUntilAlignsDrainedShardClocks) {
  const ClusterTopology topo(32, 16);
  ShardedEngine eng(topo, 2, 10, nullptr);
  Recorder rec;
  eng.shard(0).schedule_keyed(50, 1, &rec, 0);
  eng.run_all();
  eng.run_until(500);
  EXPECT_EQ(eng.now(), 500);
  EXPECT_EQ(eng.shard(0).now(), 500);
  EXPECT_EQ(eng.shard(1).now(), 500);
}

TEST(ShardedEngine, StatsCountEventsAndEpochs) {
  // Events a barrier callback schedules count like any other; the
  // mailbox column belongs to the comm layer and stays zero here.
  const ClusterTopology topo(32, 16);
  ShardedEngine eng(topo, 2, 10, nullptr);
  Recorder rec;
  bool injected = false;
  eng.set_barrier_callback([&] {
    if (injected) return;
    injected = true;
    eng.shard(1).schedule_keyed(25, 2, &rec, 1);
  });
  eng.shard(0).schedule_keyed(10, 1, &rec, 0);
  eng.run_all();
  const auto& stats = eng.last_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].events, 1);
  EXPECT_EQ(stats[1].events, 1);
  EXPECT_EQ(stats[1].mailbox_events, 0);
  EXPECT_GT(stats[0].epochs, 0);
  EXPECT_EQ(stats[0].epochs, stats[1].epochs);
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

class NodeProgram;

/// Cross-node events buffered per source shard during an epoch and
/// scheduled from the barrier callback — the pattern the comm layer uses
/// for cross-shard messages (each vector has one writer, its shard).
struct Outboxes {
  struct Entry {
    TimeNs t;
    std::uint64_t key;
    NodeProgram* target;
    std::int32_t target_node;
  };
  ShardedEngine* eng = nullptr;
  std::vector<std::vector<Entry>> boxes;

  explicit Outboxes(ShardedEngine& e)
      : eng(&e), boxes(static_cast<std::size_t>(e.num_shards())) {}
  void drain();
};

/// Cross-shard fuzz workload: every node runs a deterministic per-node
/// program that, on each event, schedules more work locally and sends
/// keyed events to random peer nodes beyond the lookahead bound. Node
/// behaviour depends only on that node's own dispatch sequence, so the
/// per-node fired logs must be identical under any shard count.
class NodeProgram final : public EventHandler {
 public:
  ShardedEngine* eng = nullptr;
  Outboxes* outboxes = nullptr;
  std::int32_t node = 0;
  std::int32_t num_nodes = 0;
  TimeNs lookahead = 0;
  std::mt19937_64 rng;
  std::uint64_t seq = 0;  ///< per-node uniquifier, dispatch-ordered
  int budget = 0;
  std::vector<NodeProgram>* peers = nullptr;
  std::vector<std::pair<TimeNs, std::uint64_t>> fired;

  void on_event(Engine& engine, std::uint64_t tag) override {
    fired.emplace_back(engine.now(), tag);
    if (budget <= 0) return;
    --budget;
    const int locals = static_cast<int>(rng() % 3);
    for (int k = 0; k < locals; ++k) {
      const TimeNs t = engine.now() + 1 + static_cast<TimeNs>(rng() % 64);
      const std::uint64_t ek = key();
      engine.schedule_keyed(t, ek, this, ek);
    }
    if (rng() % 2 == 0) {
      const auto dst = static_cast<std::int32_t>(
          rng() % static_cast<std::uint64_t>(num_nodes));
      // Beyond the lookahead horizon: mirrors the fabric's guarantee
      // that cross-node deliveries land strictly past h_end.
      const TimeNs t = engine.now() + lookahead + 1 +
                       static_cast<TimeNs>(rng() % 64);
      NodeProgram& target = (*peers)[static_cast<std::size_t>(dst)];
      outboxes->boxes[static_cast<std::size_t>(eng->shard_of_node(node))]
          .push_back(Outboxes::Entry{t, key(), &target, dst});
    }
  }

  /// Content-derived key: (node, per-node seq), unique process-wide and
  /// independent of shard count.
  std::uint64_t key() {
    return (static_cast<std::uint64_t>(node) << 32) | seq++;
  }
};

void Outboxes::drain() {
  for (std::vector<Entry>& box : boxes) {
    for (const Entry& e : box)
      eng->shard(eng->shard_of_node(e.target_node))
          .schedule_keyed(e.t, e.key, e.target, e.key);
    box.clear();
  }
}

TEST(ShardedEngine, FuzzCrossShardDispatchInvariantUnderShardCount) {
  const ClusterTopology topo(64, 16);  // 4 nodes
  const TimeNs lookahead = 20;
  for (const std::uint64_t seed : {2u, 77u, 909u}) {
    std::vector<std::vector<std::pair<TimeNs, std::uint64_t>>> reference;
    for (const std::int32_t shards : {1, 2, 4}) {
      ShardedEngine eng(topo, shards, lookahead, nullptr);
      Outboxes outboxes(eng);
      eng.set_barrier_callback([&outboxes] { outboxes.drain(); });
      std::vector<NodeProgram> nodes(
          static_cast<std::size_t>(topo.num_nodes()));
      for (std::int32_t n = 0; n < topo.num_nodes(); ++n) {
        NodeProgram& p = nodes[static_cast<std::size_t>(n)];
        p.eng = &eng;
        p.outboxes = &outboxes;
        p.node = n;
        p.num_nodes = topo.num_nodes();
        p.lookahead = lookahead;
        p.rng.seed(seed * 1000 + static_cast<std::uint64_t>(n));
        p.budget = 200;
        p.peers = &nodes;
        // Seed events straight into the owning shard's queue.
        for (int i = 0; i < 5; ++i) {
          const TimeNs t = static_cast<TimeNs>(p.rng() % 128);
          const std::uint64_t ek = p.key();
          eng.engine_for_rank(n * 16).schedule_keyed(t, ek, &p, ek);
        }
      }
      eng.run_all();
      std::vector<std::vector<std::pair<TimeNs, std::uint64_t>>> logs;
      for (NodeProgram& p : nodes) logs.push_back(std::move(p.fired));
      if (reference.empty()) {
        reference = std::move(logs);
        ASSERT_GT(reference[0].size(), 5u) << "fuzz produced no chains";
      } else {
        ASSERT_EQ(logs, reference)
            << "seed " << seed << " shards " << shards
            << ": per-node dispatch changed with the shard count";
      }
    }
  }
}

TEST(ShardedEngine, ThreadPoolExecutionMatchesInlineExecution) {
  const ClusterTopology topo(64, 16);
  const TimeNs lookahead = 20;
  std::vector<std::vector<std::pair<TimeNs, std::uint64_t>>> reference;
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    ShardedEngine eng(topo, 4, lookahead, p);
    Outboxes outboxes(eng);
    eng.set_barrier_callback([&outboxes] { outboxes.drain(); });
    std::vector<NodeProgram> nodes(
        static_cast<std::size_t>(topo.num_nodes()));
    for (std::int32_t n = 0; n < topo.num_nodes(); ++n) {
      NodeProgram& prog = nodes[static_cast<std::size_t>(n)];
      prog.eng = &eng;
      prog.outboxes = &outboxes;
      prog.node = n;
      prog.num_nodes = topo.num_nodes();
      prog.lookahead = lookahead;
      prog.rng.seed(42 + static_cast<std::uint64_t>(n));
      prog.budget = 200;
      prog.peers = &nodes;
      for (int i = 0; i < 5; ++i) {
        const TimeNs t = static_cast<TimeNs>(prog.rng() % 128);
        const std::uint64_t ek = prog.key();
        eng.engine_for_rank(n * 16).schedule_keyed(t, ek, &prog, ek);
      }
    }
    eng.run_all();
    std::vector<std::vector<std::pair<TimeNs, std::uint64_t>>> logs;
    for (NodeProgram& prog : nodes) logs.push_back(std::move(prog.fired));
    if (reference.empty())
      reference = std::move(logs);
    else
      ASSERT_EQ(logs, reference)
          << "thread-pool execution diverged from inline execution";
  }
}

TEST(ShardedEngineDeath, ZeroLookaheadAborts) {
  const ClusterTopology topo(32, 16);
  EXPECT_DEATH(ShardedEngine(topo, 2, 0, nullptr), "lookahead");
}

}  // namespace
}  // namespace amr
