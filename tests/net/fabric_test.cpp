#include "amr/net/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

namespace amr {
namespace {

FabricParams quiet_params() {
  FabricParams p = FabricParams::tuned();
  p.remote_jitter = 0;   // deterministic timings for exact assertions
  p.remote_per_msg = 0;  // isolate the byte-bandwidth model
  return p;
}

TEST(Fabric, SameNodeUsesShmPath) {
  const ClusterTopology topo(4, 2);
  Fabric fabric(topo, quiet_params(), Rng(1));
  const TransferTiming t = fabric.transfer(0, 1, 1024, 0);
  EXPECT_TRUE(t.used_shm);
  EXPECT_EQ(fabric.stats().shm_msgs, 1);
  EXPECT_EQ(fabric.stats().remote_msgs, 0);
}

TEST(Fabric, CrossNodeUsesRemotePath) {
  const ClusterTopology topo(4, 2);
  Fabric fabric(topo, quiet_params(), Rng(1));
  const TransferTiming t = fabric.transfer(0, 2, 1024, 0);
  EXPECT_FALSE(t.used_shm);
  EXPECT_EQ(fabric.stats().remote_msgs, 1);
}

TEST(Fabric, RemoteTimingMatchesModel) {
  const ClusterTopology topo(4, 2);
  FabricParams p = quiet_params();
  p.remote_latency = us(2.0);
  p.remote_gbytes_per_sec = 4.0;
  Fabric fabric(topo, p, Rng(1));
  const std::int64_t bytes = 4000;
  const TransferTiming t = fabric.transfer(0, 2, bytes, 1000);
  // serialize = 4000 / 4 GB/s = 1000 ns; depart = 1000+1000 = 2000.
  EXPECT_EQ(t.sender_release, 2000);
  EXPECT_EQ(t.delivery, 2000 + us(2.0));
}

TEST(Fabric, NicSerializationQueuesBackToBack) {
  const ClusterTopology topo(4, 2);
  FabricParams p = quiet_params();
  p.remote_gbytes_per_sec = 1.0;  // 1 byte/ns
  Fabric fabric(topo, p, Rng(1));
  const TransferTiming a = fabric.transfer(0, 2, 1000, 0);
  const TransferTiming b = fabric.transfer(1, 2, 1000, 0);  // same NIC
  EXPECT_EQ(a.sender_release, 1000);
  EXPECT_EQ(b.sender_release, 2000);  // waited for the NIC
  // Different node's NIC is independent.
  const TransferTiming c = fabric.transfer(2, 0, 1000, 0);
  EXPECT_EQ(c.sender_release, 1000);
}

TEST(Fabric, ShmQueueContentionAddsRetries) {
  const ClusterTopology topo(2, 2);
  FabricParams p = quiet_params();
  p.shm_queue_slots = 1;
  p.shm_gbytes_per_sec = 0.001;  // very slow: 1 KB takes 1 ms
  p.shm_retry_delay = us(10.0);
  Fabric fabric(topo, p, Rng(1));
  const TransferTiming a = fabric.transfer(0, 1, 1000, 0);
  EXPECT_EQ(a.shm_retries, 0);
  const TransferTiming b = fabric.transfer(0, 1, 1000, 0);
  EXPECT_GT(b.shm_retries, 0);
  EXPECT_GT(b.delivery, a.delivery);
  EXPECT_GT(fabric.stats().shm_retries, 0);
}

TEST(Fabric, LargeShmQueueEliminatesRetries) {
  const ClusterTopology topo(2, 2);
  FabricParams p = quiet_params();
  p.shm_queue_slots = 64;
  Fabric fabric(topo, p, Rng(1));
  for (int i = 0; i < 32; ++i) {
    const TransferTiming t = fabric.transfer(0, 1, 1000, 0);
    EXPECT_EQ(t.shm_retries, 0);
  }
}

TEST(Fabric, AckLossBlocksSenderWithoutDrainQueue) {
  const ClusterTopology topo(4, 2);
  FabricParams p = quiet_params();
  p.ack_loss_prob = 1.0;  // every message
  p.ack_recovery_delay = ms(2.0);
  p.drain_queue_enabled = false;
  Fabric fabric(topo, p, Rng(1));
  const TransferTiming t = fabric.transfer(0, 2, 1000, 0);
  EXPECT_TRUE(t.ack_lost);
  EXPECT_GE(t.sender_release, ms(2.0));
  // Data still arrives promptly: the receiver is not the one blocked.
  EXPECT_LT(t.delivery, ms(1.0));
  EXPECT_GT(fabric.stats().ack_block_time, 0);
}

TEST(Fabric, DrainQueueUnblocksSender) {
  const ClusterTopology topo(4, 2);
  FabricParams p = quiet_params();
  p.ack_loss_prob = 1.0;
  p.drain_queue_enabled = true;
  Fabric fabric(topo, p, Rng(1));
  const TransferTiming t = fabric.transfer(0, 2, 1000, 0);
  EXPECT_TRUE(t.ack_lost);
  EXPECT_LT(t.sender_release, ms(1.0));
  EXPECT_EQ(fabric.stats().ack_block_time, 0);
}

TEST(Fabric, AckLossOnlyAffectsRemotePath) {
  const ClusterTopology topo(2, 2);
  FabricParams p = quiet_params();
  p.ack_loss_prob = 1.0;
  p.drain_queue_enabled = false;
  Fabric fabric(topo, p, Rng(1));
  const TransferTiming t = fabric.transfer(0, 1, 1000, 0);  // shm
  EXPECT_FALSE(t.ack_lost);
}

TEST(Fabric, PerMessageCostSerializesOnNic) {
  const ClusterTopology topo(4, 2);
  FabricParams p = quiet_params();
  p.remote_per_msg = us(2.0);
  p.remote_gbytes_per_sec = 1.0;
  Fabric fabric(topo, p, Rng(1));
  const TransferTiming a = fabric.transfer(0, 2, 1000, 0);
  // 2us per-message + 1us serialization.
  EXPECT_EQ(a.sender_release, us(3.0));
  // Second message on the same NIC queues behind the first.
  const TransferTiming b = fabric.transfer(1, 2, 1000, 0);
  EXPECT_EQ(b.sender_release, us(6.0));
}

TEST(Fabric, ObserverSeesEveryMessage) {
  const ClusterTopology topo(4, 2);
  Fabric fabric(topo, quiet_params(), Rng(1));
  int observed = 0;
  fabric.set_observer([&](std::int32_t, std::int32_t, std::int64_t,
                          const TransferTiming&) { ++observed; });
  fabric.transfer(0, 1, 100, 0);
  fabric.transfer(0, 2, 100, 0);
  EXPECT_EQ(observed, 2);
}

TEST(Fabric, ResetClearsDynamicState) {
  const ClusterTopology topo(4, 2);
  FabricParams p = quiet_params();
  p.remote_gbytes_per_sec = 1.0;
  Fabric fabric(topo, p, Rng(1));
  fabric.transfer(0, 2, 100000, 0);
  fabric.reset();
  EXPECT_EQ(fabric.stats().remote_msgs, 0);
  const TransferTiming t = fabric.transfer(0, 2, 1000, 0);
  EXPECT_EQ(t.sender_release, 1000);  // NIC no longer busy
}

TEST(Fabric, JitterBoundedByParameter) {
  const ClusterTopology topo(4, 2);
  FabricParams p = FabricParams::tuned();
  p.remote_jitter = us(1.0);
  p.remote_latency = us(2.0);
  p.remote_gbytes_per_sec = 1.0;
  Fabric fabric(topo, p, Rng(7));
  for (int i = 0; i < 200; ++i) {
    fabric.reset();
    const TransferTiming t = fabric.transfer(0, 2, 1000, 0);
    const TimeNs fly = t.delivery - t.sender_release;
    EXPECT_GE(fly, us(2.0));
    EXPECT_LT(fly, us(3.0));
  }
}

// The shm queue model before the busy-only heap: one free time per
// configured slot in a min-heap, the earliest replaced on every post.
// The remote path is the fabric's own, drawing from the same stream.
class ReferenceFabric {
 public:
  ReferenceFabric(const ClusterTopology& topo, FabricParams p, Rng rng)
      : topo_(topo), p_(p), rng_(rng) {
    const auto nnodes = static_cast<std::size_t>(topo.num_nodes());
    nic_.assign(nnodes, 0);
    slots_.resize(nnodes);
    for (auto& heap : slots_)
      heap.restore(std::vector<TimeNs>(
          static_cast<std::size_t>(p.shm_queue_slots), 0));
  }

  TransferTiming transfer(std::int32_t src, std::int32_t dst,
                          std::int64_t bytes, TimeNs post,
                          std::int32_t msgs) {
    const std::int32_t node = topo_.node_of(src);
    const TimeNs packed = (msgs - 1) * p_.packed_msg_overhead;
    TransferTiming t;
    if (node == topo_.node_of(dst)) {
      t.used_shm = true;
      DaryHeap<TimeNs>& slots = slots_[static_cast<std::size_t>(node)];
      TimeNs start = post;
      if (slots.top() > post) {
        t.shm_retries = static_cast<std::int32_t>(
            (slots.top() - post + p_.shm_retry_delay - 1) /
            p_.shm_retry_delay);
        start = post + t.shm_retries * p_.shm_retry_delay;
      }
      t.delivery = start + p_.shm_latency +
                   static_cast<TimeNs>(static_cast<double>(bytes) /
                                       p_.shm_gbytes_per_sec) +
                   packed;
      slots.replace_top(t.delivery);
      t.sender_release = start + p_.post_overhead;
      return t;
    }
    TimeNs& nic = nic_[static_cast<std::size_t>(node)];
    const TimeNs depart = std::max(post, nic) + p_.remote_per_msg + packed +
                          static_cast<TimeNs>(static_cast<double>(bytes) /
                                              p_.remote_gbytes_per_sec);
    nic = depart;
    const TimeNs jitter =
        p_.remote_jitter > 0
            ? static_cast<TimeNs>(rng_.uniform() *
                                  static_cast<double>(p_.remote_jitter))
            : 0;
    t.delivery = depart + p_.remote_latency + jitter;
    t.sender_release = depart;
    if (p_.ack_loss_prob > 0.0 && rng_.chance(p_.ack_loss_prob)) {
      t.ack_lost = true;
      if (!p_.drain_queue_enabled) {
        t.sender_release = depart + p_.ack_recovery_delay;
        nic = depart + p_.ack_recovery_delay;
      }
    }
    return t;
  }

 private:
  const ClusterTopology& topo_;
  FabricParams p_;
  Rng rng_;
  std::vector<TimeNs> nic_;
  std::vector<DaryHeap<TimeNs>> slots_;
};

// Random streams against the reference: src/dst over 2-4 nodes, post
// times nondecreasing per source node with bursts dense enough to fill
// every slot, and an export/import into a fresh fabric halfway through.
TEST(FabricOracle, BusyOnlyShmQueueMatchesFullSlotHeap) {
  for (const std::int32_t slots : {1, 8, 64, 4096}) {
    for (const std::int32_t nnodes : {2, 3, 4}) {
      SCOPED_TRACE("slots " + std::to_string(slots) + " nodes " +
                   std::to_string(nnodes));
      constexpr std::int32_t kPerNode = 4;
      const ClusterTopology topo(nnodes * kPerNode, kPerNode);
      FabricParams p = FabricParams::untuned();
      p.shm_queue_slots = slots;
      // A ~2 KB message holds its slot ~100 ns per configured slot, so
      // the ~16 ns post spacing below overfills every queue depth.
      p.shm_gbytes_per_sec = 2000.0 / (100.0 * slots);
      p.ack_loss_prob = 0.05;
      p.drain_queue_enabled = (nnodes % 2) == 0;
      const auto seed = static_cast<std::uint64_t>(slots * 10 + nnodes);
      ReferenceFabric ref(topo, p, Rng(seed));
      auto fabric = std::make_unique<Fabric>(topo, p, Rng(seed));

      Rng draw(seed + 1000);
      std::vector<TimeNs> clock(static_cast<std::size_t>(nnodes), 0);
      const std::int32_t ops = 6 * slots * nnodes + 4000;
      const auto lull_odds = static_cast<std::uint64_t>(2 * slots + 50);
      std::int64_t retries = 0;
      std::int64_t shm = 0;
      for (std::int32_t i = 0; i < ops; ++i) {
        if (i == ops / 2) {
          // Round-trip the state into a fresh fabric mid-stream.
          const Fabric::State st = fabric->export_state();
          fabric = std::make_unique<Fabric>(topo, p, Rng(999));
          fabric->import_state(st);
        }
        const auto src = static_cast<std::int32_t>(
            draw.uniform_int(static_cast<std::uint64_t>(topo.num_ranks())));
        const std::int32_t node = topo.node_of(src);
        std::int32_t dst = src;
        if (draw.chance(0.6)) {
          while (dst == src)
            dst = node * kPerNode +
                  static_cast<std::int32_t>(draw.uniform_int(kPerNode));
        } else {
          while (topo.node_of(dst) == node)
            dst = static_cast<std::int32_t>(draw.uniform_int(
                static_cast<std::uint64_t>(topo.num_ranks())));
        }
        // Mostly dense posts (slots fill, retries happen), some ties, and
        // now and then a lull long enough to drain the queue.
        TimeNs& now = clock[static_cast<std::size_t>(node)];
        if (draw.uniform_int(lull_odds) == 0)
          now += 200 * static_cast<TimeNs>(slots) + us(20);
        else if (!draw.chance(0.2))
          now += static_cast<TimeNs>(draw.uniform_int(40));
        const auto bytes =
            static_cast<std::int64_t>(64 + draw.uniform_int(4000));
        const auto msgs = static_cast<std::int32_t>(1 + draw.uniform_int(3));
        const TransferTiming want = ref.transfer(src, dst, bytes, now, msgs);
        const TransferTiming got =
            fabric->transfer(src, dst, bytes, now, msgs);
        ASSERT_EQ(got.sender_release, want.sender_release) << "op " << i;
        ASSERT_EQ(got.delivery, want.delivery) << "op " << i;
        ASSERT_EQ(got.used_shm, want.used_shm) << "op " << i;
        ASSERT_EQ(got.shm_retries, want.shm_retries) << "op " << i;
        ASSERT_EQ(got.ack_lost, want.ack_lost) << "op " << i;
        retries += got.shm_retries;
        shm += got.used_shm ? 1 : 0;
      }
      EXPECT_GT(shm, 0);
      EXPECT_GT(retries, 0);  // every queue depth was driven to full
    }
  }
}

TEST(Fabric, StateCarriesOnlyBusySlots) {
  const ClusterTopology topo(4, 2);
  FabricParams p = quiet_params();  // the tuned 4096-slot queue
  Fabric fabric(topo, p, Rng(1));
  Fabric::State st = fabric.export_state();
  ASSERT_EQ(st.shm_idle.size(), 2u);
  EXPECT_EQ(st.shm_idle[0], 4096);
  EXPECT_TRUE(st.shm_busy[0].empty());
  fabric.transfer(0, 1, 1000, 0);
  fabric.transfer(1, 0, 1000, 0);
  st = fabric.export_state();
  EXPECT_EQ(st.shm_idle[0], 4094);
  EXPECT_EQ(st.shm_busy[0].size(), 2u);
  EXPECT_EQ(st.shm_idle[1], 4096);
}

TEST(FabricDeath, ShmPostBackInTimeIsRefused) {
  const ClusterTopology topo(4, 2);
  Fabric fabric(topo, quiet_params(), Rng(1));
  fabric.transfer(0, 1, 100, 1000);
  fabric.transfer(2, 3, 100, 10);  // another node keeps its own clock
  EXPECT_DEATH(fabric.transfer(1, 0, 100, 999), "back in time");
}

TEST(FabricDeath, IntraRankTransferForbidden) {
  const ClusterTopology topo(4, 2);
  Fabric fabric(topo, quiet_params(), Rng(1));
  EXPECT_DEATH(fabric.transfer(1, 1, 100, 0), "bypass");
}

TEST(FabricPresets, UntunedIsPathological) {
  const FabricParams untuned = FabricParams::untuned();
  const FabricParams tuned = FabricParams::tuned();
  EXPECT_LT(untuned.shm_queue_slots, tuned.shm_queue_slots);
  EXPECT_GT(untuned.ack_loss_prob, 0.0);
  EXPECT_FALSE(untuned.drain_queue_enabled);
  EXPECT_TRUE(tuned.drain_queue_enabled);
}

}  // namespace
}  // namespace amr
