#include "amr/net/fabric.hpp"

#include <gtest/gtest.h>

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
