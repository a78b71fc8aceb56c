#include "framework/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "netsim/fabric.h"
#include "netsim/fault_plan.h"

namespace xt {
namespace {

// --- Satellite: seeded chaos is deterministic -------------------------------

TEST(FaultInjector, SameSeedSameFaultSequence) {
  FaultPlan plan;
  plan.seed = 77;
  plan.drop_probability = 0.05;
  plan.corrupt_probability = 0.10;
  plan.delay_probability = 0.15;
  plan.delay_ns = 1'000;
  // No blackout: blackout windows key off wall-clock time, which would make
  // the comparison below timing-dependent. Every probabilistic draw comes
  // from the seeded PRNG, so two injectors must agree frame by frame.
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 20'000; ++i) {
    const FaultOutcome oa = a.next_frame(0.0);
    const FaultOutcome ob = b.next_frame(0.0);
    ASSERT_EQ(oa.drop, ob.drop) << "frame " << i;
    ASSERT_EQ(oa.corrupt, ob.corrupt) << "frame " << i;
    ASSERT_EQ(oa.extra_latency_ns, ob.extra_latency_ns) << "frame " << i;
    ASSERT_EQ(oa.corrupt_offset, ob.corrupt_offset) << "frame " << i;
    ASSERT_EQ(oa.corrupt_mask, ob.corrupt_mask) << "frame " << i;
  }
  EXPECT_EQ(a.drops(), b.drops());
  EXPECT_EQ(a.corruptions(), b.corruptions());
  EXPECT_EQ(a.delays(), b.delays());
  EXPECT_EQ(a.total_injected(), b.total_injected());
  // With these probabilities 20k frames essentially cannot stay fault-free.
  EXPECT_GT(a.total_injected(), 0u);

  FaultPlan other = plan;
  other.seed = 78;
  FaultInjector c(other);
  for (int i = 0; i < 20'000; ++i) (void)c.next_frame(0.0);
  EXPECT_NE(c.total_injected(), a.total_injected());
}

// --- Reliable link under heavy loss -----------------------------------------

TEST(ReliableLink, SurvivesHeavyLossAndCorruption) {
  Broker machine0(0);
  Broker machine1(1);

  LinkConfig link{1e9, 0, 0};
  link.faults.seed = 5;
  link.faults.drop_probability = 0.2;
  link.faults.corrupt_probability = 0.2;

  ReliabilityConfig reliability;
  reliability.enabled = true;
  reliability.rto_ms = 20.0;

  Fabric fabric(link, reliability);
  fabric.connect(machine0, machine1);

  Endpoint sender(explorer_id(1, 0), machine1);
  Endpoint receiver(learner_id(0), machine0);

  constexpr int kMessages = 60;
  for (int i = 0; i < kMessages; ++i) {
    Bytes body(256, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                          MsgType::kDummy,
                                          make_payload(std::move(body)),
                                          static_cast<std::uint32_t>(i))));
  }

  // With 20% drop + 20% corruption roughly a third of first transmissions
  // fail, but seq/ack/retransmit must repair every one of them.
  std::vector<bool> got(kMessages, false);
  for (int n = 0; n < kMessages; ++n) {
    const auto msg = receiver.receive_for(std::chrono::seconds(30));
    ASSERT_TRUE(msg.has_value()) << "after " << n << " messages";
    const auto tag = msg->header.tag;
    ASSERT_LT(tag, static_cast<std::uint32_t>(kMessages));
    EXPECT_FALSE(got[tag]) << "duplicate delivery of tag " << tag;
    got[tag] = true;
    // Intact body: CRC rejected any corrupted copy before it got here.
    ASSERT_EQ(msg->body->size(), 256u);
    for (const std::uint8_t byte : *msg->body) {
      ASSERT_EQ(byte, static_cast<std::uint8_t>(tag));
    }
  }

  std::uint64_t retransmits = 0;
  for (const ReliableChannel* channel : fabric.channels()) {
    retransmits += channel->retransmits();
  }
  EXPECT_GT(retransmits, 0u);

  sender.stop();
  receiver.stop();
  fabric.stop();
}

// --- End-to-end: lossy fabric + worker deaths + checkpoint restore ----------

TEST(ChaosRun, SurvivesFaultyLinkAndWorkerDeaths) {
  AlgoSetup setup;
  setup.kind = AlgoKind::kImpala;
  setup.env_name = "CartPole";
  setup.seed = 3;
  setup.impala.hidden = {16};
  setup.impala.fragment_len = 50;

  DeploymentConfig deployment;
  deployment.explorers_per_machine = {0, 2};  // all rollouts cross the wire
  deployment.learner_machine = 0;
  deployment.max_steps_consumed = 2'500;
  deployment.max_seconds = 60.0;

  deployment.link = LinkConfig{1e9, 10'000, 64};
  deployment.link.faults.seed = 11;
  deployment.link.faults.drop_probability = 0.01;
  deployment.link.faults.corrupt_probability = 0.01;

  deployment.reliability.enabled = true;
  deployment.reliability.rto_ms = 20.0;

  deployment.supervision.enabled = true;
  deployment.supervision.heartbeat_every_s = 0.1;
  deployment.supervision.heartbeat_timeout_s = 0.5;
  deployment.supervision.max_restarts_per_worker = 3;

  deployment.checkpoint_path = ::testing::TempDir() + "xt_chaos_run.ckpt";
  deployment.checkpoint_every_versions = 1;
  std::remove(deployment.checkpoint_path.c_str());

  XingTianRuntime runtime(setup, deployment);

  // Kill one explorer early in the run, then the learner once it has made
  // progress AND written a checkpoint to restore from. The supervisor must
  // notice both deaths from missed heartbeats and respawn them.
  std::atomic<bool> stop_killer{false};
  std::thread killer([&] {
    bool explorer_killed = false;
    bool learner_killed = false;
    while (!stop_killer.load() && !(explorer_killed && learner_killed)) {
      const std::uint64_t steps = runtime.learner_steps();
      if (!explorer_killed && steps >= 300) {
        runtime.inject_explorer_crash(0);
        explorer_killed = true;
      }
      if (!learner_killed && steps >= 800 && runtime.learner_checkpoints() >= 1) {
        runtime.inject_learner_crash();
        learner_killed = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  const RunReport report = runtime.run();
  stop_killer.store(true);
  killer.join();

  // The run completed despite the faults: progress was made, both deaths
  // were repaired, and the learner came back from its checkpoint.
  EXPECT_GT(report.steps_consumed, 0u);
  EXPECT_GE(report.worker_restarts, 2u);
  EXPECT_GE(report.explorer_restarts, 1u);
  EXPECT_GE(report.learner_restarts, 1u);
  EXPECT_GT(report.heartbeats_missed, 0u);
  EXPECT_GT(report.faults_injected, 0u);
  EXPECT_EQ(report.degraded_workers, 0u);

  std::remove(deployment.checkpoint_path.c_str());
}

// --- Overload + blackout: shed experience, keep weights, no false kills -----

// Drives the cross-machine link well past capacity with bounded comm queues,
// then blacks the link out for longer than the heartbeat timeout. The
// overload model must (a) shed experience instead of deadlocking or growing
// queues without bound, (b) keep delivering weights-class traffic to the
// explorers, and (c) let the supervisor ride out the silence as *suspect*
// (congestion-aware grace) without a single false-positive respawn — no
// worker dies in this test, so any restart is a supervision bug.
TEST(ChaosRun, OverloadAndBlackoutShedExperienceWithoutFalseRespawns) {
  AlgoSetup setup;
  setup.kind = AlgoKind::kImpala;
  setup.env_name = "CartPole";
  setup.seed = 7;
  setup.impala.hidden = {16};
  setup.impala.fragment_len = 50;

  DeploymentConfig deployment;
  deployment.explorers_per_machine = {0, 2};  // all rollouts cross the wire
  deployment.learner_machine = 0;
  // Wall-clock-bounded, not step-bounded: the blackout keys off link uptime,
  // and a fast host reaches any fixed step budget before the window opens
  // (1,500 steps are ~69 KB, 0.14 s of this link). The run must hold the
  // whole timeline: a worker silenced by the blackout sent its last beat at
  // link uptime <= 0.3 s, so the earliest false respawn could come at
  // 0.3 s + 0.5 s heartbeat timeout + 1.0 s suspect grace = 1.8 s. The links
  // come up when the runtime is constructed, before run() starts its clock,
  // so 2.0 s of run time is at least 2.0 s of link uptime on every host.
  deployment.max_steps_consumed = 0;
  deployment.max_seconds = 2.0;

  // A deliberately narrow pipe: two CartPole explorers produce far more
  // experience than 500 KB/s at 5k frames/s can carry.
  deployment.link = LinkConfig{5e5, 200'000, 64};
  // One blackout window longer than the heartbeat timeout: every frame in
  // [0.3s, 1.1s) is dropped on the wire.
  deployment.link.faults.seed = 13;
  deployment.link.faults.blackout_start_s = 0.3;
  deployment.link.faults.blackout_duration_s = 0.8;

  deployment.reliability.enabled = true;
  deployment.reliability.rto_ms = 20.0;

  // Bounded comm queues: this is what turns sustained overproduction into
  // bounded memory + shedding instead of an ever-growing backlog.
  deployment.overload.high_watermark = 32;
  deployment.overload.low_watermark = 8;
  deployment.overload.shed_policy = ShedPolicy::kOldest;

  deployment.supervision.enabled = true;
  deployment.supervision.heartbeat_every_s = 0.1;
  deployment.supervision.heartbeat_timeout_s = 0.5;
  deployment.supervision.max_restarts_per_worker = 3;
  // Silence past the timeout makes a worker suspect; the grace (restarted
  // while the congestion probe reports overload) is what prevents the
  // blackout from being misread as death.
  deployment.supervision.suspect_grace_s = 1.0;
  deployment.supervision.respawn_min_interval_s = 1.0;

  XingTianRuntime runtime(setup, deployment);
  const RunReport report = runtime.run();

  // (a) Overload shed experience rather than deadlocking: >= 1,500 steps in
  // the bounded run show that shedding kept the run moving. The link is open
  // for 2.0 - 0.8 = 1.2 s of the run, 8.7x the 0.14 s that 1,500 steps need.
  EXPECT_GE(report.steps_consumed, 1'500u);
  EXPECT_GT(report.messages_shed + report.frames_shed, 0u);
  // (b) Weights-class traffic still landed at the explorers.
  EXPECT_GT(report.weight_broadcasts, 0u);
  EXPECT_GT(report.weights_applied, 0u);
  // (c) The blackout made workers suspect, but nobody was respawned: the
  // supervisor rode out congestion-induced silence without false positives.
  EXPECT_GT(report.faults_injected, 0u);
  EXPECT_GE(report.workers_suspected, 1u);
  EXPECT_EQ(report.worker_restarts, 0u);
  EXPECT_EQ(report.degraded_workers, 0u);
}

// --- Delta-coded weights under blackout + explorer death --------------------

// The hardest case for base-referencing weight codecs (DESIGN.md §11): a
// blackout straddles an in-flight delta chain, and an explorer dies and
// respawns mid-chain with an empty decoder ring while the learner still
// holds its stale ack. Whichever way each broadcast resolves — a delta the
// survivor can still apply, an encoder keyframe fallback when the common
// base ages out of the ring, or a kWeightsReq/keyframe round trip from the
// respawned decoder — the run must keep applying weights and never wedge.
TEST(ChaosRun, BlackoutStraddlingDeltaChainRecoversViaKeyframes) {
  AlgoSetup setup;
  setup.kind = AlgoKind::kImpala;
  setup.env_name = "CartPole";
  setup.seed = 9;
  setup.impala.hidden = {16};
  setup.impala.fragment_len = 50;

  DeploymentConfig deployment;
  deployment.explorers_per_machine = {0, 2};  // all weights cross the wire
  deployment.learner_machine = 0;
  // Wall-clock-bounded, not step-bounded: the injected death takes ~2s to
  // detect (0.5s heartbeat timeout + 1.0s suspect grace + respawn rate
  // limit), and a fast host would blow through any fixed step budget
  // before the respawned explorer rejoins the chain.
  deployment.max_steps_consumed = 0;
  deployment.max_seconds = 6.0;

  deployment.weight_sync.codec = WeightCodec::kDeltaInt8;
  deployment.weight_sync.keyframe_every = 4;

  deployment.link = LinkConfig{1e9, 10'000, 64};
  deployment.link.faults.seed = 17;
  deployment.link.faults.blackout_start_s = 0.3;
  deployment.link.faults.blackout_duration_s = 0.8;

  deployment.reliability.enabled = true;
  deployment.reliability.rto_ms = 20.0;

  deployment.supervision.enabled = true;
  deployment.supervision.heartbeat_every_s = 0.1;
  deployment.supervision.heartbeat_timeout_s = 0.5;
  deployment.supervision.max_restarts_per_worker = 3;
  deployment.supervision.suspect_grace_s = 1.0;
  deployment.supervision.respawn_min_interval_s = 1.0;

  XingTianRuntime runtime(setup, deployment);
  std::atomic<bool> stop_killer{false};
  std::thread killer([&] {
    bool killed = false;
    while (!stop_killer.load() && !killed) {
      if (runtime.learner_steps() >= 300) {
        runtime.inject_explorer_crash(0);
        killed = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  const RunReport report = runtime.run();
  stop_killer.store(true);
  killer.join();

  EXPECT_GE(report.steps_consumed, 500u);
  EXPECT_GT(report.faults_injected, 0u);
  EXPECT_GE(report.explorer_restarts, 1u);
  // Weights kept flowing through the whole ordeal...
  EXPECT_GT(report.weight_broadcasts, 0u);
  EXPECT_GT(report.weights_applied, 0u);
  // ...the chain restarted from truth at least once (cadence alone
  // guarantees it at keyframe_every=4)...
  EXPECT_GE(report.weights_keyframes, 1u);
  // ...the codec actually shrank the broadcast traffic end to end...
  EXPECT_GT(report.weights_wire_bytes, 0u);
  EXPECT_LT(report.weights_wire_bytes, report.weights_raw_bytes);
  // ...and no frame was ever misdecoded (blackouts lose frames, they must
  // not corrupt the decode protocol).
  EXPECT_EQ(report.weights_decode_failures, 0u);
  EXPECT_EQ(report.degraded_workers, 0u);
}

// Without supervision a dead explorer stays dead — the run still finishes
// (the surviving explorer feeds the learner) but nothing is restarted.
TEST(ChaosRun, NoSupervisionMeansNoRestarts) {
  AlgoSetup setup;
  setup.kind = AlgoKind::kImpala;
  setup.env_name = "CartPole";
  setup.seed = 4;
  setup.impala.hidden = {16};
  setup.impala.fragment_len = 50;

  DeploymentConfig deployment;
  deployment.explorers_per_machine = {2};
  deployment.max_steps_consumed = 1'000;
  deployment.max_seconds = 30.0;

  XingTianRuntime runtime(setup, deployment);
  std::thread killer([&] {
    while (runtime.learner_steps() < 200) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    runtime.inject_explorer_crash(0);
  });
  const RunReport report = runtime.run();
  killer.join();

  EXPECT_GE(report.steps_consumed, 1'000u);
  EXPECT_EQ(report.worker_restarts, 0u);
  EXPECT_EQ(report.heartbeats_missed, 0u);
}

}  // namespace
}  // namespace xt
