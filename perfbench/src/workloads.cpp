#include "workloads.h"

#include "algo/ppo.h"
#include "envs/synth_arcade.h"

namespace perfbench {

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "ppo_paper_nic") return Workload::kPpoPaperNic;
  if (name == "channel_fanin_256k") return Workload::kChannelFanin256k;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  return workload == Workload::kPpoPaperNic ? "ppo_paper_nic" : "channel_fanin_256k";
}

xt::AlgoSetup ppo_setup(std::uint64_t seed) {
  xt::AlgoSetup setup;
  setup.kind = xt::AlgoKind::kPpo;
  setup.env_name = "SynthBreakout";
  setup.seed = seed;
  setup.ppo.n_explorers = kExplorers;
  setup.ppo.fragment_len = 200;
  setup.ppo.frame_bytes_per_step = kFrameBytes;
  return setup;
}

xt::AlgoSetup ppo_lockstep_setup(std::uint64_t seed) {
  xt::AlgoSetup setup = ppo_setup(seed);
  // Loading a snapshot bumps the learner to version 2, so a first fragment
  // an explorer rolls before the initial broadcast reaches it is dropped as
  // stale instead of keeping that explorer one fragment ahead for the whole
  // run. Without this, how many explorers run ahead is a start-up race, and
  // throughput settles on one of four levels at random (README.md, "Known
  // gaps").
  setup.initial_weights =
      xt::PpoAlgorithm(setup.ppo, xt::SynthArcade::kObsDim, 3, seed).weights();
  return setup;
}

xt::DeploymentConfig ppo_deployment() {
  xt::DeploymentConfig deploy;
  deploy.compute_threads = kComputeThreads;
  deploy.max_steps_consumed = 0;  // the benchmark decides when to stop
  deploy.explorers_per_machine = {0, kExplorers};
  deploy.learner_machine = 0;
  deploy.link = paper_link();
  deploy.broker.ipc_bandwidth_bytes_per_sec = kIpcBandwidth;
  deploy.broker.compression.enabled = false;
  return deploy;
}

std::uint64_t steps_per_iteration() {
  return ppo_setup(0).ppo.fragment_len * static_cast<std::uint64_t>(kExplorers);
}

xt::LinkConfig paper_link() {
  xt::LinkConfig link;
  link.bandwidth_bytes_per_sec = kNicBandwidth;
  return link;
}

}  // namespace perfbench
