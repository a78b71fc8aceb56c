#pragma once

// The benchmark workloads and the program configuration each one drives.
// README.md explains why each exists; this header is the single place that
// turns a workload name into XingTian configuration.

#include <cstdint>
#include <optional>
#include <string>

#include "algo/factory.h"
#include "framework/deployment.h"

namespace perfbench {

enum class Workload {
  kPpoPaperNic,       ///< PPO, learner m0, explorers m1, paper's IPC/NIC model
  kChannelFanin256k,  ///< no RL: 3 senders on m1 -> 1 receiver on m0, 256 KiB
};

[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);
[[nodiscard]] const char* workload_name(Workload workload);

inline constexpr int kExplorers = 3;
/// NN compute threads, fixed (not auto) so the host's core count does not
/// change the workload.
inline constexpr int kComputeThreads = 2;

// Paper-model constants (paper Figs. 5 and 8; bench/bench_util.h).
inline constexpr double kIpcBandwidth = 65e6;
inline constexpr double kNicBandwidth = 118.04e6;
inline constexpr std::size_t kFrameBytes = 28'000;

// channel_fanin_256k.
inline constexpr int kChannelSenders = 3;
inline constexpr std::size_t kChannelPayloadBytes = 256 * 1024;
/// Unacknowledged messages each sender may have outstanding. The window
/// keeps the paced link busy, so throughput and latency are set by the
/// model. At 2 per sender, host wake-up delays under contention moved the
/// latency p95 by up to 36% (IQR/median 0.19-0.23 over a set); at 8 the same
/// delays are a smaller share of the queueing time (README.md).
inline constexpr std::uint64_t kChannelWindow = 8;
/// Size of the per-message layer replays (wire frame, store, local hop).
inline constexpr std::size_t kSmallMessageBytes = 4096;

/// PPO setup of ppo_paper_nic. channel_fanin_256k runs no RL; its layer
/// replay uses this setup as the reference shape for RL-only layers
/// (README.md, "Per-layer metrics").
[[nodiscard]] xt::AlgoSetup ppo_setup(std::uint64_t seed);
/// ppo_setup with the seed's initial policy handed to the learner as a
/// snapshot (`AlgoSetup::initial_weights`), which starts every explorer in
/// lockstep. The measured ppo_paper_nic runs use it. The set-up runs use
/// ppo_setup: a snapshot-seeded runtime deadlocks if its initial broadcast
/// is dropped, and several set-ups per run would multiply that exposure
/// (README.md, "Known gaps").
[[nodiscard]] xt::AlgoSetup ppo_lockstep_setup(std::uint64_t seed);
/// Deployment of ppo_paper_nic (machines, modelled costs, threads).
[[nodiscard]] xt::DeploymentConfig ppo_deployment();
/// Env steps the learner consumes per PPO iteration.
[[nodiscard]] std::uint64_t steps_per_iteration();
/// The paper's NIC between the two machines, shared by both workloads.
[[nodiscard]] xt::LinkConfig paper_link();

}  // namespace perfbench
