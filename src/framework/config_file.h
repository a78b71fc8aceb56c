#pragma once

#include <optional>
#include <string>
#include <vector>

#include "algo/factory.h"
#include "framework/deployment.h"

namespace xt {

/// XingTian is launched from a configuration file naming the machines, the
/// learner placement, the explorer counts and the algorithm hyperparameters
/// (paper Section 3.2.2 / 4.2). This is the C++ analogue: a small
/// `key = value` format with `[section]` headers and `#` comments.
///
/// The block below is the key reference: a test holds its keys equal to the
/// parser's key table (launch_config_keys). Every value is range-checked; a
/// bad one fails with `line N: bad <key> (want ...)`.
///
/// ```ini
/// [algorithm]
/// kind = impala            # impala | dqn | ppo | a2c
/// env = SynthBreakout
/// seed = 7
/// lr = 6e-4                       # > 0
/// gamma = 0.99                    # 0..1
/// hidden = 64,64                  # widths >= 1
/// fragment_len = 500              # env steps per rollout message
/// frame_bytes_per_step = 0        # extra observation bytes per step
/// entropy_coef = 0.01             # PPO, IMPALA
/// replay_capacity = 50000         # DQN
/// train_start = 1000              # DQN
/// batch_size = 32                 # DQN
/// double_dqn = off                # DQN
/// prioritized_replay = off        # DQN
/// epochs = 4                      # PPO
/// clip = 0.2                      # PPO, > 0
///
/// [deployment]
/// explorers_per_machine = 16,16   # two machines; total >= 1
/// learner_machine = 0             # below the machine count
/// max_steps = 1000000
/// max_seconds = 3600
/// target_return = 0
/// target_return_window = 20       # episodes averaged for the return goal
/// nic_bandwidth_mbps = 118.04     # > 0
/// ipc_bandwidth_mbps = 0          # same-machine pacing (0 = unpaced)
/// compression = on
/// compression_threshold_kb = 1024 # compress bodies at least this large
/// explorer_send_capacity = 0      # explorer send buffer (0 = unbounded)
/// stats_csv = stats.csv           # every statistics record, as CSV
/// tracing = on                    # record message-lifecycle spans
/// trace_capacity = 65536          # span ring size
/// chrome_trace = run_trace.json   # written at end of run
/// prometheus_dump = run.prom      # final metrics in Prometheus text format
/// stats_line_every_s = 5          # periodic INFO stats line
///
/// [compute]                       # NN kernel pool (see DESIGN.md)
/// threads = auto                  # auto | -1 (hardware), 0 (serial,
///                                 # bit-exact deterministic mode), or N
///
/// [profile]                       # continuous profiling (see DESIGN.md)
/// enabled = on                    # sampling profiler + saturation gauges
/// hz = 97                         # scope-stack sampling frequency
/// saturation_hz = 10              # queue/pool/link gauge refresh
/// profile_json = profile.json     # bottleneck report, written at end of run
///
/// [comm]                          # comm-core scaling (see DESIGN.md S9)
/// router_shards = 4               # destination-hashed router threads (1..64)
/// coalescing = on                 # batch small control frames per link
/// coalesce_max_bytes = 512        # eligibility cap on control bodies
/// coalesce_max_subframes = 32     # flush at this many sub-frames ...
/// coalesce_flush_bytes = 4096     # ... or this many estimated wire bytes
/// coalesce_flush_us = 1000        # ... or this much sub-frame age
/// overload_high_watermark = 4096  # bound comm queues (0 = unbounded)
/// overload_low_watermark = 2048   # resume gated sends below this (0 = high/2)
/// shed_policy = oldest            # oldest | newest (experience class only)
/// weights_block_ms = 100          # weights-class backpressure budget
/// breaker_failures = 3            # link breaker trip threshold (0 = off)
/// breaker_probe_ms = 250          # half-open probe interval
///
/// [codec]                         # weight broadcast codec (DESIGN.md §11)
/// weights = fp32                  # fp32 | fp16 | bf16 | int8 | delta | topk
/// topk_fraction = 0.01            # entries a topk frame carries (>0, <=0.5)
/// keyframe_every = 16             # Nth delta/topk publish is a keyframe (1..100000)
/// lazy_threshold = 0              # skip publishes below this relative update
///                                 # norm (0..1, 0 = off; forced off for PPO)
/// max_staleness = 8               # max consecutive lazy skips (1..100000)
///
/// [faults]                        # chaos fabric + self-healing (all optional)
/// seed = 11                       # deterministic fault schedule
/// drop_prob = 0.01                # per-frame drop probability
/// corrupt_prob = 0.01             # per-frame byte-flip probability
/// delay_prob = 0.0                # per-frame latency-spike probability
/// delay_ms = 0                    # spike size
/// blackout_start_s = 0            # scheduled outage window(s)
/// blackout_duration_s = 0
/// blackout_every_s = 0
/// reliable = on                   # ack/retransmit on cross-machine links
/// retransmit_timeout_ms = 50      # initial RTO (exponential backoff)
/// retransmit_backoff = 2
/// retransmit_max_ms = 2000
/// retransmit_max_retries = 12
/// supervision = on                # heartbeats + worker respawn
/// heartbeat_every_s = 0.25
/// heartbeat_timeout_s = 1.5
/// max_worker_restarts = 3
/// suspect_grace_s = 0             # extra grace before a suspect is killed
/// respawn_min_interval_s = 0      # per-worker respawn rate limit
/// checkpoint = run.ckpt           # learner checkpoint (restore on respawn)
/// checkpoint_every_versions = 25
/// ```
struct LaunchConfig {
  AlgoSetup setup;
  DeploymentConfig deployment;
};

/// One accepted key, as the parser's key table defines it.
struct ConfigKeyDoc {
  std::string section;
  std::string key;
  std::string doc;  ///< one-line meaning
};

/// Every key parse_launch_config accepts, in table order.
[[nodiscard]] std::vector<ConfigKeyDoc> launch_config_keys();

/// Parse a configuration from file contents. On failure returns nullopt and
/// (if non-null) fills `error` with a line-tagged message. Unknown keys are
/// errors: a typo in a config should never silently run the default.
[[nodiscard]] std::optional<LaunchConfig> parse_launch_config(
    const std::string& contents, std::string* error = nullptr);

/// Read and parse a configuration file from disk.
[[nodiscard]] std::optional<LaunchConfig> load_launch_config(
    const std::string& path, std::string* error = nullptr);

}  // namespace xt
