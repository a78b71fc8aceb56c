#include "e2e.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "comm/broker.h"
#include "comm/endpoint.h"
#include "common/clock.h"
#include "framework/runtime.h"
#include "netsim/fabric.h"
#include "nn/mlp.h"
#include "util.h"

namespace perfbench {
namespace {

/// A run that makes no progress for this long has failed (a lost message
/// stalls either closed loop forever); the process still exits well inside
/// the benchmark's 180 s limit.
constexpr double kStallSeconds = 30.0;
constexpr auto kPoll = std::chrono::microseconds(500);

/// Progress samples: wall time, process CPU and cumulative items at each
/// point the item count changed. run.py turns them into per-window rates.
struct Progress {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> items;

  void add(double items_now) {
    wall.push_back(wall_s());
    cpu.push_back(process_cpu_s());
    items.push_back(items_now);
  }
  void emit(JsonLine& json) const {
    json.list("progress_wall", wall).list("progress_cpu", cpu).list("progress_items", items);
  }
};

/// Registry totals the output checks and the reconciliation read.
struct Accounting {
  std::uint64_t sent = 0;      ///< xt_messages_sent_total, once per message
  std::uint64_t received = 0;  ///< xt_messages_received_total, per destination
  std::uint64_t routed = 0;    ///< xt_broker_routed_total, per destination
  std::uint64_t shed = 0;      ///< messages + pipe frames shed, any class
  std::uint64_t dropped = 0;   ///< xt_broker_dropped_total over every reason
};

Accounting read_accounting(const xt::MetricsRegistry& registry) {
  Accounting a;
  a.sent = family_counter(registry, "xt_messages_sent_total");
  a.received = family_counter(registry, "xt_messages_received_total");
  a.routed = family_counter(registry, "xt_broker_routed_total");
  a.shed = family_counter(registry, "xt_messages_shed_total") +
           family_counter(registry, "xt_frames_shed_total");
  // Each broker counts a drop twice: once in its per-machine total and once
  // under the reason label. Sum the reason-labelled series only.
  for (const auto& [name, value] : registry.counters()) {
    if (name.rfind("xt_broker_dropped_total{", 0) == 0 &&
        name.find("reason=") != std::string::npos) {
      a.dropped += value;
    }
  }
  return a;
}

/// Wait until nothing is in flight: the per-destination outcome counters
/// stop moving for 200 ms (bounded at 5 s).
void settle(const xt::MetricsRegistry& registry) {
  auto outcomes = [&] {
    const Accounting a = read_accounting(registry);
    return a.sent + a.received + a.routed + a.shed + a.dropped;
  };
  const double deadline = wall_s() + 5.0;
  std::uint64_t last = outcomes();
  double stable_since = wall_s();
  while (wall_s() < deadline && wall_s() - stable_since < 0.2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::uint64_t now = outcomes();
    if (now != last) {
      last = now;
      stable_since = wall_s();
    }
  }
}

void add_error(std::string& errors, const std::string& what) {
  if (!errors.empty()) errors += "; ";
  errors += what;
}

bool weights_finite(const xt::Bytes& blob) {
  const auto mlp = xt::nn::Mlp::deserialize(blob);
  if (!mlp) return false;
  auto copy = *mlp;
  for (const xt::nn::Matrix* param : copy.parameters()) {
    for (float v : param->data()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

/// Modelled time the run's sleeps stood in for: IPC pacing of every sent
/// body (when `ipc_bandwidth` > 0) plus each NIC frame's bytes/bandwidth and
/// propagation latency.
double modelled_seconds(const xt::MetricsRegistry& registry, double ipc_bandwidth) {
  const xt::LinkConfig link = paper_link();
  const auto frames = static_cast<double>(family_counter(registry, "xt_pipe_frames_total"));
  const auto wire = static_cast<double>(family_counter(registry, "xt_pipe_wire_bytes_total"));
  const auto sent = static_cast<double>(family_counter(registry, "xt_bytes_sent_total"));
  return (ipc_bandwidth > 0.0 ? sent / ipc_bandwidth : 0.0) +
         (wire + frames * static_cast<double>(link.frame_overhead_bytes)) /
             link.bandwidth_bytes_per_sec +
         frames * static_cast<double>(link.latency_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// PPO workloads
// ---------------------------------------------------------------------------

std::string run_ppo(const E2eOptions& options, bool& correct) {
  const std::uint64_t target = options.work * steps_per_iteration();
  const xt::AlgoSetup setup = ppo_lockstep_setup(options.seed);
  const std::uint64_t fragment_len = setup.ppo.fragment_len;
  xt::DeploymentConfig deploy = ppo_deployment();
  deploy.obs.tracing = options.tracing;
  // The benchmark polls progress itself; run() is only the shutdown path.
  deploy.max_steps_consumed = target;

  std::string errors;
  Progress progress;
  const double t0 = wall_s();
  const double cpu0 = process_cpu_s();
  xt::XingTianRuntime runtime(setup, deploy);

  std::uint64_t last_steps = 0;
  double last_progress = t0;
  double setup_s = 0.0;
  bool rss_after_setup = false;
  while (true) {
    const std::uint64_t steps = runtime.learner_steps();
    if (steps != last_steps) {
      if (last_steps == 0) {
        setup_s = wall_s() - t0;
        rss_after_setup = reset_peak_rss();
      }
      progress.add(static_cast<double>(steps));
      last_steps = steps;
      last_progress = wall_s();
    }
    if (steps >= target) break;
    if (wall_s() - last_progress > kStallSeconds) {
      // run() would wait for the goal forever; the runtime's destructor
      // stops the blocked workers.
      JsonLine json;
      json.str("workload", workload_name(options.workload))
          .boolean("correct", false)
          .str("errors", "learner stalled at " + std::to_string(steps) + " steps")
          .integer("attempted", static_cast<std::int64_t>(target / fragment_len))
          .integer("failed", static_cast<std::int64_t>((target - steps) / fragment_len));
      correct = false;
      return json.text();
    }
    std::this_thread::sleep_for(kPoll);
  }
  const double run_wall = wall_s() - t0;
  const double run_cpu = process_cpu_s() - cpu0;
  const double peak_rss = peak_rss_mb();  // before shutdown adds its own

  xt::MetricsRegistry& registry = runtime.metrics();
  const Accounting at_goal = read_accounting(registry);
  if (at_goal.shed != 0 || at_goal.dropped != 0) {
    add_error(errors, "messages lost before the goal: shed=" +
                          std::to_string(at_goal.shed) +
                          " dropped=" + std::to_string(at_goal.dropped));
  }

  (void)runtime.run();  // goal already met: broadcasts shutdown, joins workers
  settle(registry);
  const Accounting end = read_accounting(registry);
  // Every header a router placed in an inbox reached its endpoint.
  if (end.routed != end.received) {
    add_error(errors, "routed " + std::to_string(end.routed) + " != received " +
                          std::to_string(end.received));
  }

  xt::LearnerProcess& learner = runtime.learner();
  const std::uint64_t consumed = learner.steps_consumed();
  if (consumed < target) {
    add_error(errors, "learner consumed " + std::to_string(consumed) + " of " +
                          std::to_string(target) + " steps");
  }
  if (!std::isfinite(runtime.recent_return()) || runtime.episodes_reported() == 0) {
    add_error(errors, "no finite episode return reported");
  }
  if (!weights_finite(learner.snapshot_weights())) {
    add_error(errors, "learner weights are not finite");
  }

  const xt::LatencyRecorder& latency = learner.transmission_ms();
  const std::uint64_t env_steps =
      family_counter(registry, "xt_explorer_env_steps_total");
  const std::uint64_t batches =
      family_counter(registry, "xt_explorer_batches_total");
  const double train_ms_sum = family_hist_sum(registry, "xt_learner_train_ms");

  correct = errors.empty();
  JsonLine json;
  json.str("workload", workload_name(options.workload))
      .boolean("correct", correct)
      .str("errors", errors)
      // Operations: the rollout fragments the learner had to consume.
      .integer("attempted", static_cast<std::int64_t>(target / fragment_len))
      .integer("failed", static_cast<std::int64_t>((target - std::min(consumed, target)) /
                                                   fragment_len))
      .num("setup_s", setup_s)
      .num("run_wall_s", run_wall)
      .num("run_cpu_s", run_cpu)
      .num("peak_rss_mb", peak_rss)
      .boolean("rss_after_setup", rss_after_setup)
      .integer("items", static_cast<std::int64_t>(last_steps))
      .num("latency_p50_ms", latency.quantile(0.5))
      .num("latency_p95_ms", latency.quantile(0.95))
      .integer("latency_samples", static_cast<std::int64_t>(latency.count()))
      // Per-run call counts from the registry (reconciliation inputs).
      .integer("env_steps", static_cast<std::int64_t>(env_steps))
      .integer("rollout_messages", static_cast<std::int64_t>(batches))
      .integer("train_sessions", learner.training_sessions())
      .integer("weight_broadcasts", static_cast<std::int64_t>(learner.weight_broadcasts()))
      .integer("weights_applied",
               static_cast<std::int64_t>(family_counter(registry, "xt_weights_applied_total")))
      .integer("messages_sent", static_cast<std::int64_t>(end.sent))
      .integer("messages_received", static_cast<std::int64_t>(end.received))
      .integer("bytes_sent",
               static_cast<std::int64_t>(family_counter(registry, "xt_bytes_sent_total")))
      .integer("pipe_frames",
               static_cast<std::int64_t>(family_counter(registry, "xt_pipe_frames_total")))
      .integer("pipe_wire_bytes",
               static_cast<std::int64_t>(family_counter(registry, "xt_pipe_wire_bytes_total")))
      .integer("gemm_flops",
               static_cast<std::int64_t>(family_counter(registry, "xt_gemm_flops_total")))
      // Framework view from the same registry.
      .num("learner_train_share", train_ms_sum / 1e3 / run_wall)
      .num("explorer_rollout_ms_mean", family_hist_mean(registry, "xt_explorer_rollout_ms"))
      .num("explorer_weights_wait_ms_mean", family_hist_mean(registry, "xt_explorer_wait_ms"))
      .num("weights_delivery_ms_mean", family_hist_mean(registry, "xt_weights_broadcast_ms"))
      .num("useful_step_ratio",
           env_steps == 0 ? 0.0
                          : static_cast<double>(consumed) / static_cast<double>(env_steps))
      .num("link_capacity_bytes", kNicBandwidth * run_wall)
      .num("modelled_s", modelled_seconds(registry, kIpcBandwidth))
      .num("harness_s", 0.0);
  progress.emit(json);
  return json.text();
}

double ppo_setup_once(std::uint64_t seed, bool& ok) {
  const xt::AlgoSetup setup = ppo_setup(seed);
  const double t0 = wall_s();
  xt::XingTianRuntime runtime(setup, ppo_deployment());
  while (runtime.learner_steps() == 0) {
    if (wall_s() - t0 > kStallSeconds) {
      ok = false;
      break;
    }
    std::this_thread::sleep_for(kPoll);
  }
  return wall_s() - t0;
}

// ---------------------------------------------------------------------------
// channel_fanin_256k
// ---------------------------------------------------------------------------

/// Payload blocks per sender. Messages reuse them (bodies are immutable
/// shared payloads), so building a message costs the benchmark nothing.
constexpr std::size_t kPoolBlocks = 4;
/// The receiver samples progress every this many messages.
constexpr std::uint64_t kProgressEvery = 30;
/// Latency samples per window of the channel's latency quantiles.
constexpr std::size_t kLatencyWindow = 900;

/// Median over consecutive windows of about kLatencyWindow samples (in
/// arrival order) of each window's exact q-quantile. A burst of host
/// contention then moves one window's tail, not the run's (README.md).
double windowed_quantile(const std::vector<double>& samples, double q) {
  const std::size_t windows = std::max<std::size_t>(1, samples.size() / kLatencyWindow);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(w * samples.size() / windows);
    const auto end =
        samples.begin() + static_cast<std::ptrdiff_t>((w + 1) * samples.size() / windows);
    per_window.push_back(quantile(std::vector<double>(begin, end), q));
  }
  return median(std::move(per_window));
}

/// Brokers, fabric and endpoints of one channel run. Construction is the
/// set-up the workload times.
struct Channel {
  xt::MetricsRegistry registry;
  xt::TraceCollector trace;
  std::unique_ptr<xt::Broker> receiver_broker;
  std::unique_ptr<xt::Broker> sender_broker;
  std::unique_ptr<xt::Fabric> fabric;
  std::unique_ptr<xt::Endpoint> receiver;
  std::vector<std::unique_ptr<xt::Endpoint>> senders;

  explicit Channel(bool tracing) {
    if (tracing) trace.enable();
    xt::Broker::Options options;
    options.metrics = &registry;
    options.trace = &trace;
    receiver_broker = std::make_unique<xt::Broker>(0, options);
    sender_broker = std::make_unique<xt::Broker>(1, options);
    fabric = std::make_unique<xt::Fabric>(paper_link());
    fabric->connect(*receiver_broker, *sender_broker);
    receiver = std::make_unique<xt::Endpoint>(xt::learner_id(0), *receiver_broker);
    for (int i = 0; i < kChannelSenders; ++i) {
      senders.push_back(std::make_unique<xt::Endpoint>(
          xt::explorer_id(1, static_cast<std::uint16_t>(i)), *sender_broker));
    }
  }
  ~Channel() {
    for (auto& sender : senders) sender->stop();
    receiver->stop();
    fabric->stop();
    sender_broker->stop();
    receiver_broker->stop();
  }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Send `body` from sender `s`; the sequence number rides in the tag.
  bool send(int s, const xt::Payload& body, std::uint32_t seq) {
    xt::Endpoint& sender = *senders[static_cast<std::size_t>(s)];
    return sender.send(xt::make_outbound(sender.id(), {receiver->id()},
                                         xt::MsgType::kDummy, body, seq));
  }
};

/// Per-sender state shared with the receiver. The window is counted here,
/// by the benchmark, not by any program-side send capacity.
struct SenderState {
  std::vector<xt::Payload> pool;
  std::vector<std::uint64_t> pool_sums;  ///< checksum64 of each pool block
  std::vector<std::int64_t> send_ns;     ///< per seq; published by the send
  std::atomic<std::uint64_t> acked{0};
  std::atomic<std::int64_t> last_ack_ns{0};
  // Sender-thread-only tallies.
  double send_s = 0.0;
  double blocked_s = 0.0;
  double credit_delivery_s = 0.0;
  std::uint64_t blocked_waits = 0;
  bool send_failed = false;
};

std::string run_channel(const E2eOptions& options, bool& correct) {
  const std::uint64_t per_sender = options.work;
  const std::uint64_t total = per_sender * kChannelSenders;

  // Inputs from the seed: each sender's payload blocks and their checksums.
  std::vector<SenderState> state(kChannelSenders);
  InputRng rng(options.seed);
  for (SenderState& sender : state) {
    for (std::size_t b = 0; b < kPoolBlocks; ++b) {
      xt::Bytes block(kChannelPayloadBytes);
      for (std::size_t i = 0; i + 8 <= block.size(); i += 8) {
        const std::uint64_t word = rng.next();
        std::memcpy(block.data() + i, &word, 8);
      }
      sender.pool_sums.push_back(checksum64(block.data(), block.size()));
      sender.pool.push_back(xt::make_payload(std::move(block)));
    }
    sender.send_ns.assign(per_sender, 0);
  }

  std::string errors;
  Progress progress;
  std::vector<std::vector<std::uint8_t>> seen(
      kChannelSenders, std::vector<std::uint8_t>(per_sender, 0));
  std::vector<double> latencies_ms;
  latencies_ms.reserve(total);
  std::uint64_t bad_payloads = 0, duplicates = 0, received = 0;
  double consume_s = 0.0;

  const double t0 = wall_s();
  const double cpu0 = process_cpu_s();
  double setup_s = 0.0;
  bool rss_after_setup = false;
  double receive_phase_s = 0.0;
  Channel channel(options.tracing);

  std::vector<std::thread> senders;
  for (int s = 0; s < kChannelSenders; ++s) {
    senders.emplace_back([&, s] {
      SenderState& me = state[static_cast<std::size_t>(s)];
      for (std::uint64_t seq = 0; seq < per_sender; ++seq) {
        std::uint64_t acked = me.acked.load(std::memory_order_acquire);
        if (seq >= acked + kChannelWindow) {
          const double blocked_at = wall_s();
          while (seq >= acked + kChannelWindow) {
            me.acked.wait(acked, std::memory_order_acquire);
            acked = me.acked.load(std::memory_order_acquire);
          }
          const std::int64_t resumed = xt::now_ns();
          me.blocked_s += wall_s() - blocked_at;
          me.credit_delivery_s += static_cast<double>(resumed - me.last_ack_ns.load()) * 1e-9;
          ++me.blocked_waits;
        }
        // The send publishes this write to the receiver: every hop between
        // them hands the message over under a lock.
        me.send_ns[seq] = xt::now_ns();
        const bool sent =
            channel.send(s, me.pool[seq % kPoolBlocks], static_cast<std::uint32_t>(seq));
        me.send_s += static_cast<double>(xt::now_ns() - me.send_ns[seq]) * 1e-9;
        if (!sent) {
          me.send_failed = true;
          return;
        }
      }
    });
  }

  double receive_start = 0.0;
  double last_progress = wall_s();
  while (received < total) {
    auto msg = channel.receiver->receive_for(std::chrono::milliseconds(100));
    if (!msg) {
      if (wall_s() - last_progress > kStallSeconds) {
        add_error(errors, "receiver stalled at " + std::to_string(received) + " messages");
        break;
      }
      continue;
    }
    const std::int64_t arrived = xt::now_ns();
    const double consume_at = wall_s();
    ++received;
    if (received == 1) {
      setup_s = wall_s() - t0;
      rss_after_setup = reset_peak_rss();
      receive_start = wall_s();
      progress.add(1.0);
    } else if (received % kProgressEvery == 0 || received == total) {
      progress.add(static_cast<double>(received));
    }
    last_progress = wall_s();
    const std::size_t sender = msg->header.src.index;
    const std::uint64_t seq = msg->header.tag;
    const xt::Bytes& body = *msg->body;
    if (sender >= state.size() || seq >= per_sender ||
        checksum64(body.data(), body.size()) != state[sender].pool_sums[seq % kPoolBlocks]) {
      ++bad_payloads;
      continue;
    }
    if (seen[sender][seq] != 0) ++duplicates;
    seen[sender][seq] = 1;
    SenderState& owner = state[sender];
    latencies_ms.push_back(static_cast<double>(arrived - owner.send_ns[seq]) / 1e6);
    owner.last_ack_ns.store(xt::now_ns());
    consume_s += wall_s() - consume_at;
    owner.acked.fetch_add(1, std::memory_order_release);
    owner.acked.notify_one();
  }
  receive_phase_s = wall_s() - receive_start;
  const double peak_rss = peak_rss_mb();
  if (received < total) {
    // Release blocked senders so they can be joined.
    for (SenderState& s : state) {
      s.acked.store(per_sender + kChannelWindow);
      s.acked.notify_all();
    }
  }
  for (auto& t : senders) t.join();
  settle(channel.registry);
  const double run_wall = wall_s() - t0;
  const double run_cpu = process_cpu_s() - cpu0;

  // Conservation at quiescence, per traffic class: every message of this
  // workload is experience class, so sent = received + shed + dropped
  // must hold with shed = dropped = 0 for a loss-free run.
  const Accounting a = read_accounting(channel.registry);
  if (a.sent != total || a.received != total || a.shed != 0 || a.dropped != 0) {
    add_error(errors, "conservation (experience): sent=" + std::to_string(a.sent) +
                          " received=" + std::to_string(a.received) +
                          " shed=" + std::to_string(a.shed) +
                          " dropped=" + std::to_string(a.dropped) +
                          " expected " + std::to_string(total));
  }
  std::uint64_t missing = 0;
  for (const auto& flags : seen) {
    for (std::uint8_t f : flags) missing += f == 0 ? 1 : 0;
  }
  double send_s = 0.0, blocked_s = 0.0, credit_s = 0.0;
  std::uint64_t waits = 0;
  for (const SenderState& s : state) {
    if (s.send_failed) add_error(errors, "Endpoint::send refused a message");
    send_s += s.send_s;
    blocked_s += s.blocked_s;
    credit_s += s.credit_delivery_s;
    waits += s.blocked_waits;
  }
  if (bad_payloads != 0) {
    add_error(errors, std::to_string(bad_payloads) + " payloads failed the checksum");
  }
  if (duplicates != 0) add_error(errors, std::to_string(duplicates) + " duplicates");
  if (missing != 0) add_error(errors, std::to_string(missing) + " messages missing");
  const double per_wait = waits == 0 ? 0.0 : 1e3 / static_cast<double>(waits);

  correct = errors.empty();
  JsonLine json;
  json.str("workload", workload_name(options.workload))
      .boolean("correct", correct)
      .str("errors", errors)
      .integer("attempted", static_cast<std::int64_t>(total))
      .integer("failed", static_cast<std::int64_t>(bad_payloads + duplicates + missing))
      .num("setup_s", setup_s)
      .num("run_wall_s", run_wall)
      .num("run_cpu_s", run_cpu)
      .num("peak_rss_mb", peak_rss)
      .boolean("rss_after_setup", rss_after_setup)
      .integer("items", static_cast<std::int64_t>(received))
      .num("latency_p50_ms", windowed_quantile(latencies_ms, 0.5))
      .num("latency_p95_ms", windowed_quantile(latencies_ms, 0.95))
      .integer("latency_samples", static_cast<std::int64_t>(latencies_ms.size()))
      .integer("messages_sent", static_cast<std::int64_t>(a.sent))
      .integer("messages_received", static_cast<std::int64_t>(a.received))
      .integer("bytes_sent",
               static_cast<std::int64_t>(family_counter(channel.registry, "xt_bytes_sent_total")))
      .integer("pipe_frames",
               static_cast<std::int64_t>(family_counter(channel.registry, "xt_pipe_frames_total")))
      .integer("pipe_wire_bytes", static_cast<std::int64_t>(
                                      family_counter(channel.registry, "xt_pipe_wire_bytes_total")))
      .integer("gemm_flops", 0)
      // Producer/consumer roles mapped onto the framework metrics: the
      // receiver is the "learner", senders are "explorers" whose "rollout"
      // is one send, and the window credit is their "weights" go-ahead
      // (README.md).
      .num("learner_train_share", receive_phase_s > 0 ? consume_s / receive_phase_s : 0.0)
      .num("explorer_rollout_ms_mean", send_s / static_cast<double>(total) * 1e3)
      .num("explorer_weights_wait_ms_mean", blocked_s * per_wait)
      .num("weights_delivery_ms_mean", credit_s * per_wait)
      .num("useful_step_ratio",
           a.sent == 0 ? 0.0 : static_cast<double>(received) / static_cast<double>(a.sent))
      .num("link_capacity_bytes", kNicBandwidth * run_wall)
      .num("modelled_s", modelled_seconds(channel.registry, 0.0))
      .num("harness_s", consume_s);
  progress.emit(json);
  return json.text();
}

double channel_setup_once(bool& ok) {
  const xt::Payload body = xt::make_payload(xt::Bytes(kChannelPayloadBytes, 0x5A));
  const double t0 = wall_s();
  Channel channel(false);
  if (!channel.send(0, body, 0)) ok = false;
  auto msg = channel.receiver->receive_for(std::chrono::seconds(10));
  if (!msg || msg->body->size() != kChannelPayloadBytes) ok = false;
  return wall_s() - t0;
}

}  // namespace

std::string run_e2e(const E2eOptions& options, bool& correct) {
  if (options.workload == Workload::kChannelFanin256k) return run_channel(options, correct);
  return run_ppo(options, correct);
}

std::string run_setups(Workload workload, std::uint64_t seed, int reps,
                       bool& correct) {
  correct = true;
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    times.push_back(workload == Workload::kChannelFanin256k
                        ? channel_setup_once(correct)
                        : ppo_setup_once(seed, correct));
  }
  JsonLine json;
  json.str("workload", workload_name(workload))
      .boolean("correct", correct)
      .list("setup_s", times);
  return json.text();
}

}  // namespace perfbench
