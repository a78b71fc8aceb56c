#include "replay.h"

#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "algo/ppo.h"
#include "comm/broker.h"
#include "comm/endpoint.h"
#include "comm/object_store.h"
#include "common/clock.h"
#include "common/crc32.h"
#include "common/thread_pool.h"
#include "compress/weight_codec.h"
#include "envs/registry.h"
#include "netsim/paced_pipe.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "serial/wire_format.h"
#include "util.h"

namespace perfbench {
namespace {

/// Per-call cost of one replayed operation.
struct Cost {
  double wall_s = 0.0;  ///< median over repetitions of span time per call
  double cpu_s = 0.0;   ///< mean process CPU per call (all threads)
};

/// Replay `op` `reps` times in spans named `name` (each span covers `batch`
/// calls), calling `reset` untimed before every repetition so each starts
/// from the same state. One untimed warm-up repetition runs first.
template <typename Reset, typename Op>
Cost measure(SpanLog& log, std::uint64_t parent, const std::string& name,
             int reps, int batch, Reset&& reset, Op&& op) {
  reset();
  for (int i = 0; i < batch; ++i) op();
  std::vector<double> per_call;
  double cpu = 0.0;
  for (int r = 0; r < reps; ++r) {
    reset();
    const double cpu0 = process_cpu_s();
    const double span_s = timed(
        log, name, [&] { for (int i = 0; i < batch; ++i) op(); }, parent);
    cpu += process_cpu_s() - cpu0;
    per_call.push_back(span_s / batch);
  }
  return {median(per_call), cpu / static_cast<double>(reps * batch)};
}

constexpr auto kNoReset = [] {};

/// Keeps results observable so the compiler cannot drop replayed calls.
volatile std::uint64_t g_sink = 0;

xt::nn::Mlp build_policy(const xt::PpoConfig& config, std::size_t obs_dim,
                         std::int32_t n_actions, std::uint64_t seed) {
  std::vector<xt::nn::LayerSpec> specs;
  for (std::size_t width : config.hidden) {
    specs.push_back({width, xt::nn::Activation::kTanh});
  }
  specs.push_back({static_cast<std::size_t>(n_actions), xt::nn::Activation::kIdentity});
  xt::Rng rng(seed);
  return xt::nn::Mlp(obs_dim, std::move(specs), rng);
}

/// Fixed inputs: one fragment per explorer, produced by the program's own
/// PPO agents stepping SynthBreakout with seeded initial weights.
std::vector<xt::RolloutBatch> record_fragments(const xt::AlgoSetup& setup,
                                               std::size_t obs_dim,
                                               std::int32_t n_actions) {
  std::vector<xt::RolloutBatch> fragments;
  for (int e = 0; e < kExplorers; ++e) {
    auto agent = xt::make_agent(setup, obs_dim, n_actions, static_cast<std::uint32_t>(e));
    auto env = xt::make_environment(setup.env_name);
    std::vector<float> obs = env->reset(setup.seed * 31 + static_cast<std::uint64_t>(e));
    while (!agent->batch_ready()) {
      const std::int32_t action = agent->infer_action(obs);
      const xt::StepResult step = env->step(action);
      agent->handle_env_feedback(obs, action, step.reward, step.done, step.observation);
      obs = step.done ? env->reset(setup.seed + static_cast<std::uint64_t>(e)) : step.observation;
    }
    xt::RolloutBatch batch = agent->take_batch();
    batch.weights_version = 1;  // the version a fresh PpoAlgorithm trains on
    fragments.push_back(std::move(batch));
  }
  return fragments;
}

/// Modelled time of one frame of `bytes` on the paper NIC, ns: what
/// PacedPipe sleeps for it.
std::int64_t nic_frame_ns(std::size_t bytes) {
  const xt::LinkConfig link = paper_link();
  return static_cast<std::int64_t>(static_cast<double>(bytes + link.frame_overhead_bytes) /
                                   link.bandwidth_bytes_per_sec * 1e9) +
         link.latency_ns;
}

/// Delay lengths of one ppo_paper_nic iteration's modelled costs, ns: the
/// IPC and NIC time of one rollout fragment and of one weights broadcast.
std::vector<std::int64_t> paper_delays(std::size_t rollout_bytes, std::size_t weights_bytes) {
  auto ipc = [](std::size_t bytes) {
    return static_cast<std::int64_t>(static_cast<double>(bytes) / kIpcBandwidth * 1e9);
  };
  return {ipc(rollout_bytes), nic_frame_ns(rollout_bytes), ipc(weights_bytes),
          nic_frame_ns(weights_bytes)};
}

/// Thread CPU burnt per modelled second by precise_sleep_ns over `delays`.
double sleep_cpu_rate(SpanLog& log, std::uint64_t parent,
                      const std::vector<std::int64_t>& delays, int reps) {
  double cpu = 0.0;
  double modelled = 0.0;
  for (int r = 0; r < reps; ++r) {
    for (std::int64_t ns : delays) {
      const double cpu0 = thread_cpu_s();
      (void)timed(log, "common.precise_sleep_ns", [&] { xt::precise_sleep_ns(ns); }, parent);
      cpu += thread_cpu_s() - cpu0;
      modelled += static_cast<double>(ns) * 1e-9;
    }
  }
  return cpu / modelled;
}

}  // namespace

std::string run_replay(Workload workload, std::uint64_t seed,
                       const std::string& spans_path, bool& correct) {
  xt::set_compute_threads(kComputeThreads);
  const bool channel = workload == Workload::kChannelFanin256k;
  const xt::AlgoSetup setup = ppo_setup(seed);
  const xt::PpoConfig& ppo = setup.ppo;
  auto probe = xt::make_environment(setup.env_name);
  const std::size_t obs_dim = probe->observation_dim();
  const std::int32_t n_actions = probe->action_count();

  SpanLog log;
  JsonLine json;
  std::string errors;
  auto metric = [&](const std::string& name, double value) { json.num("m:" + name, value); };
  auto cost = [&](const std::string& name, double cpu_s) { json.num("c:" + name, cpu_s); };
  auto layer = [&](const std::string& name) { return log.begin("replay." + name); };

  const std::vector<xt::RolloutBatch> fragments = record_fragments(setup, obs_dim, n_actions);
  const xt::Bytes rollout_wire = fragments.front().serialize();
  const xt::Bytes weights_blob = build_policy(ppo, obs_dim, n_actions, seed).serialize();
  InputRng rng(seed ^ 0x5EEDULL);
  xt::Bytes msg4k(kSmallMessageBytes);
  for (auto& b : msg4k) b = static_cast<std::uint8_t>(rng.next());
  const xt::Payload payload4k = xt::make_payload(msg4k);
  const xt::Payload channel_payload =
      xt::make_payload(xt::Bytes(kChannelPayloadBytes, 0x5A));

  // ---- common ------------------------------------------------------------
  {
    const std::uint64_t span = layer("common");
    xt::Bytes buffer(1 << 20);
    for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.next());
    const Cost crc = measure(log, span, "common.crc32", 15, 4, kNoReset,
                             [&] { g_sink = g_sink + xt::crc32(buffer); });
    metric("common.crc32_mb_per_s", static_cast<double>(buffer.size()) / crc.wall_s / 1e6);
    const std::vector<std::int64_t> paper = paper_delays(rollout_wire.size(), weights_blob.size());
    metric("common.sleep_cpu_per_modelled_s", sleep_cpu_rate(log, span, paper, 2));
    // The reconciliation charges the rate at the workload's own delay
    // lengths: the spin tail is a fixed cost per sleep, so short sleeps
    // burn a larger share.
    const std::vector<std::int64_t> own =
        channel ? std::vector<std::int64_t>(20, nic_frame_ns(kChannelPayloadBytes)) : paper;
    cost("sleep_cpu_per_modelled_s", sleep_cpu_rate(log, span, own, 1));
    log.end(span);
  }

  // ---- serial ------------------------------------------------------------
  {
    const std::uint64_t span = layer("serial");
    const xt::RolloutBatch& fragment = fragments.front();
    const Cost ser = measure(log, span, "serial.rollout_serialize", 15, 1, kNoReset,
                             [&] { g_sink = g_sink + fragment.serialize().size(); });
    const Cost de = measure(log, span, "serial.rollout_deserialize", 15, 1, kNoReset, [&] {
      g_sink = g_sink + xt::RolloutBatch::deserialize(rollout_wire)->steps.size();
    });
    if (auto back = xt::RolloutBatch::deserialize(rollout_wire); !back || !(*back == fragment)) {
      errors += "rollout round trip mismatch; ";
    }
    metric("serial.rollout_serialize_ms", ser.wall_s * 1e3);
    metric("serial.rollout_deserialize_ms", de.wall_s * 1e3);
    cost("rollout_serialize", ser.cpu_s);
    cost("rollout_deserialize", de.cpu_s);

    xt::MessageHeader header;
    header.msg_id = 1;
    header.src = xt::explorer_id(1, 0);
    header.dsts = {xt::learner_id(0)};
    header.body_size = payload4k->size();
    header.created_ns = xt::now_ns();
    xt::WireFrame frame = xt::encode_wire_frame({xt::WireSubFrame{header, payload4k}}, false);
    const Cost enc = measure(log, span, "serial.wire_frame_encode", 15, 200, kNoReset, [&] {
      g_sink = g_sink +
               xt::encode_wire_frame({xt::WireSubFrame{header, payload4k}}, false).wire_size();
    });
    const Cost dec = measure(log, span, "serial.wire_frame_decode", 15, 200, kNoReset, [&] {
      g_sink = g_sink + xt::decode_wire_frame(frame)->size();
    });
    const auto decoded = xt::decode_wire_frame(frame);
    if (!decoded || decoded->size() != 1 || *decoded->front().body != msg4k) {
      errors += "wire frame round trip mismatch; ";
    }
    metric("serial.wire_frame_encode_us", enc.wall_s * 1e6);
    metric("serial.wire_frame_decode_us", dec.wall_s * 1e6);
    cost("wire_frame", enc.cpu_s + dec.cpu_s);
    log.end(span);
  }

  // ---- comm --------------------------------------------------------------
  {
    const std::uint64_t span = layer("comm");
    xt::ObjectStore store;
    const Cost store_cost = measure(log, span, "comm.store_put_fetch", 15, 200, kNoReset, [&] {
      const std::uint64_t id = store.put(payload4k, 1);
      g_sink = g_sink + store.fetch(id)->size();
    });
    metric("comm.store_put_fetch_us", store_cost.wall_s * 1e6);

    xt::MetricsRegistry registry;
    xt::TraceCollector trace;
    xt::Broker::Options plain;  // the channel's broker: no IPC pacing
    plain.metrics = &registry;
    plain.trace = &trace;
    xt::Broker::Options paced = ppo_deployment().broker;
    paced.metrics = &registry;
    paced.trace = &trace;
    xt::Broker plain_broker(0, plain);
    {
      xt::Endpoint tx(xt::explorer_id(0, 0), plain_broker);
      xt::Endpoint rx(xt::learner_id(0), plain_broker);
      bool ok = true;
      auto hops = [&](int in_flight) {
        for (int i = 0; i < in_flight; ++i) {
          ok = ok && tx.send(xt::make_outbound(tx.id(), {rx.id()}, xt::MsgType::kDummy,
                                               payload4k));
        }
        for (int i = 0; i < in_flight; ++i) {
          auto msg = rx.receive();
          ok = ok && msg && msg->body->size() == kSmallMessageBytes;
        }
      };
      const Cost hop = measure(log, span, "comm.local_hop", 2000, 1, kNoReset, [&] { hops(1); });
      metric("comm.local_hop_us", hop.wall_s * 1e6);
      // The reconciliation charges a hop at the workload's concurrency:
      // PPO has about one message in flight, the channel its full windows.
      const int in_flight = channel ? static_cast<int>(kChannelWindow) * kChannelSenders : 1;
      const Cost loaded = measure(log, span, "comm.local_hop_loaded", 200, 1, kNoReset,
                                  [&] { hops(in_flight); });
      cost("local_hop", loaded.cpu_s / in_flight);
      if (!ok) errors += "local hop lost a message; ";
    }

    // Endpoint::send as the workhorse sees it: a deferred rollout (PPO) or
    // a ready 256 KiB body (channel); one message in flight.
    xt::Broker broker(0, channel ? plain : paced);
    {
      xt::Endpoint tx(xt::explorer_id(0, 1), broker);
      xt::Endpoint rx(xt::learner_id(0, 1), broker);
      auto shared = std::make_shared<xt::RolloutBatch>(fragments.front());
      std::vector<double> calls;
      const int reps = channel ? 200 : 6;
      for (int r = 0; r < reps; ++r) {
        xt::Outbound out =
            channel ? xt::make_outbound(tx.id(), {rx.id()}, xt::MsgType::kDummy, channel_payload)
                    : xt::make_deferred_outbound(tx.id(), {rx.id()}, xt::MsgType::kRollout,
                                                 [shared] { return shared->serialize(); });
        calls.push_back(timed(log, "comm.send_call", [&] { (void)tx.send(std::move(out)); }, span));
        if (!rx.receive()) errors += "send_call lost a message; ";
      }
      metric("comm.send_call_us", median(calls) * 1e6);
    }
    broker.stop();
    plain_broker.stop();
    log.end(span);
  }

  // ---- netsim ------------------------------------------------------------
  {
    const std::uint64_t span = layer("netsim");
    const std::size_t bytes = channel ? kChannelPayloadBytes : rollout_wire.size();
    const auto modelled_ns = static_cast<double>(nic_frame_ns(bytes));
    xt::PacedPipe pipe("replay", paper_link());
    std::mutex mu;
    std::condition_variable cv;
    std::vector<double> overhead_us;
    const int reps = channel ? 60 : 6;
    for (int r = 0; r < reps; ++r) {
      bool delivered = false;
      std::int64_t done_ns = 0;
      const std::uint64_t id = log.begin("netsim.pipe_send", span);
      const std::int64_t start = xt::now_ns();
      (void)pipe.send(bytes, [&] {
        std::scoped_lock lock(mu);
        done_ns = xt::now_ns();
        delivered = true;
        cv.notify_one();
      });
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return delivered; });
      log.end(id);
      overhead_us.push_back((static_cast<double>(done_ns - start) - modelled_ns) / 1e3);
    }
    pipe.stop();
    metric("netsim.pipe_overhead_us", median(overhead_us));
    log.end(span);
  }

  // ---- compress (fp32 weight codec) ---------------------------------------
  {
    const std::uint64_t span = layer("compress");
    const xt::WeightSyncConfig sync;  // fp32, no lazy broadcast: the default
    std::unique_ptr<xt::WeightEncoderSession> session;
    std::uint32_t version = 0;
    const std::vector<std::string> dsts = {"explorer-m1-0", "explorer-m1-1", "explorer-m1-2"};
    xt::Payload encoded;
    const Cost enc = measure(
        log, span, "compress.weights_encode", 30, 1,
        [&] { session = std::make_unique<xt::WeightEncoderSession>(sync); },
        [&] { encoded = session->encode(weights_blob, ++version, dsts, true)->payload; });
    const Cost dec = measure(log, span, "compress.weights_decode", 30, 1, kNoReset, [&] {
      g_sink = g_sink + xt::decode_weight_frame(*encoded, nullptr)->size();
    });
    const auto decoded = xt::decode_weight_frame(*encoded, nullptr);
    if (!decoded || *decoded != weights_blob) errors += "fp32 weight frame round trip mismatch; ";
    metric("compress.weights_encode_ms", enc.wall_s * 1e3);
    metric("compress.weights_decode_ms", dec.wall_s * 1e3);
    cost("weights_encode", enc.cpu_s);
    cost("weights_decode", dec.cpu_s);
    log.end(span);
  }

  // ---- nn (the learner's policy net at its minibatch shape) ---------------
  {
    const std::uint64_t span = layer("nn");
    const std::size_t rows = ppo.minibatch;
    std::vector<std::vector<float>> obs_rows;
    for (const auto& fragment : fragments) {
      for (const auto& step : fragment.steps) {
        if (obs_rows.size() < rows) obs_rows.push_back(step.observation);
      }
    }
    const xt::nn::Matrix x = xt::nn::Matrix::from_rows(obs_rows);
    xt::nn::Matrix grad(rows, static_cast<std::size_t>(n_actions));
    for (float& g : grad.data()) {
      g = static_cast<float>(static_cast<double>(rng.next() >> 11) * 0x1.0p-53 - 0.5) * 0.01f;
    }
    xt::nn::Mlp net;
    std::unique_ptr<xt::nn::Adam> adam;
    std::vector<double> fwd, bwd, step;
    double train_cpu = 0.0;
    for (int r = 0; r < 31; ++r) {
      net = build_policy(ppo, obs_dim, n_actions, seed);
      adam = std::make_unique<xt::nn::Adam>(ppo.lr);
      net.zero_grad();
      const double cpu0 = process_cpu_s();
      xt::nn::Matrix out;
      const double f = timed(log, "nn.mlp_forward_train", [&] { out = net.forward_train(x); }, span);
      const double b = timed(log, "nn.mlp_backward", [&] { (void)net.backward(grad); }, span);
      const double s = timed(
          log, "nn.adam_step", [&] { adam->step(net.parameters(), net.gradients()); }, span);
      if (r == 0) continue;  // warm-up
      train_cpu += process_cpu_s() - cpu0;
      fwd.push_back(f);
      bwd.push_back(b);
      step.push_back(s);
    }
    metric("nn.mlp_forward_train_ms", median(fwd) * 1e3);
    metric("nn.mlp_backward_ms", median(bwd) * 1e3);
    metric("nn.adam_step_ms", median(step) * 1e3);

    const xt::nn::Matrix one = xt::nn::Matrix::from_row(obs_rows.front());
    const Cost infer = measure(log, span, "nn.infer", 30, 100, kNoReset,
                               [&] { g_sink = g_sink + net.forward(one).size(); });
    metric("nn.infer_us", infer.wall_s * 1e6);

    const std::size_t width = ppo.hidden.front();
    xt::Rng init(seed);
    const xt::nn::Matrix w = xt::nn::Matrix::he_normal(obs_dim, width, init);
    const Cost gemm = measure(log, span, "nn.gemm", 15, 20, kNoReset,
                              [&] { g_sink = g_sink + xt::nn::matmul(x, w).size(); });
    metric("nn.gemm_gflops",
           2.0 * static_cast<double>(rows * obs_dim * width) / gemm.wall_s / 1e9);
    log.end(span);
  }

  // ---- algo + envs ---------------------------------------------------------
  {
    const std::uint64_t span = layer("algo");
    std::unique_ptr<xt::PpoAlgorithm> algo;
    bool finite = true;
    const Cost train = measure(
        log, span, "algo.ppo_train", 7, 1,
        [&] {
          algo = std::make_unique<xt::PpoAlgorithm>(ppo, obs_dim, n_actions, seed);
          for (const auto& fragment : fragments) algo->prepare_data(fragment);
        },
        [&] {
          const auto result = algo->train();
          for (const auto& [key, value] : result.stats) finite = finite && std::isfinite(value);
          if (result.steps_consumed != steps_per_iteration()) finite = false;
        });
    if (!finite) errors += "PPO train on the recorded batch was not finite; ";
    metric("algo.ppo_train_ms", train.wall_s * 1e3);
    cost("ppo_train", train.cpu_s);
    log.end(span);
  }
  {
    const std::uint64_t span = layer("envs");
    auto env = xt::make_environment(setup.env_name);
    std::uint64_t episode = seed;
    (void)env->reset(episode);
    auto env_step = [&] {
      const auto result = env->step(static_cast<std::int32_t>(rng.next() % 3));
      if (result.done) (void)env->reset(++episode);
    };
    const Cost plain = measure(log, span, "envs.step", 15, 1000, kNoReset, env_step);
    xt::Bytes frame;
    std::uint64_t salt = 0;
    const Cost framed = measure(log, span, "envs.step_frame", 15, 200, kNoReset, [&] {
      env_step();
      xt::fill_frame(frame, kFrameBytes, salt++);
    });
    metric("envs.step_us", plain.wall_s * 1e6);
    metric("envs.step_frame_us", framed.wall_s * 1e6);

    // The explorer's whole per-step loop body, for the reconciliation.
    auto agent = xt::make_agent(setup, obs_dim, n_actions, 0);
    std::vector<float> obs = env->reset(++episode);
    const Cost explorer = measure(log, span, "explorer.step", 10, 200, kNoReset, [&] {
      const std::int32_t action = agent->infer_action(obs);
      const xt::StepResult result = env->step(action);
      agent->handle_env_feedback(obs, action, result.reward, result.done, result.observation);
      obs = result.done ? env->reset(++episode) : result.observation;
      if (agent->batch_ready()) g_sink = g_sink + agent->take_batch().steps.size();
    });
    cost("explorer_step", explorer.cpu_s);
    log.end(span);
  }

  const bool wrote = log.write_chrome_trace(spans_path);
  if (!wrote) errors += "cannot write " + spans_path + "; ";
  correct = errors.empty();
  json.str("workload", workload_name(workload))
      .boolean("correct", correct)
      .str("errors", errors)
      .integer("spans", static_cast<std::int64_t>(log.size()));
  return json.text();
}

}  // namespace perfbench
