#include "framework/config_file.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

namespace xt {
namespace {

TEST(ConfigFile, ParsesFullConfig) {
  const std::string text = R"(
# a full XingTian launch configuration
[algorithm]
kind = impala
env = SynthBreakout
seed = 42
lr = 0.001
gamma = 0.98
hidden = 128,64
fragment_len = 500
entropy_coef = 0.02

[deployment]
explorers_per_machine = 16,16
learner_machine = 1
max_steps = 1000000
max_seconds = 3600
target_return = 500
target_return_window = 50
nic_bandwidth_mbps = 118.04
ipc_bandwidth_mbps = 65
compression = on
compression_threshold_kb = 512
explorer_send_capacity = 4
stats_csv = /tmp/run.csv
tracing = on
trace_capacity = 4096
chrome_trace = /tmp/run_trace.json
prometheus_dump = /tmp/run_metrics.prom
stats_line_every_s = 2.5
)";
  std::string error;
  const auto config = parse_launch_config(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->setup.kind, AlgoKind::kImpala);
  EXPECT_EQ(config->setup.env_name, "SynthBreakout");
  EXPECT_EQ(config->setup.seed, 42u);
  EXPECT_FLOAT_EQ(config->setup.impala.lr, 0.001f);
  EXPECT_FLOAT_EQ(config->setup.impala.gamma, 0.98f);
  EXPECT_EQ(config->setup.impala.hidden, (std::vector<std::size_t>{128, 64}));
  EXPECT_EQ(config->setup.impala.fragment_len, 500u);
  EXPECT_FLOAT_EQ(config->setup.impala.entropy_coef, 0.02f);

  EXPECT_EQ(config->deployment.explorers_per_machine, (std::vector<int>{16, 16}));
  EXPECT_EQ(config->deployment.learner_machine, 1);
  EXPECT_EQ(config->deployment.max_steps_consumed, 1'000'000u);
  EXPECT_DOUBLE_EQ(config->deployment.max_seconds, 3600.0);
  EXPECT_DOUBLE_EQ(config->deployment.target_return, 500.0);
  EXPECT_EQ(config->deployment.target_return_window, 50);
  EXPECT_DOUBLE_EQ(config->deployment.link.bandwidth_bytes_per_sec, 118.04e6);
  EXPECT_DOUBLE_EQ(config->deployment.broker.ipc_bandwidth_bytes_per_sec, 65e6);
  EXPECT_TRUE(config->deployment.broker.compression.enabled);
  EXPECT_EQ(config->deployment.broker.compression.threshold_bytes, 512u * 1024);
  EXPECT_EQ(config->deployment.explorer_send_capacity, 4u);
  EXPECT_EQ(config->deployment.stats_csv_path, "/tmp/run.csv");
  EXPECT_TRUE(config->deployment.obs.tracing);
  EXPECT_EQ(config->deployment.obs.trace_capacity, 4096u);
  EXPECT_EQ(config->deployment.obs.chrome_trace_path, "/tmp/run_trace.json");
  EXPECT_EQ(config->deployment.obs.prometheus_path, "/tmp/run_metrics.prom");
  EXPECT_DOUBLE_EQ(config->deployment.obs.stats_line_every_s, 2.5);
  // PPO explorer count derived from the deployment.
  EXPECT_EQ(config->setup.ppo.n_explorers, 32u);
}

TEST(ConfigFile, ParsesFaultsSection) {
  const std::string text = R"(
[faults]
seed = 99
drop_prob = 0.02
corrupt_prob = 0.01
delay_prob = 0.05
delay_ms = 3.5
blackout_start_s = 10
blackout_duration_s = 2
blackout_every_s = 30
reliable = on
retransmit_timeout_ms = 25
retransmit_backoff = 1.5
retransmit_max_ms = 400
retransmit_max_retries = 6
supervision = on
heartbeat_every_s = 0.2
heartbeat_timeout_s = 1.0
max_worker_restarts = 5
checkpoint = /tmp/run.ckpt
checkpoint_every_versions = 10
)";
  std::string error;
  const auto config = parse_launch_config(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  const FaultPlan& faults = config->deployment.link.faults;
  EXPECT_EQ(faults.seed, 99u);
  EXPECT_DOUBLE_EQ(faults.drop_probability, 0.02);
  EXPECT_DOUBLE_EQ(faults.corrupt_probability, 0.01);
  EXPECT_DOUBLE_EQ(faults.delay_probability, 0.05);
  EXPECT_EQ(faults.delay_ns, 3'500'000);
  EXPECT_DOUBLE_EQ(faults.blackout_start_s, 10.0);
  EXPECT_DOUBLE_EQ(faults.blackout_duration_s, 2.0);
  EXPECT_DOUBLE_EQ(faults.blackout_every_s, 30.0);
  EXPECT_TRUE(faults.enabled());

  EXPECT_TRUE(config->deployment.reliability.enabled);
  EXPECT_DOUBLE_EQ(config->deployment.reliability.rto_ms, 25.0);
  EXPECT_DOUBLE_EQ(config->deployment.reliability.backoff, 1.5);
  EXPECT_DOUBLE_EQ(config->deployment.reliability.max_rto_ms, 400.0);
  EXPECT_EQ(config->deployment.reliability.max_retries, 6u);

  EXPECT_TRUE(config->deployment.supervision.enabled);
  EXPECT_DOUBLE_EQ(config->deployment.supervision.heartbeat_every_s, 0.2);
  EXPECT_DOUBLE_EQ(config->deployment.supervision.heartbeat_timeout_s, 1.0);
  EXPECT_EQ(config->deployment.supervision.max_restarts_per_worker, 5u);
  EXPECT_EQ(config->deployment.checkpoint_path, "/tmp/run.ckpt");
  EXPECT_EQ(config->deployment.checkpoint_every_versions, 10u);
}

TEST(ConfigFile, ComputeSection) {
  auto config = parse_launch_config("[compute]\nthreads = 8\n");
  ASSERT_TRUE(config);
  EXPECT_EQ(config->deployment.compute_threads, 8);

  config = parse_launch_config("[compute]\nthreads = 0\n");
  ASSERT_TRUE(config);
  EXPECT_EQ(config->deployment.compute_threads, 0);

  config = parse_launch_config("[compute]\nthreads = auto\n");
  ASSERT_TRUE(config);
  EXPECT_EQ(config->deployment.compute_threads, -1);

  std::string error;
  EXPECT_FALSE(parse_launch_config("[compute]\nthreads = lots\n", &error));
  EXPECT_NE(error.find("bad threads"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[compute]\nthreads = -2\n"));
  EXPECT_FALSE(parse_launch_config("[compute]\nnonsense = 1\n", &error));
  EXPECT_NE(error.find("unknown [compute] key"), std::string::npos);
}

TEST(ConfigFile, FaultsSectionRejectsBadValues) {
  std::string error;
  EXPECT_FALSE(parse_launch_config("[faults]\ndrop_prob = lots\n", &error));
  EXPECT_NE(error.find("bad drop_prob"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[faults]\nreliable = maybe\n"));
  EXPECT_FALSE(parse_launch_config("[faults]\nretransmit_max_retries = many\n"));
  EXPECT_FALSE(parse_launch_config("[faults]\nnonsense = 1\n", &error));
  EXPECT_NE(error.find("unknown [faults] key"), std::string::npos);
}

TEST(ConfigFile, ProfileSection) {
  const std::string text = R"(
[profile]
enabled = on
hz = 250
saturation_hz = 25
profile_json = /tmp/run_profile.json
)";
  std::string error;
  const auto config = parse_launch_config(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_TRUE(config->deployment.profile.enabled);
  EXPECT_DOUBLE_EQ(config->deployment.profile.hz, 250.0);
  EXPECT_DOUBLE_EQ(config->deployment.profile.saturation_hz, 25.0);
  EXPECT_EQ(config->deployment.profile.profile_json_path,
            "/tmp/run_profile.json");

  // Defaults: off, ~100 Hz sampling, 10 Hz saturation probe, no JSON dump.
  const auto defaults = parse_launch_config("");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_FALSE(defaults->deployment.profile.enabled);
  EXPECT_GT(defaults->deployment.profile.hz, 0.0);
  EXPECT_GT(defaults->deployment.profile.saturation_hz, 0.0);
  EXPECT_TRUE(defaults->deployment.profile.profile_json_path.empty());
}

TEST(ConfigFile, ProfileSectionRejectsBadValues) {
  std::string error;
  EXPECT_FALSE(parse_launch_config("[profile]\nhz = fast\n", &error));
  EXPECT_NE(error.find("bad hz"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[profile]\nhz = 0\n"));
  EXPECT_FALSE(parse_launch_config("[profile]\nhz = -5\n"));
  EXPECT_FALSE(parse_launch_config("[profile]\nsaturation_hz = 0\n"));
  EXPECT_FALSE(parse_launch_config("[profile]\nenabled = maybe\n"));
  EXPECT_FALSE(parse_launch_config("[profile]\nnonsense = 1\n", &error));
  EXPECT_NE(error.find("unknown [profile] key"), std::string::npos);
}

TEST(ConfigFile, AllAlgorithmKinds) {
  for (const auto& [name, kind] :
       std::vector<std::pair<std::string, AlgoKind>>{{"dqn", AlgoKind::kDqn},
                                                     {"ppo", AlgoKind::kPpo},
                                                     {"impala", AlgoKind::kImpala},
                                                     {"a2c", AlgoKind::kA2c}}) {
    const auto config =
        parse_launch_config("[algorithm]\nkind = " + name + "\n");
    ASSERT_TRUE(config.has_value()) << name;
    EXPECT_EQ(config->setup.kind, kind) << name;
  }
}

TEST(ConfigFile, DefaultsSurviveEmptyConfig) {
  const auto config = parse_launch_config("");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->setup.kind, AlgoKind::kImpala);
  EXPECT_EQ(config->deployment.explorers_per_machine, (std::vector<int>{4}));
}

TEST(ConfigFile, RejectsUnknownKey) {
  std::string error;
  EXPECT_FALSE(parse_launch_config("[algorithm]\nlearningrate = 1\n", &error));
  EXPECT_NE(error.find("unknown [algorithm] key"), std::string::npos);
}

TEST(ConfigFile, RejectsUnknownSection) {
  std::string error;
  EXPECT_FALSE(parse_launch_config("[cluster]\nfoo = 1\n", &error));
  EXPECT_NE(error.find("unknown section"), std::string::npos);
}

TEST(ConfigFile, RejectsKeyOutsideSection) {
  std::string error;
  EXPECT_FALSE(parse_launch_config("kind = dqn\n", &error));
  EXPECT_NE(error.find("outside any section"), std::string::npos);
}

TEST(ConfigFile, RejectsMalformedValues) {
  EXPECT_FALSE(parse_launch_config("[algorithm]\nseed = banana\n"));
  EXPECT_FALSE(parse_launch_config("[algorithm]\nkind = sarsa\n"));
  EXPECT_FALSE(parse_launch_config("[deployment]\ncompression = maybe\n"));
  EXPECT_FALSE(parse_launch_config("[deployment]\ntracing = maybe\n"));
  EXPECT_FALSE(parse_launch_config("[deployment]\ntrace_capacity = 0\n"));
  EXPECT_FALSE(parse_launch_config("[deployment]\nstats_line_every_s = x\n"));
  EXPECT_FALSE(parse_launch_config("[deployment]\nexplorers_per_machine = \n"));
  EXPECT_FALSE(parse_launch_config("[algorithm\nkind = dqn\n"));
  EXPECT_FALSE(parse_launch_config("[algorithm]\nkind dqn\n"));
}

TEST(ConfigFile, CommentsAndWhitespaceAreIgnored)  {
  const auto config = parse_launch_config(
      "  [algorithm]   # trailing comment\n"
      "   kind =    dqn   \n"
      "\n"
      "# full-line comment\n");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->setup.kind, AlgoKind::kDqn);
}

TEST(ConfigFile, ErrorMessagesCarryLineNumbers) {
  std::string error;
  EXPECT_FALSE(parse_launch_config("[algorithm]\nkind = dqn\nbogus = 1\n", &error));
  EXPECT_NE(error.find("line 3"), std::string::npos);
}

TEST(ConfigFile, LoadFromDiskAndMissingFile) {
  const std::string path = ::testing::TempDir() + "xt_config_test.conf";
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const char* text = "[algorithm]\nkind = ppo\n";
    std::fwrite(text, 1, std::strlen(text), file);
    std::fclose(file);
  }
  std::string error;
  const auto config = load_launch_config(path, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->setup.kind, AlgoKind::kPpo);
  std::remove(path.c_str());

  EXPECT_FALSE(load_launch_config(path, &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(ConfigFile, CommSection) {
  const std::string text = R"(
[comm]
router_shards = 4
coalescing = on
coalesce_max_bytes = 512
coalesce_flush_bytes = 4096
coalesce_max_subframes = 16
coalesce_flush_us = 750
)";
  std::string error;
  const auto config = parse_launch_config(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->deployment.broker.router_shards, 4u);
  EXPECT_TRUE(config->deployment.coalesce.enabled);
  EXPECT_EQ(config->deployment.coalesce.max_subframe_bytes, 512u);
  EXPECT_EQ(config->deployment.coalesce.flush_bytes, 4096u);
  EXPECT_EQ(config->deployment.coalesce.max_subframes, 16u);
  EXPECT_EQ(config->deployment.coalesce.flush_us, 750);
}

TEST(ConfigFile, CommSectionDefaultsOffAndSingleShard) {
  std::string error;
  const auto config = parse_launch_config("", &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->deployment.broker.router_shards, 1u);
  EXPECT_FALSE(config->deployment.coalesce.enabled);
}

TEST(ConfigFile, CommOverloadSection) {
  const std::string text = R"(
[comm]
overload_high_watermark = 4096
overload_low_watermark = 1024
shed_policy = newest
weights_block_ms = 250
breaker_failures = 5
breaker_probe_ms = 500
)";
  std::string error;
  const auto config = parse_launch_config(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  const OverloadConfig& overload = config->deployment.overload;
  EXPECT_TRUE(overload.bounded());
  EXPECT_EQ(overload.high_watermark, 4096u);
  EXPECT_EQ(overload.low_watermark, 1024u);
  EXPECT_EQ(overload.shed_policy, ShedPolicy::kNewest);
  EXPECT_EQ(overload.weights_block_ms, 250u);
  EXPECT_EQ(overload.breaker_failures, 5u);
  EXPECT_EQ(overload.breaker_probe_ms, 500u);
}

TEST(ConfigFile, CommOverloadDefaultsToUnbounded) {
  const auto config = parse_launch_config("");
  ASSERT_TRUE(config.has_value());
  // The master switch stays off: zero watermark = legacy unbounded queues.
  EXPECT_FALSE(config->deployment.overload.bounded());
  EXPECT_EQ(config->deployment.overload.shed_policy, ShedPolicy::kOldest);
}

TEST(ConfigFile, CommOverloadRejectsOutOfRangeValues) {
  // Out-of-range values are hard errors with the accepted range in the
  // message — never silently clamped.
  std::string error;
  EXPECT_FALSE(parse_launch_config(
      "[comm]\noverload_high_watermark = -1\n", &error));
  EXPECT_NE(error.find("bad overload_high_watermark"), std::string::npos);
  EXPECT_NE(error.find("0..100000000"), std::string::npos);
  EXPECT_FALSE(parse_launch_config(
      "[comm]\noverload_high_watermark = 100000001\n", &error));
  EXPECT_NE(error.find("bad overload_high_watermark"), std::string::npos);
  EXPECT_FALSE(parse_launch_config(
      "[comm]\noverload_high_watermark = lots\n"));
  EXPECT_FALSE(parse_launch_config(
      "[comm]\noverload_high_watermark = 64\n"
      "overload_low_watermark = 200000000\n", &error));
  EXPECT_NE(error.find("bad overload_low_watermark"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[comm]\nshed_policy = random\n", &error));
  EXPECT_NE(error.find("bad shed_policy 'random'"), std::string::npos);
  EXPECT_NE(error.find("oldest or newest"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[comm]\nweights_block_ms = -1\n", &error));
  EXPECT_NE(error.find("bad weights_block_ms"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[comm]\nweights_block_ms = 60001\n"));
  EXPECT_FALSE(parse_launch_config("[comm]\nbreaker_failures = 1025\n", &error));
  EXPECT_NE(error.find("bad breaker_failures"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[comm]\nbreaker_probe_ms = 0\n", &error));
  EXPECT_NE(error.find("bad breaker_probe_ms"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[comm]\nbreaker_probe_ms = 60001\n"));
}

TEST(ConfigFile, CommOverloadRejectsInconsistentWatermarks) {
  // Cross-field validation: a low watermark makes no sense without a high
  // one, and hysteresis requires low strictly below high.
  std::string error;
  EXPECT_FALSE(parse_launch_config(
      "[comm]\noverload_low_watermark = 8\n", &error));
  EXPECT_NE(error.find("overload_low_watermark requires overload_high_watermark"),
            std::string::npos);
  EXPECT_FALSE(parse_launch_config(
      "[comm]\noverload_high_watermark = 64\noverload_low_watermark = 64\n",
      &error));
  EXPECT_NE(error.find("must be below overload_high_watermark"),
            std::string::npos);
  EXPECT_FALSE(parse_launch_config(
      "[comm]\noverload_high_watermark = 64\noverload_low_watermark = 65\n"));
  // Equal-to-zero low with a bounded high is fine (resolves to high/2).
  const auto ok = parse_launch_config("[comm]\noverload_high_watermark = 64\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->deployment.overload.resolved_low(), 32u);
}

TEST(ConfigFile, FaultsSupervisionOverloadKnobs) {
  const std::string text = R"(
[faults]
supervision = on
suspect_grace_s = 1.5
respawn_min_interval_s = 2.0
)";
  std::string error;
  const auto config = parse_launch_config(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_DOUBLE_EQ(config->deployment.supervision.suspect_grace_s, 1.5);
  EXPECT_DOUBLE_EQ(config->deployment.supervision.respawn_min_interval_s, 2.0);
  // Defaults preserve the legacy declare-immediately behaviour.
  const auto defaults = parse_launch_config("");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_DOUBLE_EQ(defaults->deployment.supervision.suspect_grace_s, 0.0);
  EXPECT_DOUBLE_EQ(defaults->deployment.supervision.respawn_min_interval_s, 0.0);

  EXPECT_FALSE(parse_launch_config("[faults]\nsuspect_grace_s = -1\n", &error));
  EXPECT_NE(error.find("bad suspect_grace_s"), std::string::npos);
  EXPECT_FALSE(
      parse_launch_config("[faults]\nrespawn_min_interval_s = -0.5\n", &error));
  EXPECT_NE(error.find("bad respawn_min_interval_s"), std::string::npos);
}

TEST(ConfigFile, CodecSection) {
  const std::string text = R"(
[codec]
weights = delta
topk_fraction = 0.1
keyframe_every = 32
lazy_threshold = 0.05
max_staleness = 12
)";
  std::string error;
  const auto config = parse_launch_config(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  const WeightSyncConfig& codec = config->deployment.weight_sync;
  EXPECT_EQ(codec.codec, WeightCodec::kDeltaInt8);
  EXPECT_DOUBLE_EQ(codec.topk_fraction, 0.1);
  EXPECT_EQ(codec.keyframe_every, 32u);
  EXPECT_DOUBLE_EQ(codec.lazy_threshold, 0.05);
  EXPECT_EQ(codec.max_staleness, 12u);
}

TEST(ConfigFile, CodecSectionDefaultsToFp32) {
  const auto config = parse_launch_config("");
  ASSERT_TRUE(config.has_value());
  const WeightSyncConfig& codec = config->deployment.weight_sync;
  EXPECT_EQ(codec.codec, WeightCodec::kFp32);
  EXPECT_DOUBLE_EQ(codec.lazy_threshold, 0.0);  // lazy broadcast off
}

TEST(ConfigFile, CodecSectionAcceptsEveryCodecName) {
  for (const char* name : {"fp32", "fp16", "bf16", "int8", "delta", "topk"}) {
    std::string error;
    const auto config = parse_launch_config(
        std::string("[codec]\nweights = ") + name + "\n", &error);
    ASSERT_TRUE(config.has_value()) << name << ": " << error;
    EXPECT_STREQ(weight_codec_name(config->deployment.weight_sync.codec), name);
  }
}

TEST(ConfigFile, CodecSectionRejectsOutOfRangeValues) {
  // Exact bounds in every message — a bad codec config must fail loudly at
  // parse time, never fall back to fp32 mid-run.
  std::string error;
  EXPECT_FALSE(parse_launch_config("[codec]\nweights = fp64\n", &error));
  EXPECT_NE(error.find("bad weights codec 'fp64'"), std::string::npos);
  EXPECT_NE(error.find("fp32, fp16, bf16, int8, delta, or topk"),
            std::string::npos);
  EXPECT_FALSE(parse_launch_config("[codec]\ntopk_fraction = 0\n", &error));
  EXPECT_NE(error.find("bad topk_fraction (want >0 and <=0.5)"),
            std::string::npos);
  EXPECT_FALSE(parse_launch_config("[codec]\ntopk_fraction = 0.51\n"));
  EXPECT_FALSE(parse_launch_config("[codec]\ntopk_fraction = -0.1\n"));
  EXPECT_FALSE(parse_launch_config("[codec]\nkeyframe_every = 0\n", &error));
  EXPECT_NE(error.find("bad keyframe_every (want 1..100000)"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[codec]\nkeyframe_every = 100001\n"));
  EXPECT_FALSE(parse_launch_config("[codec]\nlazy_threshold = 1\n", &error));
  EXPECT_NE(error.find("bad lazy_threshold"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[codec]\nlazy_threshold = -0.01\n"));
  EXPECT_FALSE(parse_launch_config("[codec]\nmax_staleness = 0\n", &error));
  EXPECT_NE(error.find("bad max_staleness (want 1..100000)"), std::string::npos);
  EXPECT_FALSE(parse_launch_config("[codec]\nmax_staleness = 100001\n"));
  EXPECT_FALSE(parse_launch_config("[codec]\nbogus = 1\n", &error));
  EXPECT_NE(error.find("[codec]"), std::string::npos);
  // Error messages stay line-tagged like every other section.
  EXPECT_FALSE(parse_launch_config("\n\n[codec]\nweights = zstd\n", &error));
  EXPECT_NE(error.find("line 4"), std::string::npos);
}

TEST(ConfigFile, CommSectionRejectsBadValues) {
  std::string error;
  EXPECT_FALSE(
      parse_launch_config("[comm]\nrouter_shards = 0\n", &error).has_value());
  EXPECT_NE(error.find("router_shards"), std::string::npos);
  EXPECT_FALSE(
      parse_launch_config("[comm]\nrouter_shards = 65\n", &error).has_value());
  EXPECT_FALSE(
      parse_launch_config("[comm]\ncoalescing = maybe\n", &error).has_value());
  EXPECT_FALSE(
      parse_launch_config("[comm]\ncoalesce_flush_us = 0\n", &error).has_value());
  EXPECT_FALSE(
      parse_launch_config("[comm]\nbogus = 1\n", &error).has_value());
  EXPECT_NE(error.find("[comm]"), std::string::npos);
}

// Rejects `line` as the only line of `section` with a line-tagged message
// that names `key`.
void expect_rejected(const std::string& section, const std::string& line,
                     const std::string& key) {
  std::string error;
  EXPECT_FALSE(parse_launch_config("[" + section + "]\n" + line + "\n", &error))
      << line;
  EXPECT_NE(error.find("line 2: bad " + key), std::string::npos)
      << line << " -> " << error;
}

void expect_accepted(const std::string& section, const std::string& line) {
  std::string error;
  EXPECT_TRUE(parse_launch_config("[" + section + "]\n" + line + "\n", &error))
      << line << " -> " << error;
}

TEST(ConfigFile, RejectsHostileValuesByName) {
  // Each of these used to parse: wrapped, truncated, NaN, or a zero that a
  // later division or allocation trips over.
  expect_rejected("algorithm", "replay_capacity = -1", "replay_capacity");
  expect_rejected("algorithm", "gamma = nan", "gamma");
  expect_rejected("algorithm", "lr = -5", "lr");
  expect_rejected("algorithm", "batch_size = 0", "batch_size");
  expect_rejected("deployment", "explorers_per_machine = -1",
                  "explorers_per_machine");
  expect_rejected("deployment", "nic_bandwidth_mbps = 0", "nic_bandwidth_mbps");
  expect_rejected("deployment", "learner_machine = 70000", "learner_machine");
  expect_rejected("algorithm", "epochs = 4294967297", "epochs");
  expect_rejected("faults", "drop_prob = 1.5", "drop_prob");
  expect_rejected("profile", "hz = nan", "hz");
  expect_rejected("codec", "topk_fraction = nan", "topk_fraction");
}

TEST(ConfigFile, BoundPolicyHoldsOnBothSidesOfEachBound) {
  // Unsigned keys: no sign, nothing above the destination type's maximum.
  expect_rejected("algorithm", "seed = -1", "seed");
  expect_rejected("algorithm", "seed = 18446744073709551616", "seed");
  expect_accepted("algorithm", "seed = 18446744073709551615");
  expect_rejected("deployment", "learner_machine = 65536", "learner_machine");
  expect_rejected("faults", "retransmit_max_retries = 4294967296",
                  "retransmit_max_retries");
  expect_accepted("faults", "retransmit_max_retries = 4294967295");
  expect_rejected("faults", "max_worker_restarts = -3", "max_worker_restarts");
  expect_rejected("algorithm", "epochs = 2147483648", "epochs");
  expect_accepted("algorithm", "epochs = 2147483647");
  expect_rejected("deployment", "target_return_window = 0", "target_return_window");
  expect_rejected("comm", "coalesce_flush_us = 9223372036854775808",
                  "coalesce_flush_us");
  expect_rejected("algorithm", "hidden = 64,-1", "hidden");
  // Double keys: finite only.
  expect_rejected("deployment", "target_return = inf", "target_return");
  expect_rejected("deployment", "max_seconds = nan", "max_seconds");
  expect_rejected("faults", "heartbeat_timeout_s = 1e999", "heartbeat_timeout_s");
  expect_rejected("algorithm", "lr = 1e39", "lr");  // overflows the float field
  // Probabilities and gamma lie in [0, 1].
  for (const char* key : {"drop_prob", "corrupt_prob", "delay_prob"}) {
    expect_rejected("faults", std::string(key) + " = -0.01", key);
    expect_rejected("faults", std::string(key) + " = 1.01", key);
    expect_accepted("faults", std::string(key) + " = 1");
  }
  expect_rejected("algorithm", "gamma = 1.01", "gamma");
  expect_accepted("algorithm", "gamma = 1");
  expect_accepted("algorithm", "gamma = 0");
  // Rates, bandwidths and timeouts are > 0 unless 0 already means something.
  expect_rejected("algorithm", "lr = 0", "lr");
  expect_rejected("algorithm", "clip = 0", "clip");
  expect_rejected("faults", "retransmit_timeout_ms = 0", "retransmit_timeout_ms");
  expect_rejected("faults", "retransmit_max_ms = 0", "retransmit_max_ms");
  expect_rejected("faults", "heartbeat_every_s = 0", "heartbeat_every_s");
  expect_rejected("faults", "heartbeat_timeout_s = 0", "heartbeat_timeout_s");
  expect_rejected("faults", "delay_ms = -1", "delay_ms");
  expect_rejected("faults", "blackout_duration_s = -1", "blackout_duration_s");
  expect_accepted("deployment", "ipc_bandwidth_mbps = 0");  // unpaced
  expect_accepted("deployment", "max_seconds = 0");         // no limit
  expect_accepted("deployment", "max_steps = 0");           // no limit
  expect_accepted("deployment", "stats_line_every_s = 0");  // no stats line
  expect_accepted("deployment", "explorer_send_capacity = 0");  // unbounded
  // Counts that mean nothing at 0 start at 1.
  expect_rejected("algorithm", "epochs = 0", "epochs");
  expect_rejected("algorithm", "fragment_len = 0", "fragment_len");
  expect_rejected("algorithm", "replay_capacity = 0", "replay_capacity");
  expect_rejected("algorithm", "hidden = 64,0", "hidden");
  expect_accepted("algorithm", "train_start = 0");
  // Backoff never shrinks the timeout.
  expect_rejected("faults", "retransmit_backoff = 0.5", "retransmit_backoff");
  expect_accepted("faults", "retransmit_backoff = 1");
}

TEST(ConfigFile, CrossFieldChecksNameTheirKeys) {
  std::string error;
  EXPECT_FALSE(parse_launch_config(
      "[deployment]\nlearner_machine = 3\nexplorers_per_machine = 1,1\n", &error));
  EXPECT_NE(error.find("learner_machine 3"), std::string::npos) << error;
  // Key order does not matter: the machine count may come after the learner.
  EXPECT_TRUE(parse_launch_config(
      "[deployment]\nlearner_machine = 1\nexplorers_per_machine = 0,4\n"));
  EXPECT_FALSE(
      parse_launch_config("[deployment]\nexplorers_per_machine = 0,0\n", &error));
  EXPECT_NE(error.find("explorers_per_machine must total"), std::string::npos)
      << error;
  // Machine and explorer ids are 16 bits wide, and the explorer total is an
  // int: lists past either limit are rejected, not wrapped.
  std::string machines = "1";
  for (int m = 0; m < 65536; ++m) machines += ",0";
  EXPECT_FALSE(parse_launch_config("[deployment]\nexplorers_per_machine = " + machines,
                                   &error));
  EXPECT_NE(error.find("more than 65536 machines"), std::string::npos) << error;
  EXPECT_TRUE(parse_launch_config("[deployment]\nexplorers_per_machine = " +
                                  machines.substr(0, machines.size() - 2)));
  std::string crowded = "65536";
  for (int m = 1; m < 32769; ++m) crowded += ",65536";  // 2^31 explorers
  EXPECT_FALSE(parse_launch_config("[deployment]\nexplorers_per_machine = " + crowded,
                                   &error));
  EXPECT_NE(error.find("explorers_per_machine must total"), std::string::npos)
      << error;
}

TEST(ConfigFile, EveryCheckedInConfigParses) {
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(XT_CONFIG_DIR)) {
    if (entry.path().extension() != ".conf") continue;
    ++files;
    std::string error;
    EXPECT_TRUE(load_launch_config(entry.path().string(), &error).has_value())
        << entry.path() << ": " << error;
  }
  EXPECT_GT(files, 0);
}

std::string trimmed(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  return s.substr(begin, s.find_last_not_of(" \t") - begin + 1);
}

// (section, key) of every `key = value` line in config_file.h's ini block.
std::set<std::pair<std::string, std::string>> reference_keys() {
  std::set<std::pair<std::string, std::string>> keys;
  std::ifstream header(XT_CONFIG_HEADER);
  std::string line;
  std::string section;
  bool inside = false;
  while (std::getline(header, line)) {
    if (line.find("```") != std::string::npos) {
      if (inside) break;
      inside = line.find("```ini") != std::string::npos;
      continue;
    }
    if (!inside) continue;
    const auto slashes = line.find("///");
    std::string text = line.substr(slashes == std::string::npos ? 0 : slashes + 3);
    text = trimmed(text.substr(0, text.find('#')));
    if (text.empty()) continue;
    if (text.front() == '[') {
      section = text.substr(1, text.find(']') - 1);
    } else {
      keys.insert({section, trimmed(text.substr(0, text.find('=')))});
    }
  }
  return keys;
}

TEST(ConfigFile, KeyReferenceMatchesTheKeyTable) {
  const auto documented = reference_keys();
  ASSERT_FALSE(documented.empty()) << "no ```ini block in " << XT_CONFIG_HEADER;
  std::set<std::pair<std::string, std::string>> table;
  for (const ConfigKeyDoc& row : launch_config_keys()) {
    EXPECT_TRUE(table.insert({row.section, row.key}).second)
        << "duplicate row [" << row.section << "] " << row.key;
    EXPECT_FALSE(row.doc.empty()) << row.key;
    EXPECT_TRUE(documented.count({row.section, row.key}))
        << "[" << row.section << "] " << row.key << " missing from config_file.h";
  }
  for (const auto& [section, key] : documented) {
    EXPECT_TRUE(table.count({section, key}))
        << "config_file.h documents [" << section << "] " << key
        << ", which the parser does not accept";
  }
}

}  // namespace
}  // namespace xt
