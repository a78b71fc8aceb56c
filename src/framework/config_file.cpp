#include "framework/config_file.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <vector>

namespace xt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Destination-type maxima: an unsigned key accepts nothing its field cannot hold.
constexpr std::uint64_t kU16Max = std::numeric_limits<std::uint16_t>::max();
constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::uint64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kSizeMax = std::numeric_limits<std::size_t>::max();

/// The value kinds every key is one of. Each has one parser that range-checks
/// the text against its row's bounds and one renderer for the accepted values.
enum class Kind {
  kUnsigned,  ///< decimal digits only, within [min, max]
  kDouble,    ///< finite number within `range`
  kBool,      ///< on | off | true | false | 1 | 0
  kEnum,      ///< one of `choices`
  kList,      ///< comma-separated unsigned values, each within [min, max]
  kString,    ///< any text (paths, names)
  kThreads,   ///< auto, or a signed count within [-1, max]
};

/// A parsed, range-checked value; the member that is set depends on the kind.
struct Value {
  std::uint64_t u = 0;              ///< kUnsigned; kBool (0/1); kEnum (index)
  double d = 0.0;                   ///< kDouble
  std::int64_t i = 0;               ///< kThreads
  std::vector<std::uint64_t> list;  ///< kList
  std::string text;                 ///< kString
};

/// Accepted interval of a double key; each end is inclusive unless open.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;
};
constexpr Range kFinite{};
constexpr Range kNonNegative{0.0};
constexpr Range kPositive{0.0, kInf, true};
constexpr Range kUnit{0.0, 1.0};
// For float fields, whose range ends well before a double's.
constexpr double kFloatMax = std::numeric_limits<float>::max();
constexpr Range kPositiveFloat{0.0, kFloatMax, true};

using Setter = void (*)(LaunchConfig&, const Value&);

/// One row of the key table: where the key lives, how its value is parsed
/// and bounded, which fields it sets, and what it means.
struct Key {
  std::string section;
  std::string name;
  Kind kind = Kind::kString;
  std::string doc;
  Setter set = nullptr;
  std::uint64_t min = 0;  ///< kUnsigned, kList elements: inclusive bounds
  std::uint64_t max = 0;  ///< ... and the kThreads maximum
  Range range{};                       ///< kDouble
  std::vector<std::string> choices{};  ///< kEnum, in the setter's index order
  std::string note{};                  ///< appended to the accepted values
  std::string label{};                 ///< error-text name, if not `name`
};

// Row builders, one per kind (`whole` = unsigned integer).
Key whole(const char* section, const char* name, std::uint64_t min,
          std::uint64_t max, const char* doc, Setter set, const char* note = "") {
  return {.section = section, .name = name, .kind = Kind::kUnsigned, .doc = doc,
          .set = set, .min = min, .max = max, .note = note};
}
Key real(const char* section, const char* name, Range range, const char* doc,
         Setter set, const char* note = "") {
  return {.section = section, .name = name, .kind = Kind::kDouble, .doc = doc,
          .set = set, .range = range, .note = note};
}
Key flag(const char* section, const char* name, const char* doc, Setter set) {
  return {.section = section, .name = name, .kind = Kind::kBool, .doc = doc,
          .set = set};
}
Key list(const char* section, const char* name, std::uint64_t min,
         std::uint64_t max, const char* doc, Setter set) {
  return {.section = section, .name = name, .kind = Kind::kList, .doc = doc,
          .set = set, .min = min, .max = max};
}
Key text(const char* section, const char* name, const char* doc, Setter set) {
  return {.section = section, .name = name, .kind = Kind::kString, .doc = doc,
          .set = set};
}
Key choice(const char* section, const char* name, std::vector<std::string> choices,
           const char* doc, Setter set, const char* label = "") {
  return {.section = section, .name = name, .kind = Kind::kEnum, .doc = doc,
          .set = set, .choices = std::move(choices), .label = label};
}

std::vector<std::string> codec_names() {
  std::vector<std::string> names;
  for (std::uint8_t i = 0; i < kWeightCodecCount; ++i) {
    names.emplace_back(weight_codec_name(static_cast<WeightCodec>(i)));
  }
  return names;
}

const std::vector<Key>& key_table() {
  // Setters see the config as `c` and the checked value as `v`; the bounds
  // keep every narrowing assignment below within its field's range.
  static const std::vector<Key> table = {
      // [algorithm]. Shared hyperparameters set every algorithm's copy, so
      // they survive a change of `kind`.
      choice("algorithm", "kind", {"impala", "dqn", "ppo", "a2c"}, "algorithm to train",
             [](auto& c, auto& v) {
               constexpr AlgoKind kinds[] = {AlgoKind::kImpala, AlgoKind::kDqn,
                                             AlgoKind::kPpo, AlgoKind::kA2c};
               c.setup.kind = kinds[v.u];
             }),
      text("algorithm", "env", "environment name",
           [](auto& c, auto& v) { c.setup.env_name = v.text; }),
      whole("algorithm", "seed", 0, kU64Max, "run seed",
            [](auto& c, auto& v) { c.setup.seed = v.u; }),
      real("algorithm", "lr", kPositiveFloat, "learning rate", [](auto& c, auto& v) {
        c.setup.dqn.lr = c.setup.ppo.lr = c.setup.impala.lr = v.d;
      }),
      real("algorithm", "gamma", kUnit, "discount factor", [](auto& c, auto& v) {
        c.setup.dqn.gamma = c.setup.ppo.gamma = c.setup.impala.gamma = v.d;
      }),
      list("algorithm", "hidden", 1, kSizeMax, "hidden layer widths",
           [](auto& c, auto& v) {
             c.setup.dqn.hidden = c.setup.ppo.hidden = c.setup.impala.hidden = {
                 v.list.begin(), v.list.end()};
           }),
      whole("algorithm", "fragment_len", 1, kSizeMax, "env steps per rollout message",
            [](auto& c, auto& v) {
              c.setup.ppo.fragment_len = c.setup.impala.fragment_len = v.u;
            }),
      whole("algorithm", "frame_bytes_per_step", 0, kSizeMax,
            "extra observation bytes per step", [](auto& c, auto& v) {
              c.setup.dqn.frame_bytes_per_step = c.setup.ppo.frame_bytes_per_step =
                  c.setup.impala.frame_bytes_per_step = v.u;
            }),
      whole("algorithm", "replay_capacity", 1, kSizeMax, "DQN replay buffer size",
            [](auto& c, auto& v) { c.setup.dqn.replay_capacity = v.u; }),
      whole("algorithm", "train_start", 0, kSizeMax, "DQN steps buffered first",
            [](auto& c, auto& v) { c.setup.dqn.train_start = v.u; }),
      whole("algorithm", "batch_size", 1, kSizeMax, "DQN minibatch size",
            [](auto& c, auto& v) { c.setup.dqn.batch_size = v.u; }),
      flag("algorithm", "double_dqn", "double-DQN targets",
           [](auto& c, auto& v) { c.setup.dqn.double_dqn = v.u; }),
      flag("algorithm", "prioritized_replay", "prioritized DQN replay",
           [](auto& c, auto& v) { c.setup.dqn.prioritized = v.u; }),
      whole("algorithm", "epochs", 1, kIntMax, "PPO epochs per batch",
            [](auto& c, auto& v) { c.setup.ppo.epochs = v.u; }),
      real("algorithm", "clip", kPositiveFloat, "PPO ratio clip",
           [](auto& c, auto& v) { c.setup.ppo.clip = v.d; }),
      real("algorithm", "entropy_coef", {0.0, kFloatMax}, "entropy bonus (PPO, IMPALA)",
           [](auto& c, auto& v) {
             c.setup.ppo.entropy_coef = c.setup.impala.entropy_coef = v.d;
           }),

      // [deployment]: machines, placement, run goal, links and telemetry.
      list("deployment", "explorers_per_machine", 0, kU16Max + 1,
           "explorers on each machine; the list length is the machine count",
           [](auto& c, auto& v) {
             c.deployment.explorers_per_machine = {v.list.begin(), v.list.end()};
           }),
      whole("deployment", "learner_machine", 0, kU16Max, "machine hosting the learner",
            [](auto& c, auto& v) { c.deployment.learner_machine = v.u; }),
      whole("deployment", "max_steps", 0, kU64Max, "step goal (0 = unlimited)",
            [](auto& c, auto& v) { c.deployment.max_steps_consumed = v.u; }),
      real("deployment", "max_seconds", kNonNegative, "time limit (0 = unlimited)",
           [](auto& c, auto& v) { c.deployment.max_seconds = v.d; }),
      real("deployment", "target_return", kFinite, "return goal (0 = disabled)",
           [](auto& c, auto& v) { c.deployment.target_return = v.d; }),
      whole("deployment", "target_return_window", 1, kIntMax,
            "episodes averaged for the return goal",
            [](auto& c, auto& v) { c.deployment.target_return_window = v.u; }),
      real("deployment", "nic_bandwidth_mbps", kPositive, "cross-machine link, MB/s",
           [](auto& c, auto& v) {
             c.deployment.link.bandwidth_bytes_per_sec = v.d * 1e6;
           }),
      real("deployment", "ipc_bandwidth_mbps", kNonNegative,
           "same-machine IPC, MB/s (0 = unpaced)", [](auto& c, auto& v) {
             c.deployment.broker.ipc_bandwidth_bytes_per_sec = v.d * 1e6;
           }),
      flag("deployment", "compression", "LZ4-compress large bodies",
           [](auto& c, auto& v) { c.deployment.broker.compression.enabled = v.u; }),
      whole("deployment", "compression_threshold_kb", 0, kSizeMax / 1024,
            "smallest compressed body, KiB", [](auto& c, auto& v) {
              c.deployment.broker.compression.threshold_bytes = v.u * 1024;
            }),
      whole("deployment", "explorer_send_capacity", 0, kSizeMax,
            "explorer send buffer bound (0 = unbounded)",
            [](auto& c, auto& v) { c.deployment.explorer_send_capacity = v.u; }),
      text("deployment", "stats_csv", "statistics records, as CSV",
           [](auto& c, auto& v) { c.deployment.stats_csv_path = v.text; }),
      flag("deployment", "tracing", "record message-lifecycle spans",
           [](auto& c, auto& v) { c.deployment.obs.tracing = v.u; }),
      whole("deployment", "trace_capacity", 1, kSizeMax, "span ring size",
            [](auto& c, auto& v) { c.deployment.obs.trace_capacity = v.u; }),
      text("deployment", "chrome_trace", "Chrome trace written at end of run",
           [](auto& c, auto& v) { c.deployment.obs.chrome_trace_path = v.text; }),
      text("deployment", "prometheus_dump", "final metrics, Prometheus text",
           [](auto& c, auto& v) { c.deployment.obs.prometheus_path = v.text; }),
      real("deployment", "stats_line_every_s", kNonNegative,
           "periodic stats line, seconds (0 = off)",
           [](auto& c, auto& v) { c.deployment.obs.stats_line_every_s = v.d; }),

      // [faults]: the chaos fabric, reliable links and supervision.
      whole("faults", "seed", 0, kU64Max, "fault schedule seed",
            [](auto& c, auto& v) { c.deployment.link.faults.seed = v.u; }),
      real("faults", "drop_prob", kUnit, "per-frame drop probability",
           [](auto& c, auto& v) { c.deployment.link.faults.drop_probability = v.d; }),
      real("faults", "corrupt_prob", kUnit, "per-frame byte-flip probability",
           [](auto& c, auto& v) {
             c.deployment.link.faults.corrupt_probability = v.d;
           }),
      real("faults", "delay_prob", kUnit, "per-frame latency-spike probability",
           [](auto& c, auto& v) { c.deployment.link.faults.delay_probability = v.d; }),
      real("faults", "delay_ms", {0.0, 3'600'000.0}, "latency-spike size",
           [](auto& c, auto& v) { c.deployment.link.faults.delay_ns = v.d * 1e6; }),
      real("faults", "blackout_start_s", kNonNegative, "first outage start",
           [](auto& c, auto& v) { c.deployment.link.faults.blackout_start_s = v.d; }),
      real("faults", "blackout_duration_s", kNonNegative, "outage length",
           [](auto& c, auto& v) {
             c.deployment.link.faults.blackout_duration_s = v.d;
           }),
      real("faults", "blackout_every_s", kNonNegative, "outage period (0 = once)",
           [](auto& c, auto& v) { c.deployment.link.faults.blackout_every_s = v.d; }),
      flag("faults", "reliable", "ack/retransmit on cross-machine links",
           [](auto& c, auto& v) { c.deployment.reliability.enabled = v.u; }),
      real("faults", "retransmit_timeout_ms", kPositive, "initial retransmit timeout",
           [](auto& c, auto& v) { c.deployment.reliability.rto_ms = v.d; }),
      real("faults", "retransmit_backoff", {1.0}, "timeout multiplier per retry",
           [](auto& c, auto& v) { c.deployment.reliability.backoff = v.d; }),
      real("faults", "retransmit_max_ms", kPositive, "retransmit timeout cap",
           [](auto& c, auto& v) { c.deployment.reliability.max_rto_ms = v.d; }),
      whole("faults", "retransmit_max_retries", 0, kU32Max, "retries before giving up",
            [](auto& c, auto& v) { c.deployment.reliability.max_retries = v.u; }),
      flag("faults", "supervision", "heartbeats and worker respawn",
           [](auto& c, auto& v) { c.deployment.supervision.enabled = v.u; }),
      real("faults", "heartbeat_every_s", kPositive, "heartbeat interval",
           [](auto& c, auto& v) { c.deployment.supervision.heartbeat_every_s = v.d; }),
      real("faults", "heartbeat_timeout_s", kPositive, "silence before suspicion",
           [](auto& c, auto& v) {
             c.deployment.supervision.heartbeat_timeout_s = v.d;
           }),
      whole("faults", "max_worker_restarts", 0, kU32Max, "respawns per worker",
            [](auto& c, auto& v) {
              c.deployment.supervision.max_restarts_per_worker = v.u;
            }),
      real("faults", "suspect_grace_s", kNonNegative, "grace before killing a suspect",
           [](auto& c, auto& v) { c.deployment.supervision.suspect_grace_s = v.d; }),
      real("faults", "respawn_min_interval_s", kNonNegative, "respawn rate limit",
           [](auto& c, auto& v) {
             c.deployment.supervision.respawn_min_interval_s = v.d;
           }),
      text("faults", "checkpoint", "learner checkpoint, restored on respawn",
           [](auto& c, auto& v) { c.deployment.checkpoint_path = v.text; }),
      whole("faults", "checkpoint_every_versions", 0, kU32Max,
            "weight versions between checkpoints",
            [](auto& c, auto& v) { c.deployment.checkpoint_every_versions = v.u; }),

      // [comm]: router sharding, control-frame coalescing, overload policy.
      whole("comm", "router_shards", 1, 64, "destination-hashed router threads",
            [](auto& c, auto& v) { c.deployment.broker.router_shards = v.u; }),
      flag("comm", "coalescing", "batch small control frames per link",
           [](auto& c, auto& v) { c.deployment.coalesce.enabled = v.u; }),
      whole("comm", "coalesce_max_bytes", 1, kSizeMax, "largest coalesced body",
            [](auto& c, auto& v) { c.deployment.coalesce.max_subframe_bytes = v.u; }),
      whole("comm", "coalesce_flush_bytes", 1, kSizeMax, "flush at this many bytes",
            [](auto& c, auto& v) { c.deployment.coalesce.flush_bytes = v.u; }),
      whole("comm", "coalesce_max_subframes", 1, kSizeMax, "flush at this many frames",
            [](auto& c, auto& v) { c.deployment.coalesce.max_subframes = v.u; }),
      whole("comm", "coalesce_flush_us", 1, kI64Max, "flush at this frame age",
            [](auto& c, auto& v) { c.deployment.coalesce.flush_us = v.u; }),
      whole("comm", "overload_high_watermark", 0, 100'000'000, "comm queue bound",
            [](auto& c, auto& v) { c.deployment.overload.high_watermark = v.u; },
            "0 disables bounding"),
      whole("comm", "overload_low_watermark", 0, 100'000'000, "gated sends resume",
            [](auto& c, auto& v) { c.deployment.overload.low_watermark = v.u; },
            "0 means high/2"),
      choice("comm", "shed_policy", {"oldest", "newest"}, "what a full queue sheds",
             [](auto& c, auto& v) {
               c.deployment.overload.shed_policy = static_cast<ShedPolicy>(v.u);
             }),
      whole("comm", "weights_block_ms", 0, 60'000, "weights backpressure budget",
            [](auto& c, auto& v) { c.deployment.overload.weights_block_ms = v.u; }),
      whole("comm", "breaker_failures", 0, 1024, "link breaker trip threshold",
            [](auto& c, auto& v) { c.deployment.overload.breaker_failures = v.u; },
            "0 disables the breaker"),
      whole("comm", "breaker_probe_ms", 1, 60'000, "half-open probe interval",
            [](auto& c, auto& v) { c.deployment.overload.breaker_probe_ms = v.u; }),

      // [profile]: sampling profiler and saturation gauges.
      flag("profile", "enabled", "sampling profiler and saturation gauges",
           [](auto& c, auto& v) { c.deployment.profile.enabled = v.u; }),
      real("profile", "hz", kPositive, "scope-stack sampling frequency",
           [](auto& c, auto& v) { c.deployment.profile.hz = v.d; }),
      real("profile", "saturation_hz", kPositive, "saturation gauge refresh",
           [](auto& c, auto& v) { c.deployment.profile.saturation_hz = v.d; }),
      text("profile", "profile_json", "bottleneck report written at end of run",
           [](auto& c, auto& v) { c.deployment.profile.profile_json_path = v.text; }),

      // [codec]: weight broadcast codec and lazy broadcast.
      choice("codec", "weights", codec_names(), "weight broadcast codec",
             [](auto& c, auto& v) {
               c.deployment.weight_sync.codec = static_cast<WeightCodec>(v.u);
             },
             "weights codec"),
      real("codec", "topk_fraction", {0.0, 0.5, true}, "entries a topk frame carries",
           [](auto& c, auto& v) { c.deployment.weight_sync.topk_fraction = v.d; }),
      whole("codec", "keyframe_every", 1, 100'000, "Nth delta/topk frame is a keyframe",
            [](auto& c, auto& v) { c.deployment.weight_sync.keyframe_every = v.u; }),
      real("codec", "lazy_threshold", {0.0, 1.0, false, true},
           "relative update norm below which a publish is skipped",
           [](auto& c, auto& v) { c.deployment.weight_sync.lazy_threshold = v.d; },
           "0 disables lazy broadcast"),
      whole("codec", "max_staleness", 1, 100'000, "max consecutive lazy skips",
            [](auto& c, auto& v) { c.deployment.weight_sync.max_staleness = v.u; }),

      // [compute]: the NN kernel pool.
      {.section = "compute",
       .name = "threads",
       .kind = Kind::kThreads,
       .doc = "kernel threads: auto or -1 (hardware), 0 (serial, bit-exact), or N",
       .set = [](auto& c, auto& v) { c.deployment.compute_threads = v.i; },
       .max = 4096},
  };
  return table;
}

const Key* find_key(const std::string& section, const std::string& name) {
  for (const Key& key : key_table()) {
    if (key.section == section && key.name == name) return &key;
  }
  return nullptr;
}

bool known_section(const std::string& section) {
  for (const Key& key : key_table()) {
    if (key.section == section) return true;
  }
  return false;
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

/// Parses the whole of `s` as T: no sign for unsigned T, no whitespace, no
/// overflow (from_chars reports out-of-range instead of wrapping).
template <typename T>
bool parse_number(const std::string& s, T* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool parse_bounded(const Key& key, const std::string& s, std::uint64_t* out) {
  return parse_number(s, out) && *out >= key.min && *out <= key.max;
}

bool in_range(const Range& r, double d) {
  return std::isfinite(d) && (r.lo_open ? d > r.lo : d >= r.lo) &&
         (r.hi_open ? d < r.hi : d <= r.hi);
}

/// Parses and range-checks `s` as `key`'s kind into `out`.
bool parse_value(const Key& key, const std::string& s, Value* out) {
  switch (key.kind) {
    case Kind::kUnsigned:
      return parse_bounded(key, s, &out->u);
    case Kind::kDouble:
      return parse_number(s, &out->d) && in_range(key.range, out->d);
    case Kind::kBool:
      out->u = s == "on" || s == "true" || s == "1";
      return out->u || s == "off" || s == "false" || s == "0";
    case Kind::kEnum:
      for (out->u = 0; out->u < key.choices.size(); ++out->u) {
        if (s == key.choices[out->u]) return true;
      }
      return false;
    case Kind::kList: {
      std::stringstream ss(s);
      std::string item;
      while (std::getline(ss, item, ',')) {
        std::uint64_t element = 0;
        if (!parse_bounded(key, trim(item), &element)) return false;
        out->list.push_back(element);
      }
      return !out->list.empty();
    }
    case Kind::kString:
      out->text = s;
      return true;
    case Kind::kThreads:
      if (s == "auto") {
        out->i = -1;
        return true;
      }
      return parse_number(s, &out->i) && out->i >= -1 &&
             out->i <= static_cast<std::int64_t>(key.max);
  }
  return false;
}

std::string number_text(double d) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), d);
  return std::string(buffer, result.ptr);
}

std::string unsigned_range_text(const Key& key) {
  if (key.max == kU64Max) {
    return key.min == 0 ? "an unsigned integer" : ">=" + std::to_string(key.min);
  }
  return std::to_string(key.min) + ".." + std::to_string(key.max);
}

std::string range_text(const Range& r) {
  const std::string lo = number_text(r.lo);
  const std::string hi = number_text(r.hi);
  if (r.lo == -kInf && r.hi == kInf) return "a finite number";
  if (r.hi == kInf) return (r.lo_open ? ">" : ">=") + lo;
  if (r.lo_open) return ">" + lo + " and " + (r.hi_open ? "<" : "<=") + hi;
  return lo + ".." + hi + (r.hi_open ? " exclusive of " + hi : "");
}

/// What `key` accepts, as the error message states it.
std::string accepted_text(const Key& key) {
  switch (key.kind) {
    case Kind::kUnsigned:
      return unsigned_range_text(key);
    case Kind::kDouble:
      return range_text(key.range);
    case Kind::kBool:
      return "on or off";
    case Kind::kEnum: {
      const std::size_t n = key.choices.size();
      std::string out;
      for (std::size_t i = 0; i < n; ++i) {
        if (i > 0) out += n == 2 ? " " : ", ";
        if (i > 0 && i + 1 == n) out += "or ";
        out += key.choices[i];
      }
      return out;
    }
    case Kind::kList:
      return "a comma-separated list, each " + unsigned_range_text(key);
    case Kind::kString:
      return "any text";
    case Kind::kThreads:
      return "auto, -1, 0, or a count up to " + std::to_string(key.max);
  }
  return "";
}

/// `bad <key> (want <accepted>[; <note>])`, with the rejected text quoted for
/// enum keys, whose valid spellings are a short list.
std::string bad_value_message(const Key& key, const std::string& value) {
  std::string message = "bad " + (key.label.empty() ? key.name : key.label);
  if (key.kind == Kind::kEnum) message += " '" + value + "'";
  message += " (want " + accepted_text(key);
  if (!key.note.empty()) message += "; " + key.note;
  return message + ")";
}

/// Checks that need every key in place, so key order in the file does not
/// matter. Returns an error message, or "" when the config is consistent.
std::string cross_check(const DeploymentConfig& deployment) {
  // A low watermark without a high one gates nothing, and the hysteresis band
  // needs low < high.
  const OverloadConfig& overload = deployment.overload;
  if (overload.low_watermark > 0 && overload.high_watermark == 0) {
    return "[comm] overload_low_watermark requires overload_high_watermark";
  }
  if (overload.low_watermark > 0 && overload.low_watermark >= overload.high_watermark) {
    return "[comm] overload_low_watermark must be below overload_high_watermark";
  }
  // Machines and explorers are addressed by 16-bit ids (comm/node_id.h).
  const std::size_t machines = deployment.explorers_per_machine.size();
  if (machines > kU16Max + 1) {
    return "[deployment] explorers_per_machine lists more than 65536 machines";
  }
  if (deployment.learner_machine >= machines) {
    return "[deployment] learner_machine " +
           std::to_string(deployment.learner_machine) +
           " must be below the machine count (" + std::to_string(machines) +
           " in explorers_per_machine)";
  }
  std::uint64_t explorers = 0;  // summed wide: the int total could overflow
  for (int n : deployment.explorers_per_machine) explorers += n;
  if (explorers < 1 || explorers > kIntMax) {
    return "[deployment] explorers_per_machine must total 1.." +
           std::to_string(kIntMax);
  }
  return "";
}

bool fail(std::string* error, int line, const std::string& message) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line) + ": " + message;
  }
  return false;
}

}  // namespace

std::vector<ConfigKeyDoc> launch_config_keys() {
  std::vector<ConfigKeyDoc> keys;
  for (const Key& key : key_table()) {
    keys.push_back({key.section, key.name, key.doc});
  }
  return keys;
}

std::optional<LaunchConfig> parse_launch_config(const std::string& contents,
                                                std::string* error) {
  LaunchConfig config;
  std::string section;
  std::stringstream ss(contents);
  std::string raw_line;
  int line = 0;
  while (std::getline(ss, raw_line)) {
    ++line;
    std::string text = raw_line;
    const auto comment = text.find('#');
    if (comment != std::string::npos) text = text.substr(0, comment);
    text = trim(text);
    if (text.empty()) continue;

    if (text.front() == '[') {
      if (text.back() != ']') {
        fail(error, line, "unterminated section header");
        return std::nullopt;
      }
      section = text.substr(1, text.size() - 2);
      if (!known_section(section)) {
        fail(error, line, "unknown section [" + section + "]");
        return std::nullopt;
      }
      continue;
    }

    const auto eq = text.find('=');
    if (eq == std::string::npos) {
      fail(error, line, "expected 'key = value'");
      return std::nullopt;
    }
    const std::string name = trim(text.substr(0, eq));
    const std::string value = trim(text.substr(eq + 1));
    if (section.empty()) {
      fail(error, line, "key outside any section");
      return std::nullopt;
    }
    const Key* key = find_key(section, name);
    if (key == nullptr) {
      fail(error, line, "unknown [" + section + "] key '" + name + "'");
      return std::nullopt;
    }
    Value parsed;
    if (!parse_value(*key, value, &parsed)) {
      fail(error, line, bad_value_message(*key, value));
      return std::nullopt;
    }
    key->set(config, parsed);
  }

  const std::string inconsistent = cross_check(config.deployment);
  if (!inconsistent.empty()) {
    if (error != nullptr) *error = inconsistent;
    return std::nullopt;
  }
  // PPO's learner must know the explorer count; keep them consistent.
  config.setup.ppo.n_explorers =
      static_cast<std::size_t>(config.deployment.total_explorers());
  return config;
}

std::optional<LaunchConfig> load_launch_config(const std::string& path,
                                               std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::string contents;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(file);
  return parse_launch_config(contents, error);
}

}  // namespace xt
