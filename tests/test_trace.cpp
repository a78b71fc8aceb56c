#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <chrono>

#include "comm/broker.h"
#include "comm/endpoint.h"
#include "comm/message.h"
#include "framework/runtime.h"
#include "obs/exporters.h"

namespace xt {
namespace {

// ---------------------------------------------------------------------------
// A deliberately small JSON well-formedness checker (values are not
// interpreted, only the grammar is validated). Enough to prove the Chrome
// trace export is loadable.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TraceSpan make_span(const char* name, std::uint64_t trace_id) {
  TraceSpan span;
  span.name = name;
  span.category = "comm";
  span.trace_id = trace_id;
  span.start_ns = 1000;
  span.dur_ns = 500;
  span.pid = 0;
  return span;
}

TEST(TraceCollector, DisabledRecordsNothing) {
  TraceCollector collector(16);
  EXPECT_FALSE(collector.enabled());
  collector.record(make_span("msg.recv", 1));
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(collector.total_recorded(), 0u);
}

TEST(TraceCollector, RingOverwritesOldestWhenFull) {
  TraceCollector collector(4);
  collector.enable();
  for (std::uint64_t i = 1; i <= 10; ++i) {
    collector.record(make_span("store.put", i));
  }
  EXPECT_EQ(collector.size(), 4u);
  EXPECT_EQ(collector.total_recorded(), 10u);
  const auto spans = collector.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first: ids 7, 8, 9, 10 survive.
  EXPECT_EQ(spans.front().trace_id, 7u);
  EXPECT_EQ(spans.back().trace_id, 10u);
}

TEST(TraceScope, NullCollectorIsSafe) {
  TraceScope scope(nullptr, "msg.recv", "comm", 1, 0);
  scope.set_bytes(100);
  scope.finish();  // no-op, no crash
}

TEST(TraceScope, RecordsOnceOnFinishAndDestruction) {
  TraceCollector collector(16);
  collector.enable();
  {
    TraceScope scope(&collector, "router.route", "comm", 9, 2, 123);
    scope.finish();
    scope.finish();  // idempotent
  }                  // destructor must not double-record
  EXPECT_EQ(collector.total_recorded(), 1u);
  const auto spans = collector.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "router.route");
  EXPECT_EQ(spans[0].trace_id, 9u);
  EXPECT_EQ(spans[0].pid, 2u);
  EXPECT_EQ(spans[0].bytes, 123u);
  EXPECT_GE(spans[0].dur_ns, 0);
}

TEST(MessageHeader, TracingAddsNoHeaderBytes) {
  // trace_id is aliased to msg_id: enabling the telemetry layer must not
  // grow the struct copied once per destination. (The budget covers the
  // wire-protocol fields — the weight codec_id/base_tag pair — which
  // telemetry must not push past.)
  EXPECT_LE(sizeof(MessageHeader), 120u);
  MessageHeader header;
  header.msg_id = 77;
  EXPECT_EQ(header.trace_id(), 77u);
}

// ---------------------------------------------------------------------------
// End-to-end: a two-machine run with tracing enabled must record every hop
// of the message lifecycle, stitched by one trace id, and export well-formed
// Chrome JSON.

AlgoSetup tiny_impala_setup() {
  AlgoSetup setup;
  setup.kind = AlgoKind::kImpala;
  setup.env_name = "CartPole";
  setup.seed = 1;
  setup.impala.hidden = {16};
  setup.impala.fragment_len = 50;
  return setup;
}

TEST(RuntimeTracing, TwoMachineRunCoversEveryLifecycleHop) {
  DeploymentConfig deployment;
  // Learner + controller on machine 0, explorers on machine 1: every rollout
  // crosses the simulated NIC, so the remote hops are exercised too.
  deployment.explorers_per_machine = {0, 2};
  deployment.learner_machine = 0;
  deployment.max_steps_consumed = 1'000;
  deployment.max_seconds = 30.0;
  deployment.obs.tracing = true;

  XingTianRuntime runtime(tiny_impala_setup(), deployment);
  const RunReport report = runtime.run();
  EXPECT_GE(report.steps_consumed, 1'000u);
  EXPECT_GT(report.mean_rollout_ms, 0.0);
  EXPECT_FALSE(report.prometheus.empty());
  EXPECT_NE(report.prometheus.find("xt_broker_routed_total"), std::string::npos);
  EXPECT_NE(report.prometheus.find("xt_pipe_wire_bytes_total"), std::string::npos);

  const std::vector<TraceSpan> spans = runtime.trace().snapshot();
  ASSERT_FALSE(spans.empty());

  // Group span names by trace id; at least one message must have completed
  // the full cross-machine lifecycle.
  std::map<std::uint64_t, std::set<std::string>> by_id;
  for (const TraceSpan& span : spans) {
    if (span.trace_id != 0) by_id[span.trace_id].insert(span.name);
  }
  const std::vector<std::string> lifecycle = {
      "msg.serialize", "store.put",    "router.route", "pipe.transmit",
      "broker.rehost", "queue.wait",   "msg.recv"};
  bool complete = false;
  for (const auto& [id, names] : by_id) {
    complete = std::all_of(lifecycle.begin(), lifecycle.end(),
                           [&names](const std::string& hop) {
                             return names.count(hop) > 0;
                           });
    if (complete) break;
  }
  EXPECT_TRUE(complete)
      << "no trace id covered all lifecycle hops across the two machines";

  // The Chrome export of those spans must be valid JSON.
  std::ostringstream os;
  write_chrome_trace(runtime.trace(), os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << "malformed chrome trace JSON";
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("machine-1"), std::string::npos);
  EXPECT_NE(json.find("pipe.transmit"), std::string::npos);
}

TEST(RuntimeTracing, DisabledByDefaultRecordsNoSpans) {
  DeploymentConfig deployment;
  deployment.explorers_per_machine = {2};
  deployment.max_steps_consumed = 500;
  deployment.max_seconds = 30.0;

  XingTianRuntime runtime(tiny_impala_setup(), deployment);
  const RunReport report = runtime.run();
  EXPECT_GE(report.steps_consumed, 500u);
  EXPECT_EQ(runtime.trace().total_recorded(), 0u);
  // Metrics still flow when tracing is off.
  EXPECT_NE(report.prometheus.find("xt_messages_sent_total"), std::string::npos);
}

TEST(RuntimeTracing, ReadyPayloadLocalPathIsZeroCopyWithNoSerializeSpan) {
  // The scatter-gather contract end to end: a message sent with a ready
  // Payload (as opposed to a deferred producer) must reach a local receiver
  // as the *same* buffer — no serialize hop, no copy — and its traced
  // lifecycle must therefore contain no msg.serialize span.
  TraceCollector trace(1024);
  trace.enable();
  Broker::Options options;
  options.trace = &trace;
  Broker broker(0, options);
  Endpoint sender(explorer_id(0, 0), broker);
  Endpoint receiver(learner_id(0), broker);

  const Payload body = make_payload(Bytes(256, 8));
  Outbound out = make_outbound(sender.id(), {receiver.id()}, MsgType::kRollout,
                               body);
  const std::uint64_t trace_id = out.header.trace_id();
  ASSERT_TRUE(sender.send(std::move(out)));
  const auto msg = receiver.receive_for(std::chrono::seconds(5));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->body.get(), body.get());  // the buffer, not a copy

  bool saw_recv = false;
  for (const TraceSpan& span : trace.snapshot()) {
    if (span.trace_id != trace_id) continue;
    EXPECT_NE(span.name, "msg.serialize")
        << "ready-Payload send must not pay a serialize hop";
    if (span.name == "msg.recv") saw_recv = true;
  }
  EXPECT_TRUE(saw_recv) << "lifecycle was not traced at all";
}

}  // namespace
}  // namespace xt
