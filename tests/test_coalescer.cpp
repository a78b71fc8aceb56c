#include "netsim/frame_coalescer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "comm/broker.h"
#include "comm/endpoint.h"
#include "netsim/fabric.h"
#include "serial/wire_format.h"

namespace xt {
namespace {

Payload bytes_payload(std::size_t n, std::uint8_t fill) {
  return make_payload(Bytes(n, fill));
}

MessageHeader control_header(MsgType type, std::uint16_t src_machine,
                             NodeId dst, const Payload& body,
                             std::uint32_t tag = 0) {
  MessageHeader header;
  header.msg_id = next_message_id();
  header.src = explorer_id(src_machine, 0);
  header.dsts = {dst};
  header.type = type;
  header.tclass = traffic_class_of(type);
  header.body_size = body ? body->size() : 0;
  header.created_ns = 123;
  header.tag = tag;
  return header;
}

TEST(WireFrame, RoundTripSharesBodySegments) {
  const Payload stats_body = bytes_payload(64, 7);
  const Payload empty_body = empty_payload();
  MessageHeader stats =
      control_header(MsgType::kStats, 0, controller_id(1), stats_body, 9);
  MessageHeader beat =
      control_header(MsgType::kHeartbeat, 0, controller_id(1), empty_body);
  WireFrame frame = encode_wire_frame(
      {WireSubFrame{stats, stats_body}, WireSubFrame{beat, empty_body}},
      /*with_crc=*/true);
  EXPECT_TRUE(frame.crc_present);
  EXPECT_EQ(frame.subframes(), 2u);
  EXPECT_EQ(frame.wire_size(), frame.control.size() + 64);
  frame.link_seq = 42;

  const auto decoded = decode_wire_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 2u);
  const MessageHeader& d0 = (*decoded)[0].header;
  EXPECT_EQ(d0.msg_id, stats.msg_id);
  EXPECT_EQ(d0.src, stats.src);
  ASSERT_EQ(d0.dsts.size(), 1u);
  EXPECT_EQ(d0.dsts[0], controller_id(1));
  EXPECT_EQ(d0.type, MsgType::kStats);
  EXPECT_EQ(d0.body_size, 64u);
  EXPECT_EQ(d0.tag, 9u);
  EXPECT_EQ(d0.created_ns, 123);
  // Scatter-gather: the decoded body IS the encoded segment — the same
  // buffer the sender's object store held, never copied onto the wire.
  EXPECT_EQ((*decoded)[0].body.get(), stats_body.get());
  EXPECT_EQ((*decoded)[1].header.type, MsgType::kHeartbeat);
  EXPECT_EQ((*decoded)[1].header.body_size, 0u);
}

TEST(WireFrame, ChainedCrcCoversControlAndEveryBody) {
  const Payload body_a = bytes_payload(32, 1);
  const Payload body_b = bytes_payload(32, 2);
  const WireFrame frame = encode_wire_frame(
      {WireSubFrame{control_header(MsgType::kStats, 0, controller_id(1), body_a),
                    body_a},
       WireSubFrame{control_header(MsgType::kStats, 0, controller_id(1), body_b),
                    body_b}},
      /*with_crc=*/true);
  ASSERT_TRUE(decode_wire_frame(frame).has_value());

  // A flip in the control segment fails the whole frame.
  WireFrame control_hit = frame;
  control_hit.control[3] ^= 0x10;
  EXPECT_FALSE(decode_wire_frame(control_hit).has_value());

  // A flip in the *second* body segment fails the whole frame too (the CRC
  // chains across every segment, not just the first).
  FaultOutcome outcome;
  outcome.corrupt = true;
  outcome.corrupt_offset = frame.control.size() + 32 + 5;
  outcome.corrupt_mask = 0x40;
  const WireFrame body_hit = apply_corruption(frame, outcome);
  EXPECT_FALSE(decode_wire_frame(body_hit).has_value());
  // Copy-on-corrupt: only the hit segment was replaced; the original frame
  // and the untouched segment still share their buffers.
  EXPECT_EQ(body_hit.bodies[0].get(), frame.bodies[0].get());
  EXPECT_NE(body_hit.bodies[1].get(), frame.bodies[1].get());
  EXPECT_TRUE(decode_wire_frame(frame).has_value());
}

TEST(FrameCoalescer, FlushesOnSubframeCount) {
  CoalesceConfig config;
  config.enabled = true;
  config.max_subframes = 4;
  config.flush_us = 10'000'000;  // effectively never: count must trigger
  std::mutex mu;
  std::vector<WireFrame> frames;
  FrameCoalescer coalescer("test", config, [&](WireFrame frame) {
    std::scoped_lock lock(mu);
    frames.push_back(std::move(frame));
  });
  const Payload body = bytes_payload(16, 3);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(coalescer.offer(
        control_header(MsgType::kHeartbeat, 0, controller_id(1), body), body));
  }
  {
    std::scoped_lock lock(mu);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].subframes(), 4u);
  }
  EXPECT_EQ(coalescer.coalesced_subframes(), 4u);

  // Bulk traffic and oversized bodies bypass the batcher.
  const Payload big = bytes_payload(config.max_subframe_bytes + 1, 1);
  EXPECT_FALSE(coalescer.offer(
      control_header(MsgType::kRollout, 0, controller_id(1), body), body));
  EXPECT_FALSE(coalescer.offer(
      control_header(MsgType::kStats, 0, controller_id(1), big), big));
  coalescer.stop();
}

TEST(FrameCoalescer, FlushesOnByteBudget) {
  CoalesceConfig config;
  config.enabled = true;
  config.max_subframes = 100;
  config.flush_bytes = 600;  // two 256-byte bodies + control estimates trip it
  config.flush_us = 10'000'000;
  std::mutex mu;
  std::vector<WireFrame> frames;
  FrameCoalescer coalescer("test", config, [&](WireFrame frame) {
    std::scoped_lock lock(mu);
    frames.push_back(std::move(frame));
  });
  const Payload body = bytes_payload(256, 5);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(coalescer.offer(
        control_header(MsgType::kStats, 0, controller_id(1), body), body));
  }
  std::scoped_lock lock(mu);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].subframes(), 2u);
}

TEST(FrameCoalescer, FlushesOnDeadline) {
  CoalesceConfig config;
  config.enabled = true;
  config.max_subframes = 100;
  config.flush_us = 20'000;  // 20 ms
  std::mutex mu;
  std::vector<WireFrame> frames;
  FrameCoalescer coalescer("test", config, [&](WireFrame frame) {
    std::scoped_lock lock(mu);
    frames.push_back(std::move(frame));
  });
  const Payload body = bytes_payload(8, 6);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(coalescer.offer(
        control_header(MsgType::kHeartbeat, 0, controller_id(1), body), body));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::scoped_lock lock(mu);
      if (!frames.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::scoped_lock lock(mu);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].subframes(), 2u);
}

TEST(FrameCoalescer, CoalescedControlMessagesDeliverInOrder) {
  Broker a(0);
  Broker b(1);
  CoalesceConfig config;
  config.enabled = true;
  config.max_subframes = 4;
  config.flush_us = 1'000'000;  // only the count threshold flushes
  Fabric fabric(LinkConfig{}, ReliabilityConfig{}, config);
  fabric.connect(a, b);
  Endpoint sender(explorer_id(0, 0), a);
  Endpoint receiver(controller_id(1), b);
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                          MsgType::kHeartbeat,
                                          bytes_payload(16, 1), /*tag=*/i)));
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto msg = receiver.receive_for(std::chrono::seconds(10));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->header.tag, i);
  }
  // 8 sequential offers at a 4-sub-frame cap = two coalesced frames.
  EXPECT_EQ(fabric.coalesced_subframes(), 8u);
  sender.stop();
  receiver.stop();
  fabric.stop();
  a.stop();
  b.stop();
}

TEST(FrameCoalescer, CorruptWireFrameRejectsAllSubframesExactlyOnce) {
  Broker a(0);
  Broker b(1);
  LinkConfig link;
  link.faults.seed = 7;
  link.faults.corrupt_probability = 1.0;  // every frame takes a byte flip
  CoalesceConfig config;
  config.enabled = true;
  config.max_subframes = 3;
  config.flush_us = 1'000'000;
  Fabric fabric(link, ReliabilityConfig{}, config);
  fabric.connect(a, b);
  Endpoint sender(explorer_id(0, 0), a);
  Endpoint receiver(controller_id(1), b);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                          MsgType::kHeartbeat,
                                          bytes_payload(16, 2), /*tag=*/i)));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (b.corrupted_frames() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // One corrupted wire frame, one CRC drop per sub-frame it carried, and
  // none of its messages delivered.
  EXPECT_EQ(b.corrupted_frames(), 1u);
  EXPECT_EQ(b.dropped_messages(DropReason::kCrcFail), 3u);
  EXPECT_FALSE(receiver.receive_for(std::chrono::milliseconds(100)).has_value());
  sender.stop();
  receiver.stop();
  fabric.stop();
  a.stop();
  b.stop();
}

TEST(FrameCoalescer, ReliableCoalescedLinkDeliversEverythingOnce) {
  Broker a(0);
  Broker b(1);
  LinkConfig link;
  link.faults.seed = 13;
  link.faults.drop_probability = 0.25;
  ReliabilityConfig reliability;
  reliability.enabled = true;
  reliability.rto_ms = 10.0;
  CoalesceConfig config;
  config.enabled = true;
  config.max_subframes = 4;
  config.flush_us = 2'000;
  Fabric fabric(link, reliability, config);
  fabric.connect(a, b);
  Endpoint sender(explorer_id(0, 0), a);
  Endpoint receiver(controller_id(1), b);
  constexpr std::uint32_t kMessages = 40;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                          MsgType::kHeartbeat,
                                          bytes_payload(16, 4), /*tag=*/i)));
  }
  std::vector<std::uint32_t> tags;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    const auto msg = receiver.receive_for(std::chrono::seconds(20));
    ASSERT_TRUE(msg.has_value());
    tags.push_back(msg->header.tag);
  }
  // Retransmits may reorder across frames but every message arrives exactly
  // once (dedup is per wire frame, which carries all its sub-frames or none).
  std::sort(tags.begin(), tags.end());
  for (std::uint32_t i = 0; i < kMessages; ++i) EXPECT_EQ(tags[i], i);
  sender.stop();
  receiver.stop();
  fabric.stop();
  a.stop();
  b.stop();
}

}  // namespace
}  // namespace xt
