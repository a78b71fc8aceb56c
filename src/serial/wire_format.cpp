#include "serial/wire_format.h"

#include <utility>

#include "common/crc32.h"
#include "serial/binio.h"

namespace xt {
namespace {

/// Control-segment layout version; bumped whenever the encoding changes so a
/// mixed-version simulation fails loudly instead of misparsing.
/// v2: per-sub-frame traffic-class byte (overload arbitration, DESIGN.md §10).
/// v3: weight-codec id + base-version per sub-frame (DESIGN.md §11).
constexpr std::uint8_t kWireFormatVersion = 3;

void encode_node(BinWriter& writer, const NodeId& id) {
  writer.u16(id.machine);
  writer.u8(static_cast<std::uint8_t>(id.kind));
  writer.u16(id.index);
}

std::optional<NodeId> decode_node(BinReader& reader) {
  const auto machine = reader.u16();
  const auto kind = reader.u8();
  const auto index = reader.u16();
  if (!machine || !kind || !index) return std::nullopt;
  if (*kind > static_cast<std::uint8_t>(NodeKind::kBroker)) return std::nullopt;
  return NodeId{*machine, static_cast<NodeKind>(*kind), *index};
}

}  // namespace

WireFrame encode_wire_frame(std::vector<WireSubFrame> subframes,
                            bool with_crc) {
  WireFrame frame;
  BinWriter writer;
  writer.u8(kWireFormatVersion);
  writer.u32(static_cast<std::uint32_t>(subframes.size()));
  frame.bodies.reserve(subframes.size());
  for (WireSubFrame& sub : subframes) {
    const MessageHeader& header = sub.header;
    writer.u64(header.msg_id);
    encode_node(writer, header.src);
    writer.u32(static_cast<std::uint32_t>(header.dsts.size()));
    for (const NodeId& dst : header.dsts) encode_node(writer, dst);
    writer.u8(static_cast<std::uint8_t>(header.type));
    writer.u8(static_cast<std::uint8_t>(header.tclass));
    if (header.tclass < frame.tclass) frame.tclass = header.tclass;
    writer.boolean(header.compressed);
    writer.u64(sub.body ? sub.body->size() : 0);
    writer.u64(header.uncompressed_size);
    writer.i64(header.created_ns);
    writer.u32(header.tag);
    writer.u8(header.codec_id);
    writer.u32(header.base_tag);
    if (frame.trace_id == 0) frame.trace_id = header.trace_id();
    frame.bodies.push_back(sub.body ? std::move(sub.body) : empty_payload());
  }
  frame.control = writer.take();
  if (with_crc) {
    frame.crc_present = true;
    frame.crc = wire_frame_crc(frame);
  }
  return frame;
}

std::uint32_t wire_frame_crc(const WireFrame& frame) {
  std::uint32_t crc = crc32(frame.control.data(), frame.control.size());
  for (const Payload& body : frame.bodies) {
    if (body && !body->empty()) crc = crc32(body->data(), body->size(), crc);
  }
  return crc;
}

std::optional<std::vector<WireSubFrame>> decode_wire_frame(
    const WireFrame& frame) {
  if (frame.crc_present && wire_frame_crc(frame) != frame.crc) {
    return std::nullopt;
  }
  BinReader reader(frame.control);
  const auto version = reader.u8();
  if (!version || *version != kWireFormatVersion) return std::nullopt;
  const auto count = reader.u32();
  if (!count || *count != frame.bodies.size()) return std::nullopt;

  std::vector<WireSubFrame> subframes;
  subframes.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    WireSubFrame sub;
    MessageHeader& header = sub.header;
    const auto msg_id = reader.u64();
    if (!msg_id) return std::nullopt;
    header.msg_id = *msg_id;
    const auto src = decode_node(reader);
    if (!src) return std::nullopt;
    header.src = *src;
    const auto n_dsts = reader.u32();
    if (!n_dsts) return std::nullopt;
    // Each encoded destination is 5 bytes; reject counts the segment cannot
    // possibly hold instead of looping on a corrupted length field.
    if (*n_dsts > reader.remaining() / 5) return std::nullopt;
    header.dsts.reserve(*n_dsts);
    for (std::uint32_t d = 0; d < *n_dsts; ++d) {
      const auto dst = decode_node(reader);
      if (!dst) return std::nullopt;
      header.dsts.push_back(*dst);
    }
    const auto type = reader.u8();
    if (!type || *type > static_cast<std::uint8_t>(MsgType::kWeightsReq)) {
      return std::nullopt;
    }
    header.type = static_cast<MsgType>(*type);
    const auto tclass = reader.u8();
    if (!tclass || *tclass >= kTrafficClassCount) return std::nullopt;
    header.tclass = static_cast<TrafficClass>(*tclass);
    const auto compressed = reader.boolean();
    const auto body_size = reader.u64();
    const auto uncompressed = reader.u64();
    const auto created = reader.i64();
    const auto tag = reader.u32();
    const auto codec_id = reader.u8();
    const auto base_tag = reader.u32();
    if (!compressed || !body_size || !uncompressed || !created || !tag ||
        !codec_id || !base_tag) {
      return std::nullopt;
    }
    header.compressed = *compressed;
    header.body_size = *body_size;
    header.uncompressed_size = *uncompressed;
    header.created_ns = *created;
    header.tag = *tag;
    header.codec_id = *codec_id;
    header.base_tag = *base_tag;
    sub.body = frame.bodies[i];
    const std::size_t actual = sub.body ? sub.body->size() : 0;
    if (actual != *body_size) return std::nullopt;
    subframes.push_back(std::move(sub));
  }
  if (!reader.exhausted()) return std::nullopt;
  return subframes;
}

}  // namespace xt
