#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "comm/message.h"

namespace xt {

/// One routed message riding inside a wire frame: its header is serialized
/// into the frame's control segment, its body travels as a shared payload
/// segment (scatter-gather — the body buffer is the same object-store
/// allocation the sender's workhorse produced, never flattened into a
/// contiguous wire buffer).
struct WireSubFrame {
  MessageHeader header;
  Payload body;
};

/// What actually crosses a simulated link: an iovec-style frame of one
/// control segment (all sub-frame headers, encoded) plus one body segment
/// per sub-frame. A single-message frame is the degenerate case; the frame
/// coalescer batches many small control messages into one.
///
/// Integrity and retransmission operate at this granularity: `crc` covers
/// control + every body segment in order, and the reliable link's `link_seq`
/// numbers frames, not sub-frames.
struct WireFrame {
  Bytes control;                ///< encoded sub-frame headers
  std::vector<Payload> bodies;  ///< one shared segment per sub-frame
  std::uint32_t crc = 0;        ///< chained CRC-32 over control then bodies
  bool crc_present = false;
  std::uint64_t link_seq = 0;   ///< reliable-link frame sequence (0 = none)
  std::uint64_t trace_id = 0;   ///< first sub-frame's trace id (0 = untraced)
  /// Highest-priority sub-frame class (lowest enum value): what the paced
  /// pipe and circuit breaker arbitrate on. A frame carrying one heartbeat
  /// among rollouts is control — shedding it would starve supervision.
  TrafficClass tclass = TrafficClass::kExperience;

  [[nodiscard]] std::size_t subframes() const { return bodies.size(); }

  /// Bytes on the wire: control segment + every body segment.
  [[nodiscard]] std::size_t wire_size() const {
    std::size_t total = control.size();
    for (const Payload& body : bodies) {
      if (body) total += body->size();
    }
    return total;
  }
};

/// Serialize sub-frame headers into a control segment and adopt the bodies
/// as shared segments (no body bytes are copied). With `with_crc` the frame
/// is stamped with the chained CRC over all segments.
[[nodiscard]] WireFrame encode_wire_frame(std::vector<WireSubFrame> subframes,
                                          bool with_crc);

/// Chained CRC-32 over the frame's segments (control, then each body in
/// order), equivalent to the CRC of their concatenation without ever
/// materializing it.
[[nodiscard]] std::uint32_t wire_frame_crc(const WireFrame& frame);

/// Parse a frame back into sub-frames. Returns nullopt when the frame fails
/// its CRC (if present) or the control segment is malformed / inconsistent
/// with the body segments — the caller must reject every sub-frame, exactly
/// like a corrupted single-message frame. Bodies are the frame's shared
/// segments (zero copy).
[[nodiscard]] std::optional<std::vector<WireSubFrame>> decode_wire_frame(
    const WireFrame& frame);

}  // namespace xt
