#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace xt {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte span.
/// Used as the wire-integrity check on cross-machine frames: the sending
/// link stamps a chained CRC over the frame's segments (wire_frame_crc) and
/// the receiving broker's deliver_frame recomputes it, so injected
/// corruption is detected and the frame dropped instead of poisoning a
/// workhorse.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                                  std::uint32_t seed = 0);

[[nodiscard]] inline std::uint32_t crc32(const Bytes& bytes) {
  return crc32(bytes.data(), bytes.size());
}

}  // namespace xt
