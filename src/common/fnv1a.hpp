// FNV-1a 64-bit: the one checksum of the segmented HCSR v3 container
// (graph/io) and of the wire frames (shard/transport).
#pragma once

#include <cstddef>
#include <cstdint>

namespace hipa {

/// FNV-1a offset basis: the checksum of zero bytes.
inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ULL;

/// FNV-1a over `bytes` bytes at `data`, continuing from `h`, so a
/// checksum over several spans chains.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                         std::uint64_t h = kFnv1aBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace hipa
