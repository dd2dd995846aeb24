// FNV-1a 64, the one content hash of the campaign and service layers.
//
// Program identity (program_content_key), the retry-jitter seed and every
// service warm-cache key chain these two functions field by field.
#pragma once

#include <cstdint>
#include <string_view>

namespace vpdift::campaign {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV-1a 64 over `bytes`, continuing from `seed` — chain calls to hash a
/// composite key field by field.
constexpr std::uint64_t fnv1a64(std::string_view bytes,
                                std::uint64_t seed = kFnvOffset) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Mixes a 64-bit value into a running hash (little-endian byte order).
constexpr std::uint64_t fnv1a64_u64(std::uint64_t v, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace vpdift::campaign
