// 64-bit FNV-1a: the one stable string hash in vdbench.
//
// FNV-1a is deliberately simple: cache keys, frame checksums and string-keyed
// Rng splits all need a hash that is identical across processes, platforms
// and standard libraries — not a cryptographic one. It lives in stats so that
// Rng can seed from it; cache re-exports it for keys and checksums.
#pragma once

#include <cstdint>
#include <string_view>

namespace vdbench::stats {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// 64-bit FNV-1a over `bytes`, continuing from `state` (chainable).
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::string_view bytes, std::uint64_t state = kFnvOffsetBasis) noexcept {
  for (const char ch : bytes) {
    state ^= static_cast<unsigned char>(ch);
    state *= kFnvPrime;
  }
  return state;
}

}  // namespace vdbench::stats
