// Stable content hashing for cache keys and payload checksums.
//
// The hash is stats::fnv1a64 (see stats/fnv.h for why FNV-1a). Keys
// additionally length-prefix every field so that ("ab","c") and ("a","bc")
// can never collide by concatenation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "stats/fnv.h"

namespace vdbench::cache {

using stats::fnv1a64;
using stats::kFnvOffsetBasis;
using stats::kFnvPrime;

/// Fixed-width lowercase hex rendering (16 chars) of a 64-bit digest.
[[nodiscard]] std::string to_hex64(std::uint64_t value);

/// Parse to_hex64 output back; returns false on malformed input.
[[nodiscard]] bool from_hex64(std::string_view text, std::uint64_t& out);

}  // namespace vdbench::cache
