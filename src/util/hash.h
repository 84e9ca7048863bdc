// Stable 64-bit hashing (FNV-1a) for fingerprints that must be reproducible
// across processes and runs: std::hash is implementation-defined and symbol
// interning ids depend on interning order, so fingerprints are always built
// from canonical byte sequences (digits, symbol text, separators).
#ifndef RELCOMP_UTIL_HASH_H_
#define RELCOMP_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace relcomp {

/// Incremental FNV-1a hasher. Feed canonical bytes, then read digest().
class StableHasher {
 public:
  StableHasher() = default;
  /// Starts from a caller-chosen seed mixed into the FNV basis, so two
  /// hashers over the same bytes yield independent-looking digests (used
  /// for wide cache keys).
  explicit StableHasher(uint64_t seed) { Mix(seed); }

  /// Mixes raw bytes.
  StableHasher& Mix(const void* data, size_t len);
  /// Mixes the characters of `s` plus a terminator (so "ab","c" != "a","bc").
  StableHasher& Mix(std::string_view s);
  /// Mixes a little-endian 64-bit word.
  StableHasher& Mix(uint64_t v);

  uint64_t digest() const { return state_; }

 private:
  static constexpr uint64_t kOffsetBasis = 14695981039346656037ULL;
  static constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t state_ = kOffsetBasis;
};

}  // namespace relcomp

#endif  // RELCOMP_UTIL_HASH_H_
