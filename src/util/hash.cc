#include "util/hash.h"

namespace relcomp {

StableHasher& StableHasher::Mix(const void* data, size_t len) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    state_ ^= bytes[i];
    state_ *= kPrime;
  }
  return *this;
}

StableHasher& StableHasher::Mix(std::string_view s) {
  Mix(s.data(), s.size());
  // Terminator byte keeps concatenated strings from colliding.
  unsigned char terminator = 0xff;
  return Mix(&terminator, 1);
}

StableHasher& StableHasher::Mix(uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  return Mix(bytes, 8);
}

}  // namespace relcomp
