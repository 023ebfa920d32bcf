/// \file endian.h
/// \brief Little-endian word loads that do not depend on the host's byte
/// order.
///
/// The wire protocol stores its integers little-endian, and the
/// word-at-a-time byte passes (store::Crc32, Escape) find a byte by its bit
/// position in a little-endian word. Assembling each word from single
/// bytes keeps all of them right on any host; compilers merge the unrolled
/// form into a single load where the host is little-endian.

#ifndef ISIS_COMMON_ENDIAN_H_
#define ISIS_COMMON_ENDIAN_H_

#include <cstdint>

namespace isis {

/// Bytes p[0..3] as a little-endian word: byte k is bits [8k, 8k+8).
inline std::uint32_t LoadLe32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

/// Bytes p[0..7] as a little-endian word: byte k is bits [8k, 8k+8).
inline std::uint64_t LoadLe64(const char* p) {
  return static_cast<std::uint64_t>(LoadLe32(p)) |
         (static_cast<std::uint64_t>(LoadLe32(p + 4)) << 32);
}

}  // namespace isis

#endif  // ISIS_COMMON_ENDIAN_H_
