/// \file crc32.h
/// \brief CRC-32 (IEEE 802.3, polynomial 0xEDB88320) for the durable store.
///
/// Every persistent record — checkpoint lines and WAL frames — carries a
/// CRC so a torn or bit-flipped write is detected at load time with a
/// precise record-level error instead of a downstream parse mystery.
///
/// Computed slice-by-8 (eight table lookups per 8-byte word, words
/// assembled byte by byte so the host's byte order does not matter). The
/// values are those of the classic bytewise algorithm, so checkpoints, WAL
/// frames and wire frames written by either read back under the other.

#ifndef ISIS_STORE_CRC32_H_
#define ISIS_STORE_CRC32_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace isis::store {

/// CRC-32 of `data`. `seed` chains checksums across buffers:
/// `Crc32(b, Crc32(a))  ==  Crc32(a + b)`.
std::uint32_t Crc32(std::string_view data, std::uint32_t seed = 0);

/// Fixed-width lowercase hex form, e.g. "00c0ffee".
std::string Crc32Hex(std::uint32_t crc);

/// Parses the 8-hex-digit form; returns false on any other input.
bool ParseCrc32Hex(std::string_view text, std::uint32_t* out);

}  // namespace isis::store

#endif  // ISIS_STORE_CRC32_H_
