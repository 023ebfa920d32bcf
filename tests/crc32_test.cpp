/// \file crc32_test.cpp
/// \brief store::Crc32 (slice-by-8) against a bytewise reference kept here:
/// the known answer, every short length at every start offset, a captured
/// data-level screen, and chaining across split points.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "datasets/scaled_music.h"
#include "input/event.h"
#include "store/crc32.h"
#include "ui/controller.h"

namespace isis::store {
namespace {

/// The textbook one-bit-at-a-time CRC-32 (reflected, polynomial
/// 0xEDB88320): what every checksum on disk and on the wire was computed
/// with before slice-by-8.
std::uint32_t ReferenceCrc32(std::string_view data, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::string RandomBytes(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Below(256));
  return out;
}

/// The screen a server session sends after following `plays` from one
/// musician on a scale-4 database: a full data-level page stack, the size
/// of a gesture reply.
std::string CapturedScreen() {
  ui::SessionController session(datasets::BuildScaledMusic(4));
  for (const char* line :
       {"pick class:musicians", "cmd view contents", "pick member:musician3",
        "cmd follow", "pick attr:plays"}) {
    Result<input::Event> ev = input::DecodeEvent(line);
    EXPECT_TRUE(ev.ok()) << line;
    EXPECT_TRUE(session.HandleEvent(*ev).ok()) << line;
  }
  return session.Render().canvas.ToString();
}

TEST(Crc32Test, KnownAnswer) {
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32Hex(Crc32("123456789")), "cbf43926");
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  const std::string buf = RandomBytes(17, 64 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string_view s(buf.data() + offset, len);
      EXPECT_EQ(Crc32(s), ReferenceCrc32(s))
          << "offset " << offset << " length " << len;
      EXPECT_EQ(Crc32(s, 0x12345678u), ReferenceCrc32(s, 0x12345678u))
          << "seeded, offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceOnACapturedScreen) {
  const std::string screen = CapturedScreen();
  ASSERT_GT(screen.size(), 5000u);
  EXPECT_EQ(Crc32(screen), ReferenceCrc32(screen));
}

TEST(Crc32Test, ChainsAcrossSplitPoints) {
  const std::string screen = CapturedScreen();
  const std::string bytes = RandomBytes(29, 40);
  for (const std::string* data : {&bytes, &screen}) {
    const std::uint32_t whole = Crc32(*data);
    // Split points on both sides of the first two 8-byte boundaries, and
    // near the end (a short tail after a run of whole words).
    for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{15},
                              std::size_t{16}, std::size_t{17},
                              data->size() - 9, data->size() - 8,
                              data->size() - 7, data->size()}) {
      const std::string_view s(*data);
      EXPECT_EQ(Crc32(s.substr(split), Crc32(s.substr(0, split))), whole)
          << "split at " << split << " of " << data->size();
    }
  }
}

}  // namespace
}  // namespace isis::store
