#include "common/strings.h"

#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdio>

#include "common/endian.h"

namespace isis {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool IsValidName(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (c == '|' || c == '`' || c == '\n' || c == '\r') return false;
    if (!std::isprint(static_cast<unsigned char>(c))) return false;
  }
  // Names surrounded by whitespace are disallowed; interior spaces are fine
  // ("New York Philharmonic" is a legal entity name).
  return !std::isspace(static_cast<unsigned char>(name.front())) &&
         !std::isspace(static_cast<unsigned char>(name.back()));
}

namespace {

constexpr std::uint64_t kLowBits = 0x0101010101010101ull;
constexpr std::uint64_t kHighBits = 0x8080808080808080ull;

/// The high bit of each byte of `w` that equals `b`, plus possibly some
/// bytes above the lowest such byte (the borrow of the zero-byte test
/// (x - 0x01..) & ~x & 0x80.. runs upward). The lowest set bit is exact,
/// and the mask is zero iff no byte equals `b`. With `w` loaded by
/// LoadLe64, the lowest set bit is in the first matching byte.
constexpr std::uint64_t ByteMatches(std::uint64_t w, unsigned char b) {
  const std::uint64_t x = w ^ (kLowBits * b);
  return (x - kLowBits) & ~x & kHighBits;
}

/// The character after the backslash that escapes `c`, or 0 when `c`
/// stands for itself.
char EscapeCode(char c) {
  switch (c) {
    case '\\':
      return '\\';
    case '\n':
      return 'n';
    case '|':
      return 'p';
    default:
      return 0;
  }
}

}  // namespace

std::string Escape(std::string_view s) {
  std::string out;
  // Room for a few escapes (a rendered screen has one every ~28 bytes), so
  // a typical input is escaped without reallocating.
  out.reserve(s.size() + s.size() / 8);
  // Bytes [run, i) need no escape and are appended in one piece at the
  // next escape or at the end. Eight bytes at a time, the word test jumps
  // straight to the first byte that needs one.
  std::size_t run = 0;
  std::size_t i = 0;
  auto emit = [&](char code) {
    out.append(s.data() + run, i - run);
    out += '\\';
    out += code;
    run = i + 1;
  };
  while (s.size() - i >= 8) {
    const std::uint64_t w = LoadLe64(s.data() + i);
    const std::uint64_t m =
        ByteMatches(w, '\\') | ByteMatches(w, '\n') | ByteMatches(w, '|');
    if (m == 0) {
      i += 8;
      continue;
    }
    i += static_cast<std::size_t>(std::countr_zero(m)) / 8;
    emit(EscapeCode(s[i]));
    ++i;
  }
  for (; i < s.size(); ++i) {
    const char code = EscapeCode(s[i]);
    if (code != 0) emit(code);
  }
  out.append(s.data() + run, s.size() - run);
  return out;
}

std::string Unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (i + 1 >= s.size()) {
      out += '?';
      break;
    }
    ++i;
    switch (s[i]) {
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 'p':
        out += '|';
        break;
      default:
        out += '?';
    }
  }
  return out;
}

std::string PadTo(std::string_view s, size_t width) {
  std::string out(s.substr(0, width));
  out.resize(width, ' ');
  return out;
}

std::string FormatReal(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace isis
