/// \file strings_test.cpp
/// \brief Unit tests for the shared string utilities.

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "common/rng.h"
#include "common/strings.h"

namespace isis {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a|b|c", '|'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", '|'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a||c", '|'), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("|", '|'), (std::vector<std::string>{"", ""}));
}

TEST(JoinTest, Inverse) {
  std::vector<std::string> parts{"x", "", "z"};
  EXPECT_EQ(Join(parts, ","), "x,,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
  EXPECT_EQ(Join({}, ","), "");
}

TEST(TrimTest, Whitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\n x \r"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("attr:family", "attr:"));
  EXPECT_FALSE(StartsWith("att", "attr:"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("YES/No"), "yes/no");
  EXPECT_EQ(ToLower("already"), "already");
}

TEST(IsValidNameTest, AcceptsTypicalNames) {
  EXPECT_TRUE(IsValidName("musicians"));
  EXPECT_TRUE(IsValidName("by_family"));
  EXPECT_TRUE(IsValidName("LaBelle Quartet"));
  EXPECT_TRUE(IsValidName("YES/NO"));
  EXPECT_TRUE(IsValidName("a"));
}

TEST(IsValidNameTest, RejectsBadNames) {
  EXPECT_FALSE(IsValidName(""));
  EXPECT_FALSE(IsValidName(" leading"));
  EXPECT_FALSE(IsValidName("trailing "));
  EXPECT_FALSE(IsValidName("pipe|name"));
  EXPECT_FALSE(IsValidName("tick`name"));
  EXPECT_FALSE(IsValidName("new\nline"));
  EXPECT_FALSE(IsValidName(std::string("nul\0l", 5)));
}

TEST(EscapeTest, RoundTrips) {
  const std::string cases[] = {
      "plain", "with|pipe", "back\\slash", "multi\nline", "\\n tricky \\p",
      "", "|||", "\\",
  };
  for (const std::string& s : cases) {
    EXPECT_EQ(Unescape(Escape(s)), s) << "case: " << s;
  }
}

TEST(EscapeTest, EscapedFormHasNoSeparators) {
  std::string escaped = Escape("a|b\nc");
  EXPECT_EQ(escaped.find('|'), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
}

/// The per-character definition Escape's word-at-a-time loop must match.
std::string ReferenceEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '|') {
      out += "\\p";
    } else {
      out += c;
    }
  }
  return out;
}

/// `n` seeded bytes, about one in three a byte Escape rewrites; the rest
/// are any byte at all, so the neighbours of the special values in every
/// bit position (0x0b, 0x5d, 0x7d, 0xfc, ...) turn up too.
std::string DenseSpecials(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) {
    switch (rng.Below(9)) {
      case 0:
        c = '\\';
        break;
      case 1:
        c = '\n';
        break;
      case 2:
        c = '|';
        break;
      default:
        c = static_cast<char>(rng.Below(256));
    }
  }
  return out;
}

TEST(EscapeTest, MatchesPerCharReferenceAtEveryLengthAndOffset) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string buf = DenseSpecials(seed, 40 + 8);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t len = 0; len <= 40; ++len) {
        const std::string_view s(buf.data() + offset, len);
        const std::string escaped = Escape(s);
        EXPECT_EQ(escaped, ReferenceEscape(s))
            << "seed " << seed << " offset " << offset << " length " << len;
        EXPECT_EQ(Unescape(escaped), s)
            << "seed " << seed << " offset " << offset << " length " << len;
      }
    }
  }
}

TEST(EscapeTest, OneSpecialAnywhereInPlainText) {
  // Long plain runs are copied a word at a time; a single special byte at
  // any position, in any word, must still be found.
  for (char special : {'\\', '\n', '|'}) {
    for (std::size_t at = 0; at < 33; ++at) {
      std::string s(33, 'x');
      s[at] = special;
      EXPECT_EQ(Escape(s), ReferenceEscape(s)) << "at " << at;
    }
  }
}

TEST(UnescapeTest, MalformedDecodesToQuestionMark) {
  EXPECT_EQ(Unescape("bad\\"), "bad?");
  EXPECT_EQ(Unescape("bad\\q"), "bad?");
}

TEST(PadToTest, PadsAndTruncates) {
  EXPECT_EQ(PadTo("ab", 4), "ab  ");
  EXPECT_EQ(PadTo("abcdef", 4), "abcd");
  EXPECT_EQ(PadTo("", 2), "  ");
}

TEST(FormatRealTest, TrimsAndRoundTrips) {
  EXPECT_EQ(FormatReal(2.0), "2");
  EXPECT_EQ(FormatReal(3.5), "3.5");
  EXPECT_EQ(FormatReal(0.25), "0.25");
  EXPECT_EQ(FormatReal(-1.5), "-1.5");
}

}  // namespace
}  // namespace isis
