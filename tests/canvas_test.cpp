/// \file canvas_test.cpp
/// \brief Tests for the character-cell canvas and fill patterns.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "gfx/canvas.h"
#include "gfx/pattern.h"

namespace isis::gfx {
namespace {

TEST(RectTest, ContainsAndIntersects) {
  Rect r{2, 3, 4, 2};
  EXPECT_TRUE(r.Contains(2, 3));
  EXPECT_TRUE(r.Contains(5, 4));
  EXPECT_FALSE(r.Contains(6, 3));
  EXPECT_FALSE(r.Contains(2, 5));
  EXPECT_TRUE(r.Intersects(Rect{5, 4, 10, 10}));
  EXPECT_FALSE(r.Intersects(Rect{6, 3, 2, 2}));
  EXPECT_EQ(r.right(), 6);
  EXPECT_EQ(r.bottom(), 5);
}

TEST(CanvasTest, PutAndClip) {
  Canvas c(10, 4);
  c.Put(0, 0, 'a');
  c.Put(9, 3, 'z', kBold);
  c.Put(-1, 0, 'x');   // clipped silently
  c.Put(10, 0, 'x');
  c.Put(0, 4, 'x');
  EXPECT_EQ(c.At(0, 0).ch, 'a');
  EXPECT_EQ(c.At(9, 3).ch, 'z');
  EXPECT_EQ(c.At(9, 3).style, kBold);
  EXPECT_EQ(c.At(-1, 0).ch, ' ');  // out of bounds reads as blank
}

TEST(CanvasTest, TextClipsAtRightEdge) {
  Canvas c(5, 1);
  c.Text(3, 0, "abc");
  EXPECT_EQ(c.ToString(), "   ab\n");
}

TEST(CanvasTest, ToStringTrimsTrailingSpaces) {
  Canvas c(8, 2);
  c.Text(0, 0, "hi");
  EXPECT_EQ(c.ToString(), "hi\n\n");
}

/// ToString's definition, cell by cell through the public accessors: each
/// row's characters with trailing spaces trimmed, then a newline.
std::string ReferenceToString(const Canvas& c) {
  std::string out;
  for (int y = 0; y < c.height(); ++y) {
    std::string row;
    for (int x = 0; x < c.width(); ++x) row += c.At(x, y).ch;
    while (!row.empty() && row.back() == ' ') row.pop_back();
    out += row + "\n";
  }
  return out;
}

TEST(CanvasTest, ToStringMatchesReferenceOnEdgeRows) {
  // Rows that trim to nothing, rows with no trailing space at all (the
  // last cell set), interior spaces that must survive, and a space-only
  // row between full ones.
  Canvas c(17, 5);
  c.HLine(0, 0, 17, '#');
  c.Text(0, 2, "a  b", kBold);
  c.Put(16, 3, 'z');
  c.Text(3, 4, "  ");
  EXPECT_EQ(c.ToString(), ReferenceToString(c));
  EXPECT_EQ(c.ToString(),
            "#################\n"
            "\n"
            "a  b\n"
            "                z\n"
            "\n");

  Canvas blank(132, 40);
  EXPECT_EQ(blank.ToString(), std::string(40, '\n'));
  blank.Fill(Rect{0, 0, 132, 40}, 'x');
  EXPECT_EQ(blank.ToString(), ReferenceToString(blank));
  EXPECT_EQ(blank.ToString().size(), 133u * 40u);
}

TEST(CanvasTest, ToStringOfAWidthOneCanvas) {
  Canvas c(1, 4);
  c.Put(0, 1, 'a');
  c.Put(0, 3, 'b');
  EXPECT_EQ(c.ToString(), "\na\n\nb\n");
  EXPECT_EQ(c.ToString(), ReferenceToString(c));
  // Dimensions below one clamp to a single cell.
  EXPECT_EQ(Canvas(0, 0).ToString(), "\n");
}

TEST(CanvasTest, BoxDrawsBorders) {
  Canvas c(6, 4);
  c.Box(Rect{0, 0, 6, 4});
  std::string s = c.ToString();
  EXPECT_EQ(s,
            "+----+\n"
            "|    |\n"
            "|    |\n"
            "+----+\n");
}

TEST(CanvasTest, HeavyBox) {
  Canvas c(4, 3);
  c.HeavyBox(Rect{0, 0, 4, 3});
  EXPECT_EQ(c.ToString(),
            "####\n"
            "#  #\n"
            "####\n");
}

TEST(CanvasTest, FillAndLines) {
  Canvas c(5, 3);
  c.Fill(Rect{1, 1, 3, 1}, '*');
  c.HLine(0, 0, 5, '-');
  c.VLine(0, 0, 3, '|');
  EXPECT_EQ(c.At(0, 0).ch, '|');  // VLine drawn after HLine wins
  EXPECT_EQ(c.At(2, 1).ch, '*');
}

TEST(CanvasTest, AddStyleOrsBits) {
  Canvas c(4, 2);
  c.Text(0, 0, "ab", kReverse);
  c.AddStyle(Rect{0, 0, 4, 1}, kBold);
  EXPECT_EQ(c.At(0, 0).style, kBold | kReverse);
  EXPECT_EQ(c.At(3, 0).style, kBold);
}

TEST(CanvasTest, StyleStringEncodesBits) {
  Canvas c(4, 1);
  c.Put(0, 0, 'a', kBold);
  c.Put(1, 0, 'b', kReverse);
  c.Put(2, 0, 'c', kBold | kReverse);
  c.Put(3, 0, 'd', kDim);
  EXPECT_EQ(c.StyleString(), "brBd\n");
}

TEST(CanvasTest, ClearResets) {
  Canvas c(3, 1);
  c.Text(0, 0, "xyz", kBold);
  c.Clear();
  EXPECT_EQ(c.ToString(), "\n");
  EXPECT_EQ(c.At(0, 0).style, kPlain);
}

TEST(PatternTest, FirstSixteenDistinct) {
  // The engine assigns pattern indices uniquely; the first
  // kDistinctPatterns must also *render* distinguishably.
  std::set<std::string> renderings;
  for (int p = 0; p < kDistinctPatterns; ++p) {
    std::string r;
    for (int y = 0; y < 2; ++y) {
      for (int x = 0; x < 4; ++x) r += PatternGlyph(p, x, y);
    }
    EXPECT_TRUE(renderings.insert(r).second) << "pattern " << p;
  }
}

TEST(PatternTest, GlyphIsPeriodicAndTotal) {
  EXPECT_EQ(PatternGlyph(3, 0, 0), PatternGlyph(3, 4, 2));
  EXPECT_EQ(PatternGlyph(3, -4, -2), PatternGlyph(3, 0, 0));
  EXPECT_EQ(PatternGlyph(19, 0, 0), PatternGlyph(19 % kDistinctPatterns, 0, 0));
  EXPECT_EQ(PatternGlyph(-1, 0, 0), PatternGlyph(0, 0, 0));
}

TEST(PatternTest, TagsUniquePerIndex) {
  EXPECT_EQ(PatternTag(7), "p07");
  EXPECT_NE(PatternTag(1), PatternTag(17));
}

TEST(PatternTest, SetBorderFramesWithBlanks) {
  Canvas c(8, 4);
  c.Fill(Rect{0, 0, 8, 4}, '?');
  FillPattern(&c, Rect{0, 0, 8, 4}, 4, /*set_border=*/true);
  // Border cells blank, interior patterned.
  EXPECT_EQ(c.At(0, 0).ch, ' ');
  EXPECT_EQ(c.At(7, 3).ch, ' ');
  EXPECT_EQ(c.At(1, 1).ch, PatternGlyph(4, 0, 0));
}

TEST(PatternTest, SwatchBorder) {
  Canvas c(6, 1);
  PatternSwatch(&c, 0, 0, 6, 4, /*set_border=*/true);
  EXPECT_EQ(c.At(0, 0).ch, ' ');
  EXPECT_EQ(c.At(5, 0).ch, ' ');
  EXPECT_EQ(c.At(1, 0).ch, PatternGlyph(4, 0, 0));
  // No border variant fills edge to edge.
  PatternSwatch(&c, 0, 0, 6, 4, /*set_border=*/false);
  EXPECT_NE(c.At(0, 0).ch, ' ');
}

}  // namespace
}  // namespace isis::gfx
