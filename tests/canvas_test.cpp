/// \file canvas_test.cpp
/// \brief Tests for the character-cell canvas and fill patterns.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "gfx/canvas.h"
#include "gfx/pattern.h"
#include "gfx/widgets.h"

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

/// The canvas's definition, one cell at a time: every drawing call is a
/// loop of single-cell writes, each clipped on its own.
class ReferenceCanvas {
 public:
  ReferenceCanvas(int width, int height)
      : width_(std::max(1, width)),
        height_(std::max(1, height)),
        cells_(static_cast<size_t>(width_) * height_) {}

  void Put(int x, int y, char ch, std::uint8_t style) {
    if (x < 0 || x >= width_ || y < 0 || y >= height_) return;
    cells_[static_cast<size_t>(y) * width_ + x] = Cell{ch, style};
  }
  Cell At(int x, int y) const {
    if (x < 0 || x >= width_ || y < 0 || y >= height_) return Cell{};
    return cells_[static_cast<size_t>(y) * width_ + x];
  }
  void Text(int x, int y, std::string_view s, std::uint8_t style) {
    for (size_t i = 0; i < s.size(); ++i) {
      Put(x + static_cast<int>(i), y, s[i], style);
    }
  }
  void HLine(int x, int y, int w, char ch, std::uint8_t style) {
    for (int i = 0; i < w; ++i) Put(x + i, y, ch, style);
  }
  void VLine(int x, int y, int h, char ch, std::uint8_t style) {
    for (int i = 0; i < h; ++i) Put(x, y + i, ch, style);
  }
  void Box(const Rect& r, std::uint8_t style) {
    if (r.w < 2 || r.h < 2) return;
    Put(r.x, r.y, '+', style);
    Put(r.right() - 1, r.y, '+', style);
    Put(r.x, r.bottom() - 1, '+', style);
    Put(r.right() - 1, r.bottom() - 1, '+', style);
    HLine(r.x + 1, r.y, r.w - 2, '-', style);
    HLine(r.x + 1, r.bottom() - 1, r.w - 2, '-', style);
    VLine(r.x, r.y + 1, r.h - 2, '|', style);
    VLine(r.right() - 1, r.y + 1, r.h - 2, '|', style);
  }
  void HeavyBox(const Rect& r, std::uint8_t style) {
    if (r.w < 2 || r.h < 2) return;
    HLine(r.x, r.y, r.w, '#', style);
    HLine(r.x, r.bottom() - 1, r.w, '#', style);
    VLine(r.x, r.y + 1, r.h - 2, '#', style);
    VLine(r.right() - 1, r.y + 1, r.h - 2, '#', style);
  }
  void Fill(const Rect& r, char ch, std::uint8_t style) {
    for (int y = r.y; y < r.bottom(); ++y) {
      for (int x = r.x; x < r.right(); ++x) Put(x, y, ch, style);
    }
  }
  void AddStyle(const Rect& r, std::uint8_t style) {
    for (int y = r.y; y < r.bottom(); ++y) {
      for (int x = r.x; x < r.right(); ++x) {
        if (x >= 0 && x < width_ && y >= 0 && y < height_) {
          cells_[static_cast<size_t>(y) * width_ + x].style |= style;
        }
      }
    }
  }
  std::string ToString() const {
    std::string out;
    for (int y = 0; y < height_; ++y) {
      std::string row;
      for (int x = 0; x < width_; ++x) row += At(x, y).ch;
      while (!row.empty() && row.back() == ' ') row.pop_back();
      out += row + "\n";
    }
    return out;
  }
  std::string StyleString() const {
    std::string out;
    for (int y = 0; y < height_; ++y) {
      std::string row;
      for (int x = 0; x < width_; ++x) {
        std::uint8_t s = At(x, y).style;
        char c = ' ';
        if ((s & kBold) && (s & kReverse)) {
          c = 'B';
        } else if (s & kBold) {
          c = 'b';
        } else if (s & kReverse) {
          c = 'r';
        } else if (s & kDim) {
          c = 'd';
        }
        row += c;
      }
      while (!row.empty() && row.back() == ' ') row.pop_back();
      out += row + "\n";
    }
    return out;
  }

 private:
  int width_;
  int height_;
  std::vector<Cell> cells_;
};

/// Draws the same seeded random calls on both canvases, with coordinates
/// and lengths that straddle every edge: negative, past the right and
/// bottom edges, zero and one wide, and strings longer than a row.
class CanvasDifferential {
 public:
  CanvasDifferential(int width, int height, std::uint64_t seed)
      : canvas_(width, height), ref_(width, height), rng_(seed),
        w_(canvas_.width()), h_(canvas_.height()) {}

  const Canvas& canvas() const { return canvas_; }
  const ReferenceCanvas& ref() const { return ref_; }

  int X() { return static_cast<int>(rng_.Range(-w_ - 3, 2 * w_ + 3)); }
  int Y() { return static_cast<int>(rng_.Range(-h_ - 3, 2 * h_ + 3)); }
  int Length(int edge) {
    switch (rng_.Below(4)) {
      case 0:
        return 0;
      case 1:
        return 1;
      case 2:
        return static_cast<int>(rng_.Range(-2, 2));
      default:
        return static_cast<int>(rng_.Range(0, 2 * edge + 5));
    }
  }
  std::string Str() {
    std::string s(static_cast<size_t>(std::max(0, Length(w_))), ' ');
    for (char& c : s) c = static_cast<char>(rng_.Range(' ', '~'));
    return s;
  }
  char Ch() { return static_cast<char>(rng_.Range(' ', '~')); }
  std::uint8_t Style() { return static_cast<std::uint8_t>(rng_.Below(8)); }
  Rect AnyRect() { return Rect{X(), Y(), Length(w_), Length(h_)}; }

  /// One random drawing call on both canvases.
  void Step() {
    switch (rng_.Below(9)) {
      case 0: {
        int x = X(), y = Y();
        char ch = Ch();
        std::uint8_t st = Style();
        canvas_.Put(x, y, ch, st);
        ref_.Put(x, y, ch, st);
        break;
      }
      case 1: {
        int x = X(), y = Y();
        std::string s = Str();
        std::uint8_t st = Style();
        canvas_.Text(x, y, s, st);
        ref_.Text(x, y, s, st);
        break;
      }
      case 2: {
        int x = X(), y = Y(), w = Length(w_);
        char ch = Ch();
        std::uint8_t st = Style();
        canvas_.HLine(x, y, w, ch, st);
        ref_.HLine(x, y, w, ch, st);
        break;
      }
      case 3: {
        int x = X(), y = Y(), h = Length(h_);
        char ch = Ch();
        std::uint8_t st = Style();
        canvas_.VLine(x, y, h, ch, st);
        ref_.VLine(x, y, h, ch, st);
        break;
      }
      case 4: {
        Rect r = AnyRect();
        std::uint8_t st = Style();
        canvas_.Box(r, st);
        ref_.Box(r, st);
        break;
      }
      case 5: {
        Rect r = AnyRect();
        std::uint8_t st = Style();
        canvas_.HeavyBox(r, st);
        ref_.HeavyBox(r, st);
        break;
      }
      case 6: {
        Rect r = AnyRect();
        char ch = Ch();
        std::uint8_t st = Style();
        canvas_.Fill(r, ch, st);
        ref_.Fill(r, ch, st);
        break;
      }
      case 7: {
        Rect r = AnyRect();
        std::uint8_t st = Style();
        canvas_.AddStyle(r, st);
        ref_.AddStyle(r, st);
        break;
      }
      default: {
        // A clear now and then, so later calls draw over blanks again.
        if (rng_.Chance(0.3)) {
          canvas_.Clear();
          ref_ = ReferenceCanvas(w_, h_);
        }
        break;
      }
    }
  }

 private:
  Canvas canvas_;
  ReferenceCanvas ref_;
  Rng rng_;
  int w_;
  int h_;
};

/// Every cell, ToString and StyleString of the canvas equal the reference's.
::testing::AssertionResult SameCells(const Canvas& c,
                                     const ReferenceCanvas& ref) {
  for (int y = -1; y <= c.height(); ++y) {
    for (int x = -1; x <= c.width(); ++x) {
      if (c.At(x, y).ch != ref.At(x, y).ch ||
          c.At(x, y).style != ref.At(x, y).style) {
        return ::testing::AssertionFailure()
               << "cell (" << x << "," << y << ") differs";
      }
    }
  }
  if (c.ToString() != ref.ToString()) {
    return ::testing::AssertionFailure() << "ToString differs:\n"
                                         << c.ToString() << "vs\n"
                                         << ref.ToString();
  }
  if (c.StyleString() != ref.StyleString()) {
    return ::testing::AssertionFailure() << "StyleString differs";
  }
  return ::testing::AssertionSuccess();
}

TEST(CanvasTest, SpanWritesMatchAPerCellReference) {
  const int kSizes[][2] = {{1, 1}, {1, 6}, {6, 1}, {7, 3}, {17, 6}, {132, 40}};
  for (const auto& size : kSizes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      CanvasDifferential d(size[0], size[1], seed);
      for (int step = 0; step < 300; ++step) {
        d.Step();
        ASSERT_TRUE(SameCells(d.canvas(), d.ref()))
            << size[0] << "x" << size[1] << " seed " << seed << " step "
            << step;
      }
    }
  }
}

TEST(CanvasTest, WindowSpanWritesMatchPerCellPuts) {
  // Window::Text and Window::HLine clip their run to the window once; the
  // reference writes the same run through Window::Put, cell by cell. The
  // windows sit inside the canvas and across each of its edges, and the
  // pans push the runs past each edge of the window.
  const Rect kRects[] = {{3, 2, 10, 5}, {-2, 1, 8, 4},  {12, 3, 9, 4},
                         {4, -2, 7, 5}, {2, 6, 9, 5},   {0, 0, 20, 9},
                         {5, 4, 1, 1},  {6, 3, 0, 2}};
  for (const Rect& rect : kRects) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Canvas spans(20, 9);
      Canvas cells(20, 9);
      Window a(&spans, rect);
      Window b(&cells, rect);
      Rng rng(seed);
      for (int step = 0; step < 300; ++step) {
        const int px = static_cast<int>(rng.Range(-12, 12));
        const int py = static_cast<int>(rng.Range(-6, 6));
        a.SetPan(px, py);
        b.SetPan(px, py);
        const int lx = static_cast<int>(rng.Range(-14, 26));
        const int ly = static_cast<int>(rng.Range(-8, 14));
        const std::uint8_t style = static_cast<std::uint8_t>(rng.Below(8));
        const int n = static_cast<int>(rng.Range(-1, 30));
        if (rng.Chance(0.5)) {
          std::string s(static_cast<size_t>(std::max(0, n)), ' ');
          for (char& c : s) c = static_cast<char>(rng.Range('a', 'z'));
          a.Text(lx, ly, s, style);
          for (size_t i = 0; i < s.size(); ++i) {
            b.Put(lx + static_cast<int>(i), ly, s[i], style);
          }
        } else {
          const char ch = static_cast<char>(rng.Range('A', 'Z'));
          a.HLine(lx, ly, n, ch, style);
          for (int i = 0; i < n; ++i) b.Put(lx + i, ly, ch, style);
        }
        ASSERT_EQ(spans.ToString(), cells.ToString())
            << "rect " << rect.x << "," << rect.y << " " << rect.w << "x"
            << rect.h << " seed " << seed << " step " << step;
        ASSERT_EQ(spans.StyleString(), cells.StyleString());
        for (int y = 0; y < spans.height(); ++y) {
          for (int x = 0; x < spans.width(); ++x) {
            ASSERT_EQ(spans.At(x, y).ch, cells.At(x, y).ch);
            ASSERT_EQ(spans.At(x, y).style, cells.At(x, y).style);
          }
        }
      }
    }
  }
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
