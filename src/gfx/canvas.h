/// \file canvas.h
/// \brief Deterministic character-cell canvas — the stand-in for the Apollo
/// bitmap display driven by Brown's ASH graphics package.
///
/// Every visual element the paper describes maps onto cells with style
/// bits: reverse video (baseclass name sections), bold (selected members,
/// "highlighted with a large boldface type"), borders, characteristic fill
/// patterns, and icons (the hand). A rendered screen serializes to a
/// string, so Figures 1-12 are reproducible byte-for-byte and tests can
/// assert on exact screens.

#ifndef ISIS_GFX_CANVAS_H_
#define ISIS_GFX_CANVAS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace isis::gfx {

/// Cell style bits.
enum Style : std::uint8_t {
  kPlain = 0,
  kBold = 1 << 0,     ///< Selected members ("large boldface type").
  kReverse = 1 << 1,  ///< Baseclass name sections ("in reverse video").
  kDim = 1 << 2,      ///< De-emphasized chrome.
};

/// One character cell.
struct Cell {
  char ch = ' ';
  std::uint8_t style = kPlain;
};

/// An axis-aligned rectangle in cell coordinates.
struct Rect {
  int x = 0;
  int y = 0;
  int w = 0;
  int h = 0;

  bool Contains(int px, int py) const {
    return px >= x && px < x + w && py >= y && py < y + h;
  }
  bool Intersects(const Rect& o) const {
    return x < o.x + o.w && o.x < x + w && y < o.y + o.h && o.y < y + h;
  }
  int right() const { return x + w; }
  int bottom() const { return y + h; }
};

/// The cells of the one-row run of `n` cells from (x, y) that lie inside
/// `bounds`, as a one-row rect; zero wide when none do.
Rect ClipRun(int x, int y, std::int64_t n, const Rect& bounds);

/// \brief A fixed-size grid of styled character cells, kept as two
/// row-major planes (characters and style bytes). Every drawing call clips
/// its run to the grid once and writes it as one span per row.
class Canvas {
 public:
  Canvas(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }

  /// Resets every cell to `ch` in the plain style, in place.
  void Clear(char ch = ' ');

  /// Writes one cell; out-of-bounds writes are clipped silently.
  void Put(int x, int y, char ch, std::uint8_t style = kPlain);

  /// The cell at (x, y); a blank plain cell outside the grid.
  Cell At(int x, int y) const;

  /// Writes a string starting at (x, y), clipped at the right edge.
  void Text(int x, int y, std::string_view s, std::uint8_t style = kPlain);

  /// Draws a single-line box (`+--+` corners, `|`/`-` edges).
  void Box(const Rect& r, std::uint8_t style = kPlain);

  /// Draws a double-struck box (`#` corners/edges) used for emphasis.
  void HeavyBox(const Rect& r, std::uint8_t style = kPlain);

  void HLine(int x, int y, int w, char ch = '-', std::uint8_t style = kPlain);
  void VLine(int x, int y, int h, char ch = '|', std::uint8_t style = kPlain);

  /// Fills a rect with one character.
  void Fill(const Rect& r, char ch, std::uint8_t style = kPlain);

  /// ORs `style` over every cell of the rect (e.g. bolding a region).
  void AddStyle(const Rect& r, std::uint8_t style);

  /// The characters only, one line per row, trailing spaces trimmed.
  std::string ToString() const;

  /// Per-cell style map aligned with ToString before trimming: ' ' plain,
  /// 'b' bold, 'r' reverse, 'B' bold+reverse, 'd' dim.
  std::string StyleString() const;

 private:
  Rect bounds() const { return Rect{0, 0, width_, height_}; }
  /// Index of the in-bounds cell (x, y) in both planes.
  std::size_t Offset(int x, int y) const {
    return static_cast<std::size_t>(y) * width_ + x;
  }

  int width_;
  int height_;
  std::string chars_;
  std::vector<std::uint8_t> styles_;
};

}  // namespace isis::gfx

#endif  // ISIS_GFX_CANVAS_H_
