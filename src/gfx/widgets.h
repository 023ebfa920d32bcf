/// \file widgets.h
/// \brief The view building blocks of §3: menus, text windows, and pannable
/// windows over a logical plane.
///
/// "A view corresponds to an entire workstation screen. A view could
/// contain (1) menus, (2) text windows, and/or (3) windows" — all disjoint
/// rectangular areas within the view. Windows show a piece of the schema or
/// data plane through a pan offset.

#ifndef ISIS_GFX_WIDGETS_H_
#define ISIS_GFX_WIDGETS_H_

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "gfx/canvas.h"

namespace isis::gfx {

/// \brief A vertical command menu with optional function-key labels.
///
/// Commands are "standardized ... for each view" and "commands in different
/// views with the same names have the same semantics"; rendering keeps one
/// command per row so pick hit-testing is by row. The menu borrows its
/// title and items (a view's static table): they must outlive it.
class Menu {
 public:
  struct Item {
    std::string_view command;  ///< Canonical name, e.g. "view contents".
    std::string_view key;      ///< Function key label, e.g. "F3"; may be empty.
    bool enabled = true;
  };

  Menu(std::string_view title, std::span<const Item> items)
      : title_(title), items_(items) {}

  std::span<const Item> items() const { return items_; }
  std::string_view title() const { return title_; }

  /// Renders into `r`.
  void Render(Canvas* canvas, const Rect& r) const;
  /// The pick row of item `i` once rendered into `r`.
  static Rect ItemRect(const Rect& r, size_t i) {
    return Rect{r.x + 1, r.y + 1 + static_cast<int>(i), r.w - 2, 1};
  }

 private:
  std::string_view title_;
  std::span<const Item> items_;
};

/// \brief A text window: prompts, warnings and textual output (§3). It
/// borrows the text it shows: each line must outlive the window.
class TextWindow {
 public:
  /// Replaces the contents with one message.
  void Set(std::string_view text);
  /// Appends a line, scrolling older lines away on render if needed.
  void Append(std::string_view line);
  void Clear() { lines_.clear(); }
  const std::vector<std::string_view>& lines() const { return lines_; }

  /// Renders the last lines that fit into `r` (boxed).
  void Render(Canvas* canvas, const Rect& r) const;

 private:
  std::vector<std::string_view> lines_;
};

/// \brief A window: a clipped, pannable viewport onto a logical plane.
///
/// Drawing calls take logical coordinates; the window maps them through its
/// pan offset into the screen rect, clipping at the edges. "Commands are
/// always provided for manually changing the window position (e.g. panning
/// commands)."
class Window {
 public:
  Window(Canvas* canvas, const Rect& screen_rect)
      : canvas_(canvas), rect_(screen_rect) {}

  const Rect& rect() const { return rect_; }
  int pan_x() const { return pan_x_; }
  int pan_y() const { return pan_y_; }
  void Pan(int dx, int dy) {
    pan_x_ += dx;
    pan_y_ += dy;
  }
  void SetPan(int x, int y) {
    pan_x_ = x;
    pan_y_ = y;
  }

  /// Pans so that the logical rect `target` is visible (minimal movement).
  void EnsureVisible(const Rect& target);

  // Logical-coordinate drawing (clipped to the window; Text and HLine clip
  // their run once).
  void Put(int lx, int ly, char ch, std::uint8_t style = kPlain);
  void Text(int lx, int ly, std::string_view s, std::uint8_t style = kPlain);
  void Box(const Rect& logical, std::uint8_t style = kPlain);
  void HLine(int lx, int ly, int w, char ch = '-',
             std::uint8_t style = kPlain);
  void VLine(int lx, int ly, int h, char ch = '|',
             std::uint8_t style = kPlain);
  void AddStyle(const Rect& logical, std::uint8_t style);

  /// Screen rect of a logical rect (possibly clipped to zero size); used to
  /// register hit regions for picked objects.
  Rect ToScreen(const Rect& logical) const;
  /// Logical position of a screen cell.
  void ToLogical(int sx, int sy, int* lx, int* ly) const;

 private:
  bool Map(int lx, int ly, int* sx, int* sy) const;

  Canvas* canvas_;
  Rect rect_;
  int pan_x_ = 0;
  int pan_y_ = 0;
};

}  // namespace isis::gfx

#endif  // ISIS_GFX_WIDGETS_H_
