/// \file render_util.h
/// \brief Shared drawing helpers: the class/grouping box, view chrome, and
/// the hand icon — the "uniform graphical representations" the paper
/// stresses are identical across all views.

#ifndef ISIS_UI_RENDER_UTIL_H_
#define ISIS_UI_RENDER_UTIL_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gfx/widgets.h"
#include "query/workspace.h"
#include "ui/screen.h"
#include "ui/state.h"

namespace isis::ui {

/// Layout metrics of a class box (see DrawClassBox).
struct BoxMetrics {
  int width = 0;
  int height = 0;
};

/// Box size for a class. Attribute rows are the class's own attributes by
/// default ("In this view [the forest] classes do not contain inherited
/// attributes, which appear automatically in all other views").
BoxMetrics ClassBoxMetrics(const query::Workspace& ws, ClassId cls,
                           bool include_inherited);

/// Box size for a grouping (name + bordered pattern, no attribute section).
BoxMetrics GroupingBoxMetrics(const query::Workspace& ws, GroupingId g);

/// Draws a class box at logical (x, y) in `win`:
///   name section (reverse video for baseclasses), the characteristic fill
///   pattern row, and one row per attribute with a swatch of the value
///   class's pattern (white-bordered when the attribute is multivalued).
/// Registers `class:<name>` and `attr:<name>` hit regions on `screen`.
void DrawClassBox(gfx::Window* win, Screen* screen,
                  const query::Workspace& ws, ClassId cls, int x, int y,
                  bool include_inherited);

/// Draws a grouping box; pattern shown with the white set border. Registers
/// a `grouping:<name>` hit region.
void DrawGroupingBox(gfx::Window* win, Screen* screen,
                     const query::Workspace& ws, GroupingId g, int x, int y);

/// Draws the hand icon pointing at a box whose logical top-left is (x, y).
void DrawHandIcon(gfx::Window* win, int x, int y);

/// One row of a view's static menu table: shown while the view's current
/// mask shares a bit with `when`.
struct MenuRow {
  gfx::Menu::Item item;
  unsigned when;
};

/// The items of `rows` whose `when` meets `mask`, in table order, copied
/// into `out` (room for every row); returns the filled prefix.
std::span<const gfx::Menu::Item> ShownItems(std::span<const MenuRow> rows,
                                            unsigned mask,
                                            std::span<gfx::Menu::Item> out);

/// Draws the standard view chrome into `screen`, which it first clears in
/// place (canvas and hit list keep their capacity): title bar (database
/// name + view name), the right-hand menu (with `menu:<command>` hit
/// regions), and the bottom text window with `message`. Returns the content
/// area for the view's window.
gfx::Rect DrawChrome(Screen* screen, std::string_view db_name,
                     std::string_view view_name,
                     std::span<const gfx::Menu::Item> menu_items,
                     std::string_view message);

/// Display name of the current schema selection ("soloists", "plays", ...).
std::string SelectionName(const query::Workspace& ws,
                          const SchemaSelection& sel);

}  // namespace isis::ui

#endif  // ISIS_UI_RENDER_UTIL_H_
