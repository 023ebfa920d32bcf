#include "ui/render_util.h"

#include <algorithm>

#include "gfx/pattern.h"

namespace isis::ui {

using gfx::Canvas;
using gfx::Menu;
using gfx::Rect;
using gfx::Window;
using sdm::AttributeDef;
using sdm::ClassDef;
using sdm::GroupingDef;
using sdm::Schema;

namespace {

constexpr int kMinBoxInner = 12;  // minimum inner width of a node box
constexpr int kSwatchWidth = 5;   // attribute-row value-class swatch

std::vector<AttributeId> BoxAttributes(const Schema& schema, ClassId cls,
                                       bool include_inherited) {
  if (include_inherited) return schema.AllAttributesOf(cls);
  std::vector<AttributeId> own;
  for (AttributeId a : schema.GetClass(cls).own_attributes) {
    if (schema.HasAttribute(a)) own.push_back(a);
  }
  return own;
}

int InnerWidthFor(const Schema& schema, ClassId cls,
                  const std::vector<AttributeId>& attrs) {
  int w = std::max<int>(kMinBoxInner,
                        static_cast<int>(schema.GetClass(cls).name.size()));
  for (AttributeId a : attrs) {
    int need = static_cast<int>(schema.GetAttribute(a).name.size()) + 1 +
               kSwatchWidth;
    w = std::max(w, need);
  }
  return w;
}

}  // namespace

BoxMetrics ClassBoxMetrics(const query::Workspace& ws, ClassId cls,
                           bool include_inherited) {
  const Schema& schema = ws.db().schema();
  std::vector<AttributeId> attrs =
      BoxAttributes(schema, cls, include_inherited);
  BoxMetrics m;
  m.width = InnerWidthFor(schema, cls, attrs) + 2;
  m.height = 2 /*border*/ + 1 /*name*/ + 1 /*pattern*/ +
             static_cast<int>(attrs.size());
  return m;
}

BoxMetrics GroupingBoxMetrics(const query::Workspace& ws, GroupingId g) {
  const Schema& schema = ws.db().schema();
  BoxMetrics m;
  m.width = std::max<int>(kMinBoxInner,
                          static_cast<int>(schema.GetGrouping(g).name.size())) +
            2;
  m.height = 4;  // border + name + bordered pattern row
  return m;
}

void DrawClassBox(Window* win, Screen* screen, const query::Workspace& ws,
                  ClassId cls, int x, int y, bool include_inherited) {
  const Schema& schema = ws.db().schema();
  const ClassDef& def = schema.GetClass(cls);
  std::vector<AttributeId> attrs =
      BoxAttributes(schema, cls, include_inherited);
  int inner = InnerWidthFor(schema, cls, attrs);
  BoxMetrics m = ClassBoxMetrics(ws, cls, include_inherited);
  Rect logical{x, y, m.width, m.height};
  win->Box(logical);
  // Name section, padded to the box: reverse video for baseclasses (§3.2).
  const std::uint8_t name_style = def.is_base() ? gfx::kReverse : gfx::kPlain;
  win->HLine(x + 1, y + 1, inner, ' ', name_style);
  win->Text(x + 1, y + 1, def.name, name_style);
  // Characteristic fill pattern row.
  for (int i = 0; i < inner; ++i) {
    win->Put(x + 1 + i, y + 2, gfx::PatternGlyph(def.fill_pattern, i, 0));
  }
  // Register the box region before the attribute rows: hit-testing walks
  // regions topmost-last, so rows must come after the box to stay pickable.
  Rect box_screen = win->ToScreen(logical);
  if (box_screen.w > 0) {
    screen->hits.push_back(HitRegion{box_screen, "class:" + def.name});
  }
  // Attribute rows: name left, value-class swatch right (white-bordered for
  // multivalued attributes — the set marker).
  int row = y + 3;
  for (AttributeId a : attrs) {
    const AttributeDef& attr = schema.GetAttribute(a);
    int value_pattern =
        attr.value_grouping.valid()
            ? schema.GetGrouping(attr.value_grouping).fill_pattern
            : schema.GetClass(attr.value_class).fill_pattern;
    const std::uint8_t label_style =
        attr.origin == sdm::AttrOrigin::kDerived ? gfx::kDim : gfx::kPlain;
    win->HLine(x + 1, row, inner - kSwatchWidth, ' ', label_style);
    win->Text(x + 1, row, attr.name, label_style);
    for (int i = 0; i < kSwatchWidth; ++i) {
      bool border = attr.multivalued && (i == 0 || i == kSwatchWidth - 1);
      win->Put(x + 1 + inner - kSwatchWidth + i, row,
               border ? ' ' : gfx::PatternGlyph(value_pattern, i, 0));
    }
    Rect attr_screen = win->ToScreen(Rect{x, row, m.width, 1});
    if (attr_screen.w > 0) {
      // Qualified with the box's class: several classes may define an
      // attribute with the same name (every baseclass has `name`). Named
      // picks with the bare name resolve through the controller's suffix
      // fallback.
      screen->hits.push_back(
          HitRegion{attr_screen, "attr:" + def.name + "." + attr.name});
    }
    ++row;
  }
}

void DrawGroupingBox(Window* win, Screen* screen, const query::Workspace& ws,
                     GroupingId g, int x, int y) {
  const Schema& schema = ws.db().schema();
  const GroupingDef& def = schema.GetGrouping(g);
  BoxMetrics m = GroupingBoxMetrics(ws, g);
  int inner = m.width - 2;
  Rect logical{x, y, m.width, m.height};
  win->Box(logical);
  win->HLine(x + 1, y + 1, inner, ' ');
  win->Text(x + 1, y + 1, def.name);
  // Pattern row with the white set border.
  for (int i = 0; i < inner; ++i) {
    bool border = i == 0 || i == inner - 1;
    win->Put(x + 1 + i, y + 2,
             border ? ' ' : gfx::PatternGlyph(def.fill_pattern, i, 0));
  }
  Rect box_screen = win->ToScreen(logical);
  if (box_screen.w > 0) {
    screen->hits.push_back(HitRegion{box_screen, "grouping:" + def.name});
  }
}

void DrawHandIcon(Window* win, int x, int y) {
  // The pointing hand, one row below the box top so it indicates the name.
  win->Text(x - 6, y + 1, "hand", gfx::kBold);
  win->Text(x - 2, y + 1, "=>", gfx::kBold);
}

std::span<const Menu::Item> ShownItems(std::span<const MenuRow> rows,
                                       unsigned mask,
                                       std::span<Menu::Item> out) {
  size_t n = 0;
  for (const MenuRow& row : rows) {
    if (row.when & mask) out[n++] = row.item;
  }
  return out.first(n);
}

Rect DrawChrome(Screen* screen, std::string_view db_name,
                std::string_view view_name,
                std::span<const Menu::Item> menu_items,
                std::string_view message) {
  Canvas& canvas = screen->canvas;
  canvas.Clear();
  screen->hits.clear();
  // Title bar: " ISIS | <database> | <view> ", centered.
  canvas.Fill(Rect{0, 0, canvas.width(), 1}, ' ', gfx::kReverse);
  const std::string_view title[] = {" ISIS | ", db_name, " | ", view_name,
                                    " "};
  int title_w = 0;
  for (std::string_view part : title) title_w += static_cast<int>(part.size());
  int x = (canvas.width() - title_w) / 2;
  for (std::string_view part : title) {
    canvas.Text(x, 0, part, gfx::kReverse);
    x += static_cast<int>(part.size());
  }
  // Right-hand menu.
  const int menu_w = 25;
  Rect menu_rect{canvas.width() - menu_w, 1,
                 menu_w, canvas.height() - 5};
  gfx::Menu("commands", menu_items).Render(&canvas, menu_rect);
  for (size_t i = 0; i < menu_items.size(); ++i) {
    screen->hits.push_back(HitRegion{Menu::ItemRect(menu_rect, i),
                                     std::string("menu:").append(
                                         menu_items[i].command)});
  }
  // Bottom text window.
  gfx::TextWindow text;
  text.Set(message);
  text.Render(&canvas, Rect{0, canvas.height() - 4, canvas.width(), 4});
  // Content area.
  return Rect{0, 1, canvas.width() - menu_w, canvas.height() - 5};
}

std::string SelectionName(const query::Workspace& ws,
                          const SchemaSelection& sel) {
  const Schema& schema = ws.db().schema();
  switch (sel.kind) {
    case SchemaSelection::Kind::kNone:
      return "(none)";
    case SchemaSelection::Kind::kClass:
      return schema.HasClass(sel.cls) ? schema.GetClass(sel.cls).name : "(?)";
    case SchemaSelection::Kind::kGrouping:
      return schema.HasGrouping(sel.grouping)
                 ? schema.GetGrouping(sel.grouping).name
                 : "(?)";
    case SchemaSelection::Kind::kAttribute:
      return schema.HasAttribute(sel.attribute)
                 ? schema.GetAttribute(sel.attribute).name
                 : "(?)";
  }
  return "(?)";
}

}  // namespace isis::ui
