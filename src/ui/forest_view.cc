/// \file forest_view.cc
/// \brief The inheritance forest view (paper §3.2, Figures 1, 8, 12).
///
/// "Lines connect parent classes to their children and the system enforces
/// some of the placement decisions. Namely, groupings always appear above
/// their parent class and subclasses below." The layout here is automatic:
/// subtree widths are computed bottom-up, each class is centered over its
/// children, its groupings sit in the band directly above it, and depth
/// bands are sized to the tallest box they contain. (The paper lets the
/// user drag boxes; we document this simplification in DESIGN.md.)

#include <algorithm>
#include <array>
#include <iterator>
#include <map>

#include "ui/render_util.h"
#include "ui/views.h"

namespace isis::ui {

using gfx::Menu;
using gfx::Rect;
using gfx::Window;
using sdm::Schema;

namespace {

constexpr int kHGap = 7;   // horizontal gap between sibling subtrees (leaves
                           // room for the hand icon between boxes)
constexpr int kVGap = 2;   // rows between a class band and the next band

struct ForestLayout {
  const query::Workspace& ws;
  // Depth bands.
  std::map<int, int> grouping_band_h;  // depth -> rows for groupings
  std::map<int, int> class_band_h;     // depth -> rows for class boxes
  std::map<int, int> class_band_y;     // depth -> logical y of class boxes
  // Results.
  struct Placed {
    ClassId cls;
    int x, y;
    BoxMetrics m;
  };
  struct PlacedGrouping {
    GroupingId g;
    ClassId parent;
    int x, y;
    BoxMetrics m;
  };
  std::vector<Placed> classes;
  std::vector<PlacedGrouping> groupings;

  explicit ForestLayout(const query::Workspace& w) : ws(w) {}

  int GroupingsRowWidth(ClassId cls) const {
    int w = 0;
    for (GroupingId g : ws.db().schema().GroupingsOf(cls)) {
      w += GroupingBoxMetrics(ws, g).width + 2;
    }
    return w > 0 ? w - 2 : 0;
  }

  int SubtreeWidth(ClassId cls) const {
    const Schema& schema = ws.db().schema();
    int own = ClassBoxMetrics(ws, cls, /*include_inherited=*/false).width;
    own = std::max(own, GroupingsRowWidth(cls));
    int kids = 0;
    for (ClassId c : schema.ChildrenOf(cls)) {
      kids += SubtreeWidth(c) + kHGap;
    }
    if (kids > 0) kids -= kHGap;
    return std::max(own, kids);
  }

  void MeasureBands(ClassId cls, int depth) {
    const Schema& schema = ws.db().schema();
    BoxMetrics m = ClassBoxMetrics(ws, cls, /*include_inherited=*/false);
    class_band_h[depth] = std::max(class_band_h[depth], m.height);
    for (GroupingId g : schema.GroupingsOf(cls)) {
      grouping_band_h[depth] =
          std::max(grouping_band_h[depth], GroupingBoxMetrics(ws, g).height);
    }
    for (ClassId c : schema.ChildrenOf(cls)) MeasureBands(c, depth + 1);
  }

  void ComputeBandY() {
    int y = 1;
    int max_depth = 0;
    for (const auto& [d, h] : class_band_h) {
      (void)h;
      max_depth = std::max(max_depth, d);
    }
    for (int d = 0; d <= max_depth; ++d) {
      y += grouping_band_h.count(d) ? grouping_band_h[d] : 0;
      class_band_y[d] = y;
      y += class_band_h[d] + kVGap;
    }
  }

  /// Places the subtree rooted at `cls` starting at logical x0; returns the
  /// subtree span width.
  int Place(ClassId cls, int depth, int x0) {
    const Schema& schema = ws.db().schema();
    int span = SubtreeWidth(cls);
    BoxMetrics m = ClassBoxMetrics(ws, cls, /*include_inherited=*/false);
    int cx = x0 + (span - m.width) / 2;
    int cy = class_band_y[depth];
    classes.push_back(Placed{cls, cx, cy, m});
    // Groupings in the band above, left-aligned with the class box.
    int gx = cx;
    for (GroupingId g : schema.GroupingsOf(cls)) {
      BoxMetrics gm = GroupingBoxMetrics(ws, g);
      int gy = cy - gm.height;
      groupings.push_back(PlacedGrouping{g, cls, gx, gy, gm});
      gx += gm.width + 2;
    }
    // Children below.
    int child_x = x0;
    for (ClassId c : schema.ChildrenOf(cls)) {
      child_x += Place(c, depth + 1, child_x) + kHGap;
    }
    return span;
  }
};

// Which schema selection a forest menu row is shown for.
enum : unsigned {
  kOnNone = 1u << 0,
  kOnClass = 1u << 1,
  kOnAttribute = 1u << 2,
  kOnGrouping = 1u << 3,
  kOnAny = kOnNone | kOnClass | kOnAttribute | kOnGrouping,
  kOnClassWithParents = 1u << 4,  // a class, under multiple inheritance
};

constexpr MenuRow kForestMenu[] = {
    {{"(re)name", ""}, kOnAny},
    {{"create baseclass", ""}, kOnAny},
    {{"view associations", "F1"}, kOnClass},
    {{"view contents", "F2"}, kOnClass},
    {{"create subclass", "F3"}, kOnClass},
    {{"create attribute", "F4"}, kOnClass},
    {{"(re)define membership", ""}, kOnClass},
    {{"define constraint", ""}, kOnClass},
    {{"display predicate", ""}, kOnClass},
    {{"add parent", ""}, kOnClassWithParents},
    {{"(re)specify value class", ""}, kOnAttribute},
    {{"(re)define derivation", ""}, kOnAttribute},
    {{"create grouping", ""}, kOnAttribute},
    {{"display predicate", ""}, kOnAttribute},
    {{"view contents", "F2"}, kOnGrouping},
    {{"display predicate", ""}, kOnGrouping},
    {{"check constraints", ""}, kOnAny},
    {{"drop constraint", ""}, kOnAny},
    {{"statistics", ""}, kOnAny},
    {{"show history", ""}, kOnAny},
    {{"delete", ""}, kOnAny},
    {{"undo", ""}, kOnAny},
    {{"redo", ""}, kOnAny},
    {{"pan left", ""}, kOnAny},
    {{"pan right", ""}, kOnAny},
    {{"pan up", ""}, kOnAny},
    {{"pan down", ""}, kOnAny},
    {{"save", ""}, kOnAny},
    {{"load", ""}, kOnAny},
    {{"stop", ""}, kOnAny},
};

/// The menu while a new subclass waits to be placed.
constexpr Menu::Item kPlacementMenu[] = {{"abort", ""}};

/// The forest menu rows for the current selection, copied into `out`.
std::span<const Menu::Item> ForestMenu(const RenderContext& ctx,
                                       std::span<Menu::Item> out) {
  if (ctx.st.temp_visit == TempVisit::kSubclassPlacement) {
    return kPlacementMenu;
  }
  unsigned mask = kOnNone;
  switch (ctx.st.selection.kind) {
    case SchemaSelection::Kind::kClass:
      mask = kOnClass;
      if (ctx.ws.db().schema().options().allow_multiple_parents) {
        mask |= kOnClassWithParents;
      }
      break;
    case SchemaSelection::Kind::kAttribute:
      mask = kOnAttribute;
      break;
    case SchemaSelection::Kind::kGrouping:
      mask = kOnGrouping;
      break;
    case SchemaSelection::Kind::kNone:
      break;
  }
  return ShownItems(kForestMenu, mask, out);
}

}  // namespace

void RenderForestView(const RenderContext& ctx, Screen* screen) {
  std::array<Menu::Item, std::size(kForestMenu)> menu;
  Rect content = DrawChrome(screen, ctx.ws.name(), "inheritance forest",
                            ForestMenu(ctx, menu), ctx.message);
  Window win(&screen->canvas, content);
  win.SetPan(ctx.st.pan_x, ctx.st.pan_y);

  const Schema& schema = ctx.ws.db().schema();
  ForestLayout layout(ctx.ws);
  std::vector<ClassId> roots;
  for (ClassId base : schema.Baseclasses()) {
    if (base.value() < 4) continue;  // predefined baseclasses stay implicit
    roots.push_back(base);
  }
  for (ClassId root : roots) layout.MeasureBands(root, 0);
  layout.ComputeBandY();
  int x = 7;  // left gutter for the hand icon on leftmost boxes
  for (ClassId root : roots) {
    x += layout.Place(root, 0, x) + kHGap;
  }

  // Parent-child connector lines (drawn before boxes so boxes overpaint).
  std::map<std::int64_t, const ForestLayout::Placed*> placed_by_class;
  for (const auto& p : layout.classes) placed_by_class[p.cls.value()] = &p;
  for (const auto& p : layout.classes) {
    const sdm::ClassDef& def = schema.GetClass(p.cls);
    for (ClassId parent : def.parents) {
      auto it = placed_by_class.find(parent.value());
      if (it == placed_by_class.end()) continue;
      const auto* pp = it->second;
      int from_x = pp->x + pp->m.width / 2;
      int from_y = pp->y + pp->m.height;
      int to_x = p.x + p.m.width / 2;
      int to_y = p.y - 1;
      int bus_y = to_y - (to_y > from_y ? 1 : 0);
      win.VLine(from_x, from_y, std::max(0, bus_y - from_y), '|');
      int lo = std::min(from_x, to_x);
      int hi = std::max(from_x, to_x);
      if (hi > lo) win.HLine(lo, bus_y, hi - lo + 1, '-');
      win.Put(to_x, to_y, '|');
    }
  }
  // Grouping connector: short line down to the parent class.
  for (const auto& g : layout.groupings) {
    auto it = placed_by_class.find(g.parent.value());
    if (it == placed_by_class.end()) continue;
    win.Put(g.x + g.m.width / 2, g.y + g.m.height, '|');
  }

  for (const auto& p : layout.classes) {
    DrawClassBox(&win, screen, ctx.ws, p.cls, p.x, p.y,
                 /*include_inherited=*/false);
  }
  for (const auto& g : layout.groupings) {
    DrawGroupingBox(&win, screen, ctx.ws, g.g, g.x, g.y);
  }

  // "A list of all classes can be created, as a pop-up menu, for selecting
  // the value class" (§3.2) — shown while a class pick is pending, since
  // the predefined baseclasses are not drawn in the forest itself.
  if (ctx.st.pick_mode == PickMode::kValueClass ||
      ctx.st.pick_mode == PickMode::kAddParent) {
    std::vector<ClassId> all = schema.AllClasses();
    int h = static_cast<int>(all.size()) + 2;
    Rect popup{content.x + 1, content.y + 1, 22,
               std::min(h, content.h - 2)};
    gfx::Canvas& canvas = screen->canvas;
    canvas.Fill(popup, ' ');
    canvas.Box(popup);
    canvas.Text(popup.x + 2, popup.y, "[all classes]", gfx::kBold);
    int row = popup.y + 1;
    for (ClassId c : all) {
      if (row >= popup.bottom() - 1) break;
      const std::string& nm = schema.GetClass(c).name;
      Rect hit{popup.x + 1, row, popup.w - 2, 1};
      canvas.Text(hit.x + 1, row, std::string_view(nm).substr(0, 18));
      screen->hits.push_back(HitRegion{hit, "class:" + nm});
      ++row;
    }
  }

  // The hand icon at the schema selection.
  const SchemaSelection& sel = ctx.st.selection;
  if (sel.kind == SchemaSelection::Kind::kClass ||
      sel.kind == SchemaSelection::Kind::kAttribute) {
    auto it = placed_by_class.find(sel.cls.value());
    if (it != placed_by_class.end()) {
      const auto* p = it->second;
      if (sel.kind == SchemaSelection::Kind::kClass) {
        DrawHandIcon(&win, p->x, p->y);
      } else {
        // Point at the attribute row inside the box.
        std::vector<AttributeId> own;
        for (AttributeId a : schema.GetClass(sel.cls).own_attributes) {
          if (schema.HasAttribute(a)) own.push_back(a);
        }
        int row = 0;
        for (size_t i = 0; i < own.size(); ++i) {
          if (own[i] == sel.attribute) row = static_cast<int>(i);
        }
        DrawHandIcon(&win, p->x, p->y + 2 + row);
      }
    }
  } else if (sel.kind == SchemaSelection::Kind::kGrouping) {
    for (const auto& g : layout.groupings) {
      if (g.g == sel.grouping) DrawHandIcon(&win, g.x, g.y);
    }
  }
}

}  // namespace isis::ui
