/// \file data_view.cc
/// \brief The data level (paper §3.2, Figures 3-7, 11).
///
/// "The view here contains a number of overlapping pages. The top page
/// contains the schema selection ... and the data selection, some of its
/// members. Each page contains a class, with all of its attributes
/// including inherited ones, or a grouping. To the right of each class or
/// grouping is a pannable list of its members. Selected members are
/// highlighted with bold text."
///
/// Pages cascade right-and-down; following an attribute pushes a page, pop
/// goes backwards. Only the top page is interactive (its members and
/// attribute rows register hit regions).

#include <algorithm>

#include "gfx/pattern.h"
#include "ui/render_util.h"
#include "ui/views.h"

namespace isis::ui {

using gfx::Menu;
using gfx::Rect;
using gfx::Window;
using sdm::EntitySet;
using sdm::Schema;

namespace {

constexpr int kPageDx = 7;    // cascade offset per page
constexpr int kPageDy = 2;
constexpr int kListRows = 14;  // member rows visible before panning
constexpr int kNameColumn = 24;
constexpr int kListWidth = 22;

constexpr Menu::Item kDataMenu[] = {
    {"follow", "F5"},
    {"pop", "F0"},
    {"select/reject", ""},
    {"(re)assign att. value", ""},
    {"make subclass", "F6"},
    {"create entity", ""},
    {"delete entity", ""},
    {"members up", ""},
    {"members down", ""},
    {"view forest", "F1"},
    {"save", ""},
    {"stop", ""},
};

/// The menu while the worksheet has sent the user to pick a constant.
constexpr Menu::Item kConstantMenu[] = {
    {"accept constant", ""}, {"create constant", ""}, {"abort", ""},
    {"members up", ""},      {"members down", ""},
};

}  // namespace

void RenderDataView(const RenderContext& ctx, Screen* screen) {
  const bool constant = ctx.st.temp_visit == TempVisit::kConstantSelection;
  Rect content = DrawChrome(
      screen, ctx.ws.name(),
      constant ? "data level (select constant)" : "data level",
      constant ? std::span<const Menu::Item>(kConstantMenu) : kDataMenu,
      ctx.message);
  Window win(&screen->canvas, content);

  const Schema& schema = ctx.ws.db().schema();
  const sdm::Database& db = ctx.ws.db();

  for (size_t pi = 0; pi < ctx.st.pages.size(); ++pi) {
    const DataPage& page = ctx.st.pages[pi];
    bool top = (pi + 1 == ctx.st.pages.size());
    int px = 2 + static_cast<int>(pi) * kPageDx;
    int py = 1 + static_cast<int>(pi) * kPageDy;

    // A class page lists the class's members; a grouping page lists its
    // blocks by index ("each page contains ... a grouping" whose members
    // are sets). Reading the blocks may intern names, so it comes before
    // any NameOf reference below is taken.
    std::string_view title;
    std::vector<AttributeId> attrs;
    std::vector<sdm::GroupingBlock> blocks;
    const EntitySet* class_members = nullptr;
    int pattern;
    if (page.is_grouping) {
      const sdm::GroupingDef& def = schema.GetGrouping(page.grouping);
      title = def.name;
      pattern = def.fill_pattern;
      blocks = db.GroupingBlocks(page.grouping);
    } else {
      const sdm::ClassDef& def = schema.GetClass(page.cls);
      title = def.name;
      pattern = def.fill_pattern;
      attrs = schema.AllAttributesOf(page.cls);
      class_members = &db.Members(page.cls);
    }
    const int listed = static_cast<int>(
        page.is_grouping ? blocks.size() : class_members->size());
    int shown = std::min<int>(kListRows, listed - page.member_pan);
    shown = std::max(shown, 0);
    int body_rows = std::max({static_cast<int>(attrs.size()) + 1, shown, 3});
    int w = kNameColumn + kListWidth + 3;
    int h = body_rows + 3;
    Rect box{px, py, w, h};
    win.Box(box);
    if (top) {
      // The page region goes in first so the attribute and member rows
      // registered below shadow it in hit-testing.
      Rect hit = win.ToScreen(box);
      if (hit.w > 0) {
        screen->hits.push_back(
            HitRegion{hit, std::string("page:").append(title)});
      }
    }
    // Header: page title over the characteristic pattern.
    const int title_w = static_cast<int>(title.size());
    win.Text(px + 2, py, "[ ");
    win.Text(px + 4, py, title);
    win.Text(px + 4 + title_w, py, " ]");
    for (int i = 0; i < 4; ++i) {
      win.Put(px + 2 + title_w + 5 + i, py, gfx::PatternGlyph(pattern, i, 0));
    }
    win.VLine(px + kNameColumn + 1, py + 1, h - 2, '|');
    // Attribute section (classes only; groupings have none).
    int row = py + 1;
    for (AttributeId a : attrs) {
      const sdm::AttributeDef& def = schema.GetAttribute(a);
      bool followed = page.followed == a;
      const std::uint8_t style = followed ? gfx::kBold : gfx::kPlain;
      // The name, cut or padded to the label column.
      win.HLine(px + 1, row, kNameColumn - 7, ' ', style);
      win.Text(px + 1, row,
               std::string_view(def.name).substr(0, kNameColumn - 7), style);
      for (int i = 0; i < 5; ++i) {
        bool border = def.multivalued && (i == 0 || i == 4);
        int vp = def.value_grouping.valid()
                     ? schema.GetGrouping(def.value_grouping).fill_pattern
                     : schema.GetClass(def.value_class).fill_pattern;
        win.Put(px + kNameColumn - 5 + i, row,
                border ? ' ' : gfx::PatternGlyph(vp, i, 0));
      }
      if (followed) win.Text(px + kNameColumn - 6, row, ">", gfx::kBold);
      if (top) {
        Rect hit = win.ToScreen(Rect{px + 1, row, kNameColumn, 1});
        if (hit.w > 0) {
          screen->hits.push_back(HitRegion{hit, "attr:" + def.name});
        }
      }
      ++row;
    }
    if (page.is_grouping) {
      const std::string& parent =
          schema.GetClass(schema.GetGrouping(page.grouping).parent).name;
      win.Text(px + 1, py + 1, "(grouping: sets of", gfx::kDim);
      win.Text(px + 1, py + 2, " ", gfx::kDim);
      win.Text(px + 2, py + 2, parent, gfx::kDim);
      win.Text(px + 2 + static_cast<int>(parent.size()), py + 2, ")",
               gfx::kDim);
    }
    // Member list (pannable).
    std::string header = page.is_grouping ? "blocks" : "members";
    if (page.member_pan > 0) header += " ^";
    if (page.member_pan + shown < listed) header += " v";
    win.Text(px + kNameColumn + 3, py + 1, header, gfx::kDim);
    for (int i = 0; i < shown; ++i) {
      const size_t k = static_cast<size_t>(page.member_pan + i);
      EntityId e =
          page.is_grouping ? blocks[k].index : class_members->begin()[k];
      bool selected = page.selected.count(e) > 0;
      const std::uint8_t style = selected ? gfx::kBold : gfx::kPlain;
      const std::string& name = db.NameOf(e);
      std::string_view label = name;
      std::string with_size;  // a block shows its size after its name
      if (page.is_grouping) {
        with_size =
            name + " {" + std::to_string(blocks[k].members.size()) + "}";
        label = with_size;
      }
      const int x = px + kNameColumn + 3;
      win.Text(x, py + 2 + i, selected ? "*" : " ", style);
      win.Text(x + 1, py + 2 + i, label.substr(0, kListWidth - 2), style);
      if (top) {
        Rect hit =
            win.ToScreen(Rect{px + kNameColumn + 2, py + 2 + i,
                              kListWidth, 1});
        if (hit.w > 0) {
          screen->hits.push_back(HitRegion{hit, "member:" + name});
        }
      }
    }
    // Follow arrow into the next page.
    const bool followed_into_next =
        pi + 1 < ctx.st.pages.size() && page.followed.valid() &&
        schema.HasAttribute(page.followed);
    if (followed_into_next) {
      const std::string& attr = schema.GetAttribute(page.followed).name;
      win.Text(px + kPageDx, py + h, "==[", gfx::kBold);
      win.Text(px + kPageDx + 3, py + h, attr, gfx::kBold);
      win.Text(px + kPageDx + 3 + static_cast<int>(attr.size()), py + h,
               "]==>", gfx::kBold);
    } else if (pi + 1 < ctx.st.pages.size() && page.is_grouping) {
      win.Text(px + kPageDx, py + h, "==[follow set]==>", gfx::kBold);
    }
  }

  if (ctx.st.pages.empty()) {
    win.Text(2, 2, "no data page: pick 'view contents' on a class first");
  }
}

}  // namespace isis::ui
