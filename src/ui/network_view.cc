/// \file network_view.cc
/// \brief The semantic network view (paper §3.2, Figure 2).
///
/// The schema selection is drawn with *all* its attributes (inherited ones
/// included — inheritance is implicit in this view) and one labeled arc per
/// attribute to its value class or value grouping: "we use a single arrow
/// for singlevalued and a double one for multivalued attributes". Incoming
/// arcs are listed below the graph. Picking a value node changes the schema
/// selection and re-centers the network on it.

#include <algorithm>
#include <map>

#include "ui/render_util.h"
#include "ui/views.h"

namespace isis::ui {

using gfx::Menu;
using gfx::Rect;
using gfx::Window;
using sdm::Schema;
using sdm::SchemaNode;

namespace {

constexpr Menu::Item kNetworkMenu[] = {
    {"pop", "F0"},       {"view contents", "F2"}, {"pan left", ""},
    {"pan right", ""},   {"pan up", ""},          {"pan down", ""},
    {"stop", ""},
};

std::string NodeKey(const SchemaNode& n) {
  return n.kind == SchemaNode::Kind::kClass
             ? "c" + std::to_string(n.class_id.value())
             : "g" + std::to_string(n.grouping_id.value());
}

}  // namespace

void RenderNetworkView(const RenderContext& ctx, Screen* screen) {
  Rect content = DrawChrome(screen, ctx.ws.name(), "semantic network",
                            kNetworkMenu, ctx.message);
  Window win(&screen->canvas, content);
  win.SetPan(ctx.st.pan_x, ctx.st.pan_y);

  const Schema& schema = ctx.ws.db().schema();
  const SchemaSelection& sel = ctx.st.selection;
  if (sel.kind != SchemaSelection::Kind::kClass || !schema.HasClass(sel.cls)) {
    win.Text(2, 2, "pick a class in the inheritance forest first");
    return;
  }

  // The selection, with inherited attributes.
  BoxMetrics sm = ClassBoxMetrics(ctx.ws, sel.cls, /*include_inherited=*/true);
  int sx = 2, sy = 2;
  DrawClassBox(&win, screen, ctx.ws, sel.cls, sx, sy,
               /*include_inherited=*/true);
  // The hand marker sits above the box (no room in the left margin here).
  win.Text(sx, sy - 1, "hand ==v", gfx::kBold);

  // Distinct value nodes in first-arc order; arrows from attribute rows.
  std::vector<Schema::NetworkArc> arcs = schema.OutgoingArcs(sel.cls);
  std::map<std::string, int> node_y;  // node key -> logical y of its box
  int target_x = sx + sm.width + 26;
  int next_y = sy;
  std::vector<AttributeId> attrs = schema.AllAttributesOf(sel.cls);

  for (const Schema::NetworkArc& arc : arcs) {
    std::string key = NodeKey(arc.to);
    int ty;
    auto it = node_y.find(key);
    if (it != node_y.end()) {
      ty = it->second;
    } else {
      ty = next_y;
      BoxMetrics tm =
          arc.to.kind == SchemaNode::Kind::kClass
              ? ClassBoxMetrics(ctx.ws, arc.to.class_id, false)
              : GroupingBoxMetrics(ctx.ws, arc.to.grouping_id);
      if (arc.to.kind == SchemaNode::Kind::kClass) {
        DrawClassBox(&win, screen, ctx.ws, arc.to.class_id, target_x, ty,
                     /*include_inherited=*/false);
      } else {
        DrawGroupingBox(&win, screen, ctx.ws, arc.to.grouping_id, target_x,
                        ty);
      }
      node_y[key] = ty;
      next_y = ty + tm.height + 1;
    }
    // The arrow starts at the attribute's row in the selection box.
    int row = 0;
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (attrs[i] == arc.attribute) row = static_cast<int>(i);
    }
    int ay = sy + 3 + row;
    const sdm::AttributeDef& def = schema.GetAttribute(arc.attribute);
    int from_x = sx + sm.width;
    int to_x = target_x - 1;
    // Label centered on the shaft; double shaft for multivalued.
    char shaft = def.multivalued ? '=' : '-';
    int len = to_x - from_x;
    if (len < 4) len = 4;
    for (int i = 0; i < len - 1; ++i) win.Put(from_x + i, ay, shaft);
    win.Put(from_x + len - 1, ay, '>');
    std::string label = def.name;
    int lx = from_x + (len - static_cast<int>(label.size())) / 2;
    win.Text(lx, ay, label, gfx::kBold);
    // Elbow down to the target row when the arrow row differs.
    int ty_name = node_y[key] + 1;
    if (ty_name != ay) {
      win.VLine(to_x, std::min(ay, ty_name) + 1, std::abs(ty_name - ay) - 1,
                '|');
      win.Put(to_x, ay, '+');
      win.Put(to_x, ty_name, '>');
    }
  }

  // Incoming arcs, textual.
  std::vector<Schema::NetworkArc> incoming =
      schema.IncomingArcs(SchemaNode::Class(sel.cls));
  if (!incoming.empty()) {
    int y = std::max(next_y, sy + sm.height) + 2;
    std::string line = "incoming: ";
    for (size_t i = 0; i < incoming.size(); ++i) {
      if (i > 0) line += ", ";
      line += schema.GetClass(incoming[i].from).name + "." +
              schema.GetAttribute(incoming[i].attribute).name;
    }
    win.Text(2, y, line, gfx::kDim);
  }
}

}  // namespace isis::ui
