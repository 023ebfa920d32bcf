/// \file worksheet_view.cc
/// \brief The predicate worksheet (paper §3.2, Figures 9-10).
///
/// "The predicate worksheet consists of several windows. The atom
/// construction window at the lower right contains three subwindows for the
/// left hand side, the operator, and the right hand side. Maps are
/// specified by choosing the map attributes with the mouse and forming a
/// stack of classes. ... As atoms are being constructed, feedback is
/// provided above the atom creation window in the atom list window ...
/// These atoms may be edited and placed in clauses (the set of windows on
/// the left) in disjunctive or conjunctive normal form."

#include <algorithm>
#include <array>
#include <iterator>

#include "query/eval.h"
#include "ui/render_util.h"
#include "ui/views.h"

namespace isis::ui {

using gfx::Menu;
using gfx::Rect;
using gfx::Window;
using query::Atom;
using query::NormalForm;
using query::Operand;
using query::SetOp;
using query::Term;
using sdm::Schema;

namespace {

// Which worksheet targets a menu row is shown for.
enum : unsigned {
  kAnyTarget = 1u << 0,
  kDerivationTarget = 1u << 1,
};

constexpr MenuRow kWorksheetMenu[] = {
    {{"edit", ""}, kAnyTarget},
    {{"place 1", ""}, kAnyTarget},
    {{"place 2", ""}, kAnyTarget},
    {{"place 3", ""}, kAnyTarget},
    {{"lhs", ""}, kAnyTarget},
    {{"rhs map", ""}, kAnyTarget},
    {{"rhs map starting at class", ""}, kAnyTarget},
    {{"rhs constant", ""}, kAnyTarget},
    {{"rhs constant starting at class", ""}, kAnyTarget},
    {{"negate", ""}, kAnyTarget},
    {{"hand", ""}, kDerivationTarget},  // the unary assignment operator's icon
    {{"switch and/or", ""}, kAnyTarget},
    {{"clear atom", ""}, kAnyTarget},
    {{"commit", ""}, kAnyTarget},
    {{"abort", ""}, kAnyTarget},
};

/// Names of the classes a term's map passes through, for the class stack.
std::vector<std::string> TermClassStack(const query::Workspace& ws,
                                        const Term& term, ClassId start) {
  const Schema& schema = ws.db().schema();
  std::vector<std::string> out;
  ClassId cur = start;
  switch (term.origin) {
    case Operand::kConstant:
      out.push_back("(constants)");
      cur = ClassId();  // the constants carry their own class
      break;
    case Operand::kClassExtent:
      cur = term.extent_class;
      break;
    default:
      break;
  }
  if (cur.valid() && schema.HasClass(cur)) {
    out.push_back(schema.GetClass(cur).name);
  }
  for (AttributeId a : term.path) {
    if (!schema.HasAttribute(a)) break;
    cur = schema.GetAttribute(a).value_class;
    out.push_back(schema.GetClass(cur).name);
  }
  return out;
}

/// The class the focused term currently terminates in (where the next picked
/// attribute must be visible).
ClassId TermTipClass(const query::Workspace& ws, const Term& term,
                     ClassId start) {
  const Schema& schema = ws.db().schema();
  ClassId cur = term.origin == Operand::kClassExtent ? term.extent_class
                                                     : start;
  if (term.origin == Operand::kConstant) {
    query::Evaluator eval(ws.db());
    query::PredicateContext pctx;
    pctx.candidate_class = start;
    Result<ClassId> r = eval.TermTerminalClass(term, pctx);
    return r.ok() ? *r : ClassId();
  }
  for (AttributeId a : term.path) {
    if (!schema.HasAttribute(a)) return ClassId();
    cur = schema.GetAttribute(a).value_class;
  }
  return cur;
}

}  // namespace

/// The class e ranges over (V) for the worksheet's current target.
static ClassId WorksheetCandidateClass(const query::Workspace& ws,
                                       const WorksheetState& w) {
  const Schema& schema = ws.db().schema();
  if (w.target == WorksheetState::Target::kMembership) {
    if (schema.HasClass(w.target_class)) {
      return schema.GetClass(w.target_class).parent();
    }
  } else if (w.target == WorksheetState::Target::kDerivation) {
    if (schema.HasAttribute(w.target_attr)) {
      return schema.GetAttribute(w.target_attr).value_class;
    }
  } else if (w.target == WorksheetState::Target::kConstraint) {
    if (schema.HasClass(w.target_class)) return w.target_class;
  }
  return ClassId();
}

void RenderWorksheetView(const RenderContext& ctx, Screen* screen) {
  const WorksheetState& w = ctx.st.worksheet;
  std::array<Menu::Item, std::size(kWorksheetMenu)> menu;
  const unsigned mask =
      kAnyTarget | (w.target == WorksheetState::Target::kDerivation
                        ? kDerivationTarget
                        : 0u);
  DrawChrome(screen, ctx.ws.name(), "predicate worksheet",
             ShownItems(kWorksheetMenu, mask, menu), ctx.message);
  gfx::Canvas& canvas = screen->canvas;
  const Schema& schema = ctx.ws.db().schema();

  // Header: what is being defined.
  std::string header;
  if (w.target == WorksheetState::Target::kMembership &&
      schema.HasClass(w.target_class)) {
    header = "defining membership of '" + schema.GetClass(w.target_class).name +
             "' (e ranges over '" +
             schema.GetClass(schema.GetClass(w.target_class).parent()).name +
             "')";
  } else if (w.target == WorksheetState::Target::kDerivation &&
             schema.HasAttribute(w.target_attr)) {
    const sdm::AttributeDef& def = schema.GetAttribute(w.target_attr);
    header = "defining derivation of '" + def.name + "' on '" +
             schema.GetClass(def.owner).name + "' (e ranges over '" +
             schema.GetClass(def.value_class).name + "')";
  } else if (w.target == WorksheetState::Target::kConstraint &&
             schema.HasClass(w.target_class)) {
    header = "defining constraint '" + w.constraint_name +
             "': every e in '" + schema.GetClass(w.target_class).name +
             "' must satisfy the predicate";
  } else {
    header = "no worksheet target";
  }
  canvas.Text(2, 1, header, gfx::kBold);
  canvas.Text(2, 2,
              std::string("normal form: ") +
                  (w.pred.form == NormalForm::kConjunctive
                       ? "conjunctive (AND of clauses)"
                       : "disjunctive (OR of clauses)"));

  // Clause windows on the left.
  const int clause_w = 22;
  for (int c = 0; c < WorksheetState::kClauseWindows; ++c) {
    Rect r{1, 4 + c * 5, clause_w, 5};
    canvas.Box(r);
    canvas.Text(r.x + 2, r.y, "[clause " + std::to_string(c + 1) + "]");
    std::string atoms;
    if (static_cast<size_t>(c) < w.pred.clauses.size()) {
      for (int idx : w.pred.clauses[c]) {
        if (!atoms.empty()) {
          atoms += w.pred.form == NormalForm::kConjunctive ? " or " : " and ";
        }
        atoms += static_cast<char>('A' + idx);
      }
    }
    canvas.Text(r.x + 2, r.y + 2, atoms, gfx::kBold);
    screen->hits.push_back(HitRegion{r, "clause:" + std::to_string(c + 1)});
  }

  // Atom list window above the construction window.
  Rect atom_list{clause_w + 3, 4, 46, 3 + WorksheetState::kAtomSlots};
  canvas.Box(atom_list);
  canvas.Text(atom_list.x + 2, atom_list.y, "[atom list]");
  for (int i = 0; i < WorksheetState::kAtomSlots; ++i) {
    char letter = static_cast<char>('A' + i);
    std::string text(1, letter);
    text += ": ";
    if (static_cast<size_t>(i) < w.pred.atoms.size()) {
      text += AtomToString(ctx.ws.db(), w.pred.atoms[i]);
    }
    bool current = w.current_atom == i;
    Rect row{atom_list.x + 1, atom_list.y + 1 + i, atom_list.w - 2, 1};
    canvas.Text(row.x + 1, row.y,
                std::string_view(text).substr(
                    0, static_cast<size_t>(atom_list.w - 4)),
                current ? gfx::kBold : gfx::kPlain);
    if (current) canvas.Put(row.x, row.y, '>');
    screen->hits.push_back(HitRegion{row, std::string("atom:") + letter});
  }

  // The atom construction window.
  Rect cons{clause_w + 3, atom_list.bottom() + 1, 46, 14};
  canvas.Box(cons);
  canvas.Text(cons.x + 2, cons.y, "[atom construction]");
  ClassId v = WorksheetCandidateClass(ctx.ws, w);
  if (w.use_hand) {
    canvas.Text(cons.x + 2, cons.y + 1, "hand (assign):", gfx::kBold);
    canvas.Text(cons.x + 17, cons.y + 1,
                TermToString(ctx.ws.db(), w.hand_term));
    // Stack for the hand term; picks extend it.
    ClassId hand_start =
        w.target == WorksheetState::Target::kDerivation &&
                schema.HasAttribute(w.target_attr)
            ? schema.GetAttribute(w.target_attr).owner
            : ClassId();
    std::vector<std::string> stack =
        TermClassStack(ctx.ws, w.hand_term, hand_start);
    int y = cons.y + 2;
    canvas.Text(cons.x + 2, y, "stack:", gfx::kDim);
    for (size_t i = 0; i < stack.size(); ++i) {
      canvas.Text(cons.x + 9, y + static_cast<int>(i), stack[i]);
    }
    // Attribute palette at the stack tip, so the hand map can be extended
    // by picking, exactly as on the two-sided atom.
    ClassId tip = TermTipClass(ctx.ws, w.hand_term, hand_start);
    if (tip.valid() && schema.HasClass(tip)) {
      canvas.Text(cons.x + 2, cons.y + 9, "attributes:", gfx::kDim);
      int ax = cons.x + 14;
      for (AttributeId a : schema.AllAttributesOf(tip)) {
        const std::string& nm = schema.GetAttribute(a).name;
        if (ax + static_cast<int>(nm.size()) >= cons.right() - 1) break;
        Rect hit{ax, cons.y + 9, static_cast<int>(nm.size()), 1};
        canvas.Text(ax, cons.y + 9, nm);
        screen->hits.push_back(HitRegion{hit, "attr:" + nm});
        ax += static_cast<int>(nm.size()) + 2;
      }
    }
  } else if (w.current_atom >= 0 &&
             static_cast<size_t>(w.current_atom) < w.pred.atoms.size()) {
    const Atom& atom = w.pred.atoms[w.current_atom];
    bool lhs_focus = w.focus == WorksheetState::Focus::kLhs;
    canvas.Text(cons.x + 2, cons.y + 1, "lhs:",
                lhs_focus ? gfx::kBold : gfx::kPlain);
    canvas.Text(cons.x + 7, cons.y + 1, TermToString(ctx.ws.db(), atom.lhs));
    canvas.Text(cons.x + 2, cons.y + 2, "op:");
    canvas.Text(cons.x + 7, cons.y + 2,
                std::string(atom.negated ? "not" : "") +
                    query::SetOpToString(atom.op));
    canvas.Text(cons.x + 2, cons.y + 3, "rhs:",
                !lhs_focus ? gfx::kBold : gfx::kPlain);
    canvas.Text(cons.x + 7, cons.y + 3, TermToString(ctx.ws.db(), atom.rhs));
    // Class stack of the focused side.
    ClassId self_cls =
        w.target == WorksheetState::Target::kDerivation &&
                schema.HasAttribute(w.target_attr)
            ? schema.GetAttribute(w.target_attr).owner
            : ClassId();
    const Term& focused = lhs_focus ? atom.lhs : atom.rhs;
    ClassId start = focused.origin == Operand::kSelf ? self_cls : v;
    std::vector<std::string> stack = TermClassStack(ctx.ws, focused, start);
    canvas.Text(cons.x + 2, cons.y + 4, "stack:", gfx::kDim);
    for (size_t i = 0; i < stack.size() && i < 4; ++i) {
      canvas.Text(cons.x + 9 + static_cast<int>(i) * 2,
                  cons.y + 4 + static_cast<int>(i),
                  (i > 0 ? "> " : "") + stack[i]);
    }
    // Attributes of the stack-tip class, pickable to extend the map.
    ClassId tip = TermTipClass(ctx.ws, focused, start);
    if (tip.valid() && schema.HasClass(tip)) {
      canvas.Text(cons.x + 2, cons.y + 9, "attributes:", gfx::kDim);
      int ax = cons.x + 14;
      for (AttributeId a : schema.AllAttributesOf(tip)) {
        const std::string& nm = schema.GetAttribute(a).name;
        if (ax + static_cast<int>(nm.size()) >= cons.right() - 1) break;
        Rect hit{ax, cons.y + 9, static_cast<int>(nm.size()), 1};
        canvas.Text(ax, cons.y + 9, nm);
        screen->hits.push_back(HitRegion{hit, "attr:" + nm});
        ax += static_cast<int>(nm.size()) + 2;
      }
    }
    // Operator palette.
    canvas.Text(cons.x + 2, cons.y + 11, "operators:", gfx::kDim);
    int ox = cons.x + 14;
    static const SetOp kOps[] = {
        SetOp::kEqual,         SetOp::kSubset,        SetOp::kSuperset,
        SetOp::kProperSubset,  SetOp::kProperSuperset, SetOp::kWeakMatch,
        SetOp::kLessEqual,     SetOp::kGreater,
    };
    for (SetOp op : kOps) {
      std::string sym = query::SetOpToString(op);
      Rect hit{ox, cons.y + 11, static_cast<int>(sym.size()), 1};
      canvas.Text(ox, cons.y + 11, sym, gfx::kBold);
      screen->hits.push_back(HitRegion{hit, "op:" + sym});
      ox += static_cast<int>(sym.size()) + 2;
    }
  } else {
    canvas.Text(cons.x + 2, cons.y + 2,
                "pick an atom slot (A-E) and press 'edit'", gfx::kDim);
  }

  // Class list window on the right of the construction window.
  Rect class_list{cons.right() + 1, 4, 20, 26};
  canvas.Box(class_list);
  canvas.Text(class_list.x + 2, class_list.y, "[class list]");
  int cy = class_list.y + 1;
  for (ClassId c : schema.AllClasses()) {
    if (cy >= class_list.bottom() - 1) break;
    const std::string& nm = schema.GetClass(c).name;
    Rect row{class_list.x + 1, cy, class_list.w - 2, 1};
    canvas.Text(row.x + 1, row.y, std::string_view(nm).substr(0, 16));
    screen->hits.push_back(HitRegion{row, "class:" + nm});
    ++cy;
  }
}

}  // namespace isis::ui
