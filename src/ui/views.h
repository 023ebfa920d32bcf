/// \file views.h
/// \brief The four ISIS views (paper §3.1): inheritance forest, semantic
/// network, predicate worksheet, and the data level.
///
/// Each view is a pure function of (workspace, session state) to a Screen
/// (canvas + hit regions), which makes every one of the paper's Figures
/// 1-12 a deterministic artifact of a session-script prefix. A view draws
/// into a caller-owned Screen, replacing all of its contents, so a session
/// can render every event into the one screen it keeps.

#ifndef ISIS_UI_VIEWS_H_
#define ISIS_UI_VIEWS_H_

#include <string_view>

#include "query/workspace.h"
#include "ui/screen.h"
#include "ui/state.h"

namespace isis::ui {

/// Everything a view render needs.
struct RenderContext {
  const query::Workspace& ws;
  const SessionState& st;
  /// Status line contents: prompts, warnings, textual output (§3's text
  /// windows).
  std::string_view message;
};

/// The inheritance forest view (Figures 1, 8, 12): trees of classes with
/// groupings above and subclasses below, the hand icon at the schema
/// selection, and the editing menu on the right.
void RenderForestView(const RenderContext& ctx, Screen* screen);

/// The semantic network view (Figure 2): the selected class with its
/// outgoing labeled arcs (single arrow singlevalued, double arrow
/// multivalued), inherited attributes included.
void RenderNetworkView(const RenderContext& ctx, Screen* screen);

/// The predicate worksheet (Figures 9, 10): clause windows, the atom list,
/// the atom construction window with its class stack, and the class list.
void RenderWorksheetView(const RenderContext& ctx, Screen* screen);

/// The data level (Figures 3-7, 11): overlapping pages, each with the full
/// attribute section and a pannable member list; selected members bold.
void RenderDataView(const RenderContext& ctx, Screen* screen);

/// Dispatches on ctx.st.level.
void RenderCurrent(const RenderContext& ctx, Screen* screen);

}  // namespace isis::ui

#endif  // ISIS_UI_VIEWS_H_
