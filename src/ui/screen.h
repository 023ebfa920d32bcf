/// \file screen.h
/// \brief A rendered view plus its pick hit-map.
///
/// Views are pure functions of (workspace, session state) to a Screen; the
/// controller hit-tests PickEvents against the regions. A session keeps one
/// Screen and each render redraws it in place. Named picks in
/// session scripts resolve through the same regions, so scripted sessions
/// exercise exactly the interactive code path.

#ifndef ISIS_UI_SCREEN_H_
#define ISIS_UI_SCREEN_H_

#include <string>
#include <vector>

#include "gfx/canvas.h"

namespace isis::ui {

/// A pickable region and its canonical target name. Names are namespaced:
///   class:<name>      grouping:<name>     attr:<name>
///   member:<name>     block:<name>        menu:<command>
///   atom:<A..E>       clause:<1..3>       op:<display>
///   rhsopt:<option>   page:<class name>
struct HitRegion {
  gfx::Rect rect;
  std::string target;
};

/// Standard ISIS screen size (the paper's workstation display, scaled to
/// character cells).
inline constexpr int kScreenWidth = 132;
inline constexpr int kScreenHeight = 40;

/// \brief A fully rendered screen.
struct Screen {
  Screen() : canvas(kScreenWidth, kScreenHeight) {}

  gfx::Canvas canvas;
  std::vector<HitRegion> hits;

  /// First region containing (x, y), topmost (= latest registered) wins.
  const HitRegion* HitTest(int x, int y) const {
    for (auto it = hits.rbegin(); it != hits.rend(); ++it) {
      if (it->rect.Contains(x, y)) return &*it;
    }
    return nullptr;
  }

  /// First region whose target matches `name` exactly.
  const HitRegion* FindTarget(const std::string& name) const {
    for (const HitRegion& h : hits) {
      if (h.target == name) return &h;
    }
    return nullptr;
  }
};

}  // namespace isis::ui

#endif  // ISIS_UI_SCREEN_H_
