#include "ui/views.h"

namespace isis::ui {

const char* LevelToString(Level level) {
  switch (level) {
    case Level::kInheritanceForest:
      return "inheritance forest";
    case Level::kSemanticNetwork:
      return "semantic network";
    case Level::kPredicateWorksheet:
      return "predicate worksheet";
    case Level::kDataLevel:
      return "data level";
  }
  return "?";
}

void RenderCurrent(const RenderContext& ctx, Screen* screen) {
  switch (ctx.st.level) {
    case Level::kInheritanceForest:
      return RenderForestView(ctx, screen);
    case Level::kSemanticNetwork:
      return RenderNetworkView(ctx, screen);
    case Level::kPredicateWorksheet:
      return RenderWorksheetView(ctx, screen);
    case Level::kDataLevel:
      return RenderDataView(ctx, screen);
  }
}

}  // namespace isis::ui
