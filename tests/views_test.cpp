/// \file views_test.cpp
/// \brief Tests for the four view renderers: content, the paper's visual
/// conventions (reverse video, set borders, bold selection), hit regions
/// and determinism.

#include <gtest/gtest.h>

#include "datasets/instrumental_music.h"
#include "ui/views.h"

namespace isis::ui {
namespace {

class ViewsTest : public ::testing::Test {
 protected:
  void SetUp() override { ws_ = datasets::BuildInstrumentalMusic(); }

  SchemaSelection SelectClass(const char* name) {
    return SchemaSelection::Class(*ws_->db().schema().FindClass(name));
  }
  Screen Render(const SessionState& st) {
    Screen screen;
    RenderCurrent(RenderContext{*ws_, st, "test message"}, &screen);
    return screen;
  }
  bool HasHit(const Screen& s, const std::string& target) {
    return s.FindTarget(target) != nullptr;
  }

  std::unique_ptr<query::Workspace> ws_;
};

TEST_F(ViewsTest, ForestShowsAllUserTrees) {
  SessionState st;
  st.selection = SelectClass("soloists");
  Screen screen = Render(st);
  std::string text = screen.canvas.ToString();
  for (const char* name :
       {"musicians", "instruments", "music_groups", "families",
        "play_strings", "soloists", "by_instrument", "work_status",
        "by_family", "by_in_group"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  // Predefined baseclasses stay implicit in the forest.
  EXPECT_EQ(text.find("INTEGER"), std::string::npos);
  // The hand icon marks the selection.
  EXPECT_NE(text.find("hand"), std::string::npos);
  // The message reaches the text window.
  EXPECT_NE(text.find("test message"), std::string::npos);
}

TEST_F(ViewsTest, ForestBaseclassNamesInReverseVideo) {
  SessionState st;
  Screen screen = Render(st);
  // Find "musicians" and check its style row says reverse.
  std::string text = screen.canvas.ToString();
  std::string styles = screen.canvas.StyleString();
  size_t pos = text.find("musicians");
  ASSERT_NE(pos, std::string::npos);
  // Count the row/column of the match.
  int row = static_cast<int>(std::count(text.begin(),
                                        text.begin() + static_cast<long>(pos),
                                        '\n'));
  size_t line_start = text.rfind('\n', pos);
  int col = static_cast<int>(pos - (line_start + 1));
  EXPECT_EQ(screen.canvas.At(col, row).style & gfx::kReverse, gfx::kReverse);
  (void)styles;
  // Subclass names are NOT reverse video.
  size_t sub = text.find("play_strings");
  int sub_row = static_cast<int>(std::count(
      text.begin(), text.begin() + static_cast<long>(sub), '\n'));
  size_t sub_line = text.rfind('\n', sub);
  int sub_col = static_cast<int>(sub - (sub_line + 1));
  EXPECT_EQ(screen.canvas.At(sub_col, sub_row).style & gfx::kReverse, 0);
}

TEST_F(ViewsTest, ForestHitRegionsCoverSchemaObjects) {
  SessionState st;
  st.selection = SelectClass("musicians");
  Screen screen = Render(st);
  EXPECT_TRUE(HasHit(screen, "class:musicians"));
  EXPECT_TRUE(HasHit(screen, "class:soloists"));
  EXPECT_TRUE(HasHit(screen, "grouping:by_family"));
  EXPECT_TRUE(HasHit(screen, "attr:musicians.plays"));
  EXPECT_TRUE(HasHit(screen, "menu:view contents"));
  EXPECT_TRUE(HasHit(screen, "menu:stop"));
}

TEST_F(ViewsTest, ForestMenuVariesWithSelectionKind) {
  // "The commands on the menu vary according to whether the schema
  // selection is a class, an attribute or a grouping."
  SessionState st;
  st.selection = SelectClass("musicians");
  EXPECT_TRUE(HasHit(Render(st), "menu:create subclass"));
  const sdm::Schema& s = ws_->db().schema();
  st.selection = SchemaSelection::Attribute(
      *s.FindClass("musicians"),
      *s.FindAttribute(*s.FindClass("musicians"), "plays"));
  Screen attr_screen = Render(st);
  EXPECT_TRUE(HasHit(attr_screen, "menu:(re)specify value class"));
  EXPECT_TRUE(HasHit(attr_screen, "menu:create grouping"));
  EXPECT_FALSE(HasHit(attr_screen, "menu:create subclass"));
  st.selection = SchemaSelection::Grouping(*s.FindGrouping("by_family"));
  Screen grp_screen = Render(st);
  EXPECT_TRUE(HasHit(grp_screen, "menu:display predicate"));
  EXPECT_FALSE(HasHit(grp_screen, "menu:create attribute"));
}

TEST_F(ViewsTest, NetworkShowsInheritedAttributesAndArrowKinds) {
  SessionState st;
  st.level = Level::kSemanticNetwork;
  st.selection = SelectClass("play_strings");
  Screen screen = Render(st);
  std::string text = screen.canvas.ToString();
  // Inherited attributes appear: stage_name, plays, union + own in_group.
  EXPECT_NE(text.find("stage_name"), std::string::npos);
  EXPECT_NE(text.find("in_group"), std::string::npos);
  // "a single arrow for singlevalued and a double one for multivalued":
  // plays is multivalued (double shaft '='), union singlevalued ('-').
  EXPECT_NE(text.find("=plays="), std::string::npos);
  EXPECT_NE(text.find("-union-"), std::string::npos);
  // Value classes are pickable (the session's figure 2 interaction).
  EXPECT_TRUE(HasHit(screen, "class:instruments"));
}

TEST_F(ViewsTest, NetworkListsIncomingArcs) {
  SessionState st;
  st.level = Level::kSemanticNetwork;
  st.selection = SelectClass("instruments");
  std::string text = Render(st).canvas.ToString();
  EXPECT_NE(text.find("incoming: musicians.plays"), std::string::npos);
}

TEST_F(ViewsTest, DataViewShowsMembersAndSelectionBold) {
  SessionState st;
  st.level = Level::kDataLevel;
  DataPage page;
  page.cls = *ws_->db().schema().FindClass("instruments");
  page.selected = {*ws_->db().FindEntity(page.cls, "flute")};
  st.pages = {page};
  Screen screen = Render(st);
  std::string text = screen.canvas.ToString();
  EXPECT_NE(text.find("*flute"), std::string::npos);  // selected marker
  EXPECT_NE(text.find(" oboe"), std::string::npos);
  // Inherited attribute section: all attributes incl. naming.
  EXPECT_NE(text.find("family"), std::string::npos);
  EXPECT_TRUE(HasHit(screen, "member:oboe"));
  EXPECT_TRUE(HasHit(screen, "attr:family"));
  EXPECT_TRUE(HasHit(screen, "menu:follow"));
}

TEST_F(ViewsTest, DataViewGroupingPageShowsBlocks) {
  SessionState st;
  st.level = Level::kDataLevel;
  DataPage page;
  page.is_grouping = true;
  page.grouping = *ws_->db().schema().FindGrouping("by_family");
  st.pages = {page};
  Screen screen = Render(st);
  std::string text = screen.canvas.ToString();
  EXPECT_NE(text.find("by_family"), std::string::npos);
  EXPECT_NE(text.find("blocks"), std::string::npos);
  // Block entries show the index entity and the block size.
  EXPECT_NE(text.find("stringed {5}"), std::string::npos);
  EXPECT_TRUE(HasHit(screen, "member:percussion"));
}

TEST_F(ViewsTest, DataViewPansMemberList) {
  SessionState st;
  st.level = Level::kDataLevel;
  DataPage page;
  page.cls = *ws_->db().schema().FindClass("instruments");
  st.pages = {page};
  Screen first = Render(st);
  EXPECT_TRUE(HasHit(first, "member:flute"));
  EXPECT_FALSE(HasHit(first, "member:piano"));  // below the fold (17 members)
  st.pages[0].member_pan = 10;
  Screen panned = Render(st);
  EXPECT_FALSE(HasHit(panned, "member:flute"));
  EXPECT_TRUE(HasHit(panned, "member:piano"));
}

TEST_F(ViewsTest, DataViewStacksPagesWithFollowArrow) {
  SessionState st;
  st.level = Level::kDataLevel;
  const sdm::Schema& s = ws_->db().schema();
  DataPage bottom;
  bottom.cls = *s.FindClass("instruments");
  bottom.followed = *s.FindAttribute(bottom.cls, "family");
  DataPage top;
  top.cls = *s.FindClass("families");
  st.pages = {bottom, top};
  Screen screen = Render(st);
  std::string text = screen.canvas.ToString();
  EXPECT_NE(text.find("==[family]==>"), std::string::npos);
  // Only the top page is interactive.
  EXPECT_TRUE(HasHit(screen, "member:brass"));
  EXPECT_FALSE(HasHit(screen, "member:flute"));
}

TEST_F(ViewsTest, WorksheetRendersWindows) {
  SessionState st;
  st.level = Level::kPredicateWorksheet;
  st.worksheet.target = WorksheetState::Target::kMembership;
  const sdm::Schema& s = ws_->db().schema();
  st.worksheet.target_class = *s.FindClass("play_strings");
  Screen screen = Render(st);
  std::string text = screen.canvas.ToString();
  EXPECT_NE(text.find("[clause 1]"), std::string::npos);
  EXPECT_NE(text.find("[atom list]"), std::string::npos);
  EXPECT_NE(text.find("[atom construction]"), std::string::npos);
  EXPECT_NE(text.find("[class list]"), std::string::npos);
  EXPECT_NE(text.find("defining membership of 'play_strings'"),
            std::string::npos);
  EXPECT_TRUE(HasHit(screen, "atom:A"));
  EXPECT_TRUE(HasHit(screen, "atom:E"));
  EXPECT_TRUE(HasHit(screen, "clause:2"));
  EXPECT_TRUE(HasHit(screen, "class:instruments"));
  EXPECT_TRUE(HasHit(screen, "menu:commit"));
}

TEST_F(ViewsTest, WorksheetShowsOperatorsWhenEditing) {
  SessionState st;
  st.level = Level::kPredicateWorksheet;
  st.worksheet.target = WorksheetState::Target::kMembership;
  st.worksheet.target_class = *ws_->db().schema().FindClass("play_strings");
  st.worksheet.pred.atoms.push_back(query::Atom{});
  st.worksheet.current_atom = 0;
  Screen screen = Render(st);
  EXPECT_TRUE(HasHit(screen, "op:="));
  EXPECT_TRUE(HasHit(screen, "op:~"));
  EXPECT_TRUE(HasHit(screen, "op:]="));
  // The attribute palette of the stack-tip class (musicians).
  EXPECT_TRUE(HasHit(screen, "attr:plays"));
}

TEST_F(ViewsTest, RenderIsDeterministic) {
  SessionState st;
  st.selection = SelectClass("musicians");
  Screen a = Render(st);
  Screen b = Render(st);
  EXPECT_EQ(a.canvas.ToString(), b.canvas.ToString());
  EXPECT_EQ(a.canvas.StyleString(), b.canvas.StyleString());
  EXPECT_EQ(a.hits.size(), b.hits.size());
}

TEST_F(ViewsTest, PanMovesForestContent) {
  SessionState st;
  st.selection = SelectClass("musicians");
  Screen base = Render(st);
  st.pan_x = 40;
  Screen panned = Render(st);
  EXPECT_NE(base.canvas.ToString(), panned.canvas.ToString());
}

}  // namespace
}  // namespace isis::ui
