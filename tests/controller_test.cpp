/// \file controller_test.cpp
/// \brief Unit tests for the session controller: command semantics, error
/// handling, prompts, undo/redo, and the Diagram 1 state machine including
/// temporary visits.

#include <gtest/gtest.h>

#include <fstream>
#include <set>

#include "datasets/instrumental_music.h"
#include "query/parser.h"
#include "sdm/consistency.h"
#include "store/serializer.h"
#include "ui/controller.h"
#include "ui/views.h"

namespace isis::ui {
namespace {

using datasets::BuildInstrumentalMusic;

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : session_(BuildInstrumentalMusic()) {}

  Status Run(const std::string& script) { return session_.RunScript(script); }
  const sdm::Database& db() { return session_.workspace().db(); }

  SessionController session_;
};

TEST_F(ControllerTest, StartsAtForestWithNoSelection) {
  EXPECT_EQ(session_.state().level, Level::kInheritanceForest);
  EXPECT_EQ(session_.state().selection.kind, SchemaSelection::Kind::kNone);
  EXPECT_FALSE(session_.stopped());
}

TEST_F(ControllerTest, UnknownCommandAndTargetFailSoftly) {
  EXPECT_TRUE(Run("cmd do the thing\n").IsNotFound());
  EXPECT_NE(session_.message().find("unknown command"), std::string::npos);
  EXPECT_TRUE(Run("pick class:atlantis\n").IsNotFound());
  // The session keeps running after errors.
  EXPECT_TRUE(Run("pick class:musicians\n").ok());
}

TEST_F(ControllerTest, PickAtEmptySpaceFails) {
  EXPECT_TRUE(Run("pickat 0 20\n").IsNotFound());
}

TEST_F(ControllerTest, ViewContentsRequiresSelection) {
  EXPECT_TRUE(Run("cmd view contents\n").IsInvalidArgument());
  EXPECT_TRUE(Run("cmd view associations\n").IsInvalidArgument());
}

TEST_F(ControllerTest, NetworkPopReturnsToForestKeepingSelection) {
  ASSERT_TRUE(Run("pick class:musicians\ncmd view associations\n").ok());
  EXPECT_EQ(session_.state().level, Level::kSemanticNetwork);
  ASSERT_TRUE(Run("cmd pop\n").ok());
  EXPECT_EQ(session_.state().level, Level::kInheritanceForest);
  EXPECT_EQ(db().schema().GetClass(session_.state().selection.cls).name,
            "musicians");
}

TEST_F(ControllerTest, DataLevelPopWalksPagesThenLeaves) {
  ASSERT_TRUE(Run("pick class:instruments\n"
                  "cmd view contents\n"
                  "pick member:flute\n"
                  "cmd follow\n"
                  "pick attr:family\n")
                  .ok());
  EXPECT_EQ(session_.state().pages.size(), 2u);
  ASSERT_TRUE(Run("cmd pop\n").ok());
  EXPECT_EQ(session_.state().pages.size(), 1u);
  // The follow marker was cleared on pop.
  EXPECT_FALSE(session_.state().pages[0].followed.valid());
  ASSERT_TRUE(Run("cmd pop\n").ok());
  EXPECT_EQ(session_.state().level, Level::kInheritanceForest);
}

TEST_F(ControllerTest, SelectRejectToggles) {
  ASSERT_TRUE(Run("pick class:instruments\ncmd view contents\n").ok());
  ASSERT_TRUE(Run("pick member:flute\n").ok());
  EXPECT_EQ(session_.state().pages[0].selected.size(), 1u);
  ASSERT_TRUE(Run("pick member:flute\n").ok());  // reject
  EXPECT_TRUE(session_.state().pages[0].selected.empty());
}

TEST_F(ControllerTest, RenameFlow) {
  ASSERT_TRUE(Run("pick class:soloists\ncmd (re)name\ntype stars\n").ok());
  EXPECT_TRUE(db().schema().FindClass("stars").ok());
  EXPECT_FALSE(db().schema().FindClass("soloists").ok());
  // Undo restores the old name.
  ASSERT_TRUE(Run("cmd undo\n").ok());
  EXPECT_TRUE(db().schema().FindClass("soloists").ok());
  ASSERT_TRUE(Run("cmd redo\n").ok());
  EXPECT_TRUE(db().schema().FindClass("stars").ok());
}

TEST_F(ControllerTest, TextWithoutPromptFails) {
  EXPECT_TRUE(Run("type hello\n").IsInvalidArgument());
}

TEST_F(ControllerTest, CreateAttributeThenSpecifyValueClass) {
  ASSERT_TRUE(Run("pick class:music_groups\n"
                  "cmd create attribute\n"
                  "type motto\n")
                  .ok());
  EXPECT_EQ(session_.state().selection.kind,
            SchemaSelection::Kind::kAttribute);
  const sdm::Schema& s = db().schema();
  AttributeId motto =
      *s.FindAttribute(*s.FindClass("music_groups"), "motto");
  EXPECT_EQ(s.GetAttribute(motto).value_class, sdm::Schema::kStrings());
  ASSERT_TRUE(Run("cmd (re)specify value class\npick class:families\n").ok());
  EXPECT_EQ(s.GetAttribute(motto).value_class, *s.FindClass("families"));
}

TEST_F(ControllerTest, CreateGroupingFromAttributeSelection) {
  ASSERT_TRUE(Run("pick class:instruments\n"
                  "pick attr:popular\n"
                  "cmd create grouping\n"
                  "type by_popularity\n")
                  .ok());
  Result<GroupingId> g = db().schema().FindGrouping("by_popularity");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(db().schema().GetGrouping(*g).parent,
            *db().schema().FindClass("instruments"));
  EXPECT_EQ(session_.state().selection.kind,
            SchemaSelection::Kind::kGrouping);
  // Its contents are immediately browsable.
  ASSERT_TRUE(Run("cmd view contents\n").ok());
  EXPECT_TRUE(session_.state().pages[0].is_grouping);
}

TEST_F(ControllerTest, DeleteGuardsSurfaceInTheUi) {
  // musicians is a value class: deletion must fail and say so.
  ASSERT_TRUE(Run("pick class:musicians\n").ok());
  EXPECT_TRUE(Run("cmd delete\n").IsConsistency());
  EXPECT_TRUE(db().schema().FindClass("musicians").ok());
  // soloists is deletable.
  ASSERT_TRUE(Run("pick class:soloists\ncmd delete\n").ok());
  EXPECT_FALSE(db().schema().FindClass("soloists").ok());
  EXPECT_EQ(session_.state().selection.kind, SchemaSelection::Kind::kNone);
  // Undo brings it back, members included.
  ASSERT_TRUE(Run("cmd undo\n").ok());
  ASSERT_TRUE(db().schema().FindClass("soloists").ok());
  EXPECT_EQ(db().Members(*db().schema().FindClass("soloists")).size(), 3u);
}

TEST_F(ControllerTest, FailedDeleteDoesNotPolluteUndo) {
  size_t depth = session_.undo_depth();
  ASSERT_TRUE(Run("pick class:musicians\n").ok());
  EXPECT_TRUE(Run("cmd delete\n").IsConsistency());
  EXPECT_EQ(session_.undo_depth(), depth);
}

TEST_F(ControllerTest, UndoNothingFails) {
  EXPECT_TRUE(Run("cmd undo\n").IsInvalidArgument());
  EXPECT_TRUE(Run("cmd redo\n").IsInvalidArgument());
}

TEST_F(ControllerTest, UndoRestoresDataEdits) {
  ASSERT_TRUE(Run("pick class:instruments\n"
                  "cmd view contents\n"
                  "pick member:flute\n"
                  "cmd follow\n"
                  "pick attr:family\n"
                  "pick member:brass\n"
                  "pick member:woodwind\n"
                  "cmd (re)assign att. value\n")
                  .ok());
  const sdm::Schema& s = db().schema();
  ClassId instruments = *s.FindClass("instruments");
  AttributeId family = *s.FindAttribute(instruments, "family");
  EntityId flute = *db().FindEntity(instruments, "flute");
  EXPECT_EQ(db().NameOf(db().GetSingle(flute, family)), "woodwind");
  ASSERT_TRUE(Run("cmd undo\n").ok());
  EXPECT_EQ(db().NameOf(db().GetSingle(flute, family)), "brass");
  EXPECT_TRUE(sdm::ConsistencyChecker(db()).Check().ok());
}

TEST_F(ControllerTest, AssignRequiresSingleValueForSingleValued) {
  ASSERT_TRUE(Run("pick class:instruments\n"
                  "cmd view contents\n"
                  "pick member:flute\n"
                  "cmd follow\n"
                  "pick attr:family\n"
                  "pick member:woodwind\n")  // brass AND woodwind selected
                  .ok());
  EXPECT_TRUE(Run("cmd (re)assign att. value\n").IsInvalidArgument());
}

TEST_F(ControllerTest, AssignMultivaluedTakesWholeSelection) {
  ASSERT_TRUE(Run("pick class:musicians\n"
                  "cmd view contents\n"
                  "pick member:Ray\n"
                  "cmd follow\n"
                  "pick attr:plays\n"
                  "pick member:trumpet\n"  // trumpet was highlighted: reject
                  "pick member:flute\n"
                  "pick member:oboe\n"
                  "cmd (re)assign att. value\n")
                  .ok());
  const sdm::Schema& s = db().schema();
  ClassId musicians = *s.FindClass("musicians");
  EntityId ray = *db().FindEntity(musicians, "Ray");
  AttributeId plays = *s.FindAttribute(musicians, "plays");
  EXPECT_EQ(db().GetMulti(ray, plays).size(), 2u);  // flute, oboe
  EXPECT_TRUE(sdm::ConsistencyChecker(db()).Check().ok());
}

TEST_F(ControllerTest, CreateAndDeleteEntities) {
  ASSERT_TRUE(Run("pick class:families\n"
                  "cmd view contents\n"
                  "cmd create entity\n"
                  "type electronic\n")
                  .ok());
  ClassId families = *db().schema().FindClass("families");
  EXPECT_TRUE(db().FindEntity(families, "electronic").ok());
  // The new entity is auto-selected; delete it again.
  ASSERT_TRUE(Run("cmd delete entity\n").ok());
  EXPECT_FALSE(db().FindEntity(families, "electronic").ok());
  ASSERT_TRUE(Run("cmd undo\n").ok());
  EXPECT_TRUE(db().FindEntity(families, "electronic").ok());
}

TEST_F(ControllerTest, CreateEntityInSubclassPageJoinsBothClasses) {
  ASSERT_TRUE(Run("pick class:soloists\n"
                  "cmd view contents\n"
                  "cmd create entity\n"
                  "type Nina\n")
                  .ok());
  ClassId musicians = *db().schema().FindClass("musicians");
  ClassId soloists = *db().schema().FindClass("soloists");
  EntityId nina = *db().FindEntity(musicians, "Nina");
  EXPECT_TRUE(db().IsMember(nina, soloists));
  EXPECT_TRUE(db().IsMember(nina, musicians));
}

TEST_F(ControllerTest, MembersPanClamps) {
  ASSERT_TRUE(Run("pick class:instruments\ncmd view contents\n").ok());
  EXPECT_TRUE(Run("cmd members up\n").ok());  // clamped at 0
  EXPECT_EQ(session_.state().pages[0].member_pan, 0);
  EXPECT_TRUE(Run("cmd members down\n").ok());
  EXPECT_EQ(session_.state().pages[0].member_pan, 10);
}

TEST_F(ControllerTest, DisplayPredicateForGrouping) {
  ASSERT_TRUE(Run("pick grouping:by_family\ncmd display predicate\n").ok());
  EXPECT_NE(session_.message().find("grouped by common value"),
            std::string::npos);
  EXPECT_NE(session_.message().find("family"), std::string::npos);
}

TEST_F(ControllerTest, DisplayPredicateForDerivedClass) {
  ASSERT_TRUE(Run("pick class:play_strings\ncmd display predicate\n").ok());
  EXPECT_NE(session_.message().find("e.plays.family ~ {stringed}"),
            std::string::npos);
}

TEST_F(ControllerTest, TemporaryConstantVisitPreservesSelections) {
  // Diagram 1: "neither the schema selection nor the data selection are
  // changed upon returning from the temporary visit".
  ASSERT_TRUE(Run("pick class:music_groups\n"
                  "cmd create subclass\n"
                  "type trios\n"
                  "cmd (re)define membership\n"
                  "pick atom:A\n"
                  "pick clause:1\n"
                  "cmd edit\n"
                  "pick attr:size\n"
                  "pick op:=\n"
                  "cmd rhs constant\n")
                  .ok());
  EXPECT_EQ(session_.state().level, Level::kDataLevel);
  EXPECT_EQ(session_.state().temp_visit, TempVisit::kConstantSelection);
  ASSERT_TRUE(Run("pick member:3\ncmd accept constant\n").ok());
  EXPECT_EQ(session_.state().level, Level::kPredicateWorksheet);
  EXPECT_EQ(session_.state().temp_visit, TempVisit::kNone);
  // The selection survived the round trip.
  EXPECT_EQ(db().schema().GetClass(session_.state().selection.cls).name,
            "trios");
  ASSERT_TRUE(Run("cmd commit\n").ok());
  ClassId trios = *db().schema().FindClass("trios");
  EXPECT_EQ(db().Members(trios).size(), 1u);  // Brass Trio
}

TEST_F(ControllerTest, AbortLeavesConstantSelection) {
  ASSERT_TRUE(Run("pick class:music_groups\n"
                  "cmd create subclass\n"
                  "type temp_class\n"
                  "cmd (re)define membership\n"
                  "pick atom:A\n"
                  "cmd edit\n"
                  "pick attr:size\n"
                  "cmd rhs constant\n")
                  .ok());
  EXPECT_EQ(session_.state().temp_visit, TempVisit::kConstantSelection);
  ASSERT_TRUE(Run("cmd abort\n").ok());
  EXPECT_EQ(session_.state().temp_visit, TempVisit::kNone);
  EXPECT_EQ(session_.state().level, Level::kPredicateWorksheet);
  // Abort again leaves the worksheet entirely.
  ASSERT_TRUE(Run("cmd abort\n").ok());
  EXPECT_EQ(session_.state().level, Level::kInheritanceForest);
}

TEST_F(ControllerTest, CommitRejectsIllTypedWorksheet) {
  ASSERT_TRUE(Run("pick class:music_groups\n"
                  "cmd create subclass\n"
                  "type broken\n"
                  "cmd (re)define membership\n"
                  "pick atom:A\n"
                  "pick clause:1\n"
                  "cmd edit\n"
                  "pick attr:size\n"
                  "pick op:~\n")
                  .ok());
  // rhs is still `e` (music_groups tree) while lhs ends in INTEGER.
  EXPECT_TRUE(Run("cmd commit\n").IsTypeError());
  EXPECT_EQ(session_.state().level, Level::kPredicateWorksheet);
}

TEST_F(ControllerTest, WorksheetNegateAndSwitch) {
  ASSERT_TRUE(Run("pick class:music_groups\n"
                  "cmd create subclass\n"
                  "type not_quartets\n"
                  "cmd (re)define membership\n"
                  "pick atom:A\n"
                  "pick clause:1\n"
                  "cmd edit\n"
                  "pick attr:size\n"
                  "pick op:=\n"
                  "cmd negate\n"
                  "cmd rhs constant\n"
                  "pick member:4\n"
                  "cmd accept constant\n"
                  "cmd commit\n")
                  .ok());
  ClassId cls = *db().schema().FindClass("not_quartets");
  EXPECT_EQ(db().Members(cls).size(), 3u);  // everything but the quartets
}

TEST_F(ControllerTest, StopEndsTheSession) {
  ASSERT_TRUE(Run("cmd stop\n").ok());
  EXPECT_TRUE(session_.stopped());
  EXPECT_TRUE(Run("pick class:musicians\n").IsInvalidArgument());
}

TEST_F(ControllerTest, PanCommands) {
  ASSERT_TRUE(Run("cmd pan right\ncmd pan down\n").ok());
  EXPECT_EQ(session_.state().pan_x, 8);
  EXPECT_EQ(session_.state().pan_y, 4);
  ASSERT_TRUE(Run("cmd pan left\ncmd pan up\n").ok());
  EXPECT_EQ(session_.state().pan_x, 0);
  EXPECT_EQ(session_.state().pan_y, 0);
}

TEST_F(ControllerTest, QualifiedAttributePicks) {
  // Several classes define an attribute named `name`; the qualified form
  // disambiguates.
  ASSERT_TRUE(Run("pick attr:instruments.name\n").ok());
  EXPECT_EQ(session_.state().selection.kind,
            SchemaSelection::Kind::kAttribute);
  EXPECT_EQ(db()
                .schema()
                .GetAttribute(session_.state().selection.attribute)
                .owner,
            *db().schema().FindClass("instruments"));
}

TEST_F(ControllerTest, SaveWritesAFile) {
  std::string dir = ::testing::TempDir();
  ASSERT_TRUE(Run("cmd save\ntype " + dir + "/controller_save\n").ok());
  std::ifstream in(dir + "/controller_save.isis");
  EXPECT_TRUE(in.good());
}


TEST_F(ControllerTest, AddParentDisabledByDefault) {
  ASSERT_TRUE(Run("pick class:soloists\n").ok());
  EXPECT_TRUE(Run("cmd add parent\n").IsUnimplemented());
}

TEST(MultiParentUiTest, AddParentFlow) {
  sdm::Database::Options opts;
  opts.schema.allow_multiple_parents = true;
  auto ws = std::make_unique<query::Workspace>(opts);
  ws->set_name("Multi");
  ClassId people = *ws->db().CreateBaseclass("people", "name");
  ASSERT_TRUE(ws->db()
                  .CreateSubclass("students", people,
                                  sdm::Membership::kEnumerated)
                  .ok());
  ASSERT_TRUE(ws->db()
                  .CreateSubclass("workers", people,
                                  sdm::Membership::kEnumerated)
                  .ok());
  ASSERT_TRUE(ws->db()
                  .CreateSubclass("working_students", *ws->db()
                                                           .schema()
                                                           .FindClass(
                                                               "students"),
                                  sdm::Membership::kEnumerated)
                  .ok());
  SessionController session(std::move(ws));
  ASSERT_TRUE(session
                  .RunScript("pick class:working_students\n"
                             "cmd add parent\n"
                             "pick class:workers\n")
                  .ok());
  const sdm::Schema& s = session.workspace().db().schema();
  EXPECT_EQ(s.GetClass(*s.FindClass("working_students")).parents.size(), 2u);
  // Recorded in the design journal and undoable.
  EXPECT_FALSE(session.journal().Find("add parent").empty());
  ASSERT_TRUE(session.RunScript("cmd undo\n").ok());
  EXPECT_EQ(session.workspace()
                .db()
                .schema()
                .GetClass(*session.workspace().db().schema().FindClass(
                    "working_students"))
                .parents.size(),
            1u);
  // A cycle is refused through the UI too.
  ASSERT_TRUE(session.RunScript("pick class:students\ncmd add parent\n").ok());
  EXPECT_TRUE(session.RunScript("pick class:students\n").IsConsistency());
}


TEST_F(ControllerTest, CreateBaseclassFlow) {
  // Two-step prompt: class name, then its naming attribute.
  ASSERT_TRUE(Run("cmd create baseclass\n"
                  "type venues\n"
                  "type venue_name\n")
                  .ok());
  Result<ClassId> venues = db().schema().FindClass("venues");
  ASSERT_TRUE(venues.ok());
  const sdm::ClassDef& def = db().schema().GetClass(*venues);
  EXPECT_TRUE(def.is_base());
  ASSERT_EQ(def.own_attributes.size(), 1u);
  EXPECT_EQ(db().schema().GetAttribute(def.own_attributes[0]).name,
            "venue_name");
  EXPECT_TRUE(db().schema().GetAttribute(def.own_attributes[0]).naming);
  // The new class is the selection and is undoable.
  EXPECT_EQ(session_.state().selection.cls, *venues);
  ASSERT_TRUE(Run("cmd undo\n").ok());
  EXPECT_FALSE(db().schema().FindClass("venues").ok());
}

TEST_F(ControllerTest, ValueClassPopupListsPredefinedClasses) {
  // While (re)specify value class is pending, the forest shows the pop-up
  // class list, which includes the otherwise-hidden predefined classes.
  ASSERT_TRUE(Run("pick class:music_groups\n"
                  "cmd create attribute\n"
                  "type rating\n"
                  "cmd (re)specify value class\n")
                  .ok());
  const Screen& screen = session_.Render();
  ASSERT_NE(screen.FindTarget("class:INTEGER"), nullptr);
  ASSERT_TRUE(Run("pick class:INTEGER\n").ok());
  const sdm::Schema& s = db().schema();
  AttributeId rating =
      *s.FindAttribute(*s.FindClass("music_groups"), "rating");
  EXPECT_EQ(s.GetAttribute(rating).value_class, sdm::Schema::kIntegers());
  // The pop-up is gone after the pick.
  EXPECT_EQ(session_.Render().FindTarget("class:INTEGER"), nullptr);
}

// A session renders every event into the one screen it keeps. After each
// event of a walk through all four views, that screen must equal a fresh
// one rendered from the same state: the characters, the styles and the
// ordered hit list. Screens with more on them precede screens with less
// (the value-class pop-up, a grouping page, a panned member list), so a
// clear that left cells or hits behind would show.
TEST_F(ControllerTest, RenderIntoAReusedScreenEqualsAFreshOne) {
  Result<std::vector<input::Event>> events = input::ParseScript(
      // The forest, with and without the value-class pop-up.
      "pick class:music_groups\n"
      "cmd create attribute\n"
      "type rating\n"
      "cmd (re)specify value class\n"
      "pick class:INTEGER\n"
      // The semantic network, panned, and back.
      "pick class:musicians\n"
      "cmd view associations\n"
      "cmd pan right\n"
      "cmd pop\n"
      // The worksheet, with a temporary visit to the data level.
      "pick class:music_groups\n"
      "cmd create subclass\n"
      "type trios\n"
      "cmd (re)define membership\n"
      "pick atom:A\n"
      "pick clause:1\n"
      "cmd edit\n"
      "pick attr:size\n"
      "pick op:=\n"
      "cmd rhs constant\n"
      "pick member:3\n"
      "cmd accept constant\n"
      "cmd commit\n"
      // A grouping page, followed into the class page of its block.
      "pick grouping:by_family\n"
      "cmd view contents\n"
      "pick member:stringed\n"
      "cmd follow\n"
      "cmd pop\n"
      "cmd pop\n"
      // A class page with its member list panned, then followed.
      "pick class:instruments\n"
      "cmd view contents\n"
      "cmd members down\n"
      "cmd members up\n"
      "pick member:violin\n"
      "cmd follow\n"
      "pick attr:family\n"
      "cmd pop\n"
      "cmd pop\n");
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  std::set<Level> seen;
  for (size_t i = 0; i < events->size(); ++i) {
    const input::Event& event = (*events)[i];
    ASSERT_TRUE(session_.HandleEvent(event).ok())
        << input::EventToString(event) << ": " << session_.message();
    const Screen& reused = session_.Render();
    Screen fresh;
    RenderCurrent(RenderContext{session_.workspace(), session_.state(),
                                session_.message()},
                  &fresh);
    seen.insert(session_.state().level);
    const std::string at = "after event " + std::to_string(i) + " " +
                           input::EventToString(event);
    ASSERT_EQ(reused.canvas.ToString(), fresh.canvas.ToString()) << at;
    ASSERT_EQ(reused.canvas.StyleString(), fresh.canvas.StyleString()) << at;
    ASSERT_EQ(reused.hits.size(), fresh.hits.size()) << at;
    for (size_t h = 0; h < fresh.hits.size(); ++h) {
      const HitRegion& a = reused.hits[h];
      const HitRegion& b = fresh.hits[h];
      ASSERT_EQ(a.target, b.target) << at << ", hit " << h;
      ASSERT_TRUE(a.rect.x == b.rect.x && a.rect.y == b.rect.y &&
                  a.rect.w == b.rect.w && a.rect.h == b.rect.h)
          << at << ", hit " << h << " " << a.target;
    }
  }
  EXPECT_EQ(seen.size(), 4u);  // every view was drawn
}


TEST_F(ControllerTest, SaveThenLoadRoundTripsThroughTheUi) {
  std::string base = ::testing::TempDir() + "/ui_roundtrip";
  ASSERT_TRUE(Run("pick class:music_groups\n"
                  "cmd create subclass\n"
                  "type saved_marker\n"
                  "cmd save\ntype " + base + "\n")
                  .ok());
  // Mutate after saving, then load the save back: the mutation is gone,
  // the marker class is present, and the session state reset.
  ASSERT_TRUE(Run("pick class:saved_marker\ncmd delete\n").ok());
  EXPECT_FALSE(db().schema().FindClass("saved_marker").ok());
  ASSERT_TRUE(Run("cmd load\ntype " + base + "\n").ok());
  EXPECT_TRUE(db().schema().FindClass("saved_marker").ok());
  EXPECT_EQ(session_.state().selection.kind, SchemaSelection::Kind::kNone);
  EXPECT_EQ(session_.undo_depth(), 0u);
  // The journal recorded the whole arc.
  EXPECT_FALSE(session_.journal().Find("load").empty());
  // Loading a missing database fails cleanly and keeps the session alive.
  EXPECT_TRUE(Run("cmd load\ntype /nonexistent/nope\n").IsIOError());
  EXPECT_TRUE(Run("pick class:musicians\n").ok());
}


TEST_F(ControllerTest, CommitRejectsEmptyConstantSelection) {
  // Accepting a constant with nothing selected yields an empty constant
  // set; the commit-time type check refuses it (an empty constant with no
  // map has no class).
  ASSERT_TRUE(Run("pick class:music_groups\n"
                  "cmd create subclass\n"
                  "type no_consts\n"
                  "cmd (re)define membership\n"
                  "pick atom:A\n"
                  "pick clause:1\n"
                  "cmd edit\n"
                  "pick attr:size\n"
                  "pick op:=\n"
                  "cmd rhs constant\n"
                  "cmd accept constant\n")
                  .ok());
  EXPECT_FALSE(Run("cmd commit\n").ok());
  EXPECT_EQ(session_.state().level, Level::kPredicateWorksheet);
}

TEST_F(ControllerTest, FollowWithEmptySelectionHighlightsNothing) {
  ASSERT_TRUE(Run("pick class:instruments\n"
                  "cmd view contents\n"
                  "cmd follow\n"
                  "pick attr:family\n")
                  .ok());
  ASSERT_EQ(session_.state().pages.size(), 2u);
  EXPECT_TRUE(session_.state().pages[1].selected.empty());
}

TEST_F(ControllerTest, MakeSubclassOnGroupingPageRejected) {
  ASSERT_TRUE(Run("pick grouping:by_family\ncmd view contents\n").ok());
  EXPECT_TRUE(Run("cmd make subclass\n").IsInvalidArgument());
}

TEST_F(ControllerTest, GroupingFollowWithNoSelectionYieldsEmptyPage) {
  ASSERT_TRUE(Run("pick grouping:by_family\n"
                  "cmd view contents\n"
                  "cmd follow\n")
                  .ok());
  ASSERT_EQ(session_.state().pages.size(), 2u);
  EXPECT_TRUE(session_.state().pages[1].selected.empty());
  EXPECT_EQ(db().schema().GetClass(session_.state().pages[1].cls).name,
            "instruments");
}

TEST_F(ControllerTest, RedoClearedByNewMutation) {
  ASSERT_TRUE(Run("pick class:soloists\ncmd (re)name\ntype stars\n").ok());
  ASSERT_TRUE(Run("cmd undo\n").ok());
  EXPECT_EQ(session_.redo_depth(), 1u);
  ASSERT_TRUE(Run("pick class:soloists\ncmd (re)name\ntype idols\n").ok());
  EXPECT_EQ(session_.redo_depth(), 0u);
  EXPECT_TRUE(Run("cmd redo\n").IsInvalidArgument());
}

// Regression: on default options (live_views unset), a data edit must still
// refresh the stored derived views before the next render: the controller
// attaches the live engine whatever the option says. Ray gains a stringed
// instrument and must show up in the derived play_strings subclass with no
// explicit recomputation.
TEST_F(ControllerTest, DataEditsRefreshDerivedViewsOnDefaultOptions) {
  EXPECT_FALSE(db().options().live_views);
  EXPECT_NE(session_.live_engine(), nullptr);
  ASSERT_TRUE(Run("pick class:musicians\n"
                  "cmd view contents\n"
                  "pick member:Ray\n"
                  "cmd follow\n"
                  "pick attr:plays\n"
                  "pick member:violin\n"
                  "cmd (re)assign att. value\n")
                  .ok());
  const sdm::Schema& s = db().schema();
  ClassId musicians = *s.FindClass("musicians");
  ClassId play_strings = *s.FindClass("play_strings");
  EntityId ray = *db().FindEntity(musicians, "Ray");
  EXPECT_TRUE(db().IsMember(ray, play_strings));
  // And dropping the instrument again removes him.
  ASSERT_TRUE(Run("pick member:violin\n"
                  "cmd (re)assign att. value\n")
                  .ok());
  EXPECT_FALSE(db().IsMember(ray, play_strings));
}

// A maintenance failure is loud: on default options, the liar subclass
// cyc_a = { e in musicians | {e} not a subset of cyc_a } can never settle,
// and every data edit that reaches it says so on its message line, after
// the edit's own message. The edit itself stands.
TEST(ControllerLiveViewsTest, CyclicDerivationShowsOnTheEditsMessageLine) {
  std::unique_ptr<query::Workspace> ws = BuildInstrumentalMusic();
  sdm::Database& db = ws->db();
  const ClassId musicians = *db.schema().FindClass("musicians");
  const ClassId cyc_a =
      *db.CreateSubclass("cyc_a", musicians, sdm::Membership::kEnumerated);
  query::Predicate liar;
  query::Atom atom;
  atom.lhs = query::Term::Candidate();
  atom.op = query::SetOp::kSubset;
  atom.negated = true;
  atom.rhs = query::Term::ClassExtent(cyc_a);
  liar.AddAtom(atom, 0);
  ASSERT_TRUE(ws->DefineSubclassMembership(cyc_a, liar).ok());
  SessionController session(std::move(ws));
  ASSERT_FALSE(session.workspace().db().options().live_views);

  ASSERT_TRUE(session.RunScript("pick class:musicians\n"
                                "cmd view contents\n"
                                "cmd create entity\n"
                                "type Newcomer\n")
                  .ok());
  const std::string loud =
      " [Consistency: live maintenance of derived class 'cyc_a' did not "
      "reach a fixpoint within 16 rounds (cyclic derivation?)]";
  EXPECT_EQ(session.message(),
            "entity 'Newcomer' created in 'musicians'" + loud);
  EXPECT_TRUE(session.workspace()
                  .db()
                  .FindEntity(musicians, "Newcomer")
                  .ok());
  // A later edit meets the cycle again and says so again; navigation that
  // changes nothing stays quiet. The new entity is already selected.
  ASSERT_TRUE(session.RunScript("cmd members down\n").ok());
  EXPECT_EQ(session.message().find("[Consistency"), std::string::npos)
      << session.message();
  ASSERT_TRUE(session.RunScript("cmd delete entity\n").ok());
  EXPECT_EQ(session.message(), "deleted 1 entit(ies)" + loud);
}

// Deleting an entity scrubs it out of every stored constant set, and a
// predicate can gain members when its constant set shrinks: with the harp
// gone, harpists = { e in musicians | e.plays ]= {harp} } reads
// `e.plays ]= {}` and holds for every musician, although only Lucy's data
// changed. Right after the gesture, the views equal a from-scratch
// re-derivation of the same state.
TEST(ControllerLiveViewsTest, DeletingAConstantRederivesTheViewsThatNameIt) {
  std::unique_ptr<query::Workspace> ws = BuildInstrumentalMusic();
  sdm::Database& db = ws->db();
  const ClassId musicians = *db.schema().FindClass("musicians");
  const ClassId harpists =
      *db.CreateSubclass("harpists", musicians, sdm::Membership::kEnumerated);
  ASSERT_TRUE(ws->DefineSubclassMembership(
                    harpists, *query::ParsePredicate(db, musicians,
                                                     "e.plays ]= {harp}"))
                  .ok());
  ASSERT_EQ(db.Members(harpists).size(), 1u);  // Lucy
  SessionController session(std::move(ws));
  ASSERT_FALSE(session.workspace().db().options().live_views);

  ASSERT_TRUE(session.RunScript("pick class:instruments\n"
                                "cmd view contents\n"
                                "pick member:harp\n"
                                "cmd delete entity\n")
                  .ok());
  EXPECT_EQ(session.message(), "deleted 1 entit(ies)");
  const sdm::Database& now = session.workspace().db();
  EXPECT_EQ(now.Members(harpists), now.Members(musicians));
  const std::string saved = store::Save(session.workspace());
  Result<std::unique_ptr<query::Workspace>> copy = store::Load(saved);
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  ASSERT_TRUE((*copy)->ReevaluateAll().ok());
  EXPECT_EQ(store::Save(**copy), saved);
}

// The engine is attached whatever the persisted live_views option says;
// the store only round-trips the option.
TEST(ControllerLiveViewsTest, EngineAttachesWhenOptedIn) {
  sdm::Database::Options opt;
  opt.live_views = true;
  SessionController session(std::make_unique<query::Workspace>(opt));
  EXPECT_NE(session.live_engine(), nullptr);
}

}  // namespace
}  // namespace isis::ui
