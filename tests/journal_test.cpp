/// \file journal_test.cpp
/// \brief Tests for the design journal (§5: "keep track of the history of a
/// database design") and its controller integration.

#include <gtest/gtest.h>

#include "datasets/instrumental_music.h"
#include "datasets/session_script.h"
#include "ui/controller.h"
#include "ui/journal.h"

namespace isis::ui {
namespace {

TEST(DesignJournalTest, RecordsWithMonotonicSequence) {
  DesignJournal j;
  EXPECT_TRUE(j.empty());
  EXPECT_EQ(j.Record("create subclass", "quartets"), 1);
  EXPECT_EQ(j.Record("commit", "membership of quartets"), 2);
  ASSERT_EQ(j.size(), 2u);
  EXPECT_EQ(j.entries()[0].action, "create subclass");
  EXPECT_EQ(j.entries()[1].seq, 2);
}

TEST(DesignJournalTest, KeepsTheMostRecentWindowAndCountsEverything) {
  constexpr std::size_t kN = DesignJournal::kRetained;
  DesignJournal j;
  for (std::size_t i = 1; i <= 3 * kN; ++i) {
    EXPECT_EQ(j.Record("assign", "walk " + std::to_string(i)),
              static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(j.size(), 3 * kN);
  ASSERT_EQ(j.entries().size(), kN);
  EXPECT_EQ(j.entries().back().seq, static_cast<std::int64_t>(3 * kN));
  EXPECT_EQ(j.entries().front().seq, static_cast<std::int64_t>(2 * kN + 1));
  EXPECT_EQ(j.entries().front().detail, "walk " + std::to_string(2 * kN + 1));
  EXPECT_EQ(j.Render(1), "#" + std::to_string(3 * kN) + " assign: walk " +
                             std::to_string(3 * kN));
  EXPECT_EQ(j.Find("walk " + std::to_string(2 * kN)).size(), 0u)
      << "dropped entries are not searched";
}

TEST(DesignJournalTest, RenderShowsLastN) {
  DesignJournal j;
  for (int i = 0; i < 5; ++i) {
    j.Record("action" + std::to_string(i), "d" + std::to_string(i));
  }
  std::string last2 = j.Render(2);
  EXPECT_EQ(last2, "#4 action3: d3\n#5 action4: d4");
  EXPECT_EQ(j.Render(100), j.Render(5));
  EXPECT_EQ(DesignJournal().Render(3), "");
}

TEST(DesignJournalTest, RenderOmitsEmptyDetail) {
  DesignJournal j;
  j.Record("undo", "");
  EXPECT_EQ(j.Render(1), "#1 undo");
}

TEST(DesignJournalTest, FindSearchesActionAndDetail) {
  DesignJournal j;
  j.Record("create subclass", "quartets");
  j.Record("(re)name", "quartets -> foursomes");
  j.Record("create entity", "piano");
  EXPECT_EQ(j.Find("quartets").size(), 2u);
  EXPECT_EQ(j.Find("create").size(), 2u);
  EXPECT_TRUE(j.Find("nothing").empty());
}

class JournalSessionTest : public ::testing::Test {
 protected:
  JournalSessionTest()
      : session_(datasets::BuildInstrumentalMusic()) {}
  Status Run(const std::string& script) { return session_.RunScript(script); }
  SessionController session_;
};

TEST_F(JournalSessionTest, BrowsingRecordsNothing) {
  ASSERT_TRUE(Run("pick class:musicians\n"
                  "cmd view associations\n"
                  "cmd pop\n"
                  "cmd view contents\n"
                  "pick member:Edith\n"
                  "cmd pop\n")
                  .ok());
  EXPECT_TRUE(session_.journal().empty());
}

TEST_F(JournalSessionTest, DesignActionsAreRecorded) {
  ASSERT_TRUE(Run("pick class:music_groups\n"
                  "cmd create subclass\n"
                  "type quartets\n"
                  "cmd (re)name\n"
                  "type foursomes\n"
                  "cmd delete\n")
                  .ok());
  const DesignJournal& j = session_.journal();
  ASSERT_EQ(j.size(), 3u);
  EXPECT_EQ(j.entries()[0].action, "create subclass");
  EXPECT_EQ(j.entries()[0].detail, "quartets");
  EXPECT_EQ(j.entries()[1].action, "(re)name");
  EXPECT_EQ(j.entries()[2].action, "delete");
  EXPECT_NE(j.entries()[2].detail.find("foursomes"), std::string::npos);
}

TEST_F(JournalSessionTest, UndoIsRecordedNotErased) {
  // "The history is the history": undoing an action appends rather than
  // removing the record of the undone edit.
  ASSERT_TRUE(Run("pick class:music_groups\n"
                  "cmd create subclass\n"
                  "type doomed\n"
                  "cmd undo\n")
                  .ok());
  const DesignJournal& j = session_.journal();
  ASSERT_EQ(j.size(), 2u);
  EXPECT_EQ(j.entries()[0].action, "create subclass");
  EXPECT_EQ(j.entries()[1].action, "undo");
  EXPECT_FALSE(
      session_.workspace().db().schema().FindClass("doomed").ok());
}

TEST_F(JournalSessionTest, ShowHistoryCommand) {
  ASSERT_TRUE(Run("cmd show history\n").ok());
  EXPECT_NE(session_.message().find("no design actions"), std::string::npos);
  ASSERT_TRUE(Run("pick class:music_groups\n"
                  "cmd create subclass\n"
                  "type trios\n"
                  "cmd show history\n")
                  .ok());
  EXPECT_NE(session_.message().find("create subclass"), std::string::npos);
  EXPECT_NE(session_.message().find("trios"), std::string::npos);
}

TEST_F(JournalSessionTest, FullPaperSessionHistory) {
  for (const auto& fig : datasets::PaperSessionFigures()) {
    ASSERT_TRUE(Run(fig.script).ok()) << fig.name;
  }
  const DesignJournal& j = session_.journal();
  // The session's design actions, in order: the family correction, the
  // quartets subclass, its membership commit, the all_inst attribute, its
  // value class, its derivation commit, and edith_plays.
  ASSERT_GE(j.size(), 7u);
  EXPECT_EQ(j.entries()[0].action, "(re)assign att. value");
  EXPECT_FALSE(j.Find("quartets").empty());
  EXPECT_FALSE(j.Find("all_inst").empty());
  EXPECT_FALSE(j.Find("edith_plays").empty());
}

}  // namespace
}  // namespace isis::ui
