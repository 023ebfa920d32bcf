/// \file widgets_test.cpp
/// \brief Tests for the view widgets: menus, text windows and pannable
/// windows.

#include <gtest/gtest.h>

#include "gfx/widgets.h"

namespace isis::gfx {
namespace {

TEST(MenuTest, RendersItemsAndReturnsHitRows) {
  static constexpr Menu::Item kItems[] = {
      {"view contents", "F2"},
      {"delete", ""},
      {"ghost", "", /*enabled=*/false},
  };
  Menu menu("commands", kItems);
  Canvas c(30, 8);
  const Rect r{0, 0, 30, 8};
  menu.Render(&c, r);
  std::string s = c.ToString();
  EXPECT_NE(s.find("view contents"), std::string::npos);
  EXPECT_NE(s.find("F2"), std::string::npos);
  EXPECT_NE(s.find("commands"), std::string::npos);
  // Hit rows are inside the menu rect, one per item, top to bottom, on the
  // row that shows the item's command.
  for (size_t i = 0; i < menu.items().size(); ++i) {
    Rect row = Menu::ItemRect(r, i);
    EXPECT_TRUE(r.Contains(row.x, row.y));
    EXPECT_EQ(row.y, 1 + static_cast<int>(i));
    EXPECT_EQ(c.At(5, row.y).ch, kItems[i].command[0]);
  }
  EXPECT_EQ(c.At(5, 3).style, kDim);  // a disabled command is dim
}

TEST(MenuTest, LongCommandsClippedInsideBorder) {
  static constexpr Menu::Item kItems[] = {
      {"an extremely long command name that overflows", ""}};
  Menu menu("m", kItems);
  Canvas c(20, 4);
  menu.Render(&c, Rect{0, 0, 20, 4});
  // The right border survives.
  EXPECT_EQ(c.At(19, 1).ch, '|');
}

TEST(TextWindowTest, SetAppendAndScroll) {
  TextWindow w;
  w.Set("first");
  w.Append("second");
  w.Append("third\nfourth");  // embedded newline splits
  EXPECT_EQ(w.lines().size(), 4u);
  Canvas c(20, 4);  // 2 content rows
  w.Render(&c, Rect{0, 0, 20, 4});
  std::string s = c.ToString();
  // Only the last lines that fit are shown.
  EXPECT_EQ(s.find("first"), std::string::npos);
  EXPECT_NE(s.find("third"), std::string::npos);
  EXPECT_NE(s.find("fourth"), std::string::npos);
  w.Clear();
  EXPECT_TRUE(w.lines().empty());
}

class WindowTest : public ::testing::Test {
 protected:
  WindowTest() : canvas_(20, 10), win_(&canvas_, Rect{5, 2, 10, 5}) {}
  Canvas canvas_;
  Window win_;
};

TEST_F(WindowTest, LogicalDrawingMapsThroughRect) {
  win_.Put(0, 0, 'a');
  EXPECT_EQ(canvas_.At(5, 2).ch, 'a');
  win_.Text(1, 1, "hi");
  EXPECT_EQ(canvas_.At(6, 3).ch, 'h');
}

TEST_F(WindowTest, ClipsOutsideTheRect) {
  win_.Put(-1, 0, 'x');
  win_.Put(10, 0, 'x');
  win_.Put(0, 5, 'x');
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 20; ++x) {
      EXPECT_NE(canvas_.At(x, y).ch, 'x');
    }
  }
}

TEST_F(WindowTest, PanShiftsTheViewport) {
  win_.SetPan(3, 1);
  win_.Put(3, 1, 'p');  // logical (3,1) now at the window origin
  EXPECT_EQ(canvas_.At(5, 2).ch, 'p');
  win_.Pan(-3, -1);
  win_.Put(0, 0, 'q');
  EXPECT_EQ(canvas_.At(5, 2).ch, 'q');
}

TEST_F(WindowTest, ToScreenClips) {
  Rect full = win_.ToScreen(Rect{0, 0, 4, 2});
  EXPECT_EQ(full.x, 5);
  EXPECT_EQ(full.y, 2);
  EXPECT_EQ(full.w, 4);
  Rect partial = win_.ToScreen(Rect{8, 3, 5, 5});
  EXPECT_EQ(partial.w, 2);  // clipped at the right edge
  EXPECT_EQ(partial.h, 2);  // clipped at the bottom
  Rect gone = win_.ToScreen(Rect{-10, -10, 2, 2});
  EXPECT_EQ(gone.w, 0);
}

TEST_F(WindowTest, ToLogicalInvertsMapping) {
  win_.SetPan(4, 2);
  int lx, ly;
  win_.ToLogical(5, 2, &lx, &ly);
  EXPECT_EQ(lx, 4);
  EXPECT_EQ(ly, 2);
}

TEST_F(WindowTest, EnsureVisiblePansMinimally) {
  win_.EnsureVisible(Rect{20, 0, 4, 2});
  EXPECT_EQ(win_.pan_x(), 14);  // 24 - width 10
  EXPECT_EQ(win_.pan_y(), 0);
  win_.EnsureVisible(Rect{0, 0, 2, 2});
  EXPECT_EQ(win_.pan_x(), 0);
  // Already visible: no movement.
  win_.EnsureVisible(Rect{1, 1, 2, 2});
  EXPECT_EQ(win_.pan_x(), 0);
  EXPECT_EQ(win_.pan_y(), 0);
}

TEST_F(WindowTest, BoxAndStyle) {
  win_.Box(Rect{0, 0, 4, 3});
  EXPECT_EQ(canvas_.At(5, 2).ch, '+');
  EXPECT_EQ(canvas_.At(8, 4).ch, '+');
  win_.AddStyle(Rect{0, 0, 2, 1}, kBold);
  EXPECT_EQ(canvas_.At(5, 2).style, kBold);
}

}  // namespace
}  // namespace isis::gfx
