#include "gfx/widgets.h"

#include <algorithm>

namespace isis::gfx {

void Menu::Render(Canvas* canvas, const Rect& r) const {
  canvas->Box(r);
  canvas->Text(r.x + 2, r.y, " ", kReverse);
  canvas->Text(r.x + 3, r.y, title_, kReverse);
  canvas->Text(r.x + 3 + static_cast<int>(title_.size()), r.y, " ", kReverse);
  for (size_t i = 0; i < items_.size(); ++i) {
    const Rect row = ItemRect(r, i);
    if (row.y >= r.bottom() - 1) break;
    const Item& item = items_[i];
    // The key label, padded to three cells.
    canvas->HLine(row.x, row.y, 3, ' ', kDim);
    canvas->Text(row.x, row.y, item.key.substr(0, 3), kDim);
    canvas->Text(r.x + 5, row.y,
                 item.command.substr(0, static_cast<size_t>(
                                            std::max(0, r.w - 7))),
                 item.enabled ? kPlain : kDim);
  }
}

void TextWindow::Set(std::string_view text) {
  lines_.clear();
  Append(text);
}

void TextWindow::Append(std::string_view line) {
  // Split embedded newlines so each stored line is renderable.
  size_t start = 0;
  while (true) {
    size_t nl = line.find('\n', start);
    if (nl == std::string_view::npos) {
      lines_.push_back(line.substr(start));
      break;
    }
    lines_.push_back(line.substr(start, nl - start));
    start = nl + 1;
  }
}

void TextWindow::Render(Canvas* canvas, const Rect& r) const {
  canvas->Box(r);
  int rows = r.h - 2;
  if (rows <= 0) return;
  size_t first = lines_.size() > static_cast<size_t>(rows)
                     ? lines_.size() - rows
                     : 0;
  int y = r.y + 1;
  for (size_t i = first; i < lines_.size(); ++i, ++y) {
    canvas->Text(
        r.x + 2, y,
        lines_[i].substr(0, static_cast<size_t>(std::max(0, r.w - 4))));
  }
}

bool Window::Map(int lx, int ly, int* sx, int* sy) const {
  int x = rect_.x + (lx - pan_x_);
  int y = rect_.y + (ly - pan_y_);
  if (!rect_.Contains(x, y)) return false;
  *sx = x;
  *sy = y;
  return true;
}

void Window::EnsureVisible(const Rect& target) {
  // Horizontal.
  if (target.x < pan_x_) {
    pan_x_ = target.x;
  } else if (target.right() > pan_x_ + rect_.w) {
    pan_x_ = target.right() - rect_.w;
  }
  // Vertical.
  if (target.y < pan_y_) {
    pan_y_ = target.y;
  } else if (target.bottom() > pan_y_ + rect_.h) {
    pan_y_ = target.bottom() - rect_.h;
  }
}

void Window::Put(int lx, int ly, char ch, std::uint8_t style) {
  int sx, sy;
  if (Map(lx, ly, &sx, &sy)) canvas_->Put(sx, sy, ch, style);
}

void Window::Text(int lx, int ly, std::string_view s, std::uint8_t style) {
  const int sx = rect_.x + (lx - pan_x_);
  const Rect run = ClipRun(sx, rect_.y + (ly - pan_y_),
                           static_cast<std::int64_t>(s.size()), rect_);
  if (run.w > 0) {
    canvas_->Text(run.x, run.y,
                  s.substr(static_cast<size_t>(run.x - sx),
                           static_cast<size_t>(run.w)),
                  style);
  }
}

void Window::Box(const Rect& logical, std::uint8_t style) {
  if (logical.w < 2 || logical.h < 2) return;
  Put(logical.x, logical.y, '+', style);
  Put(logical.right() - 1, logical.y, '+', style);
  Put(logical.x, logical.bottom() - 1, '+', style);
  Put(logical.right() - 1, logical.bottom() - 1, '+', style);
  HLine(logical.x + 1, logical.y, logical.w - 2, '-', style);
  HLine(logical.x + 1, logical.bottom() - 1, logical.w - 2, '-', style);
  VLine(logical.x, logical.y + 1, logical.h - 2, '|', style);
  VLine(logical.right() - 1, logical.y + 1, logical.h - 2, '|', style);
}

void Window::HLine(int lx, int ly, int w, char ch, std::uint8_t style) {
  const Rect run =
      ClipRun(rect_.x + (lx - pan_x_), rect_.y + (ly - pan_y_), w, rect_);
  if (run.w > 0) canvas_->HLine(run.x, run.y, run.w, ch, style);
}

void Window::VLine(int lx, int ly, int h, char ch, std::uint8_t style) {
  for (int i = 0; i < h; ++i) Put(lx, ly + i, ch, style);
}

void Window::AddStyle(const Rect& logical, std::uint8_t style) {
  Rect screen = ToScreen(logical);
  if (screen.w > 0 && screen.h > 0) canvas_->AddStyle(screen, style);
}

Rect Window::ToScreen(const Rect& logical) const {
  int x0 = rect_.x + (logical.x - pan_x_);
  int y0 = rect_.y + (logical.y - pan_y_);
  int x1 = x0 + logical.w;
  int y1 = y0 + logical.h;
  x0 = std::max(x0, rect_.x);
  y0 = std::max(y0, rect_.y);
  x1 = std::min(x1, rect_.right());
  y1 = std::min(y1, rect_.bottom());
  if (x1 <= x0 || y1 <= y0) return Rect{0, 0, 0, 0};
  return Rect{x0, y0, x1 - x0, y1 - y0};
}

void Window::ToLogical(int sx, int sy, int* lx, int* ly) const {
  *lx = sx - rect_.x + pan_x_;
  *ly = sy - rect_.y + pan_y_;
}

}  // namespace isis::gfx
