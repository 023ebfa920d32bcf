#include "gfx/canvas.h"

#include <algorithm>

namespace isis::gfx {

Canvas::Canvas(int width, int height)
    : width_(std::max(1, width)),
      height_(std::max(1, height)),
      cells_(static_cast<size_t>(width_) * height_) {}

void Canvas::Clear(char ch) {
  for (Cell& c : cells_) c = Cell{ch, kPlain};
}

void Canvas::Put(int x, int y, char ch, std::uint8_t style) {
  if (x < 0 || x >= width_ || y < 0 || y >= height_) return;
  cells_[static_cast<size_t>(y) * width_ + x] = Cell{ch, style};
}

const Cell& Canvas::At(int x, int y) const {
  static const Cell kOut{};
  if (x < 0 || x >= width_ || y < 0 || y >= height_) return kOut;
  return cells_[static_cast<size_t>(y) * width_ + x];
}

void Canvas::Text(int x, int y, std::string_view s, std::uint8_t style) {
  for (size_t i = 0; i < s.size(); ++i) {
    Put(x + static_cast<int>(i), y, s[i], style);
  }
}

void Canvas::Box(const Rect& r, std::uint8_t style) {
  if (r.w < 2 || r.h < 2) return;
  Put(r.x, r.y, '+', style);
  Put(r.right() - 1, r.y, '+', style);
  Put(r.x, r.bottom() - 1, '+', style);
  Put(r.right() - 1, r.bottom() - 1, '+', style);
  HLine(r.x + 1, r.y, r.w - 2, '-', style);
  HLine(r.x + 1, r.bottom() - 1, r.w - 2, '-', style);
  VLine(r.x, r.y + 1, r.h - 2, '|', style);
  VLine(r.right() - 1, r.y + 1, r.h - 2, '|', style);
}

void Canvas::HeavyBox(const Rect& r, std::uint8_t style) {
  if (r.w < 2 || r.h < 2) return;
  HLine(r.x, r.y, r.w, '#', style);
  HLine(r.x, r.bottom() - 1, r.w, '#', style);
  VLine(r.x, r.y + 1, r.h - 2, '#', style);
  VLine(r.right() - 1, r.y + 1, r.h - 2, '#', style);
}

void Canvas::HLine(int x, int y, int w, char ch, std::uint8_t style) {
  for (int i = 0; i < w; ++i) Put(x + i, y, ch, style);
}

void Canvas::VLine(int x, int y, int h, char ch, std::uint8_t style) {
  for (int i = 0; i < h; ++i) Put(x, y + i, ch, style);
}

void Canvas::Fill(const Rect& r, char ch, std::uint8_t style) {
  for (int yy = r.y; yy < r.bottom(); ++yy) {
    for (int xx = r.x; xx < r.right(); ++xx) Put(xx, yy, ch, style);
  }
}

void Canvas::AddStyle(const Rect& r, std::uint8_t style) {
  for (int yy = std::max(0, r.y); yy < std::min(height_, r.bottom()); ++yy) {
    for (int xx = std::max(0, r.x); xx < std::min(width_, r.right()); ++xx) {
      cells_[static_cast<size_t>(yy) * width_ + xx].style |= style;
    }
  }
}

std::string Canvas::ToString() const {
  // Sized for the untrimmed screen, filled through a pointer, then cut to
  // what was written: no per-character capacity checks.
  std::string out(static_cast<size_t>(width_ + 1) * height_, '\0');
  char* dst = out.data();
  for (int y = 0; y < height_; ++y) {
    const Cell* row = cells_.data() + static_cast<size_t>(y) * width_;
    // Trim trailing spaces for stable, diff-friendly screenshots.
    int end = width_;
    while (end > 0 && row[end - 1].ch == ' ') --end;
    for (int x = 0; x < end; ++x) *dst++ = row[x].ch;
    *dst++ = '\n';
  }
  out.resize(static_cast<size_t>(dst - out.data()));
  return out;
}

std::string Canvas::StyleString() const {
  std::string out;
  out.reserve(static_cast<size_t>(width_ + 1) * height_);
  for (int y = 0; y < height_; ++y) {
    size_t line_start = out.size();
    for (int x = 0; x < width_; ++x) {
      std::uint8_t s = cells_[static_cast<size_t>(y) * width_ + x].style;
      char c = ' ';
      if ((s & kBold) && (s & kReverse)) {
        c = 'B';
      } else if (s & kBold) {
        c = 'b';
      } else if (s & kReverse) {
        c = 'r';
      } else if (s & kDim) {
        c = 'd';
      }
      out += c;
    }
    while (out.size() > line_start && out.back() == ' ') out.pop_back();
    out += '\n';
  }
  return out;
}

}  // namespace isis::gfx
