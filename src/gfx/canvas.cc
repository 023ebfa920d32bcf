#include "gfx/canvas.h"

#include <algorithm>
#include <cstring>

namespace isis::gfx {

Canvas::Canvas(int width, int height)
    : width_(std::max(1, width)),
      height_(std::max(1, height)),
      chars_(static_cast<size_t>(width_) * height_, ' '),
      styles_(static_cast<size_t>(width_) * height_, kPlain) {}

Rect ClipRun(int x, int y, std::int64_t n, const Rect& bounds) {
  if (n <= 0 || y < bounds.y || y >= bounds.bottom()) return Rect{};
  const std::int64_t first = std::max<std::int64_t>(x, bounds.x);
  const std::int64_t last =
      std::min<std::int64_t>(std::int64_t{x} + n, bounds.right());
  if (first >= last) return Rect{};
  return Rect{static_cast<int>(first), y, static_cast<int>(last - first), 1};
}

void Canvas::Clear(char ch) {
  std::memset(chars_.data(), ch, chars_.size());
  std::memset(styles_.data(), kPlain, styles_.size());
}

void Canvas::Put(int x, int y, char ch, std::uint8_t style) {
  if (!bounds().Contains(x, y)) return;
  chars_[Offset(x, y)] = ch;
  styles_[Offset(x, y)] = style;
}

Cell Canvas::At(int x, int y) const {
  if (!bounds().Contains(x, y)) return Cell{};
  return Cell{chars_[Offset(x, y)], styles_[Offset(x, y)]};
}

void Canvas::Text(int x, int y, std::string_view s, std::uint8_t style) {
  const Rect run =
      ClipRun(x, y, static_cast<std::int64_t>(s.size()), bounds());
  if (run.w == 0) return;
  std::memcpy(chars_.data() + Offset(run.x, y), s.data() + (run.x - x),
              run.w);
  std::memset(styles_.data() + Offset(run.x, y), style, run.w);
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
  const Rect run = ClipRun(x, y, w, bounds());
  if (run.w == 0) return;
  std::memset(chars_.data() + Offset(run.x, y), ch, run.w);
  std::memset(styles_.data() + Offset(run.x, y), style, run.w);
}

void Canvas::VLine(int x, int y, int h, char ch, std::uint8_t style) {
  for (int i = 0; i < h; ++i) Put(x, y + i, ch, style);
}

void Canvas::Fill(const Rect& r, char ch, std::uint8_t style) {
  for (int yy = std::max(0, r.y); yy < std::min(height_, r.bottom()); ++yy) {
    HLine(r.x, yy, r.w, ch, style);
  }
}

void Canvas::AddStyle(const Rect& r, std::uint8_t style) {
  for (int yy = std::max(0, r.y); yy < std::min(height_, r.bottom()); ++yy) {
    const Rect run = ClipRun(r.x, yy, r.w, bounds());
    for (int x = run.x; x < run.right(); ++x) styles_[Offset(x, yy)] |= style;
  }
}

std::string Canvas::ToString() const {
  // Sized for the untrimmed screen, filled through a pointer, then cut to
  // what was written: no per-character capacity checks.
  std::string out(static_cast<size_t>(width_ + 1) * height_, '\0');
  char* dst = out.data();
  for (int y = 0; y < height_; ++y) {
    const char* row = chars_.data() + Offset(0, y);
    // Trim trailing spaces for stable, diff-friendly screenshots.
    size_t end = static_cast<size_t>(width_);
    while (end > 0 && row[end - 1] == ' ') --end;
    std::memcpy(dst, row, end);
    dst += end;
    *dst++ = '\n';
  }
  out.resize(static_cast<size_t>(dst - out.data()));
  return out;
}

std::string Canvas::StyleString() const {
  // Indexed by the three style bits: bold+reverse wins, then bold, then
  // reverse, then dim.
  static constexpr char kCode[8] = {' ', 'b', 'r', 'B', 'd', 'b', 'r', 'B'};
  std::string out(static_cast<size_t>(width_ + 1) * height_, '\0');
  char* dst = out.data();
  for (int y = 0; y < height_; ++y) {
    const std::uint8_t* row = styles_.data() + Offset(0, y);
    char* line = dst;
    for (int x = 0; x < width_; ++x) *dst++ = kCode[row[x] & 7];
    while (dst > line && dst[-1] == ' ') --dst;
    *dst++ = '\n';
  }
  out.resize(static_cast<size_t>(dst - out.data()));
  return out;
}

}  // namespace isis::gfx
