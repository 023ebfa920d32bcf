#include "ui/journal.h"

namespace isis::ui {

std::int64_t DesignJournal::Record(std::string action, std::string detail) {
  JournalEntry entry;
  entry.seq = next_seq_++;
  entry.action = std::move(action);
  entry.detail = std::move(detail);
  entries_.push_back(std::move(entry));
  if (entries_.size() > kRetained) entries_.pop_front();
  return entries_.back().seq;
}

std::string DesignJournal::Render(std::size_t n) const {
  std::string out;
  std::size_t first = entries_.size() > n ? entries_.size() - n : 0;
  for (std::size_t i = first; i < entries_.size(); ++i) {
    if (!out.empty()) out += "\n";
    out += "#" + std::to_string(entries_[i].seq) + " " + entries_[i].action;
    if (!entries_[i].detail.empty()) out += ": " + entries_[i].detail;
  }
  return out;
}

std::vector<JournalEntry> DesignJournal::Find(
    const std::string& needle) const {
  std::vector<JournalEntry> out;
  for (const JournalEntry& e : entries_) {
    if (e.action.find(needle) != std::string::npos ||
        e.detail.find(needle) != std::string::npos) {
      out.push_back(e);
    }
  }
  return out;
}

}  // namespace isis::ui
