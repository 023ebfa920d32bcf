/// \file journal.h
/// \brief The design journal — the paper's §5 future work #3.
///
/// "Third, we would like to add features to assist users in the process of
/// designing their schemas ... it would be useful to be able to keep track
/// of the history of a database design."
///
/// The journal records every successful design action of a session (schema
/// and data edits, query definitions, undo/redo, saves) with a logical
/// sequence number. It lives in the controller — deliberately *outside*
/// the undo snapshot, so undoing an edit appends an `undo` entry rather
/// than erasing the record of the edit: the history is the history.
///
/// Only the most recent kRetained entries are kept; sequence numbers and
/// size() still count every entry ever recorded. A session lives as long as
/// its client (a server session can run for days), and an unbounded
/// journal made memory grow with uptime. The retained window is also all
/// that a single-user `load` carries into its new write-ahead log as notes,
/// so a session recovered from that log starts its journal from the
/// window, numbered afresh from 1.

#ifndef ISIS_UI_JOURNAL_H_
#define ISIS_UI_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace isis::ui {

/// One recorded design action.
struct JournalEntry {
  std::int64_t seq = 0;      ///< Logical timestamp (1-based, monotonic).
  std::string action;        ///< Canonical action name ("create subclass").
  std::string detail;        ///< Human-readable specifics.
};

/// \brief Append-only log of design actions, keeping the most recent ones.
class DesignJournal {
 public:
  /// How many of the most recent entries are kept.
  static constexpr std::size_t kRetained = 1024;

  /// Appends an entry, drops the oldest beyond kRetained, and returns the
  /// new entry's sequence number.
  std::int64_t Record(std::string action, std::string detail);

  /// The retained entries, oldest first: the last min(size(), kRetained).
  const std::deque<JournalEntry>& entries() const { return entries_; }
  /// Entries ever recorded, retained or not.
  std::size_t size() const { return static_cast<std::size_t>(next_seq_ - 1); }
  bool empty() const { return entries_.empty(); }

  /// The last `n` retained entries, oldest first, one per line:
  /// `#seq action: detail`. Empty string when nothing is recorded.
  std::string Render(std::size_t n) const;

  /// Retained entries whose action or detail contains `needle` (design
  /// archaeology: "when did quartets appear?").
  std::vector<JournalEntry> Find(const std::string& needle) const;

 private:
  std::deque<JournalEntry> entries_;
  std::int64_t next_seq_ = 1;
};

}  // namespace isis::ui

#endif  // ISIS_UI_JOURNAL_H_
