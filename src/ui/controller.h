/// \file controller.h
/// \brief The ISIS session controller: dispatches input events to the
/// current view's semantics and drives the Diagram 1 state machine.
///
/// The controller owns the Workspace and the SessionState, renders the
/// current view on demand, hit-tests picks against the last rendered
/// screen, and implements every menu/function-key command of §3 and §4:
/// navigation (view associations / view contents / pop / follow), schema
/// editing (create subclass/attribute/grouping, (re)name, delete, undo,
/// redo), data editing (select/reject, (re)assign att. value, create
/// entity, make subclass), the whole predicate-worksheet interaction, and
/// save/load.
///
/// Undo/redo snapshot the entire workspace through the store serializer —
/// every command that mutates the database is undoable, matching the
/// editing menu of the paper's forest view.
///
/// Stored derived subclasses and attributes are kept fresh by a
/// live::LiveViewEngine, the same in every session: the controller attaches
/// one to each workspace it owns, and a shared session uses the server's.
/// A maintenance failure shows on the message line of the event that
/// caused it, as ` [<status>]` after the event's own message.

#ifndef ISIS_UI_CONTROLLER_H_
#define ISIS_UI_CONTROLLER_H_

#include <memory>
#include <string>
#include <vector>

#include "input/event.h"
#include "live/engine.h"
#include "query/workspace.h"
#include "store/file.h"
#include "store/wal.h"
#include "ui/journal.h"
#include "ui/screen.h"
#include "ui/state.h"
#include "ui/views.h"

namespace isis::ui {

/// \brief How a durable session persists itself (see
/// SessionController::OpenDurable).
struct DurabilityConfig {
  /// Directory holding `<name>.isis` checkpoints and the `<name>.isis.wal`
  /// edit log. Must already exist.
  std::string dir;
  /// File system to use; nullptr means store::FileEnv::Default(). Tests
  /// pass a store::FaultInjectingEnv here.
  store::FileEnv* env = nullptr;
};

/// \brief Owns a Workspace and a SessionState and interprets events.
class SessionController {
 public:
  /// Starts a session over `ws` (takes ownership) at the inheritance forest
  /// with no schema selection, as on database load, and attaches a live
  /// engine to it.
  explicit SessionController(std::unique_ptr<query::Workspace> ws);

  /// Starts a *shared* session over a workspace owned by someone else (the
  /// multi-session server): this controller holds only per-session UI state
  /// (selection, pages, worksheet, prompts) while schema and data live in
  /// `*shared_ws`, visible to every session sharing it. Commands that would
  /// replace, snapshot or persist the whole workspace — undo, redo, load,
  /// save (the owner persists it) — return Unimplemented, and the
  /// controller never attaches its own live engine: the owner's engine
  /// maintains the views, and `shared_live` (the owner's engine, or null)
  /// is used only to report its errors on this session's message line. The
  /// caller is responsible for serializing mutations across sessions;
  /// `shared_ws` must outlive the controller.
  SessionController(query::Workspace* shared_ws,
                    live::LiveViewEngine* shared_live);

  /// Opens a *durable* session in `config.dir`: every successful input
  /// event is appended to a checksummed write-ahead log before the next
  /// event is accepted, so a crash loses at most the action in flight.
  ///
  /// If `<dir>/<ws-name>.isis.wal` is left over from a crashed session, the
  /// log's base checkpoint is loaded, the logged events are replayed
  /// through the normal dispatch path (rebuilding the design journal from
  /// the logged notes), the result is re-validated with the full
  /// ConsistencyChecker, and `ws` is discarded in favour of the recovered
  /// state. A live-maintenance error during replay is logged and cleared,
  /// and replay goes on, as the session did when the event first ran. A
  /// torn final record is truncated and the log repaired; mid-log
  /// corruption fails the open with a record-level error.
  static Result<std::unique_ptr<SessionController>> OpenDurable(
      std::unique_ptr<query::Workspace> ws, const DurabilityConfig& config);

  /// True when this session has a live write-ahead log.
  bool durable() const { return wal_ != nullptr; }
  /// Path of the live WAL ("" when not durable).
  std::string wal_path() const { return wal_ ? wal_->path() : ""; }

  const query::Workspace& workspace() const { return *ws_; }
  query::Workspace& workspace() { return *ws_; }
  const SessionState& state() const { return state_; }
  /// The status/prompt line shown in the bottom text window.
  const std::string& message() const { return message_; }
  bool stopped() const { return state_.stopped; }

  /// Renders the current view (also refreshes the pick hit-map).
  const Screen& Render();
  /// The screen the last Render() produced, without rendering again (a
  /// blank canvas before the first). Reads no database state.
  const Screen& last_screen() const { return screen_; }

  /// Interprets one event. Unknown targets and illegal commands set an
  /// error message (shown in the text window) and return the error; the
  /// session keeps running either way, like the real interface.
  Status HandleEvent(const input::Event& event);

  /// Parses and replays a session script (see input::ParseScript). Stops at
  /// the first error when `stop_on_error`. Every event re-renders, so the
  /// screen after any prefix equals the interactive result.
  Status RunScript(const std::string& script, bool stop_on_error = true);

  /// Saves the workspace to `<dir>/<name>.isis` (the `save` command uses
  /// the current database name; `type` beforehand answers the name prompt).
  Status SaveAs(const std::string& path) const;

  /// Undo/redo depth available (for tests).
  size_t undo_depth() const { return undo_.size(); }
  size_t redo_depth() const { return redo_.size(); }

  /// The session's design journal (§5: "keep track of the history of a
  /// database design"). Records every successful design action; not rolled
  /// back by undo (the undo itself is recorded). Keeps the most recent
  /// DesignJournal::kRetained entries.
  const DesignJournal& journal() const { return journal_; }

  /// The live-view engine that maintains this session's derived views: its
  /// own, or the shared one it was given (possibly null). For tests and
  /// status display.
  const live::LiveViewEngine* live_engine() const { return live_; }

 private:
  /// HandleEvent minus the WAL append: interprets one event. Recovery
  /// replays logged events through this so they are not re-logged.
  Status Dispatch(const input::Event& event);

  // Durability helpers.
  store::FileEnv* env() const;
  /// `<dir>/<name>.isis` in durable mode, `<name>.isis` otherwise.
  std::string SavePathFor(const std::string& name) const;
  std::string WalPathFor(const std::string& name) const;
  /// Best-effort append of one logged event / journal note; a failed
  /// append degrades the message but never fails the action itself.
  /// During a script (wal_batching_) records are buffered instead and
  /// committed by WalFlushBatch with one sync for the whole script.
  void WalAppendEvent(const input::Event& event);
  void WalAppendNote(const std::string& action, const std::string& detail);
  /// Ends a RunScript batch: frames every buffered record with one write
  /// and one sync (store::WalWriter::AppendBatch). Clears wal_batching_.
  void WalFlushBatch();
  /// After a successful `load`, the old log no longer describes the
  /// workspace: start a fresh one whose base is the just-loaded state,
  /// carrying the journal's retained window forward as notes.
  void RotateWalForLoad();

  // Event handlers.
  Status HandlePick(int x, int y);
  Status HandleNamedPick(const std::string& target);
  Status HandleCommand(const std::string& command);
  Status HandleText(const std::string& text);

  // Pick dispatch per target namespace.
  Status PickClass(const std::string& name);
  Status PickGrouping(const std::string& name);
  Status PickAttribute(const std::string& name);
  Status PickMember(const std::string& name);
  Status PickWorksheetTarget(const std::string& ns, const std::string& rest);

  // Commands.
  Status CmdViewAssociations();
  Status CmdViewContents();
  Status CmdViewForest();
  Status CmdPop();
  Status CmdFollow();
  Status CmdCreateSubclass();
  Status CmdCreateAttribute();
  Status CmdCreateGrouping();
  Status CmdDefineMembership();
  Status CmdDefineDerivation();
  Status CmdDefineConstraint();
  Status CmdCheckConstraints();
  Status CmdDisplayPredicate();
  Status CmdDelete();
  Status CmdRename();
  Status CmdAssignAttrValue();
  Status CmdMakeSubclass();
  Status CmdCreateEntity();
  Status CmdDeleteEntity();
  Status CmdWorksheet(const std::string& command);
  Status CmdCommit();
  Status CmdAbort();
  Status CmdAcceptConstant();
  Status CmdUndo();
  Status CmdRedo();
  Status CmdSave();
  Status CmdPan(int dx, int dy);
  Status CmdMembersPan(int delta);

  // Worksheet helpers.
  query::Term* FocusedTerm();
  ClassId FocusedTermStart() const;
  ClassId CandidateClass() const;
  ClassId SelfClass() const;

  // State helpers.
  void EnterDataLevel(const SchemaSelection& node);
  void BeginTempVisit(TempVisit kind, Level target_level);
  void EndTempVisit();
  void PushUndoSnapshot();
  /// A selection is picked in one gesture and used by a later one, and in
  /// a shared session another session may delete its entities or move
  /// them out of `cls` in between. A command that edits a selection calls
  /// this before its first mutation, so a stale selection is refused with
  /// the database untouched instead of failing halfway through the loop.
  Status CheckSelectionCurrent(const sdm::EntitySet& selected,
                               ClassId cls) const;
  /// Takes ownership of `ws` in place of the owned workspace, with a new
  /// live engine attached to it (construction, undo, redo, load).
  void ReplaceWorkspace(std::unique_ptr<query::Workspace> ws);
  Status Fail(const Status& st);
  void Say(const std::string& msg);
  /// Records a successful design action in the journal.
  void Journal(const std::string& action, const std::string& detail);

  /// Owned workspace (null in shared mode; ws_ always points at the live
  /// one).
  std::unique_ptr<query::Workspace> owned_ws_;
  query::Workspace* ws_ = nullptr;
  /// Owned engine (null in shared mode; live_ points at the one whose
  /// errors this session reports). Declared after owned_ws_ so it is
  /// destroyed first (it unregisters its observer from ws_'s database).
  std::unique_ptr<live::LiveViewEngine> owned_live_;
  live::LiveViewEngine* live_ = nullptr;
  bool shared_mode_ = false;
  SessionState state_;
  std::string message_;
  Screen screen_;
  bool screen_valid_ = false;
  std::vector<std::string> undo_;
  std::vector<std::string> redo_;
  DesignJournal journal_;

  // Durability state (empty/null outside OpenDurable sessions).
  std::string durable_dir_;
  store::FileEnv* env_ = nullptr;
  std::unique_ptr<store::WalWriter> wal_;
  /// True while OpenDurable replays logged events: suppresses re-logging.
  bool wal_replaying_ = false;
  /// Set by handlers (load) whose effect is already captured in the log by
  /// other means, so HandleEvent must not also append the raw event.
  bool wal_event_logged_ = false;
  /// True inside RunScript on a durable session: appends buffer into
  /// wal_batch_ and commit with one sync at script end, so an N-event
  /// script costs one fsync instead of N.
  bool wal_batching_ = false;
  std::vector<store::WalRecord> wal_batch_;
};

}  // namespace isis::ui

#endif  // ISIS_UI_CONTROLLER_H_
