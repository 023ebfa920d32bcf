#include "ui/controller.h"

#include <algorithm>

#include "common/strings.h"
#include "query/eval.h"
#include "sdm/consistency.h"
#include "sdm/stats.h"
#include "store/serializer.h"
#include "ui/render_util.h"

namespace isis::ui {

using input::CommandEvent;
using input::Event;
using input::NamedPickEvent;
using input::PickEvent;
using input::TextEvent;
using query::AttributeDerivation;
using query::Atom;
using query::NormalForm;
using query::Operand;
using query::Predicate;
using query::SetOp;
using query::Term;
using sdm::AttributeDef;
using sdm::ClassDef;
using sdm::EntitySet;
using sdm::GroupingDef;
using sdm::Membership;
using sdm::Schema;

SessionController::SessionController(std::unique_ptr<query::Workspace> ws) {
  ReplaceWorkspace(std::move(ws));
  Say("database '" + ws_->name() + "' loaded; pick an object to focus on");
}

SessionController::SessionController(query::Workspace* shared_ws,
                                     live::LiveViewEngine* shared_live)
    : ws_(shared_ws), live_(shared_live), shared_mode_(true) {
  Say("database '" + ws_->name() + "' shared; pick an object to focus on");
}

void SessionController::ReplaceWorkspace(
    std::unique_ptr<query::Workspace> ws) {
  owned_live_.reset();  // Observes the old database; must go before it.
  owned_ws_ = std::move(ws);
  ws_ = owned_ws_.get();
  owned_live_ = std::make_unique<live::LiveViewEngine>(ws_);
  live_ = owned_live_.get();
}

const Screen& SessionController::Render() {
  RenderContext ctx{*ws_, state_, message_};
  screen_ = RenderCurrent(ctx);
  screen_valid_ = true;
  return screen_;
}

Status SessionController::Fail(const Status& st) {
  Say("! " + st.ToString());
  return st;
}

void SessionController::Say(const std::string& msg) { message_ = msg; }

void SessionController::Journal(const std::string& action,
                                const std::string& detail) {
  journal_.Record(action, detail);
}

Status SessionController::HandleEvent(const Event& event) {
  wal_event_logged_ = false;
  Status st = Dispatch(event);
  // The engine kept the derived views fresh while the event mutated the
  // database. A maintenance failure does not undo the event; it shows on
  // the message line.
  if (live_ != nullptr) {
    Status maintenance = live_->TakeError();
    if (!maintenance.ok()) Say(message_ + " [" + maintenance.ToString() + "]");
  }
  // Write-ahead in effect: the event only becomes durable once it has
  // succeeded in memory, and the next event is not accepted before the
  // append (Append fsyncs). Failed events are not logged — replay must
  // reproduce exactly the successful history.
  if (st.ok() && wal_ != nullptr && !wal_replaying_ && !wal_event_logged_) {
    WalAppendEvent(event);
  }
  return st;
}

Status SessionController::Dispatch(const Event& event) {
  if (state_.stopped) {
    return Fail(Status::InvalidArgument("session has stopped"));
  }
  if (const auto* p = std::get_if<PickEvent>(&event)) {
    return HandlePick(p->x, p->y);
  }
  if (const auto* n = std::get_if<NamedPickEvent>(&event)) {
    return HandleNamedPick(n->target);
  }
  if (const auto* c = std::get_if<CommandEvent>(&event)) {
    return HandleCommand(c->command);
  }
  return HandleText(std::get<TextEvent>(event).text);
}

Status SessionController::RunScript(const std::string& script,
                                    bool stop_on_error) {
  ISIS_ASSIGN_OR_RETURN(std::vector<Event> events,
                        input::ParseScript(script));
  // Batch the script's WAL: each successful event is buffered and the
  // whole run is framed + fsynced once at the end (AppendBatch), so an
  // N-event script costs one sync instead of N. The durability unit
  // becomes the script -- which is also the unit a caller would re-run
  // after a crash, since replay truncates at the torn tail.
  const bool batch = wal_ != nullptr && !wal_replaying_ && !wal_batching_;
  if (batch) wal_batching_ = true;
  for (const Event& e : events) {
    Status st = HandleEvent(e);
    if (!st.ok() && stop_on_error) {
      if (batch) WalFlushBatch();  // What succeeded stays durable.
      return Status(st.code(),
                    "at event " + input::EventToString(e) + ": " +
                        st.message());
    }
  }
  if (batch) WalFlushBatch();
  return Status::OK();
}

Status SessionController::SaveAs(const std::string& path) const {
  return store::SaveToFile(*ws_, path, env());
}

// --- Durability. ---

store::FileEnv* SessionController::env() const {
  return env_ != nullptr ? env_ : store::FileEnv::Default();
}

std::string SessionController::SavePathFor(const std::string& name) const {
  if (durable_dir_.empty()) return name + ".isis";
  return durable_dir_ + "/" + name + ".isis";
}

std::string SessionController::WalPathFor(const std::string& name) const {
  return durable_dir_ + "/" + name + ".isis.wal";
}

void SessionController::WalAppendEvent(const Event& event) {
  if (wal_batching_) {
    wal_batch_.push_back({"event", input::EncodeEvent(event)});
    return;
  }
  Status st = wal_->Append("event", input::EncodeEvent(event));
  if (!st.ok()) {
    // The action already succeeded in memory; surface the durability gap
    // without failing it.
    Say(message_ + " [WAL append failed: " + st.ToString() + "]");
  }
}

void SessionController::WalAppendNote(const std::string& action,
                                      const std::string& detail) {
  if (wal_ == nullptr || wal_replaying_) return;
  if (wal_batching_) {
    wal_batch_.push_back({"note", Escape(action) + "|" + Escape(detail)});
    return;
  }
  // Best-effort by design: notes are commentary, not replayed state -- a
  // lost one costs journal context, never data. Logged, not propagated.
  LogIfError(wal_->Append("note", Escape(action) + "|" + Escape(detail)),
             "session WAL append (note)");
}

void SessionController::WalFlushBatch() {
  wal_batching_ = false;
  if (wal_batch_.empty()) return;
  std::vector<store::WalRecord> batch;
  batch.swap(wal_batch_);
  if (wal_ == nullptr) return;  // Durability was lost mid-script.
  Status st = wal_->AppendBatch(batch);
  if (!st.ok()) {
    Say(message_ + " [WAL batch append failed: " + st.ToString() + "]");
  }
}

void SessionController::RotateWalForLoad() {
  // The just-dispatched `load` event must not be appended to the old log:
  // its whole effect is captured by the new base checkpoint. The same goes
  // for any records a script buffered before the load -- the base
  // supersedes them, and appending them to the new log would replay them
  // on top of it.
  wal_batch_.clear();
  wal_event_logged_ = true;
  std::vector<store::WalRecord> records;
  records.push_back({"base", store::Save(*ws_)});
  // The journal survives loads, so carry its retained window into the new
  // log as notes — recovery rebuilds it without replaying pre-load events.
  for (const JournalEntry& e : journal_.entries()) {
    records.push_back({"note", Escape(e.action) + "|" + Escape(e.detail)});
  }
  Result<std::unique_ptr<store::WalWriter>> w =
      store::WalWriter::CreateWithRecords(WalPathFor(ws_->name()), env(),
                                          records);
  if (!w.ok()) {
    // Fail safe: a log that no longer matches the workspace is worse than
    // no log. Drop durability and tell the user.
    wal_.reset();
    Say(message_ + " [durability lost: " + w.status().ToString() + "]");
    return;
  }
  wal_ = std::move(*w);
}

Result<std::unique_ptr<SessionController>> SessionController::OpenDurable(
    std::unique_ptr<query::Workspace> ws, const DurabilityConfig& config) {
  store::FileEnv* env =
      config.env != nullptr ? config.env : store::FileEnv::Default();
  const std::string wal_path =
      config.dir + "/" + ws->name() + ".isis.wal";

  std::vector<store::WalRecord> records;
  bool torn = false;
  if (env->Exists(wal_path)) {
    ISIS_ASSIGN_OR_RETURN(store::WalContents contents,
                          store::ReadWal(wal_path, env));
    records = std::move(contents.records);
    torn = contents.truncated_tail;
  }
  if (!records.empty() && records[0].type != "base") {
    return Status::ParseError("'" + wal_path +
                              "': first record is not a base checkpoint");
  }

  if (records.empty()) {
    // Fresh durable session — or a log torn before its base checkpoint
    // made it to disk, which holds nothing recoverable: start from `ws`.
    std::unique_ptr<SessionController> session(
        new SessionController(std::move(ws)));
    session->durable_dir_ = config.dir;
    session->env_ = config.env;
    records.push_back({"base", store::Save(session->workspace())});
    ISIS_ASSIGN_OR_RETURN(
        session->wal_,
        store::WalWriter::CreateWithRecords(wal_path, env, records));
    return session;
  }

  // Crash recovery: load the base checkpoint the log was written against,
  // then replay its notes (journal entries) and events in order.
  Result<std::unique_ptr<query::Workspace>> base =
      store::Load(records[0].payload);
  if (!base.ok()) {
    return Status(base.status().code(),
                  "'" + wal_path +
                      "' base checkpoint: " + base.status().message());
  }
  std::unique_ptr<SessionController> session(
      new SessionController(std::move(*base)));
  session->durable_dir_ = config.dir;
  session->env_ = config.env;
  session->wal_replaying_ = true;
  int replayed_events = 0;
  for (size_t i = 1; i < records.size(); ++i) {
    const store::WalRecord& r = records[i];
    auto bad = [&](const std::string& why) {
      return Status::ParseError("'" + wal_path + "' record " +
                                std::to_string(i) + ": " + why);
    };
    if (r.type == "note") {
      size_t bar = r.payload.find('|');
      if (bar == std::string::npos) return bad("malformed journal note");
      session->journal_.Record(Unescape(r.payload.substr(0, bar)),
                               Unescape(r.payload.substr(bar + 1)));
    } else if (r.type == "event") {
      Result<input::Event> ev = input::DecodeEvent(r.payload);
      if (!ev.ok()) return bad(ev.status().ToString());
      Status st = session->Dispatch(*ev);
      if (!st.ok()) return bad("replay failed: " + st.ToString());
      // A maintenance failure was on the message line when the event first
      // ran, and it did not stop the session then; it does not stop the
      // recovery either.
      LogIfError(session->live_->TakeError(), "session WAL replay");
      ++replayed_events;
    } else {
      return bad("unknown record type '" + r.type + "'");
    }
  }
  session->wal_replaying_ = false;

  // The log only ever holds events that succeeded against a consistent
  // workspace, but recovery trusts nothing: re-validate the whole result.
  ISIS_RETURN_NOT_OK(session->ws_->db().schema().Validate());
  ISIS_RETURN_NOT_OK(sdm::ConsistencyChecker(session->ws_->db()).Check());

  if (torn) {
    // Rewrite the log from its intact prefix before appending again.
    ISIS_ASSIGN_OR_RETURN(
        session->wal_,
        store::WalWriter::CreateWithRecords(wal_path, env, records));
  } else {
    ISIS_ASSIGN_OR_RETURN(session->wal_,
                          store::WalWriter::OpenForAppend(wal_path, env));
  }
  session->Say("recovered '" + session->ws_->name() + "' from its edit log (" +
               std::to_string(replayed_events) + " event(s) replayed)");
  return session;
}

// --- Picks. ---

Status SessionController::HandlePick(int x, int y) {
  if (!screen_valid_) Render();
  const HitRegion* hit = screen_.HitTest(x, y);
  if (hit == nullptr) {
    return Fail(Status::NotFound("nothing pickable at (" + std::to_string(x) +
                                 "," + std::to_string(y) + ")"));
  }
  std::string target = hit->target;
  size_t colon = target.find(':');
  std::string ns = target.substr(0, colon);
  std::string rest = target.substr(colon + 1);
  if (ns == "menu") return HandleCommand(rest);
  if (ns == "class") return PickClass(rest);
  if (ns == "grouping") return PickGrouping(rest);
  if (ns == "attr") return PickAttribute(rest);
  if (ns == "member") return PickMember(rest);
  if (ns == "atom" || ns == "clause" || ns == "op" || ns == "page") {
    return PickWorksheetTarget(ns, rest);
  }
  return Fail(Status::Internal("unhandled pick namespace '" + ns + "'"));
}

Status SessionController::HandleNamedPick(const std::string& target) {
  if (!screen_valid_) Render();
  const HitRegion* hit = screen_.FindTarget(target);
  if (hit == nullptr) {
    // Allow bare attribute names to match qualified regions
    // (`attr:<class>.<name>`).
    if (StartsWith(target, "attr:")) {
      std::string bare = target.substr(5);
      for (const HitRegion& h : screen_.hits) {
        if (StartsWith(h.target, "attr:")) {
          std::string name = h.target.substr(5);
          size_t dot = name.rfind('.');
          if (name == bare || (dot != std::string::npos &&
                               name.substr(dot + 1) == bare)) {
            hit = &h;
            break;
          }
        }
      }
    }
    if (hit == nullptr) {
      return Fail(
          Status::NotFound("no pickable object '" + target + "' on screen"));
    }
  }
  // Route through coordinates so named picks exercise hit-testing. The
  // region may be partially shadowed by regions registered later (e.g. a
  // class box's attribute rows), so find a cell where the hit-test resolves
  // back to this region.
  for (int dy = 0; dy < hit->rect.h; ++dy) {
    for (int dx = 0; dx < hit->rect.w; ++dx) {
      const HitRegion* resolved =
          screen_.HitTest(hit->rect.x + dx, hit->rect.y + dy);
      if (resolved == hit) {
        return HandlePick(hit->rect.x + dx, hit->rect.y + dy);
      }
    }
  }
  return Fail(Status::NotFound("object '" + target +
                               "' is fully covered by other objects"));
}

Status SessionController::PickClass(const std::string& name) {
  const Schema& schema = ws_->db().schema();
  ISIS_ASSIGN_OR_RETURN(ClassId cls, schema.FindClass(name));
  // A pending "(re)specify value class".
  if (state_.pick_mode == PickMode::kValueClass) {
    if (state_.selection.kind != SchemaSelection::Kind::kAttribute) {
      state_.pick_mode = PickMode::kNormal;
      return Fail(Status::InvalidArgument("no attribute selected"));
    }
    PushUndoSnapshot();
    Status st = ws_->db().SetValueClass(state_.selection.attribute, cls);
    state_.pick_mode = PickMode::kNormal;
    if (!st.ok()) return Fail(st);
    Journal("(re)specify value class",
            schema.GetAttribute(state_.selection.attribute).name + " -> " +
                name);
    Say("value class of '" +
        schema.GetAttribute(state_.selection.attribute).name + "' is now '" +
        name + "'");
    screen_valid_ = false;
    return Status::OK();
  }
  // A pending "add parent" (multiple-inheritance extension).
  if (state_.pick_mode == PickMode::kAddParent) {
    state_.pick_mode = PickMode::kNormal;
    if (state_.selection.kind != SchemaSelection::Kind::kClass) {
      return Fail(Status::InvalidArgument("no class selected"));
    }
    PushUndoSnapshot();
    Status st = ws_->db().AddParent(state_.selection.cls, cls);
    if (!st.ok()) {
      undo_.pop_back();
      return Fail(st);
    }
    Journal("add parent",
            schema.GetClass(state_.selection.cls).name + " <- " + name);
    Say("'" + name + "' is now an additional parent of '" +
        schema.GetClass(state_.selection.cls).name + "'");
    screen_valid_ = false;
    return Status::OK();
  }
  // Worksheet "... starting at class" options.
  if (state_.level == Level::kPredicateWorksheet &&
      state_.worksheet.rhs_pending != WorksheetState::RhsPending::kNone) {
    WorksheetState::RhsPending pending = state_.worksheet.rhs_pending;
    state_.worksheet.rhs_pending = WorksheetState::RhsPending::kNone;
    Term* rhs = FocusedTerm();
    if (rhs == nullptr) {
      return Fail(Status::InvalidArgument("no atom being edited"));
    }
    if (pending == WorksheetState::RhsPending::kMapClass) {
      *rhs = Term::ClassExtent(cls);
      Say("right hand side: map starting at class '" + name + "'");
      screen_valid_ = false;
      return Status::OK();
    }
    // Constant starting at class: temporary visit to the data level.
    BeginTempVisit(TempVisit::kConstantSelection, Level::kDataLevel);
    DataPage page;
    page.cls = cls;
    state_.pages = {page};
    Say("select or create the constant(s) in '" + name +
        "', then 'accept constant'");
    screen_valid_ = false;
    return Status::OK();
  }
  switch (state_.level) {
    case Level::kInheritanceForest:
    case Level::kSemanticNetwork:
      state_.selection = SchemaSelection::Class(cls);
      Say("schema selection: class '" + name + "'");
      break;
    default:
      return Fail(Status::InvalidArgument(
          "picking a class has no meaning here"));
  }
  screen_valid_ = false;
  return Status::OK();
}

Status SessionController::PickGrouping(const std::string& name) {
  ISIS_ASSIGN_OR_RETURN(GroupingId g, ws_->db().schema().FindGrouping(name));
  if (state_.level != Level::kInheritanceForest &&
      state_.level != Level::kSemanticNetwork) {
    return Fail(
        Status::InvalidArgument("picking a grouping has no meaning here"));
  }
  state_.selection = SchemaSelection::Grouping(g);
  Say("schema selection: grouping '" + name + "'");
  screen_valid_ = false;
  return Status::OK();
}

Status SessionController::PickAttribute(const std::string& name) {
  const Schema& schema = ws_->db().schema();
  // Names may arrive qualified as `<class>.<attr>`.
  std::string cls_name, attr_name = name;
  size_t dot = name.rfind('.');
  if (dot != std::string::npos) {
    cls_name = name.substr(0, dot);
    attr_name = name.substr(dot + 1);
  }

  // Data level: `follow` prompt.
  if (state_.level == Level::kDataLevel &&
      state_.pick_mode == PickMode::kFollowAttribute) {
    state_.pick_mode = PickMode::kNormal;
    DataPage* top = state_.top_page();
    if (top == nullptr || top->is_grouping) {
      return Fail(Status::InvalidArgument("no class page to follow from"));
    }
    ISIS_ASSIGN_OR_RETURN(AttributeId attr,
                          schema.FindAttribute(top->cls, attr_name));
    const AttributeDef& def = schema.GetAttribute(attr);
    AttributeId path[] = {attr};
    EntitySet image = ws_->db().EvaluateMap(top->selected, path);
    top->followed = attr;
    DataPage next;
    next.cls = def.value_class;
    next.selected = image;
    state_.pages.push_back(next);
    Say("followed '" + def.name + "' into '" +
        schema.GetClass(def.value_class).name + "' (" +
        std::to_string(image.size()) + " highlighted)");
    screen_valid_ = false;
    return Status::OK();
  }

  // Worksheet: extend the focused map ("forming a stack of classes").
  if (state_.level == Level::kPredicateWorksheet) {
    Term* term = FocusedTerm();
    if (term == nullptr) {
      return Fail(Status::InvalidArgument(
          "pick an atom slot and press 'edit' first"));
    }
    // The attribute must be applicable at the current stack tip.
    query::Evaluator eval(ws_->db());
    query::PredicateContext pctx;
    pctx.candidate_class = CandidateClass();
    if (SelfClass().valid()) pctx.self_class = SelfClass();
    Term extended = *term;
    // Resolve by name at the tip class.
    Result<ClassId> tip = eval.TermTerminalClass(extended, pctx);
    if (!tip.ok()) return Fail(tip.status());
    ISIS_ASSIGN_OR_RETURN(AttributeId attr,
                          schema.FindAttribute(*tip, attr_name));
    extended.path.push_back(attr);
    Result<ClassId> new_tip = eval.TermTerminalClass(extended, pctx);
    if (!new_tip.ok()) return Fail(new_tip.status());
    *term = std::move(extended);
    Say("map extended with '" + attr_name + "'; stack tip: '" +
        schema.GetClass(*new_tip).name + "'");
    screen_valid_ = false;
    return Status::OK();
  }

  // Forest: the attribute becomes the schema selection.
  if (state_.level == Level::kInheritanceForest) {
    ClassId owner_view;
    if (!cls_name.empty()) {
      ISIS_ASSIGN_OR_RETURN(owner_view, schema.FindClass(cls_name));
    } else if (state_.selection.kind == SchemaSelection::Kind::kClass ||
               state_.selection.kind == SchemaSelection::Kind::kAttribute) {
      owner_view = state_.selection.cls;
    }
    AttributeId attr;
    if (owner_view.valid() &&
        schema.FindAttribute(owner_view, attr_name).ok()) {
      attr = *schema.FindAttribute(owner_view, attr_name);
    } else {
      // Search all classes for an own attribute with this name.
      for (ClassId c : schema.AllClasses()) {
        for (AttributeId a : schema.GetClass(c).own_attributes) {
          if (schema.HasAttribute(a) &&
              schema.GetAttribute(a).name == attr_name) {
            attr = a;
            owner_view = c;
            break;
          }
        }
        if (attr.valid()) break;
      }
    }
    if (!attr.valid()) {
      return Fail(Status::NotFound("no attribute '" + attr_name + "'"));
    }
    state_.selection = SchemaSelection::Attribute(
        schema.GetAttribute(attr).owner, attr);
    Say("schema selection: attribute '" + attr_name + "'");
    screen_valid_ = false;
    return Status::OK();
  }
  return Fail(
      Status::InvalidArgument("picking an attribute has no meaning here"));
}

Status SessionController::PickMember(const std::string& name) {
  if (state_.level != Level::kDataLevel) {
    return Fail(Status::InvalidArgument("no member list on this view"));
  }
  DataPage* top = state_.top_page();
  if (top == nullptr) return Fail(Status::InvalidArgument("no data page"));
  Result<EntityId> e = Status::Internal("unset");
  if (top->is_grouping) {
    // Block indices are entities of the grouped attribute's value class.
    const GroupingDef& g = ws_->db().schema().GetGrouping(top->grouping);
    ClassId value_class =
        ws_->db().schema().GetAttribute(g.on_attribute).value_class;
    e = ws_->db().FindMember(value_class, name);
  } else {
    e = ws_->db().FindMember(top->cls, name);
  }
  if (!e.ok()) return Fail(e.status());
  // select/reject: picking toggles the highlight.
  if (top->selected.count(*e) > 0) {
    top->selected.erase(*e);
    Say("rejected '" + name + "'");
  } else {
    top->selected.insert(*e);
    Say("selected '" + name + "'");
  }
  screen_valid_ = false;
  return Status::OK();
}

Status SessionController::PickWorksheetTarget(const std::string& ns,
                                              const std::string& rest) {
  if (state_.level == Level::kDataLevel && ns == "page") {
    return Status::OK();  // pages themselves are inert picks
  }
  if (state_.level != Level::kPredicateWorksheet) {
    return Fail(Status::InvalidArgument("not on the predicate worksheet"));
  }
  WorksheetState& w = state_.worksheet;
  if (ns == "atom") {
    if (rest.size() != 1 || rest[0] < 'A' ||
        rest[0] >= 'A' + WorksheetState::kAtomSlots) {
      return Fail(Status::InvalidArgument("bad atom slot '" + rest + "'"));
    }
    int idx = rest[0] - 'A';
    while (static_cast<int>(w.pred.atoms.size()) <= idx) {
      Atom blank;
      blank.lhs = Term::Candidate();
      blank.rhs = Term::Candidate();
      w.pred.atoms.push_back(blank);
    }
    w.current_atom = idx;
    w.use_hand = false;
    Say("atom " + rest + " selected");
  } else if (ns == "clause") {
    int c = rest[0] - '1';
    if (c < 0 || c >= WorksheetState::kClauseWindows) {
      return Fail(Status::InvalidArgument("bad clause '" + rest + "'"));
    }
    if (w.current_atom < 0) {
      return Fail(Status::InvalidArgument("no atom selected to place"));
    }
    if (static_cast<size_t>(c) >= w.pred.clauses.size()) {
      w.pred.clauses.resize(c + 1);
    }
    std::vector<int>& clause = w.pred.clauses[c];
    auto it = std::find(clause.begin(), clause.end(), w.current_atom);
    if (it == clause.end()) {
      clause.push_back(w.current_atom);
      Say("atom " + std::string(1, static_cast<char>('A' + w.current_atom)) +
          " placed in clause " + rest);
    } else {
      clause.erase(it);
      Say("atom removed from clause " + rest);
    }
  } else if (ns == "op") {
    if (w.current_atom < 0) {
      return Fail(Status::InvalidArgument("no atom selected"));
    }
    static const SetOp kOps[] = {
        SetOp::kEqual,        SetOp::kSubset,         SetOp::kSuperset,
        SetOp::kProperSubset, SetOp::kProperSuperset, SetOp::kWeakMatch,
        SetOp::kLessEqual,    SetOp::kGreater,
    };
    for (SetOp op : kOps) {
      if (rest == query::SetOpToString(op)) {
        w.pred.atoms[w.current_atom].op = op;
        w.focus = WorksheetState::Focus::kRhs;
        Say("operator " + rest + "; proceed to the right hand side");
        screen_valid_ = false;
        return Status::OK();
      }
    }
    return Fail(Status::InvalidArgument("unknown operator '" + rest + "'"));
  }
  screen_valid_ = false;
  return Status::OK();
}

// --- Commands. ---

Status SessionController::HandleCommand(const std::string& command) {
  screen_valid_ = false;
  if (command == "stop") {
    state_.stopped = true;
    Say("session stopped");
    return Status::OK();
  }
  if (command == "view associations") return CmdViewAssociations();
  if (command == "view contents") return CmdViewContents();
  if (command == "view forest") return CmdViewForest();
  if (command == "pop") return CmdPop();
  if (command == "follow") return CmdFollow();
  if (command == "create baseclass") {
    if (state_.level != Level::kInheritanceForest) {
      return Fail(Status::InvalidArgument(
          "create baseclass is a forest-view command"));
    }
    state_.prompt = Prompt::kBaseclassName;
    Say("type the name of the new baseclass");
    return Status::OK();
  }
  if (command == "create subclass") return CmdCreateSubclass();
  if (command == "create attribute") return CmdCreateAttribute();
  if (command == "create grouping") return CmdCreateGrouping();
  if (command == "(re)define membership") return CmdDefineMembership();
  if (command == "(re)define derivation") return CmdDefineDerivation();
  if (command == "add parent") {
    if (!ws_->db().schema().options().allow_multiple_parents) {
      return Fail(Status::Unimplemented(
          "multiple-parent inheritance is disabled for this database"));
    }
    if (state_.selection.kind != SchemaSelection::Kind::kClass) {
      return Fail(Status::InvalidArgument("select the subclass first"));
    }
    state_.pick_mode = PickMode::kAddParent;
    Say("pick the additional parent class for '" +
        SelectionName(*ws_, state_.selection) + "'");
    return Status::OK();
  }
  if (command == "define constraint") return CmdDefineConstraint();
  if (command == "check constraints") return CmdCheckConstraints();
  if (command == "drop constraint") {
    state_.prompt = Prompt::kDropConstraint;
    Say("type the name of the constraint to drop");
    return Status::OK();
  }
  if (command == "display predicate") return CmdDisplayPredicate();
  if (command == "(re)name") return CmdRename();
  if (command == "(re)specify value class") {
    if (state_.selection.kind != SchemaSelection::Kind::kAttribute) {
      return Fail(Status::InvalidArgument("select an attribute first"));
    }
    state_.pick_mode = PickMode::kValueClass;
    Say("pick the value class");
    return Status::OK();
  }
  if (command == "delete") return CmdDelete();
  if (command == "(re)assign att. value") return CmdAssignAttrValue();
  if (command == "make subclass") return CmdMakeSubclass();
  if (command == "create entity") return CmdCreateEntity();
  if (command == "delete entity") return CmdDeleteEntity();
  if (command == "select/reject") {
    Say("pick members to select or reject them");
    return Status::OK();
  }
  if (command == "accept constant") return CmdAcceptConstant();
  if (command == "create constant") {
    state_.prompt = Prompt::kConstantText;
    Say("type the constant value");
    return Status::OK();
  }
  if (command == "statistics") {
    sdm::DatabaseStats stats = sdm::ComputeStats(ws_->db());
    std::vector<std::string> advisories =
        sdm::DesignAdvisories(ws_->db(), stats);
    std::string line = std::to_string(stats.classes) + " class(es), " +
                       std::to_string(stats.attributes) + " attribute(s), " +
                       std::to_string(stats.groupings) + " grouping(s), " +
                       std::to_string(stats.entities) + " entit(ies)";
    if (advisories.empty()) {
      line += "; no design advisories";
    } else {
      line += "; " + std::to_string(advisories.size()) + " advisories: ";
      for (size_t i = 0; i < advisories.size() && i < 2; ++i) {
        if (i > 0) line += " | ";
        line += advisories[i];
      }
      if (advisories.size() > 2) line += " | ...";
    }
    Say(line);
    return Status::OK();
  }
  if (command == "show history") {
    if (journal_.empty()) {
      Say("no design actions recorded yet");
      return Status::OK();
    }
    std::string line = "history (last of " +
                       std::to_string(journal_.size()) + "): ";
    const auto& entries = journal_.entries();
    size_t first = entries.size() > 3 ? entries.size() - 3 : 0;
    for (size_t i = first; i < entries.size(); ++i) {
      if (i > first) line += " | ";
      line += "#" + std::to_string(entries[i].seq) + " " +
              entries[i].action +
              (entries[i].detail.empty() ? "" : " " + entries[i].detail);
    }
    Say(line);
    return Status::OK();
  }
  if (command == "undo") return CmdUndo();
  if (command == "redo") return CmdRedo();
  if (command == "save") return CmdSave();
  if (command == "load") {
    state_.prompt = Prompt::kLoadName;
    Say("type the name of the database to load");
    return Status::OK();
  }
  if (command == "pan left") return CmdPan(-8, 0);
  if (command == "pan right") return CmdPan(8, 0);
  if (command == "pan up") return CmdPan(0, -4);
  if (command == "pan down") return CmdPan(0, 4);
  if (command == "members up") return CmdMembersPan(-10);
  if (command == "members down") return CmdMembersPan(10);
  if (command == "edit" || command == "lhs" || command == "negate" ||
      command == "switch and/or" || command == "clear atom" ||
      command == "hand" || StartsWith(command, "rhs ") ||
      StartsWith(command, "place ")) {
    return CmdWorksheet(command);
  }
  if (command == "commit") return CmdCommit();
  if (command == "abort") return CmdAbort();
  return Fail(Status::NotFound("unknown command '" + command + "'"));
}

Status SessionController::CmdViewAssociations() {
  if (state_.level != Level::kInheritanceForest) {
    return Fail(Status::InvalidArgument(
        "view associations is a forest-view command"));
  }
  if (state_.selection.kind == SchemaSelection::Kind::kAttribute) {
    state_.selection = SchemaSelection::Class(state_.selection.cls);
  }
  if (state_.selection.kind != SchemaSelection::Kind::kClass) {
    return Fail(Status::InvalidArgument("select a class first"));
  }
  state_.level = Level::kSemanticNetwork;
  Say("semantic network of '" + SelectionName(*ws_, state_.selection) + "'");
  return Status::OK();
}

void SessionController::EnterDataLevel(const SchemaSelection& node) {
  DataPage page;
  if (node.kind == SchemaSelection::Kind::kGrouping) {
    page.is_grouping = true;
    page.grouping = node.grouping;
  } else {
    page.cls = node.cls;
  }
  state_.pages = {page};
  state_.level = Level::kDataLevel;
}

Status SessionController::CmdViewContents() {
  if (state_.level != Level::kInheritanceForest &&
      state_.level != Level::kSemanticNetwork) {
    return Fail(Status::InvalidArgument("view contents needs a schema view"));
  }
  if (state_.selection.kind != SchemaSelection::Kind::kClass &&
      state_.selection.kind != SchemaSelection::Kind::kGrouping) {
    return Fail(Status::InvalidArgument("select a class or grouping first"));
  }
  EnterDataLevel(state_.selection);
  Say("data level: contents of '" + SelectionName(*ws_, state_.selection) +
      "'");
  return Status::OK();
}

Status SessionController::CmdViewForest() {
  if (state_.temp_visit == TempVisit::kConstantSelection) {
    return Fail(Status::InvalidArgument(
        "finish the constant selection first (accept constant / abort)"));
  }
  state_.level = Level::kInheritanceForest;
  Say("inheritance forest");
  return Status::OK();
}

Status SessionController::CmdPop() {
  if (state_.level == Level::kSemanticNetwork) {
    state_.level = Level::kInheritanceForest;
    Say("back to the inheritance forest");
    return Status::OK();
  }
  if (state_.level == Level::kDataLevel) {
    if (state_.pages.size() > 1) {
      state_.pages.pop_back();
      state_.top_page()->followed = AttributeId();
      Say("popped back one page");
    } else {
      state_.level = Level::kInheritanceForest;
      state_.pages.clear();
      Say("back to the inheritance forest");
    }
    return Status::OK();
  }
  return Fail(Status::InvalidArgument("nothing to pop"));
}

Status SessionController::CmdFollow() {
  if (state_.level != Level::kDataLevel || state_.pages.empty()) {
    return Fail(Status::InvalidArgument("follow is a data-level command"));
  }
  DataPage* top = state_.top_page();
  if (top->is_grouping) {
    // "When follow is applied to a grouping ... we merely follow the
    // selected set(s) into the parent class and highlight the members."
    const GroupingDef& def =
        ws_->db().schema().GetGrouping(top->grouping);
    EntitySet members;
    for (EntityId index : top->selected) {
      EntitySet block = ws_->db().GetGroupingBlock(top->grouping, index);
      members.insert(block.begin(), block.end());
    }
    DataPage next;
    next.cls = def.parent;
    next.selected = members;
    state_.pages.push_back(next);
    Say("followed the selected set(s) into '" +
        ws_->db().schema().GetClass(def.parent).name + "'");
    return Status::OK();
  }
  state_.pick_mode = PickMode::kFollowAttribute;
  Say("choose an attribute to follow");
  return Status::OK();
}

Status SessionController::CmdCreateSubclass() {
  if (state_.level != Level::kInheritanceForest ||
      state_.selection.kind != SchemaSelection::Kind::kClass) {
    return Fail(Status::InvalidArgument(
        "select a parent class in the forest first"));
  }
  state_.prompt = Prompt::kSubclassName;
  Say("type the name of the new subclass of '" +
      SelectionName(*ws_, state_.selection) + "'");
  return Status::OK();
}

Status SessionController::CmdCreateAttribute() {
  if (state_.level != Level::kInheritanceForest ||
      state_.selection.kind != SchemaSelection::Kind::kClass) {
    return Fail(Status::InvalidArgument("select a class first"));
  }
  state_.prompt = Prompt::kAttributeName;
  Say("type the name of the new attribute of '" +
      SelectionName(*ws_, state_.selection) + "'");
  return Status::OK();
}

Status SessionController::CmdCreateGrouping() {
  if (state_.selection.kind != SchemaSelection::Kind::kAttribute) {
    return Fail(Status::InvalidArgument("select an attribute first"));
  }
  state_.prompt = Prompt::kGroupingName;
  Say("type the name of the grouping on '" +
      SelectionName(*ws_, state_.selection) + "'");
  return Status::OK();
}

Status SessionController::CmdDefineMembership() {
  if (state_.selection.kind != SchemaSelection::Kind::kClass) {
    return Fail(Status::InvalidArgument("select a subclass first"));
  }
  const ClassDef& def = ws_->db().schema().GetClass(state_.selection.cls);
  if (def.is_base()) {
    return Fail(Status::InvalidArgument(
        "a baseclass owns its entities; no membership predicate"));
  }
  WorksheetState& w = state_.worksheet;
  w = WorksheetState{};
  w.target = WorksheetState::Target::kMembership;
  w.target_class = state_.selection.cls;
  // Resume editing an existing predicate if one is stored.
  if (const Predicate* stored = ws_->SubclassPredicate(state_.selection.cls)) {
    w.pred = *stored;
  }
  w.pred.form = w.pred.clauses.empty() ? NormalForm::kDisjunctive
                                       : w.pred.form;
  state_.level = Level::kPredicateWorksheet;
  Say("predicate worksheet: membership of '" + def.name + "'");
  return Status::OK();
}

Status SessionController::CmdDefineDerivation() {
  if (state_.selection.kind != SchemaSelection::Kind::kAttribute) {
    return Fail(Status::InvalidArgument("select an attribute first"));
  }
  const AttributeDef& def =
      ws_->db().schema().GetAttribute(state_.selection.attribute);
  if (!def.multivalued) {
    return Fail(Status::TypeError(
        "derived attributes denote sets; make the attribute multivalued"));
  }
  WorksheetState& w = state_.worksheet;
  w = WorksheetState{};
  w.target = WorksheetState::Target::kDerivation;
  w.target_attr = state_.selection.attribute;
  if (const AttributeDerivation* d =
          ws_->GetAttributeDerivation(state_.selection.attribute)) {
    if (d->kind == AttributeDerivation::Kind::kAssignment) {
      w.use_hand = true;
      w.hand_term = d->assignment;
    } else {
      w.pred = d->predicate;
    }
  }
  state_.level = Level::kPredicateWorksheet;
  Say("predicate worksheet: derivation of '" + def.name + "'");
  return Status::OK();
}

Status SessionController::CmdDefineConstraint() {
  if (state_.selection.kind != SchemaSelection::Kind::kClass) {
    return Fail(Status::InvalidArgument(
        "select the class the constraint ranges over first"));
  }
  state_.prompt = Prompt::kConstraintName;
  Say("type the name of the integrity constraint on '" +
      SelectionName(*ws_, state_.selection) + "'");
  return Status::OK();
}

Status SessionController::CmdCheckConstraints() {
  std::vector<query::ConstraintViolation> violations =
      ws_->CheckConstraints();
  if (ws_->constraints().size() == 0) {
    Say("no integrity constraints are defined");
    return Status::OK();
  }
  if (violations.empty()) {
    Say("all " + std::to_string(ws_->constraints().size()) +
        " constraint(s) hold");
    return Status::OK();
  }
  std::string msg = std::to_string(violations.size()) + " violated:";
  for (const query::ConstraintViolation& v : violations) {
    msg += " " + v.constraint + " (";
    bool first = true;
    size_t shown = 0;
    for (EntityId e : v.violators) {
      if (!first) msg += ", ";
      first = false;
      msg += ws_->db().NameOf(e);
      if (++shown == 3 && v.violators.size() > 3) {
        msg += ", ...";
        break;
      }
    }
    msg += ")";
  }
  Say(msg);
  return Status::OK();
}

Status SessionController::CmdDisplayPredicate() {
  const Schema& schema = ws_->db().schema();
  switch (state_.selection.kind) {
    case SchemaSelection::Kind::kGrouping: {
      const GroupingDef& def = schema.GetGrouping(state_.selection.grouping);
      Say("'" + def.name + "' contains sets of '" +
          schema.GetClass(def.parent).name +
          "' grouped by common value of attribute '" +
          schema.GetAttribute(def.on_attribute).name + "'");
      return Status::OK();
    }
    case SchemaSelection::Kind::kClass: {
      const ClassDef& def = schema.GetClass(state_.selection.cls);
      if (const Predicate* p = ws_->SubclassPredicate(state_.selection.cls)) {
        Say("'" + def.name + "' = { e in " +
            schema.GetClass(def.parent()).name + " | " +
            PredicateToString(ws_->db(), *p) + " }");
      } else if (def.membership == Membership::kEnumerated) {
        Say("'" + def.name + "' is user-defined (hand-picked members)");
      } else {
        Say("'" + def.name + "' is a baseclass");
      }
      return Status::OK();
    }
    case SchemaSelection::Kind::kAttribute: {
      const AttributeDef& def =
          schema.GetAttribute(state_.selection.attribute);
      if (const AttributeDerivation* d =
              ws_->GetAttributeDerivation(state_.selection.attribute)) {
        if (d->kind == AttributeDerivation::Kind::kAssignment) {
          Say("'" + def.name +
              "'(x) := " + TermToString(ws_->db(), d->assignment));
        } else {
          Say("'" + def.name + "'(x) = { e | " +
              PredicateToString(ws_->db(), d->predicate) + " }");
        }
      } else {
        Say("'" + def.name + "' is a stored attribute");
      }
      return Status::OK();
    }
    case SchemaSelection::Kind::kNone:
      break;
  }
  return Fail(Status::InvalidArgument("nothing selected"));
}

Status SessionController::CmdDelete() {
  const Schema& schema = ws_->db().schema();
  PushUndoSnapshot();
  Status st;
  std::string what;
  switch (state_.selection.kind) {
    case SchemaSelection::Kind::kClass:
      what = "class '" + schema.GetClass(state_.selection.cls).name + "'";
      st = ws_->DeleteClass(state_.selection.cls);
      break;
    case SchemaSelection::Kind::kAttribute:
      what = "attribute '" +
             schema.GetAttribute(state_.selection.attribute).name + "'";
      st = ws_->DeleteAttribute(state_.selection.attribute);
      break;
    case SchemaSelection::Kind::kGrouping:
      what = "grouping '" +
             schema.GetGrouping(state_.selection.grouping).name + "'";
      st = ws_->db().DeleteGrouping(state_.selection.grouping);
      break;
    case SchemaSelection::Kind::kNone:
      st = Status::InvalidArgument("nothing selected");
      break;
  }
  if (!st.ok()) {
    undo_.pop_back();  // nothing changed
    return Fail(st);
  }
  state_.selection = SchemaSelection::None();
  Journal("delete", what);
  Say("deleted " + what);
  return Status::OK();
}

Status SessionController::CmdRename() {
  if (state_.selection.kind == SchemaSelection::Kind::kNone) {
    return Fail(Status::InvalidArgument("nothing selected"));
  }
  state_.prompt = Prompt::kRename;
  Say("type the new name for '" + SelectionName(*ws_, state_.selection) +
      "'");
  return Status::OK();
}

Status SessionController::CmdAssignAttrValue() {
  // The followed attribute of the page *below* the top gets, for each of
  // that page's selected entities, the top page's selection as its value
  // ("he then uses (re)assign att. value to update the family attribute for
  // both flute and oboe simultaneously").
  if (state_.level != Level::kDataLevel || state_.pages.size() < 2) {
    return Fail(Status::InvalidArgument(
        "(re)assign needs a followed attribute: follow one first"));
  }
  DataPage& source = state_.pages[state_.pages.size() - 2];
  DataPage& value_page = state_.pages.back();
  if (source.is_grouping || !source.followed.valid()) {
    return Fail(Status::InvalidArgument("the previous page followed no "
                                        "attribute"));
  }
  const AttributeDef& def = ws_->db().schema().GetAttribute(source.followed);
  Status current = CheckSelectionCurrent(source.selected, def.owner);
  if (!current.ok()) return Fail(current);
  PushUndoSnapshot();
  Status st;
  if (!def.multivalued) {
    if (value_page.selected.size() != 1) {
      undo_.pop_back();
      return Fail(Status::InvalidArgument(
          "select exactly one value for a singlevalued attribute"));
    }
    EntityId v = *value_page.selected.begin();
    for (EntityId target : source.selected) {
      st = ws_->db().SetSingle(target, source.followed, v);
      if (!st.ok()) break;
    }
  } else {
    for (EntityId target : source.selected) {
      st = ws_->db().SetMulti(target, source.followed, value_page.selected);
      if (!st.ok()) break;
    }
  }
  if (!st.ok()) return Fail(st);
  Journal("(re)assign att. value",
          def.name + " for " + std::to_string(source.selected.size()) +
              " entit(ies)");
  Say("assigned '" + def.name + "' for " +
      std::to_string(source.selected.size()) + " entit(ies)");
  return Status::OK();
}

Status SessionController::CmdMakeSubclass() {
  if (state_.level != Level::kDataLevel || state_.pages.empty() ||
      state_.top_page()->is_grouping) {
    return Fail(Status::InvalidArgument(
        "make subclass works on a class page at the data level"));
  }
  BeginTempVisit(TempVisit::kSubclassPlacement, Level::kInheritanceForest);
  state_.prompt = Prompt::kSubclassName;
  Say("type the name for the new user-defined subclass");
  return Status::OK();
}

Status SessionController::CmdCreateEntity() {
  if (state_.level != Level::kDataLevel || state_.pages.empty()) {
    return Fail(Status::InvalidArgument("create entity is a data-level "
                                        "command"));
  }
  state_.prompt = Prompt::kEntityName;
  Say("type the name of the new entity");
  return Status::OK();
}

Status SessionController::CmdDeleteEntity() {
  if (state_.level != Level::kDataLevel || state_.pages.empty()) {
    return Fail(Status::InvalidArgument("delete entity is a data-level "
                                        "command"));
  }
  DataPage* top = state_.top_page();
  if (top->is_grouping || top->selected.empty()) {
    return Fail(Status::InvalidArgument(
        "select the entities to delete on a class page"));
  }
  Status current = CheckSelectionCurrent(top->selected, top->cls);
  if (!current.ok()) return Fail(current);
  PushUndoSnapshot();
  EntitySet doomed = top->selected;
  for (EntityId e : doomed) {
    Status st = ws_->DeleteEntity(e);
    if (!st.ok()) return Fail(st);
  }
  for (DataPage& page : state_.pages) {
    for (EntityId e : doomed) page.selected.erase(e);
  }
  Journal("delete entity", std::to_string(doomed.size()) + " entit(ies)");
  Say("deleted " + std::to_string(doomed.size()) + " entit(ies)");
  return Status::OK();
}

Status SessionController::CheckSelectionCurrent(const EntitySet& selected,
                                                ClassId cls) const {
  const sdm::Database& db = ws_->db();
  if (!db.schema().HasClass(cls)) {
    return Status::NotFound("class does not exist");
  }
  for (EntityId e : selected) {
    if (e == sdm::kNullEntity || !db.HasEntity(e)) {
      return Status::NotFound("entity does not exist");
    }
    if (!db.IsMember(e, cls)) {
      return Status::NotFound("entity '" + db.NameOf(e) +
                              "' is no longer a member of '" +
                              db.schema().GetClass(cls).name + "'");
    }
  }
  return Status::OK();
}

// --- Worksheet commands. ---

query::Term* SessionController::FocusedTerm() {
  WorksheetState& w = state_.worksheet;
  if (w.use_hand) return &w.hand_term;
  if (w.current_atom < 0 ||
      static_cast<size_t>(w.current_atom) >= w.pred.atoms.size()) {
    return nullptr;
  }
  Atom& atom = w.pred.atoms[w.current_atom];
  return w.focus == WorksheetState::Focus::kLhs ? &atom.lhs : &atom.rhs;
}

ClassId SessionController::CandidateClass() const {
  const Schema& schema = ws_->db().schema();
  const WorksheetState& w = state_.worksheet;
  if (w.target == WorksheetState::Target::kMembership &&
      schema.HasClass(w.target_class)) {
    return schema.GetClass(w.target_class).parent();
  }
  if (w.target == WorksheetState::Target::kDerivation &&
      schema.HasAttribute(w.target_attr)) {
    return schema.GetAttribute(w.target_attr).value_class;
  }
  if (w.target == WorksheetState::Target::kConstraint &&
      schema.HasClass(w.target_class)) {
    // Constraint candidates are the constrained class's own members.
    return w.target_class;
  }
  return ClassId();
}

ClassId SessionController::SelfClass() const {
  const Schema& schema = ws_->db().schema();
  const WorksheetState& w = state_.worksheet;
  if (w.target == WorksheetState::Target::kDerivation &&
      schema.HasAttribute(w.target_attr)) {
    return schema.GetAttribute(w.target_attr).owner;
  }
  return ClassId();
}

Status SessionController::CmdWorksheet(const std::string& command) {
  if (state_.level != Level::kPredicateWorksheet) {
    return Fail(Status::InvalidArgument("not on the predicate worksheet"));
  }
  WorksheetState& w = state_.worksheet;
  if (command == "edit") {
    if (w.current_atom < 0) {
      return Fail(Status::InvalidArgument("pick an atom slot first"));
    }
    w.focus = WorksheetState::Focus::kLhs;
    Say("editing atom " +
        std::string(1, static_cast<char>('A' + w.current_atom)) +
        "; pick attributes to build the left hand side map");
    return Status::OK();
  }
  if (StartsWith(command, "place ")) {
    return PickWorksheetTarget("clause", command.substr(6));
  }
  if (command == "lhs") {
    w.focus = WorksheetState::Focus::kLhs;
    Say("building the left hand side");
    return Status::OK();
  }
  if (command == "negate") {
    if (w.current_atom < 0) {
      return Fail(Status::InvalidArgument("no atom selected"));
    }
    w.pred.atoms[w.current_atom].negated =
        !w.pred.atoms[w.current_atom].negated;
    Say(w.pred.atoms[w.current_atom].negated ? "operator negated"
                                             : "negation removed");
    return Status::OK();
  }
  if (command == "switch and/or") {
    w.pred.form = w.pred.form == NormalForm::kConjunctive
                      ? NormalForm::kDisjunctive
                      : NormalForm::kConjunctive;
    Say(w.pred.form == NormalForm::kConjunctive
            ? "conjunctive normal form (AND of clauses)"
            : "disjunctive normal form (OR of clauses)");
    return Status::OK();
  }
  if (command == "clear atom") {
    if (w.current_atom < 0) {
      return Fail(Status::InvalidArgument("no atom selected"));
    }
    Atom blank;
    blank.lhs = Term::Candidate();
    blank.rhs = Term::Candidate();
    w.pred.atoms[w.current_atom] = blank;
    w.focus = WorksheetState::Focus::kLhs;
    Say("atom cleared");
    return Status::OK();
  }
  if (command == "hand") {
    if (w.target != WorksheetState::Target::kDerivation) {
      return Fail(Status::InvalidArgument(
          "the hand (assignment) operator applies to attribute derivations"));
    }
    w.use_hand = true;
    w.hand_term = Term::Self();
    Say("hand: the derivation is a map from the owner entity x; pick "
        "attributes");
    return Status::OK();
  }
  // Right hand side options.
  Term* rhs_slot = nullptr;
  if (w.current_atom >= 0 &&
      static_cast<size_t>(w.current_atom) < w.pred.atoms.size()) {
    rhs_slot = &w.pred.atoms[w.current_atom].rhs;
  }
  if (command == "rhs map") {
    if (rhs_slot == nullptr) {
      return Fail(Status::InvalidArgument("no atom selected"));
    }
    *rhs_slot = Term::Candidate();
    w.focus = WorksheetState::Focus::kRhs;
    Say("right hand side: map from the entity");
    return Status::OK();
  }
  if (command == "rhs map from owner") {
    if (rhs_slot == nullptr || w.target != WorksheetState::Target::kDerivation) {
      return Fail(Status::InvalidArgument(
          "maps from x are only legal in attribute derivations"));
    }
    *rhs_slot = Term::Self();
    w.focus = WorksheetState::Focus::kRhs;
    Say("right hand side: map from the owner entity x");
    return Status::OK();
  }
  if (command == "rhs map starting at class") {
    if (rhs_slot == nullptr) {
      return Fail(Status::InvalidArgument("no atom selected"));
    }
    w.focus = WorksheetState::Focus::kRhs;
    w.rhs_pending = WorksheetState::RhsPending::kMapClass;
    Say("pick the start class from the class list");
    return Status::OK();
  }
  if (command == "rhs constant") {
    if (rhs_slot == nullptr) {
      return Fail(Status::InvalidArgument("no atom selected"));
    }
    // "the user is taken temporarily into the data level with the class at
    // which the left hand side mapping terminates showing".
    query::Evaluator eval(ws_->db());
    query::PredicateContext pctx;
    pctx.candidate_class = CandidateClass();
    if (SelfClass().valid()) pctx.self_class = SelfClass();
    Result<ClassId> terminal =
        eval.TermTerminalClass(w.pred.atoms[w.current_atom].lhs, pctx);
    if (!terminal.ok()) return Fail(terminal.status());
    w.focus = WorksheetState::Focus::kRhs;
    BeginTempVisit(TempVisit::kConstantSelection, Level::kDataLevel);
    DataPage page;
    page.cls = *terminal;
    state_.pages = {page};
    Say("select or create the constant(s) in '" +
        ws_->db().schema().GetClass(*terminal).name +
        "', then 'accept constant'");
    return Status::OK();
  }
  if (command == "rhs constant starting at class") {
    if (rhs_slot == nullptr) {
      return Fail(Status::InvalidArgument("no atom selected"));
    }
    w.focus = WorksheetState::Focus::kRhs;
    w.rhs_pending = WorksheetState::RhsPending::kConstantClass;
    Say("pick the class to search for the constant");
    return Status::OK();
  }
  return Fail(Status::NotFound("unknown worksheet command '" + command +
                               "'"));
}

Status SessionController::CmdAcceptConstant() {
  if (state_.temp_visit != TempVisit::kConstantSelection ||
      state_.pages.empty()) {
    return Fail(Status::InvalidArgument("no constant selection in progress"));
  }
  EntitySet constants = state_.top_page()->selected;
  EndTempVisit();
  Term* rhs = FocusedTerm();
  if (rhs == nullptr) {
    return Fail(Status::Internal("constant selection lost its atom"));
  }
  *rhs = Term::Constant(constants);
  Say("constant " + TermToString(ws_->db(), *rhs) + " accepted");
  return Status::OK();
}

Status SessionController::CmdCommit() {
  if (state_.level != Level::kPredicateWorksheet) {
    return Fail(Status::InvalidArgument("nothing to commit"));
  }
  WorksheetState& w = state_.worksheet;
  PushUndoSnapshot();
  Status st;
  std::string done;
  if (w.target == WorksheetState::Target::kMembership) {
    st = ws_->DefineSubclassMembership(w.target_class, w.pred);
    if (st.ok()) {
      done = "membership of '" +
             ws_->db().schema().GetClass(w.target_class).name +
             "' evaluated: " +
             std::to_string(ws_->db().Members(w.target_class).size()) +
             " member(s)";
    }
  } else if (w.target == WorksheetState::Target::kDerivation) {
    AttributeDerivation d = w.use_hand
                                ? AttributeDerivation::Assign(w.hand_term)
                                : AttributeDerivation::FromPredicate(w.pred);
    st = ws_->DefineAttributeDerivation(w.target_attr, std::move(d));
    if (st.ok()) {
      done = "derivation of '" +
             ws_->db().schema().GetAttribute(w.target_attr).name +
             "' evaluated";
    }
  } else if (w.target == WorksheetState::Target::kConstraint) {
    // Redefinition replaces the stored predicate, all or nothing: a commit
    // that fails answers an error, is never logged, and so must leave the
    // catalog as it found it.
    st = ws_->DefineConstraint(w.constraint_name, w.target_class, w.pred,
                               /*replace=*/true);
    if (st.ok()) {
      Result<query::ConstraintViolation> check =
          ws_->constraints().Check(ws_->db(), w.constraint_name);
      done = "constraint '" + w.constraint_name + "' defined; " +
             (check.ok() && check->violators.empty()
                  ? "it currently holds"
                  : "currently violated by " +
                        std::to_string(check.ok() ? check->violators.size()
                                                  : 0) +
                        " entit(ies)");
    }
  } else {
    st = Status::InvalidArgument("the worksheet has no target");
  }
  if (!st.ok()) {
    undo_.pop_back();
    return Fail(st);
  }
  state_.level = Level::kInheritanceForest;
  state_.worksheet = WorksheetState{};
  Journal("commit", done);
  Say(done);
  return Status::OK();
}

Status SessionController::CmdAbort() {
  if (state_.temp_visit != TempVisit::kNone) {
    EndTempVisit();
    state_.prompt = Prompt::kNone;
    Say("temporary visit aborted");
    return Status::OK();
  }
  if (state_.level == Level::kPredicateWorksheet) {
    state_.level = Level::kInheritanceForest;
    state_.worksheet = WorksheetState{};
    Say("worksheet abandoned");
    return Status::OK();
  }
  state_.prompt = Prompt::kNone;
  state_.pick_mode = PickMode::kNormal;
  Say("aborted");
  return Status::OK();
}

// --- Undo / redo / save. ---

void SessionController::PushUndoSnapshot() {
  if (shared_mode_) {
    // Serializing the shared workspace per mutation would be paid by every
    // session; undo is disabled instead. A single placeholder keeps the
    // handlers' "undo_.pop_back() when nothing changed" pattern safe.
    undo_.assign(1, std::string());
    redo_.clear();
    return;
  }
  undo_.push_back(store::Save(*ws_));
  redo_.clear();
}

Status SessionController::CmdUndo() {
  if (shared_mode_) {
    return Fail(Status::Unimplemented("undo is disabled in shared sessions"));
  }
  if (undo_.empty()) return Fail(Status::InvalidArgument("nothing to undo"));
  Result<std::unique_ptr<query::Workspace>> restored =
      store::Load(undo_.back());
  if (!restored.ok()) return Fail(restored.status());
  redo_.push_back(store::Save(*ws_));
  undo_.pop_back();
  ReplaceWorkspace(std::move(restored).ValueOrDie());
  // Selections and pages may refer to objects that no longer exist.
  const Schema& schema = ws_->db().schema();
  if ((state_.selection.kind == SchemaSelection::Kind::kClass &&
       !schema.HasClass(state_.selection.cls)) ||
      (state_.selection.kind == SchemaSelection::Kind::kAttribute &&
       !schema.HasAttribute(state_.selection.attribute)) ||
      (state_.selection.kind == SchemaSelection::Kind::kGrouping &&
       !schema.HasGrouping(state_.selection.grouping))) {
    state_.selection = SchemaSelection::None();
  }
  std::vector<DataPage> kept;
  for (DataPage& page : state_.pages) {
    bool live = page.is_grouping ? schema.HasGrouping(page.grouping)
                                 : schema.HasClass(page.cls);
    if (!live) break;
    EntitySet pruned;
    for (EntityId e : page.selected) {
      if (ws_->db().HasEntity(e)) pruned.insert(e);
    }
    page.selected = std::move(pruned);
    kept.push_back(page);
  }
  state_.pages = std::move(kept);
  if (state_.level == Level::kDataLevel && state_.pages.empty()) {
    state_.level = Level::kInheritanceForest;
  }
  Journal("undo", "");
  Say("undone");
  return Status::OK();
}

Status SessionController::CmdRedo() {
  if (shared_mode_) {
    return Fail(Status::Unimplemented("redo is disabled in shared sessions"));
  }
  if (redo_.empty()) return Fail(Status::InvalidArgument("nothing to redo"));
  Result<std::unique_ptr<query::Workspace>> restored =
      store::Load(redo_.back());
  if (!restored.ok()) return Fail(restored.status());
  undo_.push_back(store::Save(*ws_));
  redo_.pop_back();
  ReplaceWorkspace(std::move(restored).ValueOrDie());
  Journal("redo", "");
  Say("redone");
  return Status::OK();
}

Status SessionController::CmdSave() {
  if (shared_mode_) {
    // The server owns persistence (its WAL and checkpoint); a client must
    // not rename the shared workspace or write a file it names.
    return Fail(Status::Unimplemented("save is disabled in shared sessions"));
  }
  state_.prompt = Prompt::kSaveName;
  Say("type the name to save the database as");
  return Status::OK();
}

Status SessionController::CmdPan(int dx, int dy) {
  state_.pan_x += dx;
  state_.pan_y += dy;
  Say("panned");
  return Status::OK();
}

Status SessionController::CmdMembersPan(int delta) {
  DataPage* top = state_.top_page();
  if (state_.level != Level::kDataLevel || top == nullptr) {
    return Fail(Status::InvalidArgument("no member list to pan"));
  }
  top->member_pan = std::max(0, top->member_pan + delta);
  Say("member list panned");
  return Status::OK();
}

// --- Text input. ---

Status SessionController::HandleText(const std::string& text) {
  screen_valid_ = false;
  Prompt prompt = state_.prompt;
  state_.prompt = Prompt::kNone;
  const Schema& schema = ws_->db().schema();
  switch (prompt) {
    case Prompt::kNone:
      return Fail(Status::InvalidArgument("no prompt is awaiting input"));
    case Prompt::kBaseclassName: {
      if (!IsValidName(text)) {
        return Fail(Status::InvalidArgument("invalid class name"));
      }
      state_.pending_text = text;
      state_.prompt = Prompt::kNamingAttrName;
      Say("type the name of '" + text +
          "'s naming attribute (e.g. name, stage_name)");
      return Status::OK();
    }
    case Prompt::kNamingAttrName: {
      PushUndoSnapshot();
      Result<ClassId> cls =
          ws_->db().CreateBaseclass(state_.pending_text, text);
      if (!cls.ok()) {
        undo_.pop_back();
        state_.pending_text.clear();
        return Fail(cls.status());
      }
      state_.selection = SchemaSelection::Class(*cls);
      Journal("create baseclass",
              state_.pending_text + " (naming: " + text + ")");
      Say("baseclass '" + state_.pending_text +
          "' created with naming attribute '" + text + "'");
      state_.pending_text.clear();
      return Status::OK();
    }
    case Prompt::kSubclassName: {
      PushUndoSnapshot();
      if (state_.temp_visit == TempVisit::kSubclassPlacement) {
        // `make subclass`: the class on the data page becomes the parent and
        // the selected entities its members.
        DataPage source = state_.saved_pages.empty()
                              ? DataPage{}
                              : state_.saved_pages.back();
        Status current = CheckSelectionCurrent(source.selected, source.cls);
        if (!current.ok()) {
          undo_.pop_back();
          EndTempVisit();
          return Fail(current);
        }
        Result<ClassId> cls = ws_->db().CreateSubclass(
            text, source.cls, Membership::kEnumerated);
        if (!cls.ok()) {
          undo_.pop_back();
          EndTempVisit();
          return Fail(cls.status());
        }
        for (EntityId e : source.selected) {
          Status st = ws_->db().AddToClass(e, *cls);
          if (!st.ok()) {
            EndTempVisit();
            return Fail(st);
          }
        }
        EndTempVisit();
        // "Returning ... correctly sets the hand icon pointing at the new
        // schema selection."
        state_.selection = SchemaSelection::Class(*cls);
        Journal("make subclass",
                text + " (" + std::to_string(source.selected.size()) +
                    " member(s))");
        Say("user-defined subclass '" + text + "' created with " +
            std::to_string(source.selected.size()) + " member(s)");
        return Status::OK();
      }
      Result<ClassId> cls = ws_->db().CreateSubclass(
          text, state_.selection.cls, Membership::kEnumerated);
      if (!cls.ok()) {
        undo_.pop_back();
        return Fail(cls.status());
      }
      state_.selection = SchemaSelection::Class(*cls);
      Journal("create subclass", text);
      Say("subclass '" + text + "' created; use (re)define membership to "
          "give it a predicate");
      return Status::OK();
    }
    case Prompt::kAttributeName: {
      PushUndoSnapshot();
      // Created multivalued into STRING by default; (re)specify value class
      // adjusts it (the paper's flow for all_inst).
      Result<AttributeId> attr = ws_->db().CreateAttribute(
          state_.selection.cls, text, Schema::kStrings(),
          /*multivalued=*/true);
      if (!attr.ok()) {
        undo_.pop_back();
        return Fail(attr.status());
      }
      state_.selection =
          SchemaSelection::Attribute(state_.selection.cls, *attr);
      Journal("create attribute", text);
      Say("attribute '" + text +
          "' created (multivalued, STRING); use (re)specify value class");
      return Status::OK();
    }
    case Prompt::kGroupingName: {
      PushUndoSnapshot();
      const AttributeDef& def =
          schema.GetAttribute(state_.selection.attribute);
      Result<GroupingId> g =
          ws_->db().CreateGrouping(text, def.owner, def.id);
      if (!g.ok()) {
        undo_.pop_back();
        return Fail(g.status());
      }
      state_.selection = SchemaSelection::Grouping(*g);
      Journal("create grouping", text + " on " + def.name);
      Say("grouping '" + text + "' on '" + def.name + "' created");
      return Status::OK();
    }
    case Prompt::kEntityName: {
      DataPage* top = state_.top_page();
      if (top == nullptr || top->is_grouping) {
        return Fail(Status::InvalidArgument("no class page"));
      }
      // Checked before the entity exists: a failed command must leave the
      // database as it found it (it is not logged, so recovery would not
      // reproduce a half-done creation).
      if (schema.GetClass(top->cls).membership == Membership::kDerived) {
        return Fail(Status::Consistency(
            "membership of a derived class is determined by its predicate"));
      }
      PushUndoSnapshot();
      ClassId base = schema.RootOf(top->cls);
      Result<EntityId> e = ws_->db().CreateEntity(base, text);
      if (!e.ok()) {
        undo_.pop_back();
        return Fail(e.status());
      }
      Status st = ws_->db().AddToClass(*e, top->cls);
      if (!st.ok() && !schema.GetClass(top->cls).is_base()) return Fail(st);
      top->selected.insert(*e);
      Journal("create entity",
              text + " in " + schema.GetClass(top->cls).name);
      Say("entity '" + text + "' created in '" +
          schema.GetClass(top->cls).name + "'");
      return Status::OK();
    }
    case Prompt::kRename: {
      PushUndoSnapshot();
      Status st;
      switch (state_.selection.kind) {
        case SchemaSelection::Kind::kClass:
          st = ws_->db().RenameClass(state_.selection.cls, text);
          break;
        case SchemaSelection::Kind::kAttribute:
          st = ws_->db().RenameAttribute(state_.selection.attribute, text);
          break;
        case SchemaSelection::Kind::kGrouping:
          st = ws_->db().RenameGrouping(state_.selection.grouping, text);
          break;
        case SchemaSelection::Kind::kNone:
          st = Status::InvalidArgument("nothing selected");
          break;
      }
      if (!st.ok()) {
        undo_.pop_back();
        return Fail(st);
      }
      Journal("(re)name", text);
      Say("renamed to '" + text + "'");
      return Status::OK();
    }
    case Prompt::kSaveName: {
      const std::string prev_name = ws_->name();
      ws_->set_name(text);
      Status st = SaveAs(SavePathFor(text));
      if (!st.ok()) {
        // A failed save leaves no event in the WAL, so its replay must see
        // no effect at all — undo the rename. The journal still records
        // the attempt (failures are design history too).
        ws_->set_name(prev_name);
        Journal("save FAILED", text + ": " + st.ToString());
        WalAppendNote("save FAILED", text + ": " + st.ToString());
        return Fail(st);
      }
      Journal("save", text);
      Say("database saved as '" + text + "'");
      return Status::OK();
    }
    case Prompt::kLoadName: {
      if (shared_mode_) {
        return Fail(Status::Unimplemented(
            "load is disabled in shared sessions"));
      }
      Result<std::unique_ptr<query::Workspace>> loaded =
          store::LoadFromFile(SavePathFor(text));
      if (!loaded.ok()) {
        Journal("load FAILED", text + ": " + loaded.status().ToString());
        WalAppendNote("load FAILED", text + ": " + loaded.status().ToString());
        return Fail(loaded.status());
      }
      ReplaceWorkspace(std::move(loaded).ValueOrDie());
      // A fresh database: selections, pages and undo history reset; the
      // session journal keeps running (the load is itself design history).
      state_ = SessionState{};
      undo_.clear();
      redo_.clear();
      Journal("load", text);
      // The old edit log described the old workspace; start a fresh one.
      if (wal_ != nullptr && !wal_replaying_) RotateWalForLoad();
      Say("database '" + ws_->name() + "' loaded; pick an object to focus "
          "on");
      return Status::OK();
    }
    case Prompt::kConstraintName: {
      if (!IsValidName(text)) {
        return Fail(Status::InvalidArgument("invalid constraint name"));
      }
      WorksheetState& w = state_.worksheet;
      w = WorksheetState{};
      w.target = WorksheetState::Target::kConstraint;
      w.target_class = state_.selection.cls;
      w.constraint_name = text;
      if (const query::Constraint* existing =
              ws_->constraints().Find(text)) {
        w.pred = existing->predicate;
      }
      w.pred.form = w.pred.clauses.empty() ? NormalForm::kDisjunctive
                                           : w.pred.form;
      state_.level = Level::kPredicateWorksheet;
      Say("predicate worksheet: constraint '" + text +
          "' — members must satisfy the committed predicate");
      return Status::OK();
    }
    case Prompt::kDropConstraint: {
      PushUndoSnapshot();
      Status st = ws_->DropConstraint(text);
      if (!st.ok()) {
        undo_.pop_back();
        return Fail(st);
      }
      Journal("drop constraint", text);
      Say("constraint '" + text + "' dropped");
      return Status::OK();
    }
    case Prompt::kConstantText: {
      DataPage* top = state_.top_page();
      if (state_.temp_visit != TempVisit::kConstantSelection ||
          top == nullptr) {
        return Fail(Status::InvalidArgument("no constant selection"));
      }
      Result<EntityId> e = ws_->db().FindEntity(schema.RootOf(top->cls),
                                                text);
      if (!e.ok()) return Fail(e.status());
      if (!ws_->db().IsMember(*e, top->cls)) {
        return Fail(Status::Consistency("'" + text +
                                        "' is not a member of the shown "
                                        "class"));
      }
      top->selected.insert(*e);
      Say("constant '" + text + "' selected");
      return Status::OK();
    }
  }
  return Status::Internal("unhandled prompt");
}

// --- Temporary visits (Diagram 1 loop arrows). ---

void SessionController::BeginTempVisit(TempVisit kind, Level target_level) {
  state_.saved_level = state_.level;
  state_.saved_selection = state_.selection;
  state_.saved_pages = state_.pages;
  state_.temp_visit = kind;
  state_.level = target_level;
  if (target_level != Level::kDataLevel) state_.pages.clear();
}

void SessionController::EndTempVisit() {
  state_.level = state_.saved_level;
  state_.selection = state_.saved_selection;
  state_.pages = state_.saved_pages;
  state_.temp_visit = TempVisit::kNone;
  state_.saved_pages.clear();
}

}  // namespace isis::ui
