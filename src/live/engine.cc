#include "live/engine.h"

#include <optional>
#include <utility>

#include "query/eval.h"
#include "query/plan.h"

namespace isis::live {

using query::AttributeDerivation;
using query::Evaluator;
using query::PlannedPredicate;
using query::Predicate;
using sdm::AttributeDef;
using sdm::ClassDef;
using sdm::EntitySet;
using sdm::kNullEntity;

LiveViewEngine::LiveViewEngine(query::Workspace* ws, int max_rounds)
    : ws_(ws), db_(&ws->db()), max_rounds_(max_rounds) {
  RebuildIndex();
  db_->AddObserver(this);
}

LiveViewEngine::~LiveViewEngine() { db_->RemoveObserver(this); }

// --- Observer callbacks: record the delta, never mutate here. ---

void LiveViewEngine::OnMembership(EntityId e, ClassId cls, bool added) {
  ++stats_.deltas_seen;
  auto view = subclass_view_of_.find(cls.value());
  if (view != subclass_view_of_.end()) CountDerivedDelta(view->second, e);
  Delta d;
  d.kind = Delta::Kind::kMembership;
  d.e = e;
  d.cls = cls;
  d.added = added;
  queue_.push_back(std::move(d));
}

void LiveViewEngine::OnAttributeValue(EntityId e, AttributeId attr,
                                      const EntitySet& before,
                                      const EntitySet& after) {
  (void)before;
  (void)after;  // a retest recomputes from current state; sets not needed
  ++stats_.deltas_seen;
  auto view = attr_view_of_.find(attr.value());
  if (view != attr_view_of_.end()) CountDerivedDelta(view->second, e);
  Delta d;
  d.kind = Delta::Kind::kAttribute;
  d.e = e;
  d.attr = attr;
  queue_.push_back(std::move(d));
}

void LiveViewEngine::OnSchemaChange() {
  ++stats_.deltas_seen;
  Delta d;
  d.kind = Delta::Kind::kSchema;
  queue_.push_back(std::move(d));
}

void LiveViewEngine::OnMutationsSettled() {
  if (draining_) return;  // the running drain will consume what was queued
  if (queue_.empty() && ws_->catalog_version() == seen_catalog_version_) {
    return;
  }
  Drain();
}

// --- Introspection. ---

const ViewStats* LiveViewEngine::FindViewStats(const std::string& name) const {
  for (const View& v : views_) {
    if (v.stats.name == name) return &v.stats;
  }
  return nullptr;
}

std::vector<ViewStats> LiveViewEngine::AllViewStats() const {
  std::vector<ViewStats> out;
  out.reserve(views_.size());
  for (const View& v : views_) out.push_back(v.stats);
  return out;
}

Status LiveViewEngine::TakeError() {
  Status out = std::move(pending_error_);
  pending_error_ = Status::OK();
  return out;
}

// --- Maintenance. ---

void LiveViewEngine::Drain() {
  draining_ = true;
  ++stats_.drains;
  drain_counts_.clear();
  abort_drain_ = false;
  if (ws_->catalog_version() != seen_catalog_version_) {
    // Stored queries were added/dropped/edited since the index was built:
    // re-derive everything once, then let the queued deltas converge.
    Resync();
  }
  while (!queue_.empty() && !abort_drain_) {
    Delta d = queue_.front();
    queue_.pop_front();
    switch (d.kind) {
      case Delta::Kind::kSchema:
        // A schema edit invalidates fine-grained routing wholesale; the
        // resync supersedes every older queued delta.
        queue_.clear();
        Resync();
        break;
      case Delta::Kind::kMembership:
        ApplyMembershipDelta(d);
        break;
      case Delta::Kind::kAttribute:
        ApplyAttributeDelta(d);
        break;
    }
  }
  if (abort_drain_) {
    // The queued deltas are dropped, so no view can be trusted any more:
    // the next settle re-derives everything, and reports the cycle again
    // for as long as it lasts.
    queue_.clear();
    seen_catalog_version_ = -1;
  }
  drain_counts_.clear();
  draining_ = false;
}

void LiveViewEngine::Resync() {
  RebuildIndex();
  // Every view once, even past a cycle abort, so that one cyclic view
  // leaves no other view stale.
  for (View& v : views_) FullRecompute(&v);
}

void LiveViewEngine::ApplyMembershipDelta(const Delta& d) {
  auto route = [&](const RouteIndex& index, auto&& apply) {
    auto it = index.find(d.cls.value());
    if (it == index.end()) return;
    for (int vi : it->second) {
      if (abort_drain_) return;
      View& v = views_[vi];
      ++v.stats.deltas_applied;
      apply(&v);
    }
  };
  route(by_candidate_class_, [&](View* v) { RetestCandidate(v, d.e); });
  route(by_owner_class_, [&](View* v) {
    // An owner that left the class had its value row dropped by the
    // database already; only (re)compute for current members.
    if (d.added) RecomputeOwner(v, d.e);
  });
  route(by_coarse_class_, [&](View* v) { FullRecompute(v); });
}

void LiveViewEngine::ApplyAttributeDelta(const Delta& d) {
  auto route = [&](const RouteIndex& index, auto&& apply) {
    auto it = index.find(d.attr.value());
    if (it == index.end()) return;
    for (int vi : it->second) {
      if (abort_drain_) return;
      View& v = views_[vi];
      ++v.stats.deltas_applied;
      apply(&v);
    }
  };
  // The changed attribute sits at position 0 of a candidate/self path, so
  // the delta's owner is exactly the candidate/owner whose result may move.
  route(by_candidate_attr_, [&](View* v) { RetestCandidate(v, d.e); });
  route(by_self_attr_, [&](View* v) { RecomputeOwner(v, d.e); });
  route(by_coarse_attr_, [&](View* v) { FullRecompute(v); });
}

void LiveViewEngine::RetestCandidate(View* v, EntityId e) {
  switch (v->kind) {
    case View::Kind::kSubclass: {
      ++v->stats.entities_retested;
      if (!db_->schema().HasClass(v->cls)) return;
      const Predicate* pred = ws_->SubclassPredicate(v->cls);
      if (pred == nullptr) return;
      const ClassDef& def = db_->schema().GetClass(v->cls);
      bool candidate = e != kNullEntity && db_->HasEntity(e);
      for (ClassId p : def.parents) {
        if (!candidate) break;
        candidate = db_->IsMember(e, p);
      }
      bool should =
          candidate && PlannedPredicate(*db_, *pred, v->cls).Test(e);
      bool is = db_->IsMember(e, v->cls);
      if (should == is) return;
      Note(*v, should ? db_->AddToDerivedClass(e, v->cls)
                      : db_->RemoveFromClass(e, v->cls));
      return;
    }
    case View::Kind::kAttribute: {
      // e is a candidate *value*: re-test the pair (x, e) for every owner.
      const AttributeDerivation* der = ws_->GetAttributeDerivation(v->attr);
      if (der == nullptr ||
          der->kind != AttributeDerivation::Kind::kPredicate ||
          !db_->schema().HasAttribute(v->attr)) {
        return;
      }
      const AttributeDef& def = db_->schema().GetAttribute(v->attr);
      bool is_value = e != kNullEntity && db_->HasEntity(e) &&
                      db_->IsMember(e, def.value_class);
      // The loop below mutates v->attr per owner. A PlannedPredicate may
      // only be cached across those mutations when the predicate never
      // reads v->attr (the usual case — reading it would be a cycle);
      // otherwise fall back to the naive per-pair test.
      const bool plan_safe =
          !query::PredicateMentionsAttribute(der->predicate, v->attr);
      std::optional<PlannedPredicate> plan;
      if (plan_safe) plan.emplace(*db_, der->predicate, def.value_class);
      Evaluator eval(*db_);
      const EntitySet& owners = db_->Members(def.owner);
      std::vector<EntityId> owner_list(owners.begin(), owners.end());
      for (EntityId x : owner_list) {
        if (abort_drain_) return;
        ++v->stats.entities_retested;
        bool should =
            is_value && (plan_safe ? plan->Test(e, x)
                                   : eval.EvalPredicate(der->predicate, e, x));
        bool is = db_->GetMulti(x, v->attr).count(e) > 0;
        if (should && !is) {
          Note(*v, db_->AddToMulti(x, v->attr, e));
        } else if (!should && is) {
          Note(*v, db_->RemoveFromMulti(x, v->attr, e));
        }
      }
      return;
    }
  }
}

void LiveViewEngine::RecomputeOwner(View* v, EntityId x) {
  if (v->kind != View::Kind::kAttribute) return;
  ++v->stats.entities_retested;
  const AttributeDerivation* der = ws_->GetAttributeDerivation(v->attr);
  if (der == nullptr || !db_->schema().HasAttribute(v->attr)) return;
  const AttributeDef& def = db_->schema().GetAttribute(v->attr);
  if (x == kNullEntity || !db_->HasEntity(x) || !db_->IsMember(x, def.owner)) {
    return;
  }
  Note(*v,
       db_->SetMulti(x, v->attr, ws_->ComputeAttributeValue(*der, def, x)));
}

void LiveViewEngine::FullRecompute(View* v) {
  ++v->stats.full_recomputes;
  switch (v->kind) {
    case View::Kind::kSubclass: {
      Status st = ws_->ReevaluateSubclass(v->cls);
      if (!st.IsNotFound()) Note(*v, st);
      return;
    }
    case View::Kind::kAttribute: {
      Status st = ws_->ReevaluateAttribute(v->attr);
      if (!st.IsNotFound()) Note(*v, st);
      return;
    }
  }
}

void LiveViewEngine::RebuildIndex() {
  // Counters survive index rebuilds: key by object identity.
  std::map<std::pair<int, std::int64_t>, ViewStats> old_stats;
  for (View& v : views_) old_stats[ObjectOf(v)] = std::move(v.stats);
  views_.clear();
  by_candidate_class_.clear();
  by_owner_class_.clear();
  by_coarse_class_.clear();
  by_candidate_attr_.clear();
  by_self_attr_.clear();
  by_coarse_attr_.clear();
  subclass_view_of_.clear();
  attr_view_of_.clear();

  const sdm::Schema& schema = db_->schema();
  for (const auto& [cls_raw, pred] : ws_->subclass_predicates()) {
    ClassId cls(cls_raw);
    if (!schema.HasClass(cls)) continue;
    View v;
    v.kind = View::Kind::kSubclass;
    v.cls = cls;
    v.deps = AnalyzeSubclass(schema, cls, pred);
    auto it = old_stats.find({0, cls_raw});
    if (it != old_stats.end()) v.stats = std::move(it->second);
    v.stats.name = schema.GetClass(cls).name;
    subclass_view_of_[cls_raw] = static_cast<int>(views_.size());
    views_.push_back(std::move(v));
  }
  for (const auto& [attr_raw, der] : ws_->attribute_derivations()) {
    AttributeId attr(attr_raw);
    if (!schema.HasAttribute(attr)) continue;
    View v;
    v.kind = View::Kind::kAttribute;
    v.attr = attr;
    v.deps = AnalyzeAttribute(schema, schema.GetAttribute(attr), der);
    auto it = old_stats.find({1, attr_raw});
    if (it != old_stats.end()) v.stats = std::move(it->second);
    v.stats.name = schema.GetAttribute(attr).name;
    attr_view_of_[attr_raw] = static_cast<int>(views_.size());
    views_.push_back(std::move(v));
  }

  for (size_t i = 0; i < views_.size(); ++i) {
    int vi = static_cast<int>(i);
    const DepSet& deps = views_[i].deps;
    for (std::int64_t c : deps.candidate_classes) {
      by_candidate_class_[c].push_back(vi);
    }
    for (std::int64_t c : deps.owner_classes) by_owner_class_[c].push_back(vi);
    for (std::int64_t c : deps.coarse_classes) {
      by_coarse_class_[c].push_back(vi);
    }
    for (std::int64_t a : deps.candidate_attrs) {
      by_candidate_attr_[a].push_back(vi);
    }
    for (std::int64_t a : deps.self_attrs) by_self_attr_[a].push_back(vi);
    for (std::int64_t a : deps.coarse_attrs) by_coarse_attr_[a].push_back(vi);
  }

  seen_catalog_version_ = ws_->catalog_version();
  ++stats_.index_rebuilds;
}

void LiveViewEngine::Note(const View& v, const Status& st) {
  if (st.ok() || !pending_error_.ok()) return;
  pending_error_ =
      Status(st.code(), "maintaining " + Describe(v) + ": " + st.message());
}

void LiveViewEngine::CountDerivedDelta(int vi, EntityId e) {
  if (!draining_ || abort_drain_) return;
  const View& v = views_[vi];
  const auto [kind, object] = ObjectOf(v);
  int& n = drain_counts_[{kind, object, e.value()}];
  if (++n > max_rounds_) {
    abort_drain_ = true;
    if (pending_error_.ok()) {
      pending_error_ = Status::Consistency(
          "live maintenance of " + Describe(v) +
          " did not reach a fixpoint within " + std::to_string(max_rounds_) +
          " rounds (cyclic derivation?)");
    }
  }
}

std::string LiveViewEngine::Describe(const View& v) const {
  // The schema's current name: a rename does not rebuild the index, so
  // stats.name may be older.
  const sdm::Schema& schema = db_->schema();
  return v.kind == View::Kind::kSubclass
             ? "derived class '" + schema.GetClass(v.cls).name + "'"
             : "derived attribute '" + schema.GetAttribute(v.attr).name + "'";
}

std::pair<int, std::int64_t> LiveViewEngine::ObjectOf(const View& v) {
  return v.kind == View::Kind::kSubclass
             ? std::pair<int, std::int64_t>{0, v.cls.value()}
             : std::pair<int, std::int64_t>{1, v.attr.value()};
}

}  // namespace isis::live
