#include "datasets/synthetic.h"

#include <cstdio>
#include <cstdlib>

#include "common/rng.h"

namespace isis::datasets {

using query::Workspace;
using sdm::Database;
using sdm::EntitySet;
using sdm::Membership;
using sdm::Schema;

namespace {

void Must(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "synthetic: %s: %s\n", what, st.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T MustGet(Result<T> r, const char* what) {
  Must(r.status(), what);
  return std::move(r).ValueOrDie();
}

std::string ClassName(int i) { return "B" + std::to_string(i); }
std::string SubName(int i, int d) {
  return "B" + std::to_string(i) + "_S" + std::to_string(d);
}
std::string AttrName(int i, int j) {
  return "a" + std::to_string(i) + "_" + std::to_string(j);
}
std::string GroupingName(int i, int j) {
  return "G" + std::to_string(i) + "_" + std::to_string(j);
}
std::string EntityName(int i, int k) {
  return "e" + std::to_string(i) + "_" + std::to_string(k);
}

}  // namespace

std::unique_ptr<Workspace> BuildSynthetic(const SyntheticParams& p) {
  auto ws = std::make_unique<Workspace>();
  ws->set_name("synthetic");
  Database& db = ws->db();
  Rng rng(p.seed);

  const int n = std::max(1, p.baseclasses);
  std::vector<ClassId> bases;
  for (int i = 0; i < n; ++i) {
    bases.push_back(
        MustGet(db.CreateBaseclass(ClassName(i), "name"), "baseclass"));
  }

  // Attributes: a<i>_0 singlevalued into the next tree, a<i>_1 multivalued
  // into the tree after that, the rest singlevalued INTEGERs with small
  // ranges (so groupings have low-cardinality indices).
  std::vector<std::vector<AttributeId>> attrs(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < std::max(2, p.attributes_per_class); ++j) {
      ClassId value_class;
      bool multivalued = false;
      if (j == 0) {
        value_class = bases[(i + 1) % n];
      } else if (j == 1) {
        value_class = bases[(i + 2) % n];
        multivalued = true;
      } else {
        value_class = Schema::kIntegers();
      }
      attrs[i].push_back(MustGet(
          db.CreateAttribute(bases[i], AttrName(i, j), value_class,
                             multivalued),
          "attribute"));
    }
  }

  // Subclass chains (enumerated).
  std::vector<std::vector<ClassId>> chains(n);
  for (int i = 0; i < n; ++i) {
    ClassId parent = bases[i];
    for (int d = 1; d <= p.subclass_depth; ++d) {
      parent = MustGet(
          db.CreateSubclass(SubName(i, d), parent, Membership::kEnumerated),
          "subclass");
      chains[i].push_back(parent);
    }
  }

  // Groupings over the first attributes.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < p.groupings && j < static_cast<int>(attrs[i].size());
         ++j) {
      Must(db.CreateGrouping(GroupingName(i, j), bases[i], attrs[i][j])
               .status(),
           "grouping");
    }
  }

  // Entities.
  std::vector<std::vector<EntityId>> entities(n);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < p.entities_per_class; ++k) {
      entities[i].push_back(
          MustGet(db.CreateEntity(bases[i], EntityName(i, k)), "entity"));
    }
  }

  // Values and subclass memberships.
  for (int i = 0; i < n; ++i) {
    const std::vector<EntityId>& next = entities[(i + 1) % n];
    const std::vector<EntityId>& next2 = entities[(i + 2) % n];
    for (int k = 0; k < p.entities_per_class; ++k) {
      EntityId e = entities[i][k];
      // a<i>_0: clustered values so grouping blocks are non-trivial.
      if (!next.empty()) {
        Must(db.SetSingle(e, attrs[i][0],
                          next[rng.Below(std::max<std::uint64_t>(
                              1, next.size() / 4 + 1))]),
             "single value");
      }
      if (!next2.empty()) {
        EntitySet set;
        for (int f = 0; f < p.multi_fanout; ++f) {
          set.insert(next2[rng.Below(next2.size())]);
        }
        Must(db.SetMulti(e, attrs[i][1], set), "multi value");
      }
      for (size_t j = 2; j < attrs[i].size(); ++j) {
        Must(db.SetSingle(e, attrs[i][j],
                          db.InternInteger(static_cast<std::int64_t>(
                              rng.Below(10)))),
             "int value");
      }
      // Every second entity descends one subclass level deeper.
      int depth = 0;
      int stride = 2;
      for (ClassId sub : chains[i]) {
        if (k % stride == 0) {
          Must(db.AddToClass(e, sub), "subclass member");
          stride *= 2;
          ++depth;
        } else {
          break;
        }
      }
      (void)depth;
    }
  }

  return ws;
}

SyntheticHandles ResolveSynthetic(const Workspace& ws,
                                  const SyntheticParams& p) {
  SyntheticHandles h;
  const Schema& schema = ws.db().schema();
  for (int i = 0; i < std::max(1, p.baseclasses); ++i) {
    ClassId cls = MustGet(schema.FindClass(ClassName(i)), "find baseclass");
    h.baseclasses.push_back(cls);
    h.single_attrs.push_back(
        MustGet(schema.FindAttribute(cls, AttrName(i, 0)), "find attribute"));
    h.multi_attrs.push_back(
        MustGet(schema.FindAttribute(cls, AttrName(i, 1)), "find attribute"));
    for (int j = 0; j < p.groupings; ++j) {
      Result<GroupingId> g = schema.FindGrouping(GroupingName(i, j));
      if (g.ok()) h.groupings.push_back(*g);
    }
  }
  return h;
}

}  // namespace isis::datasets
