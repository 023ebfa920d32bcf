/// \file synthetic.h
/// \brief Deterministic synthetic SDM workloads for benchmarks and property
/// tests.
///
/// The paper evaluates on a hand-built example database; the quantitative
/// benches (predicate scaling, grouping maintenance, integrity cost,
/// navigation) need databases of controllable size with the same shape:
/// several baseclass trees, single/multivalued attributes wired across
/// trees, groupings on low-cardinality attributes, and subclass chains.

#ifndef ISIS_DATASETS_SYNTHETIC_H_
#define ISIS_DATASETS_SYNTHETIC_H_

#include <memory>

#include "query/workspace.h"

namespace isis::datasets {

/// Parameters of a synthetic workspace.
struct SyntheticParams {
  int baseclasses = 3;          ///< User baseclass trees.
  int subclass_depth = 2;       ///< Enumerated-subclass chain under each.
  int attributes_per_class = 3; ///< Own attributes per baseclass.
  int entities_per_class = 100; ///< Entities per baseclass.
  int multi_fanout = 3;         ///< Values per multivalued attribute slot.
  int groupings = 2;            ///< Groupings over singlevalued attributes.
  std::uint64_t seed = 42;
};

/// Builds a consistent synthetic workspace. Deterministic in `params`.
std::unique_ptr<query::Workspace> BuildSynthetic(const SyntheticParams& params);

/// Handles to interesting objects inside a synthetic workspace (resolved by
/// the fixed naming scheme: class `B<i>`, subclass `B<i>_S<d>`, attribute
/// `a<i>_<j>`, grouping `G<i>_<j>`, entity `e<i>_<k>`).
struct SyntheticHandles {
  std::vector<ClassId> baseclasses;
  std::vector<AttributeId> single_attrs;  ///< One per baseclass: a<i>_0.
  std::vector<AttributeId> multi_attrs;   ///< One per baseclass: a<i>_1.
  std::vector<GroupingId> groupings;
};

/// Resolves the handles of a workspace built by BuildSynthetic.
SyntheticHandles ResolveSynthetic(const query::Workspace& ws,
                                  const SyntheticParams& params);

}  // namespace isis::datasets

#endif  // ISIS_DATASETS_SYNTHETIC_H_
