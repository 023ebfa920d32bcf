#include "sdm/stats.h"

#include <algorithm>
#include <cstdio>

namespace isis::sdm {

DatabaseStats ComputeStats(const Database& db) {
  const Schema& schema = db.schema();
  DatabaseStats out;

  for (ClassId c : schema.AllClasses()) {
    if (c.value() < 4) continue;  // predefined baseclasses
    const ClassDef& def = schema.GetClass(c);
    ++out.classes;
    ClassStats cs;
    cs.cls = c;
    cs.name = def.name;
    cs.members = db.Members(c).size();
    cs.is_base = def.is_base();
    cs.membership = def.membership;
    out.per_class.push_back(cs);
    if (def.is_base()) out.entities += cs.members;

    for (AttributeId a : def.own_attributes) {
      if (!schema.HasAttribute(a)) continue;
      const AttributeDef& attr = schema.GetAttribute(a);
      if (attr.naming) continue;
      ++out.attributes;
      AttributeStats as;
      as.attr = a;
      as.name = def.name + "." + attr.name;
      as.multivalued = attr.multivalued;
      as.owner_members = db.Members(c).size();
      EntitySet distinct;
      size_t total_set_size = 0;
      for (EntityId e : db.Members(c)) {
        EntitySet values = db.GetValueSet(e, a);
        if (values.empty()) continue;
        ++as.assigned;
        total_set_size += values.size();
        distinct.insert(values.begin(), values.end());
      }
      as.distinct_values = distinct.size();
      as.avg_set_size =
          as.assigned == 0
              ? 0.0
              : static_cast<double>(total_set_size) / as.assigned;
      out.per_attribute.push_back(as);
    }
  }

  for (GroupingId g : schema.AllGroupings()) {
    const GroupingDef& def = schema.GetGrouping(g);
    ++out.groupings;
    GroupingStats gs;
    gs.grouping = g;
    gs.name = def.name;
    EntitySet covered;
    for (const GroupingBlock& block : db.GroupingBlocks(g)) {
      ++gs.blocks;
      gs.largest_block = std::max(gs.largest_block, block.members.size());
      covered.insert(block.members.begin(), block.members.end());
    }
    gs.covered_members = covered.size();
    out.per_grouping.push_back(gs);
  }
  return out;
}

std::vector<std::string> DesignAdvisories(const Database& db,
                                          const DatabaseStats& stats) {
  std::vector<std::string> out;
  const Schema& schema = db.schema();

  for (const ClassStats& cs : stats.per_class) {
    if (cs.members == 0) {
      out.push_back("class '" + cs.name + "' has no members");
      continue;
    }
    if (!cs.is_base) {
      const ClassDef& def = schema.GetClass(cs.cls);
      for (ClassId p : def.parents) {
        if (db.Members(p).size() == cs.members && cs.members > 0) {
          out.push_back("subclass '" + cs.name +
                        "' currently equals its parent '" +
                        schema.GetClass(p).name +
                        "' (every parent member qualifies)");
        }
      }
    }
  }
  for (const AttributeStats& as : stats.per_attribute) {
    if (as.owner_members == 0) continue;
    if (as.assigned == 0) {
      out.push_back("attribute '" + as.name + "' is never assigned");
    } else if (as.distinct_values == 1 && as.owner_members > 1 &&
               as.fill_ratio() >= 1.0) {
      out.push_back("attribute '" + as.name +
                    "' has the same value for every member (consider "
                    "dropping it or moving it up the hierarchy)");
    }
  }
  for (const GroupingStats& gs : stats.per_grouping) {
    if (gs.blocks == 0) {
      out.push_back("grouping '" + gs.name + "' has no blocks");
    } else if (gs.blocks == 1) {
      out.push_back("grouping '" + gs.name +
                    "' has a single block (the attribute does not "
                    "discriminate)");
    }
  }
  return out;
}

std::string RenderStatsReport(const DatabaseStats& stats) {
  std::string out;
  out += "classes: " + std::to_string(stats.classes) +
         "  attributes: " + std::to_string(stats.attributes) +
         "  groupings: " + std::to_string(stats.groupings) +
         "  entities: " + std::to_string(stats.entities) + "\n";
  for (const ClassStats& cs : stats.per_class) {
    out += "  class " + cs.name + ": " + std::to_string(cs.members) +
           " member(s), " + MembershipToString(cs.membership) + "\n";
  }
  for (const AttributeStats& as : stats.per_attribute) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.0f%%", as.fill_ratio() * 100.0);
    out += "  attr " + as.name + ": " + std::to_string(as.assigned) + "/" +
           std::to_string(as.owner_members) + " assigned (" + buf + "), " +
           std::to_string(as.distinct_values) + " distinct value(s)\n";
  }
  for (const GroupingStats& gs : stats.per_grouping) {
    out += "  grouping " + gs.name + ": " + std::to_string(gs.blocks) +
           " block(s), largest " + std::to_string(gs.largest_block) + "\n";
  }
  return out;
}

}  // namespace isis::sdm
