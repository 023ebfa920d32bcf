#include "store/serializer.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "sdm/consistency.h"
#include "store/crc32.h"

namespace isis::store {

using query::AttributeDerivation;
using query::Atom;
using query::NormalForm;
using query::Operand;
using query::Predicate;
using query::SetOp;
using query::Term;
using query::Workspace;
using sdm::AttributeDef;
using sdm::AttrOrigin;
using sdm::BaseKind;
using sdm::ClassDef;
using sdm::Database;
using sdm::Entity;
using sdm::EntitySet;
using sdm::GroupingDef;
using sdm::Membership;
using sdm::Schema;
using sdm::Value;

namespace {

// --- Encoding helpers. ---

std::string EncodeIdList(const std::vector<std::int64_t>& ids) {
  std::vector<std::string> parts;
  parts.reserve(ids.size());
  for (std::int64_t v : ids) parts.push_back(std::to_string(v));
  return Join(parts, ",");
}

template <typename IdT>
std::string EncodeIds(const std::vector<IdT>& ids) {
  std::vector<std::int64_t> raw;
  raw.reserve(ids.size());
  for (IdT id : ids) raw.push_back(id.value());
  return EncodeIdList(raw);
}

std::string EncodeEntitySet(const EntitySet& set) {
  std::vector<std::int64_t> raw;
  raw.reserve(set.size());
  for (EntityId e : set) raw.push_back(e.value());
  return EncodeIdList(raw);
}

Result<std::vector<std::int64_t>> DecodeIdList(const std::string& text) {
  std::vector<std::int64_t> out;
  if (text.empty()) return out;
  for (const std::string& part : Split(text, ',')) {
    char* end = nullptr;
    long long v = std::strtoll(part.c_str(), &end, 10);
    if (end == part.c_str() || *end != '\0') {
      return Status::ParseError("bad id list element: '" + part + "'");
    }
    out.push_back(v);
  }
  return out;
}

Result<std::int64_t> DecodeInt(const std::string& text) {
  char* end = nullptr;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return Status::ParseError("bad integer field: '" + text + "'");
  }
  return v;
}

// Terms are encoded `origin:c1,c2:extent:a1,a2` (ids only — no escaping
// needed).
std::string EncodeTerm(const Term& term) {
  std::string out = std::to_string(static_cast<int>(term.origin));
  out += ":";
  out += EncodeEntitySet(term.constants);
  out += ":";
  out += std::to_string(term.extent_class.value());
  out += ":";
  out += EncodeIds(term.path);
  return out;
}

Result<Term> DecodeTerm(const std::string& text) {
  std::vector<std::string> parts = Split(text, ':');
  if (parts.size() != 4) return Status::ParseError("bad term: '" + text + "'");
  ISIS_ASSIGN_OR_RETURN(std::int64_t origin, DecodeInt(parts[0]));
  if (origin < 0 || origin > 3) {
    return Status::ParseError("bad term origin");
  }
  Term term;
  term.origin = static_cast<Operand>(origin);
  ISIS_ASSIGN_OR_RETURN(std::vector<std::int64_t> constants,
                        DecodeIdList(parts[1]));
  for (std::int64_t c : constants) term.constants.insert(EntityId(c));
  ISIS_ASSIGN_OR_RETURN(std::int64_t extent, DecodeInt(parts[2]));
  term.extent_class = ClassId(extent);
  ISIS_ASSIGN_OR_RETURN(std::vector<std::int64_t> path,
                        DecodeIdList(parts[3]));
  for (std::int64_t a : path) term.path.push_back(AttributeId(a));
  return term;
}

// Predicates: `form;atom^atom^...;clause^clause^...` where an atom is
// `lhs energetic op neg rhs` joined with `;`... use `^` between atoms and
// `%` inside: atom = lhs%op%neg%rhs, clause = comma list.
std::string EncodePredicate(const Predicate& pred) {
  std::string out = std::to_string(static_cast<int>(pred.form));
  out += ";";
  {
    std::vector<std::string> atoms;
    for (const Atom& a : pred.atoms) {
      atoms.push_back(EncodeTerm(a.lhs) + "%" +
                      std::to_string(static_cast<int>(a.op)) + "%" +
                      (a.negated ? "1" : "0") + "%" + EncodeTerm(a.rhs));
    }
    out += Join(atoms, "^");
  }
  out += ";";
  {
    std::vector<std::string> clauses;
    for (const std::vector<int>& c : pred.clauses) {
      std::vector<std::int64_t> raw(c.begin(), c.end());
      clauses.push_back(EncodeIdList(raw));
    }
    out += Join(clauses, "^");
  }
  return out;
}

Result<Predicate> DecodePredicate(const std::string& text) {
  std::vector<std::string> parts = Split(text, ';');
  if (parts.size() != 3) {
    return Status::ParseError("bad predicate: '" + text + "'");
  }
  Predicate pred;
  ISIS_ASSIGN_OR_RETURN(std::int64_t form, DecodeInt(parts[0]));
  if (form < 0 || form > 1) return Status::ParseError("bad normal form");
  pred.form = static_cast<NormalForm>(form);
  if (!parts[1].empty()) {
    for (const std::string& atom_text : Split(parts[1], '^')) {
      std::vector<std::string> fields = Split(atom_text, '%');
      if (fields.size() != 4) return Status::ParseError("bad atom encoding");
      Atom atom;
      ISIS_ASSIGN_OR_RETURN(atom.lhs, DecodeTerm(fields[0]));
      ISIS_ASSIGN_OR_RETURN(std::int64_t op, DecodeInt(fields[1]));
      if (op < 0 || op > 7) return Status::ParseError("bad operator");
      atom.op = static_cast<SetOp>(op);
      atom.negated = fields[2] == "1";
      ISIS_ASSIGN_OR_RETURN(atom.rhs, DecodeTerm(fields[3]));
      pred.atoms.push_back(std::move(atom));
    }
  }
  if (!parts[2].empty()) {
    for (const std::string& clause_text : Split(parts[2], '^')) {
      ISIS_ASSIGN_OR_RETURN(std::vector<std::int64_t> raw,
                            DecodeIdList(clause_text));
      std::vector<int> clause;
      for (std::int64_t v : raw) clause.push_back(static_cast<int>(v));
      pred.clauses.push_back(std::move(clause));
    }
  }
  ISIS_RETURN_NOT_OK(pred.ValidateStructure());
  return pred;
}

}  // namespace

std::string Save(const Workspace& ws) {
  const Database& db = ws.db();
  const Schema& schema = db.schema();
  std::ostringstream out;
  out << "name|" << Escape(ws.name()) << "\n";
  // The first slot is retired; it stays, always 1, so files written
  // before and after its retirement share one format.
  out << "options|1|" << (schema.options().allow_multiple_parents ? 1 : 0)
      << "|" << (db.options().live_views ? 1 : 0) << "\n";

  for (ClassId c : schema.AllClasses()) {
    if (c.value() < 4) continue;  // predefined classes are deterministic
    const ClassDef& def = schema.GetClass(c);
    out << "class|" << def.id.value() << "|" << Escape(def.name) << "|"
        << static_cast<int>(def.membership) << "|"
        << static_cast<int>(def.base_kind) << "|" << def.fill_pattern << "|"
        << EncodeIds(def.parents) << "|" << EncodeIds(def.own_attributes)
        << "\n";
  }
  {
    // Attribute records must be emitted in id order (RestoreAttribute fills
    // slots monotonically), which differs from per-class grouping order.
    std::vector<AttributeId> all_attrs;
    for (ClassId c : schema.AllClasses()) {
      for (AttributeId a : schema.GetClass(c).own_attributes) {
        if (a.value() >= 4) all_attrs.push_back(a);
      }
    }
    std::sort(all_attrs.begin(), all_attrs.end());
    for (AttributeId a : all_attrs) {
      const AttributeDef& def = schema.GetAttribute(a);
      out << "attr|" << def.id.value() << "|" << Escape(def.name) << "|"
          << def.owner.value() << "|" << def.value_class.value() << "|"
          << def.value_grouping.value() << "|" << (def.multivalued ? 1 : 0)
          << "|" << (def.naming ? 1 : 0) << "|"
          << static_cast<int>(def.origin) << "\n";
    }
  }
  for (GroupingId g : schema.AllGroupings()) {
    const GroupingDef& def = schema.GetGrouping(g);
    out << "grouping|" << def.id.value() << "|" << Escape(def.name) << "|"
        << def.parent.value() << "|" << def.on_attribute.value() << "|"
        << def.fill_pattern << "\n";
  }

  for (EntityId e : db.AllEntities()) {
    const Entity& ent = db.GetEntity(e);
    int kind = ent.has_value ? static_cast<int>(ent.value.kind()) : 0;
    out << "entity|" << ent.id.value() << "|" << ent.baseclass.value() << "|"
        << kind << "|" << Escape(ent.name) << "\n";
  }

  for (ClassId c : schema.AllClasses()) {
    const ClassDef& def = schema.GetClass(c);
    if (def.is_base()) continue;  // implied by entity records
    const EntitySet& members = db.Members(c);
    if (!members.empty()) {
      out << "members|" << c.value() << "|" << EncodeEntitySet(members)
          << "\n";
    }
  }

  for (ClassId c : schema.AllClasses()) {
    const ClassDef& cls = schema.GetClass(c);
    for (AttributeId a : cls.own_attributes) {
      const AttributeDef& def = schema.GetAttribute(a);
      if (def.naming) continue;  // implied by entity names
      for (EntityId e : db.Members(c)) {
        if (!def.multivalued) {
          EntityId v = db.GetSingle(e, a);
          if (v != sdm::kNullEntity) {
            out << "single|" << a.value() << "|" << e.value() << "|"
                << v.value() << "\n";
          }
        } else {
          const EntitySet& vs = db.GetMulti(e, a);
          if (!vs.empty()) {
            out << "multi|" << a.value() << "|" << e.value() << "|"
                << EncodeEntitySet(vs) << "\n";
          }
        }
      }
    }
  }

  for (const auto& [cls, pred] : ws.subclass_predicates()) {
    out << "subpred|" << cls << "|" << EncodePredicate(pred) << "\n";
  }
  for (const auto& [attr, d] : ws.attribute_derivations()) {
    if (d.kind == AttributeDerivation::Kind::kAssignment) {
      out << "attrderiv|" << attr << "|assign|" << EncodeTerm(d.assignment)
          << "\n";
    } else {
      out << "attrderiv|" << attr << "|pred|" << EncodePredicate(d.predicate)
          << "\n";
    }
  }
  for (const query::Constraint* c : ws.constraints().All()) {
    out << "constraint|" << Escape(c->name) << "|" << c->cls.value() << "|"
        << EncodePredicate(c->predicate) << "\n";
  }

  // Seal (format v2): each record line gains a trailing CRC-32 field, and
  // the `end` trailer fixes the record count plus a CRC chained over every
  // record payload, so truncation, splicing and bit flips are all detected
  // at load with a record-level error.
  const std::string body = out.str();
  std::ostringstream sealed;
  sealed << "ISIS|" << kFormatVersion << "\n";
  std::uint32_t body_crc = 0;
  size_t count = 0;
  size_t start = 0;
  while (start < body.size()) {
    size_t nl = body.find('\n', start);
    std::string_view payload(body.data() + start, nl - start);
    sealed << payload << '|' << Crc32Hex(Crc32(payload)) << '\n';
    body_crc = Crc32("\n", Crc32(payload, body_crc));
    ++count;
    start = nl + 1;
  }
  std::string trailer =
      "end|" + std::to_string(count) + "|" + Crc32Hex(body_crc);
  sealed << trailer << '|' << Crc32Hex(Crc32(trailer)) << '\n';
  return sealed.str();
}

namespace {

Status LoadInto(const std::string& text, Workspace* ws_out,
                std::unique_ptr<Workspace>* result) {
  (void)ws_out;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) return Status::ParseError("empty input");
  std::int64_t version = 0;
  {
    std::vector<std::string> header = Split(line, '|');
    if (header.size() != 2 || header[0] != "ISIS") {
      return Status::ParseError("missing ISIS header");
    }
    ISIS_ASSIGN_OR_RETURN(version, DecodeInt(header[1]));
    if (version != 1 && version != kFormatVersion) {
      return Status::ParseError("unsupported format version " +
                                std::to_string(version));
    }
  }
  std::vector<std::string> raw;
  while (std::getline(in, line)) raw.push_back(line);

  // `lines` holds record payloads, `line_no` their 1-based file lines for
  // error messages. Version 2 strips and verifies the per-line CRC and the
  // sealed trailer here; version 1 records pass through bare.
  std::vector<std::string> lines;
  std::vector<size_t> line_no;
  bool saw_end = false;
  if (version == kFormatVersion) {
    std::uint32_t body_crc = 0;
    bool trailer_seen = false;
    for (size_t i = 0; i < raw.size(); ++i) {
      const size_t n = i + 2;
      auto bad = [&](const std::string& why) {
        return Status::ParseError("line " + std::to_string(n) + ": " + why);
      };
      if (trailer_seen) return bad("content after sealed trailer");
      size_t bar = raw[i].rfind('|');
      std::uint32_t crc = 0;
      if (bar == std::string::npos ||
          !ParseCrc32Hex(std::string_view(raw[i]).substr(bar + 1), &crc)) {
        return bad("missing record checksum (truncated line?)");
      }
      std::string payload = raw[i].substr(0, bar);
      if (Crc32(payload) != crc) {
        return bad("checksum mismatch (corrupted record)");
      }
      if (StartsWith(payload, "end|")) {
        std::vector<std::string> f = Split(payload, '|');
        if (f.size() != 3) return bad("malformed sealed trailer");
        ISIS_ASSIGN_OR_RETURN(std::int64_t count, DecodeInt(f[1]));
        if (count != static_cast<std::int64_t>(lines.size())) {
          return bad("record count mismatch (truncated or spliced file?)");
        }
        if (f[2] != Crc32Hex(body_crc)) {
          return bad("body checksum mismatch (reordered or spliced file?)");
        }
        trailer_seen = true;
        continue;
      }
      body_crc = Crc32("\n", Crc32(payload, body_crc));
      lines.push_back(std::move(payload));
      line_no.push_back(n);
    }
    if (!trailer_seen) {
      return Status::ParseError("missing sealed trailer (truncated file?)");
    }
    saw_end = true;  // The verified trailer is the v2 end marker.
  } else {
    for (size_t i = 0; i < raw.size(); ++i) {
      lines.push_back(raw[i]);
      line_no.push_back(i + 2);
    }
  }

  std::string name = "untitled";
  Database::Options options;
  // First pass over the record lines to find name/options before the
  // Workspace is constructed (options are constructor parameters).
  size_t body_start = 0;
  for (; body_start < lines.size(); ++body_start) {
    std::vector<std::string> f = Split(lines[body_start], '|');
    if (f[0] == "name" && f.size() == 2) {
      name = Unescape(f[1]);
    } else if (f[0] == "options" && (f.size() == 3 || f.size() == 4)) {
      // f[1] is the retired grouping-maintenance slot: 0 or 1, ignored.
      options.schema.allow_multiple_parents = f[2] == "1";
      // Field added later; files saved before it default to off.
      options.live_views = f.size() >= 4 && f[3] == "1";
    } else {
      break;
    }
  }

  auto ws = std::make_unique<Workspace>(options);
  ws->set_name(name);
  Database& db = ws->db();
  Schema& schema = db.mutable_schema();

  for (size_t li = body_start; li < lines.size(); ++li) {
    const std::string& record = lines[li];
    if (record.empty()) continue;
    std::vector<std::string> f = Split(record, '|');
    const std::string& tag = f[0];
    auto bad = [&](const std::string& why) {
      return Status::ParseError("line " + std::to_string(line_no[li]) + ": " +
                                why);
    };
    if (tag == "end") {
      saw_end = true;
      continue;
    }
    if (tag == "class") {
      if (f.size() != 8) return bad("class record needs 8 fields");
      ClassDef def;
      ISIS_ASSIGN_OR_RETURN(std::int64_t id, DecodeInt(f[1]));
      def.id = ClassId(id);
      def.name = Unescape(f[2]);
      ISIS_ASSIGN_OR_RETURN(std::int64_t membership, DecodeInt(f[3]));
      if (membership < 0 || membership > 2) return bad("bad membership");
      def.membership = static_cast<Membership>(membership);
      ISIS_ASSIGN_OR_RETURN(std::int64_t kind, DecodeInt(f[4]));
      if (kind < 0 || kind > 4) return bad("bad base kind");
      def.base_kind = static_cast<BaseKind>(kind);
      ISIS_ASSIGN_OR_RETURN(std::int64_t fill, DecodeInt(f[5]));
      def.fill_pattern = static_cast<int>(fill);
      ISIS_ASSIGN_OR_RETURN(std::vector<std::int64_t> parents,
                            DecodeIdList(f[6]));
      for (std::int64_t p : parents) def.parents.push_back(ClassId(p));
      ISIS_ASSIGN_OR_RETURN(std::vector<std::int64_t> attrs,
                            DecodeIdList(f[7]));
      for (std::int64_t a : attrs) def.own_attributes.push_back(AttributeId(a));
      ISIS_RETURN_NOT_OK(schema.RestoreClass(def));
    } else if (tag == "attr") {
      if (f.size() != 9) return bad("attr record needs 9 fields");
      AttributeDef def;
      ISIS_ASSIGN_OR_RETURN(std::int64_t id, DecodeInt(f[1]));
      def.id = AttributeId(id);
      def.name = Unescape(f[2]);
      ISIS_ASSIGN_OR_RETURN(std::int64_t owner, DecodeInt(f[3]));
      def.owner = ClassId(owner);
      ISIS_ASSIGN_OR_RETURN(std::int64_t vc, DecodeInt(f[4]));
      def.value_class = ClassId(vc);
      ISIS_ASSIGN_OR_RETURN(std::int64_t vg, DecodeInt(f[5]));
      def.value_grouping = GroupingId(vg);
      def.multivalued = f[6] == "1";
      def.naming = f[7] == "1";
      ISIS_ASSIGN_OR_RETURN(std::int64_t origin, DecodeInt(f[8]));
      if (origin < 0 || origin > 1) return bad("bad attr origin");
      def.origin = static_cast<AttrOrigin>(origin);
      ISIS_RETURN_NOT_OK(schema.RestoreAttribute(def));
    } else if (tag == "grouping") {
      if (f.size() != 6) return bad("grouping record needs 6 fields");
      GroupingDef def;
      ISIS_ASSIGN_OR_RETURN(std::int64_t id, DecodeInt(f[1]));
      def.id = GroupingId(id);
      def.name = Unescape(f[2]);
      ISIS_ASSIGN_OR_RETURN(std::int64_t parent, DecodeInt(f[3]));
      def.parent = ClassId(parent);
      ISIS_ASSIGN_OR_RETURN(std::int64_t attr, DecodeInt(f[4]));
      def.on_attribute = AttributeId(attr);
      ISIS_ASSIGN_OR_RETURN(std::int64_t fill, DecodeInt(f[5]));
      def.fill_pattern = static_cast<int>(fill);
      ISIS_RETURN_NOT_OK(schema.RestoreGrouping(def));
    } else if (tag == "entity") {
      if (f.size() != 5) return bad("entity record needs 5 fields");
      Entity ent;
      ISIS_ASSIGN_OR_RETURN(std::int64_t id, DecodeInt(f[1]));
      ent.id = EntityId(id);
      ISIS_ASSIGN_OR_RETURN(std::int64_t base, DecodeInt(f[2]));
      ent.baseclass = ClassId(base);
      ISIS_ASSIGN_OR_RETURN(std::int64_t kind, DecodeInt(f[3]));
      ent.name = Unescape(f[4]);
      if (kind != 0) {
        if (kind < 1 || kind > 4) return bad("bad entity value kind");
        ISIS_ASSIGN_OR_RETURN(
            ent.value, Value::Parse(static_cast<BaseKind>(kind), ent.name));
        ent.has_value = true;
        ent.name = ent.value.ToDisplayString();
      }
      ISIS_RETURN_NOT_OK(db.RestoreEntity(ent));
    } else if (tag == "members") {
      if (f.size() != 3) return bad("members record needs 3 fields");
      ISIS_ASSIGN_OR_RETURN(std::int64_t cls, DecodeInt(f[1]));
      ISIS_ASSIGN_OR_RETURN(std::vector<std::int64_t> raw, DecodeIdList(f[2]));
      EntitySet set;
      for (std::int64_t e : raw) set.insert(EntityId(e));
      ISIS_RETURN_NOT_OK(db.RestoreMembers(ClassId(cls), std::move(set)));
    } else if (tag == "single") {
      if (f.size() != 4) return bad("single record needs 4 fields");
      ISIS_ASSIGN_OR_RETURN(std::int64_t attr, DecodeInt(f[1]));
      ISIS_ASSIGN_OR_RETURN(std::int64_t e, DecodeInt(f[2]));
      ISIS_ASSIGN_OR_RETURN(std::int64_t v, DecodeInt(f[3]));
      ISIS_RETURN_NOT_OK(
          db.RestoreSingle(AttributeId(attr), EntityId(e), EntityId(v)));
    } else if (tag == "multi") {
      if (f.size() != 4) return bad("multi record needs 4 fields");
      ISIS_ASSIGN_OR_RETURN(std::int64_t attr, DecodeInt(f[1]));
      ISIS_ASSIGN_OR_RETURN(std::int64_t e, DecodeInt(f[2]));
      ISIS_ASSIGN_OR_RETURN(std::vector<std::int64_t> raw, DecodeIdList(f[3]));
      EntitySet set;
      for (std::int64_t v : raw) set.insert(EntityId(v));
      ISIS_RETURN_NOT_OK(
          db.RestoreMulti(AttributeId(attr), EntityId(e), std::move(set)));
    } else if (tag == "subpred") {
      if (f.size() != 3) return bad("subpred record needs 3 fields");
      ISIS_ASSIGN_OR_RETURN(std::int64_t cls, DecodeInt(f[1]));
      ISIS_ASSIGN_OR_RETURN(Predicate pred, DecodePredicate(f[2]));
      ws->RestoreSubclassPredicate(ClassId(cls), std::move(pred));
    } else if (tag == "attrderiv") {
      if (f.size() != 4) return bad("attrderiv record needs 4 fields");
      ISIS_ASSIGN_OR_RETURN(std::int64_t attr, DecodeInt(f[1]));
      AttributeDerivation d;
      if (f[2] == "assign") {
        d.kind = AttributeDerivation::Kind::kAssignment;
        ISIS_ASSIGN_OR_RETURN(d.assignment, DecodeTerm(f[3]));
      } else if (f[2] == "pred") {
        d.kind = AttributeDerivation::Kind::kPredicate;
        ISIS_ASSIGN_OR_RETURN(d.predicate, DecodePredicate(f[3]));
      } else {
        return bad("bad derivation kind '" + f[2] + "'");
      }
      ws->RestoreAttributeDerivation(AttributeId(attr), std::move(d));
    } else if (tag == "constraint") {
      if (f.size() != 4) return bad("constraint record needs 4 fields");
      query::Constraint c;
      c.name = Unescape(f[1]);
      ISIS_ASSIGN_OR_RETURN(std::int64_t cls, DecodeInt(f[2]));
      c.cls = ClassId(cls);
      ISIS_ASSIGN_OR_RETURN(c.predicate, DecodePredicate(f[3]));
      ws->RestoreConstraint(std::move(c));
    } else {
      return bad("unknown record tag '" + tag + "'");
    }
  }
  if (!saw_end) {
    return Status::ParseError("missing 'end' record (truncated file?)");
  }

  // A corrupted file must never yield an inconsistent database.
  ISIS_RETURN_NOT_OK(schema.Validate());
  ISIS_RETURN_NOT_OK(sdm::ConsistencyChecker(db).Check());
  *result = std::move(ws);
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Workspace>> Load(const std::string& text) {
  std::unique_ptr<Workspace> ws;
  ISIS_RETURN_NOT_OK(LoadInto(text, nullptr, &ws));
  return ws;
}

Status SaveToFile(const Workspace& ws, const std::string& path,
                  FileEnv* env) {
  // Atomic checkpoint: never truncate the only copy in place. A crash or
  // full disk mid-save leaves the previous file; the rename publishes the
  // new one only after its bytes are durable.
  return AtomicWriteFile(env != nullptr ? env : FileEnv::Default(), path,
                         Save(ws));
}

Result<std::unique_ptr<Workspace>> LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    // Without this check an I/O error mid-read would masquerade as a
    // short (or empty) file and surface as a confusing parse error.
    return Status::IOError("I/O error while reading '" + path + "'");
  }
  return Load(buf.str());
}

}  // namespace isis::store
