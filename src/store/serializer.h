/// \file serializer.h
/// \brief Versioned text serialization of a Workspace (schema + data +
/// stored queries).
///
/// The paper's sample session ends with the user saving the modified
/// database under a new name ("he saves this new database as
/// entertainment"). This module implements that capability: a whole
/// Workspace round-trips through a line-oriented, escaped, versioned text
/// format. Loading re-validates the result with the full ConsistencyChecker
/// so a corrupted file can never produce an inconsistent database.
///
/// Format sketch (one record per line, fields separated by `|`, names
/// escaped):
///
///   ISIS|2
///   name|Instrumental_Music
///   options|1|allow_multiple_parents|live_views   (the first slot is
///                                        retired: written 1, read 0 or 1)
///   class|id|name|membership|base_kind|fill|parents|own_attrs
///   attr|id|name|owner|value_class|grouping|multi|naming|origin
///   grouping|id|name|parent|attr|fill
///   entity|id|base|kind|text          (kind 0 = named, else value kind)
///   members|class|e1,e2,...
///   single|attr|e|v
///   multi|attr|e|v1,v2,...
///   subpred|class|<predicate>
///   attrderiv|attr|assign|<term>   or   attrderiv|attr|pred|<predicate>
///   end|record_count|body_crc
///
/// Durability (format version 2): every line after the header carries a
/// trailing `|crc32hex` field over the rest of the line, and the file is
/// sealed by the `end|count|crc` trailer (count = number of record lines,
/// crc = CRC-32 chained over every record payload). A torn or bit-flipped
/// checkpoint is rejected at load with an error naming the offending line;
/// nothing may follow the trailer. Version 1 files (no checksums, bare
/// `end` marker) still load.
///
/// Ids are preserved exactly (deletion gaps become dead slots on load), so
/// stored predicates' constant sets and map paths stay valid.

#ifndef ISIS_STORE_SERIALIZER_H_
#define ISIS_STORE_SERIALIZER_H_

#include <memory>
#include <string>

#include "query/workspace.h"
#include "store/file.h"

namespace isis::store {

/// Current file format version (see the header comment; version 1 files
/// still load).
inline constexpr int kFormatVersion = 2;

/// Serializes the whole workspace to the checksummed text format.
std::string Save(const query::Workspace& ws);

/// Parses a serialized workspace. Fails with ParseError on malformed input
/// and with Consistency if the decoded database violates the §2 rules.
Result<std::unique_ptr<query::Workspace>> Load(const std::string& text);

/// Saves atomically: write to `path + ".tmp"`, fsync, rename. A crash or
/// full disk mid-save leaves the previous file intact. `env` routes the
/// I/O (fault injection); nullptr uses the real filesystem.
Status SaveToFile(const query::Workspace& ws, const std::string& path,
                  FileEnv* env = nullptr);
Result<std::unique_ptr<query::Workspace>> LoadFromFile(
    const std::string& path);

}  // namespace isis::store

#endif  // ISIS_STORE_SERIALIZER_H_
