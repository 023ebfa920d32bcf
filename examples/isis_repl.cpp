/// \file isis_repl.cpp
/// \brief An interactive ISIS terminal: the full interface, driven from
/// stdin one event per line.
///
/// This is the closest thing to sitting at the 1985 Apollo: the current
/// view renders after every event, picks hit-test against the screen, and
/// every session-script verb works (see `src/input/event.h`):
///
///   pick <target>      e.g. pick class:musicians, pick member:flute
///   pickat <x> <y>     raw coordinate pick
///   cmd <command>      e.g. cmd view contents, cmd follow, cmd commit
///   type <text>        answer the current prompt
///
/// plus REPL-only conveniences: `screen` (reprint), `hits` (list pickable
/// targets), `query <class> <predicate>` (ad-hoc textual query, e.g.
/// `query music_groups e.size = {4} and e.members.plays ]= {piano}`),
/// `explain <class> <predicate>` (print the query plan — which atoms probe
/// the value index vs scan, execution order, cardinalities — plus whether
/// the identical query would be answered from the result cache), `stats`
/// (result-cache counters), and `quit`.
///
/// Ad-hoc queries go through a query::ResultCache: repeating a query
/// answers from the cache (byte-identical results — entity ids are cached,
/// names rendered fresh) until a mutation touches a class or attribute the
/// query reads. Undo, redo and load start a fresh cache.
///
/// Run: ./isis_repl [--durable <dir>] [database.isis]
///   with no database argument the paper's Instrumental_Music database
///   loads; with one, the named store file. With `--durable <dir>` the
///   session writes a checksummed write-ahead edit log in <dir> and, after
///   a crash, restarting with the same flag replays it — the session
///   resumes exactly where it died, design journal included.
///
/// Try:  echo "pick class:soloists" | ./isis_repl

#include <cstdio>
#include <iostream>
#include <string>

#include "common/strings.h"
#include "datasets/instrumental_music.h"
#include "live/deps.h"
#include "query/cache.h"
#include "query/eval.h"
#include "query/parser.h"
#include "store/serializer.h"
#include "ui/controller.h"

using namespace isis;  // NOLINT — example brevity

namespace {

void PrintScreen(ui::SessionController* session) {
  const ui::Screen& screen = session->Render();
  std::fputs(screen.canvas.ToString().c_str(), stdout);
}

/// The REPL's ad-hoc result cache. Undo, redo and load replace the whole
/// workspace, so the cache is recreated whenever the controller's database
/// is a different *instance* (the id is globally unique, so a new database
/// at a reused address cannot be mistaken for the old one); within one
/// instance the entries' read-set stamps keep every hit current.
struct AdHocCache {
  std::unique_ptr<query::ResultCache> cache;
  std::uint64_t instance = 0;

  query::ResultCache* For(sdm::Database* db) {
    if (cache == nullptr || instance != db->instance_id()) {
      cache = std::make_unique<query::ResultCache>(db);
      instance = db->instance_id();
    }
    return cache.get();
  }
};

/// `query <class> <predicate>`: parse, evaluate (through the result
/// cache), print the answer.
/// `explain <class> <predicate>`: same parse, but print the query plan
/// (probe vs scan per atom, execution order, cardinalities) and whether
/// the identical query would hit the cache instead.
void RunAdHocQuery(ui::SessionController* session, AdHocCache* adhoc,
                   const std::string& args, bool explain) {
  size_t sp = args.find(' ');
  if (sp == std::string::npos) {
    std::printf("usage: %s <class> <predicate>\n",
                explain ? "explain" : "query");
    return;
  }
  sdm::Database& db = session->workspace().db();
  Result<ClassId> cls = db.schema().FindClass(args.substr(0, sp));
  if (!cls.ok()) {
    std::printf("%s\n", cls.status().ToString().c_str());
    return;
  }
  Result<query::Predicate> pred =
      query::ParsePredicate(db, *cls, args.substr(sp + 1));
  if (!pred.ok()) {
    std::printf("%s\n", pred.status().ToString().c_str());
    return;
  }
  query::ResultCache* rc = adhoc->For(&db);
  const std::string key = query::ResultCache::NormalizeKey(*pred, *cls);
  if (explain) {
    std::printf("%s", query::Evaluator(db).Explain(*pred, *cls).c_str());
    std::printf("cache: %s\n", rc->Peek(key) ? "hit" : "miss");
    return;
  }
  std::shared_ptr<const sdm::EntitySet> answer = rc->Lookup(key);
  if (answer == nullptr) {
    // Stamp before evaluating: parsing/evaluating may intern a new value
    // (bumping the version), and Insert refuses a stamp the database has
    // moved past -- the next run of the same query re-evaluates cleanly.
    const std::uint64_t v0 = db.version();
    auto eval = std::make_shared<const sdm::EntitySet>(
        query::Evaluator(db).EvaluateSubclass(*pred, *cls));
    rc->Insert(key,
               live::FlattenForCache(
                   live::AnalyzeAdHoc(db.schema(), *cls, *pred)),
               eval, v0);
    answer = std::move(eval);
  }
  std::printf("%s = {", PredicateToString(db, *pred).c_str());
  bool first = true;
  for (EntityId e : *answer) {
    std::printf("%s%s", first ? " " : ", ", db.NameOf(e).c_str());
    first = false;
  }
  std::printf(" }  (%zu member(s))\n", answer->size());
}

void PrintCacheStats(const AdHocCache& adhoc) {
  if (adhoc.cache == nullptr) {
    std::printf("result cache: empty (no ad-hoc queries yet)\n");
    return;
  }
  const query::ResultCache::Counters c = adhoc.cache->counters();
  std::printf(
      "result cache: %lld entr%s, %lld hit(s), %lld miss(es), "
      "%lld insertion(s), %lld eviction(s), %lld invalidation(s)\n",
      static_cast<long long>(adhoc.cache->size()),
      adhoc.cache->size() == 1 ? "y" : "ies", static_cast<long long>(c.hits),
      static_cast<long long>(c.misses), static_cast<long long>(c.insertions),
      static_cast<long long>(c.evictions),
      static_cast<long long>(c.invalidations));
}

void PrintHits(ui::SessionController* session) {
  const ui::Screen& screen = session->Render();
  std::printf("pickable targets (%zu):\n", screen.hits.size());
  std::string line;
  for (const ui::HitRegion& h : screen.hits) {
    if (line.size() + h.target.size() + 2 > 100) {
      std::printf("  %s\n", line.c_str());
      line.clear();
    }
    if (!line.empty()) line += "  ";
    line += h.target;
  }
  if (!line.empty()) std::printf("  %s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string durable_dir;
  std::string data_dir;
  std::string db_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--durable" || arg == "--data_dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: %s [--durable <dir>] [--data_dir <dir>] "
                     "[database.isis]\n",
                     argv[0]);
        return 1;
      }
      (arg == "--durable" ? durable_dir : data_dir) = argv[++i];
    } else {
      db_path = arg;
    }
  }

  std::unique_ptr<query::Workspace> ws;
  if (!db_path.empty()) {
    // Relative paths resolve against --data_dir / $ISIS_DATA_DIR, so the
    // binary works from any working directory.
    db_path = store::ResolveDataPath(db_path, data_dir);
    Result<std::unique_ptr<query::Workspace>> loaded =
        store::LoadFromFile(db_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load '%s': %s\n", db_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    ws = std::move(loaded).ValueOrDie();
  } else {
    ws = datasets::BuildInstrumentalMusic();
  }

  std::unique_ptr<ui::SessionController> owned;
  if (durable_dir.empty()) {
    owned = std::make_unique<ui::SessionController>(std::move(ws));
  } else {
    // Durable: leftover `<dir>/<name>.isis.wal` from a crashed session is
    // replayed; otherwise a fresh log starts at this workspace.
    Result<std::unique_ptr<ui::SessionController>> opened =
        ui::SessionController::OpenDurable(std::move(ws), {durable_dir});
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open durable session in '%s': %s\n",
                   durable_dir.c_str(), opened.status().ToString().c_str());
      return 1;
    }
    owned = std::move(opened).ValueOrDie();
    std::printf("durable session: edit log at %s\n",
                owned->wal_path().c_str());
  }
  ui::SessionController& session = *owned;
  AdHocCache adhoc;
  PrintScreen(&session);
  std::printf("> ");
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    std::string trimmed(Trim(line));
    if (trimmed == "quit" || trimmed == "exit") break;
    if (trimmed.empty() || trimmed[0] == '#') {
      std::printf("> ");
      std::fflush(stdout);
      continue;
    }
    if (trimmed == "screen") {
      PrintScreen(&session);
      std::printf("> ");
      std::fflush(stdout);
      continue;
    }
    if (trimmed == "hits") {
      PrintHits(&session);
      std::printf("> ");
      std::fflush(stdout);
      continue;
    }
    if (StartsWith(trimmed, "query ")) {
      RunAdHocQuery(&session, &adhoc, trimmed.substr(6), /*explain=*/false);
      std::printf("> ");
      std::fflush(stdout);
      continue;
    }
    if (StartsWith(trimmed, "explain ")) {
      RunAdHocQuery(&session, &adhoc, trimmed.substr(8), /*explain=*/true);
      std::printf("> ");
      std::fflush(stdout);
      continue;
    }
    if (trimmed == "stats") {
      PrintCacheStats(adhoc);
      std::printf("> ");
      std::fflush(stdout);
      continue;
    }
    Status st = session.RunScript(trimmed + "\n", /*stop_on_error=*/false);
    (void)st;  // errors already land in the status line
    PrintScreen(&session);
    if (session.stopped()) break;
    std::printf("> ");
    std::fflush(stdout);
  }
  std::printf("session ended. design history:\n%s\n",
              session.journal().Render(20).c_str());
  return 0;
}
