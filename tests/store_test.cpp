/// \file store_test.cpp
/// \brief Tests for the versioned text serialization: round-trips, id-gap
/// preservation, and rejection of corrupted input.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/strings.h"
#include "datasets/instrumental_music.h"
#include "datasets/synthetic.h"
#include "query/eval.h"
#include "sdm/consistency.h"
#include "store/crc32.h"
#include "store/serializer.h"

namespace isis::store {
namespace {

using query::Workspace;
using sdm::Membership;
using sdm::Schema;

TEST(StoreTest, EmptyWorkspaceRoundTrips) {
  Workspace ws;
  ws.set_name("empty");
  std::string blob = Save(ws);
  auto loaded = Load(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), "empty");
  EXPECT_EQ(Save(**loaded), blob);
}

TEST(StoreTest, InstrumentalMusicRoundTripsExactly) {
  auto ws = datasets::BuildInstrumentalMusic();
  std::string blob = Save(*ws);
  auto loaded = Load(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Idempotence: saving the load reproduces the bytes.
  EXPECT_EQ(Save(**loaded), blob);
  // Stored queries survive and still evaluate identically.
  const Schema& s = (*loaded)->db().schema();
  ClassId play_strings = *s.FindClass("play_strings");
  EXPECT_EQ((*loaded)->db().Members(play_strings),
            ws->db().Members(play_strings));
  ASSERT_TRUE((*loaded)->ReevaluateAll().ok());
  EXPECT_EQ((*loaded)->db().Members(play_strings),
            ws->db().Members(play_strings));
}

TEST(StoreTest, SyntheticRoundTrips) {
  datasets::SyntheticParams params;
  params.entities_per_class = 25;
  auto ws = datasets::BuildSynthetic(params);
  std::string blob = Save(*ws);
  auto loaded = Load(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Save(**loaded), blob);
}

TEST(StoreTest, IdGapsSurviveRoundTrip) {
  auto ws = datasets::BuildInstrumentalMusic();
  // Delete things to punch id gaps, then round-trip: remaining ids (which
  // stored predicates reference) must be preserved exactly.
  sdm::Database& db = ws->db();
  ClassId instruments = *db.schema().FindClass("instruments");
  EntityId tuba = *db.FindEntity(instruments, "tuba");
  ASSERT_TRUE(ws->DeleteEntity(tuba).ok());
  ClassId soloists = *db.schema().FindClass("soloists");
  ASSERT_TRUE(ws->DeleteClass(soloists).ok());
  std::string blob = Save(*ws);
  auto loaded = Load(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE((*loaded)->db().schema().HasClass(soloists));
  EXPECT_FALSE((*loaded)->db().HasEntity(tuba));
  ClassId musicians = *db.schema().FindClass("musicians");
  EXPECT_EQ(*(*loaded)->db().FindEntity(musicians, "Edith"),
            *db.FindEntity(musicians, "Edith"));
  EXPECT_EQ(Save(**loaded), blob);
}

TEST(StoreTest, NamesNeedingEscapesRoundTrip) {
  Workspace ws;
  ws.set_name("data|base\\with\nweird name");
  ASSERT_TRUE(ws.db().CreateBaseclass("class with space", "name attr").ok());
  std::string blob = Save(ws);
  auto loaded = Load(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), "data|base\\with\nweird name");
  EXPECT_TRUE((*loaded)->db().schema().FindClass("class with space").ok());
}

TEST(StoreTest, OptionsRoundTrip) {
  sdm::Database::Options options;
  options.schema.allow_multiple_parents = true;
  options.live_views = true;
  Workspace ws(options);
  const std::string saved = Save(ws);
  auto loaded = Load(saved);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE((*loaded)->db().schema().options().allow_multiple_parents);
  EXPECT_TRUE((*loaded)->db().options().live_views);
  // The first options slot is retired: always written as 1, and a file
  // with 0 in it still loads.
  ASSERT_NE(saved.find("options|1|1|1"), std::string::npos) << saved;
  auto legacy = Load("ISIS|1\nname|" + ws.name() + "\noptions|0|1|1\nend\n");
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_TRUE((*legacy)->db().schema().options().allow_multiple_parents);
  EXPECT_EQ(Save(**legacy), Save(**loaded));
}

TEST(StoreTest, FileRoundTrip) {
  auto ws = datasets::BuildInstrumentalMusic();
  std::string path = ::testing::TempDir() + "/im_store_test.isis";
  ASSERT_TRUE(SaveToFile(*ws, path).ok());
  auto loaded = LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Save(**loaded), Save(*ws));
  EXPECT_TRUE(LoadFromFile("/nonexistent/x.isis").status().IsIOError());
}

/// Strips the v2 sealing: returns the bare record payloads (no header, no
/// per-line CRC suffixes, no trailer).
std::vector<std::string> PayloadLines(const std::string& blob) {
  std::vector<std::string> lines = Split(blob, '\n');
  // Split leaves one empty element after the final newline.
  EXPECT_EQ(lines.back(), "");
  lines.pop_back();
  std::vector<std::string> out;
  for (size_t i = 1; i + 1 < lines.size(); ++i) {
    out.push_back(lines[i].substr(0, lines[i].rfind('|')));
  }
  return out;
}

/// Re-seals edited payload lines into a checksum-valid v2 file, so tests can
/// prove the *semantic* validation fires even when every CRC is intact.
std::string SealV2(const std::vector<std::string>& payloads) {
  std::string out = "ISIS|2\n";
  std::uint32_t body_crc = 0;
  for (const std::string& p : payloads) {
    out += p + "|" + Crc32Hex(Crc32(p)) + "\n";
    body_crc = Crc32("\n", Crc32(p, body_crc));
  }
  std::string trailer =
      "end|" + std::to_string(payloads.size()) + "|" + Crc32Hex(body_crc);
  out += trailer + "|" + Crc32Hex(Crc32(trailer)) + "\n";
  return out;
}

class CorruptInputTest : public ::testing::Test {
 protected:
  void SetUp() override { blob_ = Save(*datasets::BuildInstrumentalMusic()); }
  std::string blob_;
};

TEST_F(CorruptInputTest, UnsealResealIsIdentity) {
  EXPECT_EQ(SealV2(PayloadLines(blob_)), blob_);
}

TEST_F(CorruptInputTest, EmptyAndHeaderless) {
  EXPECT_TRUE(Load("").status().IsParseError());
  EXPECT_TRUE(Load("BOGUS|1\nend\n").status().IsParseError());
  EXPECT_TRUE(Load("ISIS|999\nend\n").status().IsParseError());
}

TEST_F(CorruptInputTest, TruncationDetected) {
  // Cut the file in half at a line boundary: the sealed trailer is gone.
  std::string half = blob_.substr(0, blob_.size() / 2);
  half = half.substr(0, half.rfind('\n') + 1);
  Status st = Load(half).status();
  EXPECT_TRUE(st.IsParseError());
  EXPECT_NE(st.message().find("trailer"), std::string::npos) << st.ToString();
}

TEST_F(CorruptInputTest, HeaderCutMidLine) {
  // A crash while the very first bytes were written: the header line has
  // no newline yet.
  EXPECT_TRUE(Load("ISI").status().IsParseError());
  EXPECT_TRUE(Load("ISIS|2").status().IsParseError());
}

TEST_F(CorruptInputTest, RecordTruncatedMidLine) {
  // Cut inside a record line: its checksum suffix is incomplete or gone.
  size_t cut = blob_.find('\n', blob_.size() / 3);
  ASSERT_NE(cut, std::string::npos);
  Status st = Load(blob_.substr(0, cut - 3)).status();
  EXPECT_TRUE(st.IsParseError()) << st.ToString();
}

TEST_F(CorruptInputTest, TrailingGarbageRejected) {
  Status st = Load(blob_ + "junk|after|the|seal\n").status();
  EXPECT_TRUE(st.IsParseError());
  EXPECT_NE(st.message().find("after sealed trailer"), std::string::npos)
      << st.ToString();
}

TEST_F(CorruptInputTest, SingleBitFlipNamesTheLine) {
  std::string tampered = blob_;
  size_t pos = tampered.find("instruments");
  ASSERT_NE(pos, std::string::npos);
  tampered[pos] ^= 0x20;  // 'i' -> 'I'
  const auto line =
      1 + std::count(tampered.begin(),
                     tampered.begin() + static_cast<long>(pos), '\n');
  Status st = Load(tampered).status();
  ASSERT_TRUE(st.IsParseError());
  EXPECT_NE(st.message().find("line " + std::to_string(line)),
            std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("checksum mismatch"), std::string::npos)
      << st.ToString();
}

TEST_F(CorruptInputTest, RecordDeletionDetectedBySealedTrailer) {
  // Remove one whole record line, original trailer kept: every per-line
  // checksum is still valid, so only the trailer's record count and body
  // checksum can notice the splice.
  std::vector<std::string> lines = Split(blob_, '\n');
  ASSERT_GT(lines.size(), 8u);
  lines.erase(lines.begin() + 5);
  std::string tampered;
  for (size_t i = 0; i + 1 < lines.size(); ++i) tampered += lines[i] + "\n";
  Status st = Load(tampered).status();
  ASSERT_TRUE(st.IsParseError()) << st.ToString();
  EXPECT_NE(st.message().find("mismatch"), std::string::npos)
      << st.ToString();
}

TEST_F(CorruptInputTest, Version1WithoutChecksumsStillLoads) {
  // Files written before the sealing existed carry bare records and a bare
  // `end` marker; they must keep loading (and re-save as v2).
  std::string v1 = "ISIS|1\n";
  for (const std::string& p : PayloadLines(blob_)) v1 += p + "\n";
  v1 += "end\n";
  auto loaded = Load(v1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Save(**loaded), blob_);
}

TEST_F(CorruptInputTest, UnknownTagRejected) {
  // Seal the tampered record properly: the tag check itself must fire.
  std::vector<std::string> payloads = PayloadLines(blob_);
  payloads.push_back("mystery|1|2");
  EXPECT_TRUE(Load(SealV2(payloads)).status().IsParseError());
}

TEST_F(CorruptInputTest, InconsistentDataRejected) {
  // Splice a checksum-valid membership record that violates the
  // subclass-subset rule: entity 9999 does not exist.
  std::vector<std::string> payloads = PayloadLines(blob_);
  auto ws = datasets::BuildInstrumentalMusic();
  ClassId soloists = *ws->db().schema().FindClass("soloists");
  auto it = std::find_if(
      payloads.begin(), payloads.end(),
      [](const std::string& p) { return StartsWith(p, "subpred|"); });
  ASSERT_NE(it, payloads.end());
  payloads.insert(
      it, "members|" + std::to_string(soloists.value()) + "|9999");
  Status st = Load(SealV2(payloads)).status();
  EXPECT_FALSE(st.ok());
}

TEST_F(CorruptInputTest, BadFieldCountsRejected) {
  EXPECT_TRUE(
      Load("ISIS|1\nclass|1\nend\n").status().IsParseError());
  EXPECT_TRUE(
      Load("ISIS|1\nsingle|a|b|c\nend\n").status().IsParseError());
}

TEST(StoreTest, DerivedAttributeDerivationsRoundTrip) {
  auto ws = datasets::BuildInstrumentalMusic();
  sdm::Database& db = ws->db();
  ClassId music_groups = *db.schema().FindClass("music_groups");
  ClassId instruments = *db.schema().FindClass("instruments");
  AttributeId members = *db.schema().FindAttribute(music_groups, "members");
  AttributeId plays = *db.schema().FindAttribute(
      *db.schema().FindClass("musicians"), "plays");
  AttributeId all_inst =
      *db.CreateAttribute(music_groups, "all_inst", instruments, true);
  ASSERT_TRUE(ws->DefineAttributeDerivation(
                    all_inst, query::AttributeDerivation::Assign(
                                  query::Term::Self({members, plays})))
                  .ok());
  auto loaded = Load(Save(*ws));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const query::AttributeDerivation* d =
      (*loaded)->GetAttributeDerivation(all_inst);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, query::AttributeDerivation::Kind::kAssignment);
  EXPECT_EQ(d->assignment.path.size(), 2u);
  EXPECT_EQ(Save(**loaded), Save(*ws));
}

TEST(StoreTest, GroupingOnANamingAttributeRoundTrips) {
  // Load checks every grouping against its derivation. Reading the values
  // or blocks of a naming attribute interns each name as a string entity,
  // so that check must not read them, or the load changes what it loads.
  auto ws = datasets::BuildInstrumentalMusic();
  sdm::Database& db = ws->db();
  ClassId instruments = *db.schema().FindClass("instruments");
  AttributeId name = *db.schema().FindAttribute(instruments, "name");
  ASSERT_TRUE(db.CreateGrouping("by_name", instruments, name).ok());
  const std::string blob = Save(*ws);
  auto loaded = Load(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Save(**loaded), blob);
  // The next entity gets the same id on both sides.
  Result<EntityId> here = db.CreateEntity(instruments, "theremin");
  Result<EntityId> there =
      (*loaded)->db().CreateEntity(instruments, "theremin");
  ASSERT_TRUE(here.ok()) << here.status().ToString();
  ASSERT_TRUE(there.ok()) << there.status().ToString();
  EXPECT_EQ(*here, *there);
}

}  // namespace
}  // namespace isis::store
