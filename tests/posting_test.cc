#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "datalog/fact_index.h"
#include "datalog/snapshot.h"
#include "kb/knowledge_base.h"
#include "term/world.h"

// Tests for FactIndex posting lists and snapshots (DESIGN.md §14): random
// inserts against plain reference maps, Clear releasing capacity, and
// snapshot write -> mmap-load parity up to KB answers, including the
// loader's rejection of corrupt files.

namespace floq {
namespace {

std::vector<uint32_t> Ids(std::span<const uint32_t> ids) {
  return std::vector<uint32_t>(ids.begin(), ids.end());
}

// ---- FactIndex posting lists --------------------------------------------

TEST(FactIndexFreezeTest, RandomFreezePointsPreserveAllPostingLists) {
  std::mt19937 rng(37);
  World world;
  FactIndex index;
  std::vector<Term> terms;
  for (int i = 0; i < 40; ++i) {
    terms.push_back(world.MakeConstant("c" + std::to_string(i)));
  }
  // Reference model: plain vectors per predicate and per (pred, pos, term).
  std::map<uint64_t, std::vector<uint32_t>> by_pred;
  std::map<std::tuple<uint64_t, int, Term>, std::vector<uint32_t>> by_arg;

  auto pick = [&] { return terms[rng() % terms.size()]; };
  for (int i = 0; i < 4000; ++i) {
    Atom atom;
    switch (rng() % 3) {
      case 0: atom = Atom::Sub(pick(), pick()); break;
      case 1: atom = Atom::Member(pick(), pick()); break;
      default: atom = Atom::Data(pick(), pick(), pick()); break;
    }
    auto [id, fresh] = index.Insert(atom);
    if (fresh) {
      by_pred[atom.predicate()].push_back(id);
      for (int pos = 0; pos < atom.arity(); ++pos) {
        by_arg[{atom.predicate(), pos, atom.arg(pos)}].push_back(id);
      }
    }
  }

  EXPECT_TRUE(index.PostingListsSorted());
  for (const auto& [pred, ids] : by_pred) {
    EXPECT_EQ(Ids(index.WithPredicate(PredicateId(pred))), ids);
  }
  for (const auto& [key, ids] : by_arg) {
    auto [pred, pos, term] = key;
    EXPECT_EQ(Ids(index.WithArgument(PredicateId(pred), pos, term)), ids);
  }
}

TEST(FactIndexTest, ClearReleasesHeapCapacity) {
  World world;
  FactIndex index;
  for (int i = 0; i < 5000; ++i) {
    index.Insert(Atom::Sub(world.MakeConstant("s" + std::to_string(i)),
                           world.MakeConstant("t" + std::to_string(i % 7))));
  }
  size_t loaded = index.MemoryFootprint();
  ASSERT_GT(loaded, 100'000u);
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.WithPredicate(pfl::kSub).empty());
  // Swap-clear must actually return the bucket arrays and posting vectors
  // to the allocator, not just logically empty them.
  EXPECT_LT(index.MemoryFootprint(), loaded / 100);

  // The cleared index is reusable and ids restart at 0.
  auto [id, fresh] = index.Insert(
      Atom::Sub(world.MakeConstant("a"), world.MakeConstant("b")));
  EXPECT_TRUE(fresh);
  EXPECT_EQ(id, 0u);
}

// ---- Snapshots -----------------------------------------------------------

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(SnapshotTest, IndexRoundTripsThroughFile) {
  std::mt19937 rng(43);
  World world;
  FactIndex index;
  std::vector<Term> terms;
  for (int i = 0; i < 25; ++i) {
    terms.push_back(world.MakeConstant("k" + std::to_string(i)));
  }
  std::vector<Atom> inserted;
  for (int i = 0; i < 1500; ++i) {
    Atom atom = rng() % 2 == 0
                    ? Atom::Sub(terms[rng() % 25], terms[rng() % 25])
                    : Atom::Data(terms[rng() % 25], terms[rng() % 25],
                                 terms[rng() % 25]);
    if (index.Insert(atom).second) inserted.push_back(atom);
  }
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(WriteFactIndexSnapshot(index, world, path, 0x0).ok());

  World world2;
  FactIndex loaded;
  Result<SnapshotInfo> info = LoadFactIndexSnapshot(path, world2, loaded);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kSnapshotFormatVersion);
  EXPECT_EQ(info->atom_count, uint32_t(inserted.size()));
  ASSERT_EQ(loaded.size(), index.size());

  // Atom array, id map, and both posting tables must agree exactly.
  for (uint32_t id = 0; id < index.size(); ++id) {
    EXPECT_EQ(loaded.at(id), index.at(id));
  }
  for (const Atom& atom : inserted) {
    EXPECT_EQ(loaded.IdOf(atom), index.IdOf(atom));
  }
  EXPECT_EQ(Ids(loaded.WithPredicate(pfl::kSub)),
            Ids(index.WithPredicate(pfl::kSub)));
  EXPECT_EQ(Ids(loaded.WithPredicate(pfl::kData)),
            Ids(index.WithPredicate(pfl::kData)));
  for (Term t : terms) {
    for (int pos = 0; pos < 2; ++pos) {
      EXPECT_EQ(Ids(loaded.WithArgument(pfl::kSub, pos, t)),
                Ids(index.WithArgument(pfl::kSub, pos, t)));
    }
  }
  EXPECT_TRUE(loaded.PostingListsSorted());

  // A loaded index stays writable. An insert copies each list it appends
  // to off the mapping; a list it leaves alone keeps reading its mapped
  // run in place.
  const std::span<const uint32_t> mapped_data =
      loaded.WithPredicate(pfl::kData);
  std::vector<uint32_t> expected_sub = Ids(index.WithPredicate(pfl::kSub));
  Atom fresh_atom = Atom::Sub(terms[0], world2.MakeConstant("fresh"));
  auto [fresh_id, fresh] = loaded.Insert(fresh_atom);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(fresh_id, uint32_t(inserted.size()));
  EXPECT_EQ(loaded.IdOf(fresh_atom), fresh_id);
  expected_sub.push_back(fresh_id);
  EXPECT_EQ(Ids(loaded.WithPredicate(pfl::kSub)), expected_sub);
  EXPECT_EQ(Ids(loaded.WithArgument(pfl::kSub, 0, terms[0])).back(),
            fresh_id);
  const std::span<const uint32_t> data_after =
      loaded.WithPredicate(pfl::kData);
  EXPECT_EQ(data_after.data(), mapped_data.data());
  EXPECT_EQ(Ids(data_after), Ids(index.WithPredicate(pfl::kData)));
  EXPECT_TRUE(loaded.PostingListsSorted());
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadIntoPopulatedIdenticalWorldSucceeds) {
  World world;
  FactIndex index;
  Term a = world.MakeConstant("a");
  Term b = world.MakeConstant("b");
  index.Insert(Atom::Sub(a, b));
  const std::string path = TempPath("sameworld.snap");
  ASSERT_TRUE(WriteFactIndexSnapshot(index, world, path).ok());
  // Loading back into the *same* world must succeed: the symbols intern to
  // their existing ids.
  FactIndex loaded;
  Result<SnapshotInfo> info = LoadFactIndexSnapshot(path, world, loaded);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(loaded.IdOf(Atom::Sub(a, b)), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadIntoConflictingWorldFails) {
  World world;
  FactIndex index;
  index.Insert(
      Atom::Sub(world.MakeConstant("a"), world.MakeConstant("b")));
  const std::string path = TempPath("conflict.snap");
  ASSERT_TRUE(WriteFactIndexSnapshot(index, world, path).ok());

  World other;
  other.MakeConstant("something_else");  // id 0 taken by a different name
  FactIndex loaded;
  Result<SnapshotInfo> info = LoadFactIndexSnapshot(path, other, loaded);
  EXPECT_FALSE(info.ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsCorruptAndTruncatedFiles) {
  World world;
  FactIndex index;
  for (int i = 0; i < 100; ++i) {
    index.Insert(Atom::Sub(world.MakeConstant("n" + std::to_string(i)),
                           world.MakeConstant("m")));
  }
  const std::string path = TempPath("corrupt.snap");
  ASSERT_TRUE(WriteFactIndexSnapshot(index, world, path).ok());

  {
    World w;
    FactIndex idx;
    EXPECT_FALSE(
        LoadFactIndexSnapshot(TempPath("does_not_exist.snap"), w, idx).ok());
  }
  {
    // Flip a magic byte.
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc('X', f);
    std::fclose(f);
    World w;
    FactIndex idx;
    EXPECT_FALSE(LoadFactIndexSnapshot(path, w, idx).ok());
  }
  // A file of another format version (v2 stored compressed blocks) is
  // refused by its version field before anything else is read.
  ASSERT_TRUE(WriteFactIndexSnapshot(index, world, path).ok());
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const uint32_t v2 = 2;
    ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);  // SnapshotHeader::version
    ASSERT_EQ(std::fwrite(&v2, sizeof v2, 1, f), 1u);
    std::fclose(f);
    World w;
    FactIndex idx;
    Result<SnapshotInfo> info = LoadFactIndexSnapshot(path, w, idx);
    ASSERT_FALSE(info.ok());
    EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(info.status().message().find("version 2 unsupported"),
              std::string::npos)
        << info.status().message();
  }
  // Rewrite, then truncate to half.
  ASSERT_TRUE(WriteFactIndexSnapshot(index, world, path).ok());
  {
    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
    World w;
    FactIndex idx;
    EXPECT_FALSE(LoadFactIndexSnapshot(path, w, idx).ok());
  }
  std::remove(path.c_str());
}

// Since v2 (DESIGN.md §14.3) the header carries a CRC-32 over
// itself and one over the eagerly-read symbols section, so a torn or
// bit-flipped snapshot is rejected before any offset is trusted — the
// daemon recovery path must never chase pointers from a half-written
// header.
TEST(SnapshotTest, RejectsHeaderAndSymbolsCorruption) {
  World world;
  FactIndex index;
  for (int i = 0; i < 50; ++i) {
    index.Insert(Atom::Sub(world.MakeConstant("h" + std::to_string(i)),
                           world.MakeConstant("t")));
  }
  const std::string path = TempPath("crc.snap");

  auto rewrite = [&] {
    ASSERT_TRUE(WriteFactIndexSnapshot(index, world, path).ok());
  };
  auto load_fails = [&](const char* what) {
    World w;
    FactIndex idx;
    EXPECT_FALSE(LoadFactIndexSnapshot(path, w, idx).ok()) << what;
  };
  auto flip_byte = [&](long offset) {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  };
  auto read_u64 = [&](long offset) {
    FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, offset, SEEK_SET);
    uint64_t value = 0;
    EXPECT_EQ(std::fread(&value, sizeof value, 1, f), 1u);
    std::fclose(f);
    return value;
  };

  // Shorter than one 96-byte header: rejected before any field is read.
  rewrite();
  ASSERT_EQ(truncate(path.c_str(), 64), 0);
  load_fails("truncated header");

  // A flipped count field breaks the header CRC even though magic and
  // version still read clean.
  rewrite();
  flip_byte(16);  // atom_count
  load_fails("bad header CRC");

  // A flipped byte inside the symbols blob breaks the symbols CRC; the
  // header itself is intact, so this is the second line of defense.
  rewrite();
  const long symbols_offset = long(read_u64(72));
  const long symbols_size = long(read_u64(80));
  ASSERT_GT(symbols_size, 16);
  flip_byte(symbols_offset + 16);
  load_fails("bad symbols CRC");

  // File ends mid-symbols-section: bounds check, not a crash.
  rewrite();
  ASSERT_EQ(truncate(path.c_str(), symbols_offset + 4), 0);
  load_fails("truncated symbols section");

  // Untouched rewrite still loads: the harness flips real bytes, not a
  // format quirk.
  rewrite();
  World w;
  FactIndex idx;
  EXPECT_TRUE(LoadFactIndexSnapshot(path, w, idx).ok());
  std::remove(path.c_str());
}

// The posting tables carry no CRC, so the loader checks every entry's run
// against the postings section: a count that runs past it must fail the
// load instead of mapping bytes beyond the section.
TEST(SnapshotTest, RejectsPostingRunPastTheSection) {
  World world;
  FactIndex index;
  for (int i = 0; i < 40; ++i) {
    index.Insert(Atom::Sub(world.MakeConstant("r" + std::to_string(i)),
                           world.MakeConstant("s")));
  }
  const std::string path = TempPath("bounds.snap");
  ASSERT_TRUE(WriteFactIndexSnapshot(index, world, path).ok());
  {
    World w;
    FactIndex idx;
    ASSERT_TRUE(LoadFactIndexSnapshot(path, w, idx).ok());
  }

  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  uint64_t args_offset = 0;
  ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);  // SnapshotHeader::args_offset
  ASSERT_EQ(std::fread(&args_offset, sizeof args_offset, 1, f), 1u);
  // High byte of the first args-table entry's count (u64 key, u32
  // offset, u32 count).
  const long count_high_byte = long(args_offset) + 15;
  ASSERT_EQ(std::fseek(f, count_high_byte, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, count_high_byte, SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);

  World w;
  FactIndex idx;
  Result<SnapshotInfo> info = LoadFactIndexSnapshot(path, w, idx);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotTest, KbSaveLoadPreservesAnswersAndSaturation) {
  const char* kProgram =
      "alice : student. bob : student. carol : professor.\n"
      "student :: person. professor :: person.\n"
      "alice[advisor -> carol].\n"
      "person[name *=> string].\n";
  World world;
  KnowledgeBase kb(world);
  ASSERT_TRUE(kb.Load(kProgram).ok());
  ASSERT_TRUE(kb.Saturate().ok());
  Result<std::vector<std::vector<Term>>> before = kb.Answer("X : person");
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->empty());

  const std::string path = TempPath("kb.snap");
  ASSERT_TRUE(kb.SaveSnapshot(path).ok());

  World world2;
  KnowledgeBase restored(world2);
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  EXPECT_TRUE(restored.saturated());
  EXPECT_EQ(restored.size(), kb.size());

  Result<std::vector<std::vector<Term>>> after = restored.Answer("X : person");
  ASSERT_TRUE(after.ok());
  auto names = [](World& w,
                  const std::vector<std::vector<Term>>& tuples) {
    std::set<std::string> out;
    for (const auto& tuple : tuples) out.insert(w.NameOf(tuple[0]));
    return out;
  };
  EXPECT_EQ(names(world2, *after), names(world, *before));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace floq
