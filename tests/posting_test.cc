#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "datalog/fact_index.h"
#include "datalog/posting_block.h"
#include "datalog/snapshot.h"
#include "kb/knowledge_base.h"
#include "term/world.h"
#include "util/metrics.h"

// Tests for the block-compressed posting storage (DESIGN.md §14): codec
// round trips, SIMD-vs-scalar differential parity, cursor streaming
// against plain-vector oracles, FactIndex freezing at random points, and
// snapshot write -> mmap-load parity up to KB answers.

namespace floq {
namespace {

// Deterministic sorted strictly-increasing id list: `n` ids with gaps
// drawn from [1, max_gap].
std::vector<uint32_t> RandomIds(std::mt19937& rng, size_t n,
                                uint32_t max_gap, uint32_t start = 0) {
  std::uniform_int_distribution<uint32_t> gap(1, max_gap);
  std::vector<uint32_t> ids;
  ids.reserve(n);
  uint32_t cur = start;
  for (size_t i = 0; i < n; ++i) {
    cur += gap(rng);
    ids.push_back(cur);
  }
  return ids;
}

std::vector<uint32_t> DecodeWholeList(const uint8_t* arena_data,
                                      uint32_t offset) {
  FrozenListView list = ResolveFrozenList(arena_data, offset);
  std::vector<uint32_t> out;
  out.reserve(list.count);
  std::array<uint32_t, kPostingBlockSize> buf;
  for (uint32_t b = 0; b < list.num_blocks; ++b) {
    uint32_t n = DecodeBlockScalar(list, b, buf.data());
    EXPECT_EQ(n, list.BlockLength(b));
    out.insert(out.end(), buf.begin(), buf.begin() + n);
  }
  return out;
}

// ---- Codec ---------------------------------------------------------------

TEST(PostingCodecTest, RoundTripAcrossSizesAndGapWidths) {
  std::mt19937 rng(7);
  const size_t sizes[] = {1, 2, 5, 127, 128, 129, 255, 256, 1000, 4133};
  const uint32_t gaps[] = {1, 3, 200, 90'000};  // widths 1, 1, 2, 4 bytes
  for (size_t n : sizes) {
    for (uint32_t max_gap : gaps) {
      PostingArena arena;
      std::vector<uint32_t> ids = RandomIds(rng, n, max_gap);
      uint32_t offset = arena.EncodeList(ids);
      EXPECT_EQ(DecodeWholeList(arena.data(), offset), ids)
          << "n=" << n << " max_gap=" << max_gap;
    }
  }
}

TEST(PostingCodecTest, PicksDeltaWidthPerBlock) {
  // First block dense (1-byte deltas), second block sparse (4-byte).
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < kPostingBlockSize; ++i) ids.push_back(i + 1);
  uint32_t cur = ids.back();
  for (uint32_t i = 0; i < kPostingBlockSize; ++i) {
    cur += 1'000'000;
    ids.push_back(cur);
  }
  PostingArena arena;
  uint32_t offset = arena.EncodeList(ids);
  FrozenListView list = ResolveFrozenList(arena.data(), offset);
  ASSERT_EQ(list.num_blocks, 2u);
  EXPECT_EQ(list.metas[0].delta_width(), 1u);
  EXPECT_EQ(list.metas[1].delta_width(), 4u);
  EXPECT_EQ(list.metas[0].max_id, ids[kPostingBlockSize - 1]);
  EXPECT_EQ(list.metas[1].max_id, ids.back());
  EXPECT_EQ(DecodeWholeList(arena.data(), offset), ids);
}

TEST(PostingCodecTest, MultipleListsShareOneArena) {
  std::mt19937 rng(11);
  PostingArena arena;
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> lists;
  for (int i = 0; i < 20; ++i) {
    std::vector<uint32_t> ids = RandomIds(rng, 1 + size_t(rng() % 400), 50);
    uint32_t offset = arena.EncodeList(ids);
    lists.emplace_back(offset, std::move(ids));
  }
  for (const auto& [offset, ids] : lists) {
    EXPECT_EQ(DecodeWholeList(arena.data(), offset), ids);
  }
}

TEST(PostingCodecTest, FrozenBytesAtMostHalfOfPlainVectors) {
  // The acceptance bound for the dense-id regime FactIndex produces: ids
  // are insertion-ordered, so posting-list gaps are small and almost all
  // blocks take 1-byte deltas.
  std::mt19937 rng(13);
  PostingArena arena;
  uint64_t total_ids = 0;
  for (int i = 0; i < 50; ++i) {
    std::vector<uint32_t> ids = RandomIds(rng, 2000, 4);
    arena.EncodeList(ids);
    total_ids += ids.size();
  }
  double bytes_per_posting = double(arena.size()) / double(total_ids);
  EXPECT_LE(bytes_per_posting, 2.0) << "frozen tier must be <= 0.5x the "
                                       "4-byte plain-vector representation";
}

// ---- SIMD differential ---------------------------------------------------

TEST(PostingSimdTest, DecodeBlockMatchesScalar) {
  // With FLOQ_NATIVE+SSE4.1 this is a genuine SIMD-vs-scalar differential;
  // otherwise both paths are the scalar one and the test is vacuous (the
  // CI native job runs the real comparison).
  std::mt19937 rng(17);
  const uint32_t gaps[] = {1, 14, 250, 70'000, 20'000'000};
  for (uint32_t max_gap : gaps) {
    for (int trial = 0; trial < 20; ++trial) {
      size_t n = 1 + size_t(rng() % 513);
      PostingArena arena;
      std::vector<uint32_t> ids = RandomIds(rng, n, max_gap);
      uint32_t offset = arena.EncodeList(ids);
      FrozenListView list = ResolveFrozenList(arena.data(), offset);
      std::array<uint32_t, kPostingBlockSize> scalar, simd;
      for (uint32_t b = 0; b < list.num_blocks; ++b) {
        uint32_t ns = DecodeBlockScalar(list, b, scalar.data());
        uint32_t nv = DecodeBlock(list, b, simd.data());
        ASSERT_EQ(ns, nv);
        for (uint32_t k = 0; k < ns; ++k) {
          ASSERT_EQ(scalar[k], simd[k]) << "block " << b << " slot " << k;
        }
      }
    }
  }
}

// ---- Cursor streaming ---------------------------------------------------

// A view with `ids[0..split)` frozen in `arena` and the rest as tail.
PostingView SplitView(PostingArena& arena, const std::vector<uint32_t>& ids,
                      size_t split) {
  uint32_t offset = 0;
  if (split > 0) {
    offset = arena.EncodeList(std::span<const uint32_t>(ids.data(), split));
  }
  return PostingView(arena.data(), offset, uint32_t(split),
                     std::span<const uint32_t>(ids.data() + split,
                                               ids.size() - split));
}

TEST(PostingCursorTest, StreamMatchesVectorAtEverySplit) {
  std::mt19937 rng(23);
  std::vector<uint32_t> ids = RandomIds(rng, 700, 9);
  const size_t splits[] = {0, 1, 127, 128, 129, 350, 699, 700};
  for (size_t split : splits) {
    PostingArena arena;
    PostingView view = SplitView(arena, ids, split);
    ASSERT_EQ(view.size(), ids.size());
    std::vector<uint32_t> streamed;
    for (uint32_t id : view) streamed.push_back(id);
    EXPECT_EQ(streamed, ids) << "split=" << split;
    EXPECT_EQ(view.ToVector(), ids) << "split=" << split;
  }
}

// ---- FactIndex freezing --------------------------------------------------

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
    // Freeze at random points with random thresholds, sometimes twice.
    if (rng() % 300 == 0) index.Freeze(1 + rng() % 16);
  }
  index.Freeze();

  EXPECT_TRUE(index.PostingListsSorted());
  for (const auto& [pred, ids] : by_pred) {
    EXPECT_EQ(index.WithPredicate(PredicateId(pred)).ToVector(), ids);
  }
  for (const auto& [key, ids] : by_arg) {
    auto [pred, pos, term] = key;
    EXPECT_EQ(index.WithArgument(PredicateId(pred), pos, term).ToVector(),
              ids);
  }
  FactIndex::StorageStats stats = index.Stats();
  EXPECT_GT(stats.frozen_postings, 0u);
  EXPECT_GT(stats.arena_bytes, 0u);
}

TEST(FactIndexFreezeTest, InsertAfterFreezeAppendsToTail) {
  World world;
  FactIndex index;
  Term a = world.MakeConstant("a");
  Term b = world.MakeConstant("b");
  std::vector<uint32_t> expected;
  for (int i = 0; i < 300; ++i) {
    Term t = world.MakeConstant("x" + std::to_string(i));
    auto [id, fresh] = index.Insert(Atom::Sub(t, b));
    ASSERT_TRUE(fresh);
    expected.push_back(id);
  }
  index.Freeze(1);
  PostingView frozen = index.WithArgument(pfl::kSub, 1, b);
  EXPECT_EQ(frozen.frozen_count(), 300u);
  EXPECT_TRUE(frozen.tail().empty());

  auto [id, fresh] = index.Insert(Atom::Sub(a, b));
  ASSERT_TRUE(fresh);
  expected.push_back(id);
  PostingView mixed = index.WithArgument(pfl::kSub, 1, b);
  EXPECT_EQ(mixed.frozen_count(), 300u);
  EXPECT_EQ(mixed.tail().size(), 1u);
  EXPECT_EQ(mixed.ToVector(), expected);

  index.Freeze(1);  // re-freeze folds the tail into the frozen tier
  PostingView refrozen = index.WithArgument(pfl::kSub, 1, b);
  EXPECT_EQ(refrozen.frozen_count(), 301u);
  EXPECT_TRUE(refrozen.tail().empty());
  EXPECT_EQ(refrozen.ToVector(), expected);
}

TEST(FactIndexTest, ClearReleasesHeapCapacity) {
  World world;
  FactIndex index;
  for (int i = 0; i < 5000; ++i) {
    index.Insert(Atom::Sub(world.MakeConstant("s" + std::to_string(i)),
                           world.MakeConstant("t" + std::to_string(i % 7))));
  }
  index.Freeze();
  size_t loaded = index.MemoryFootprint();
  ASSERT_GT(loaded, 100'000u);
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.WithPredicate(pfl::kSub).empty());
  // Swap-clear must actually return the bucket arrays, posting vectors and
  // arena to the allocator, not just logically empty them.
  EXPECT_LT(index.MemoryFootprint(), loaded / 100);

  // The cleared index is reusable and ids restart at 0.
  auto [id, fresh] = index.Insert(
      Atom::Sub(world.MakeConstant("a"), world.MakeConstant("b")));
  EXPECT_TRUE(fresh);
  EXPECT_EQ(id, 0u);
}

// ---- Metrics -------------------------------------------------------------

uint64_t CounterValue(const MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

TEST(PostingMetricsTest, CursorWorkIsCounted) {
  MetricsRegistry::set_enabled(true);
  MetricsRegistry::Get().Reset();
  std::mt19937 rng(41);
  PostingArena arena;
  std::vector<uint32_t> ids = RandomIds(rng, 4096, 3);
  uint32_t offset = arena.EncodeList(ids);
  PostingView view(arena.data(), offset, uint32_t(ids.size()), {});
  size_t streamed = 0;
  for (PostingCursor cursor(view); !cursor.AtEnd(); cursor.Next()) {
    EXPECT_EQ(cursor.value(), ids[streamed]);
    ++streamed;
  }
  MetricsSnapshot snapshot = MetricsRegistry::Get().Snapshot();
  MetricsRegistry::set_enabled(false);
  EXPECT_EQ(streamed, ids.size());
  // A full stream decodes every block exactly once.
  EXPECT_EQ(CounterValue(snapshot, "index.blocks_decoded"),
            ids.size() / kPostingBlockSize);
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
  EXPECT_EQ(loaded.WithPredicate(pfl::kSub).ToVector(),
            index.WithPredicate(pfl::kSub).ToVector());
  EXPECT_EQ(loaded.WithPredicate(pfl::kData).ToVector(),
            index.WithPredicate(pfl::kData).ToVector());
  for (Term t : terms) {
    for (int pos = 0; pos < 2; ++pos) {
      EXPECT_EQ(loaded.WithArgument(pfl::kSub, pos, t).ToVector(),
                index.WithArgument(pfl::kSub, pos, t).ToVector());
    }
  }
  EXPECT_TRUE(loaded.PostingListsSorted());

  // A loaded index stays writable: inserts append past the mapped prefix
  // and a later Freeze re-encodes from the mapped arena onto the heap.
  Atom fresh_atom = Atom::Member(terms[0], terms[1]);
  auto [fresh_id, fresh] = loaded.Insert(fresh_atom);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(fresh_id, uint32_t(inserted.size()));
  loaded.Freeze(1);
  EXPECT_EQ(loaded.IdOf(fresh_atom), fresh_id);
  EXPECT_EQ(loaded.WithPredicate(pfl::kSub).ToVector(),
            index.WithPredicate(pfl::kSub).ToVector());
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

// v2 hardening (DESIGN.md §14.3): the header carries a CRC-32 over
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
