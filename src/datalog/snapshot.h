#ifndef FLOQ_DATALOG_SNAPSHOT_H_
#define FLOQ_DATALOG_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "datalog/fact_index.h"
#include "term/world.h"
#include "util/status.h"

// Versioned FactIndex snapshots (DESIGN.md §14.2). A snapshot file holds
// the complete state of an index — the raw atom array, every posting list
// as a plain run of u32 ids, both posting-list tables, and the World
// symbols the stored Term encodings depend on — laid out so that loading
// is one mmap plus a pair of table scans: the atom array and the posting
// runs are used in place, so a process restart skips re-parsing and
// re-chasing entirely and large KBs stay in shared page-cache memory.
//
// The format is little-endian and alignment-padded (every section starts
// 64-aligned). Loading verifies magic, version, section bounds and that
// every table entry's run lies inside the postings section, and fails
// with an error Status on any mismatch — snapshots are caches, not
// interchange: when in doubt, rebuild from source.

namespace floq {

/// Bumped on any layout change; loaders reject other versions.
/// v2: header CRC-32 + symbols-section CRC-32 (the sections that every
/// load reads eagerly; the mmap-ed atom/posting sections stay lazily
/// faulted and are covered by bounds checks), fsync'd tmp+rename writes.
/// v3: posting lists are plain u32 runs instead of compressed blocks.
inline constexpr uint32_t kSnapshotFormatVersion = 3;

/// Snapshot flag: the stored facts are already chase-saturated, so a
/// loader can skip Saturate() (KnowledgeBase records this).
inline constexpr uint32_t kSnapshotFlagSaturated = 1u << 0;

struct SnapshotInfo {
  uint32_t version = 0;
  uint32_t flags = 0;
  uint32_t atom_count = 0;
};

/// Writes `index` plus the `world` symbols to `path`, atomically and
/// durably (ReplaceFile, util/file.h).
Status WriteFactIndexSnapshot(const FactIndex& index, const World& world,
                              const std::string& path, uint32_t flags = 0);

/// Loads a snapshot written by WriteFactIndexSnapshot: restores the World
/// symbols (the world must be fresh or already hold exactly the snapshot's
/// symbols in the same order — anything else fails, since stored Term
/// encodings would dangle) and points `index` at the mmap-ed atom array
/// and posting runs. `index` is cleared first.
Result<SnapshotInfo> LoadFactIndexSnapshot(const std::string& path,
                                           World& world, FactIndex& index);

}  // namespace floq

#endif  // FLOQ_DATALOG_SNAPSHOT_H_
