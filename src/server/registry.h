#ifndef FLOQ_SERVER_REGISTRY_H_
#define FLOQ_SERVER_REGISTRY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "containment/index.h"
#include "server/wal.h"
#include "term/world.h"
#include "util/status.h"

// The durable query registry behind `floq serve`.
//
// State = a World + ContainmentIndex (the in-memory containment lattice)
// plus two files under the registry directory:
//
//   registry.floqreg   checkpoint: magic "FLOQREG1" + one CRC-framed JSON
//                      record {"entries":[{"name":..,"query":..},...]}
//                      in registration order, written tmp + fsync +
//                      rename + fsync(parent) (the FLOQSNAP discipline,
//                      hardened per DESIGN.md §16)
//   registry.wal       append-only CRC-framed log of mutations since the
//                      checkpoint (see wal.h)
//
// Durability contract: Register/Unregister append to the WAL (fsync'd)
// *before* mutating in-memory state or acknowledging, so any mutation a
// client saw acked is replayed identically after kill -9 at any instant.
// Replay is idempotent (re-registering an identical name/query is a
// no-op, unregistering an absent name is a no-op), which makes the
// checkpoint.after_rename crash — checkpoint live, WAL not yet reset —
// recover cleanly too.
//
// Reads are epoch-based: every mutation publishes a new immutable
// RegistrySnapshotView; `contain`/`classify`/`status` grab the current
// shared_ptr and never block behind a registration in progress. A
// publish costs O(live + edges of the sparse relation), never O(live^2).

namespace floq::server {

struct RegistryOptions {
  std::string dir;
  // Engine options for the maintained index (jobs, budgets, signatures).
  BatchContainmentOptions containment;
  // Mutations between automatic checkpoints; Checkpoint() can always be
  // called explicitly (graceful drain does).
  int checkpoint_every = 32;
};

struct RegistryEntryView {
  std::string name;
  std::string text;  // original surface syntax, re-parsed on recovery
  size_t id = 0;     // dense id in the underlying ContainmentIndex
};

// Names in sorted order, each with its position in a list of entries. A
// flat sorted vector, not a map, so a snapshot copies it in one contiguous
// allocation.
class NameIndex {
 public:
  using Item = std::pair<std::string, size_t>;

  const Item* find(std::string_view name) const {
    auto it = LowerBound(name);
    return it != items_.end() && it->first == name ? &*it : end();
  }
  const Item* end() const { return items_.data() + items_.size(); }

  // `name` must be absent.
  void Insert(std::string name, size_t position) {
    auto it = LowerBound(name);
    items_.emplace(it, std::move(name), position);
  }
  // Removes `name` (present) and moves every position above its own down
  // by one, as erasing that position from the entry list does.
  void EraseAndShift(std::string_view name) {
    auto it = LowerBound(name);
    const size_t position = it->second;
    items_.erase(it);
    for (Item& item : items_) {
      if (item.second > position) --item.second;
    }
  }

 private:
  std::vector<Item>::const_iterator LowerBound(std::string_view name) const {
    return std::lower_bound(items_.begin(), items_.end(), name,
                            [](const Item& item, std::string_view key) {
                              return std::string_view(item.first) < key;
                            });
  }

  std::vector<Item> items_;
};

struct RegistrySnapshotView {
  uint64_t epoch = 0;
  // Live entries in registration order; `resolution` and `taxonomy` are
  // positional over this vector.
  std::vector<RegistryEntryView> entries;
  NameIndex by_name;
  // This epoch's sparse relation over the live entries:
  // resolution[li][ri] answers entries[li] ⊆ entries[ri].
  ContainmentRelation resolution;
  QueryTaxonomy taxonomy;
  // The index's accounting and the WAL records since the last checkpoint,
  // as of this epoch.
  IndexStats index;
  uint64_t wal_mutations = 0;
  // Engine entries the index holds; equals entries.size() because
  // unregister frees its query.
  size_t engine_queries = 0;

  const RegistryEntryView* Find(std::string_view name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : &entries[it->second];
  }
};

class QueryRegistry {
 public:
  explicit QueryRegistry(RegistryOptions options);

  // Recovers from the registry directory: load checkpoint (if any),
  // replay the WAL, rebuild the containment lattice by re-inserting
  // every live query in registration order. The epoch resumes from the
  // checkpoint's and advances once per WAL record that applies, so it
  // never falls below the last epoch acked before the restart.
  Status Open();

  struct RegisterOutcome {
    uint64_t epoch = 0;
    bool already_registered = false;  // identical name+query: no-op ack
  };
  Result<RegisterOutcome> Register(const std::string& name,
                                   const std::string& text);
  // NotFound when `name` is not live. Removes the query from the index
  // and frees its engine entry; a re-registration of the same name gets a
  // fresh id and is decided again.
  Result<uint64_t> Unregister(const std::string& name);

  // Writes a checkpoint and truncates the WAL. Also invoked internally
  // every `checkpoint_every` mutations and by the daemon's drain path.
  Status Checkpoint();

  // Current immutable view; never nullptr after a successful Open.
  std::shared_ptr<const RegistrySnapshotView> Snapshot() const;

 private:
  Status ApplyRegister(const std::string& name, const std::string& text,
                       bool* applied);
  Status ApplyUnregister(const std::string& name, bool* applied);
  Status ApplyWalRecord(const std::string& payload, bool* applied);
  Status LoadCheckpoint(std::vector<RegistryEntryView>* entries,
                        uint64_t* epoch, bool* found);
  Status CheckpointLocked();
  // Cadence checkpoint after a mutation: a failure here is reported, not
  // returned — the mutation is already durable in the WAL.
  void MaybeCheckpointLocked();
  void PublishLocked();

  const RegistryOptions options_;
  const std::string checkpoint_path_;
  const std::string wal_path_;

  // The live entry named `name`, or nullptr.
  const RegistryEntryView* FindLocked(std::string_view name) const;

  mutable std::mutex mu_;       // serializes mutations + file I/O
  World world_;
  ContainmentIndex index_;
  // Live entries in registration order (ids ascending) and their names;
  // every publish copies both into the snapshot.
  std::vector<RegistryEntryView> entries_;
  NameIndex by_name_;
  Wal wal_;
  uint64_t epoch_ = 0;
  uint64_t dirty_ = 0;  // mutations since the last checkpoint

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const RegistrySnapshotView> snapshot_;
};

}  // namespace floq::server

#endif  // FLOQ_SERVER_REGISTRY_H_
