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
#include "util/check.h"
#include "util/epoch.h"
#include "util/status.h"

// The durable query registry behind `floq serve`.
//
// State = a World + ContainmentIndex (the in-memory containment lattice)
// plus two files under the registry directory:
//
//   registry.floqreg   checkpoint: magic "FLOQREG1" + exactly one WAL
//                      record (wal.h) holding the JSON
//                      {"epoch":..,"entries":[{"name":..,"query":..},...]}
//                      in registration order — a one-record log under
//                      its own magic — replaced durably by ReplaceFile
//                      (util/file.h), the same path FLOQSNAP writes take
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
// shared_ptr and never block behind a registration in progress. An epoch
// shares everything a mutation left alone with the previous one: entry
// records, relation rows and class member lists are immutable once
// written, and reads go by index id, so nothing is renumbered. A publish
// copies one pointer per live entry and per class, the name index and the
// Hasse edges, and the mutation before it rebuilt only what it changed
// (index.h). What a mutation replaces is retired, not freed, until the
// epochs that could see it are released (util/epoch.h); the previous
// epoch is released after `mu_` is.

namespace floq::server {

inline constexpr char kCheckpointMagic[8] = {'F', 'L', 'O', 'Q',
                                             'R', 'E', 'G', '1'};

// The payload of a checkpoint file: fails with InvalidArgument unless
// `bytes` are exactly kCheckpointMagic followed by one whole record. A
// checkpoint has no length cap. A function of the bytes alone.
Result<std::string_view> DecodeCheckpoint(std::string_view bytes);

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

// One epoch's live entries in registration order, which is index-id
// order, read by index id. The records are the registry's own, kept alive
// by the pin after an unregister retires them or the registry goes.
class EntryList {
 public:
  size_t size() const { return items_.size(); }
  PointerArray<RegistryEntryView>::const_iterator begin() const {
    return items_.begin();
  }
  PointerArray<RegistryEntryView>::const_iterator end() const {
    return items_.end();
  }
  // The live entry with index id `id`.
  const RegistryEntryView& operator[](size_t id) const {
    return items_[PositionOf(id)];
  }

 private:
  friend class QueryRegistry;

  size_t PositionOf(size_t id) const {
    auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    FLOQ_CHECK(it != ids_.end() && *it == id);
    return size_t(it - ids_.begin());
  }

  // The entries' ids, so a lookup searches one contiguous array and a
  // publish copies it without touching a record.
  std::vector<size_t> ids_;
  PointerArray<RegistryEntryView> items_;
  Retirer::Pin pin_;
};

// Names in sorted order, each with its entry's index id. A flat sorted
// vector whose names view the entry records' own strings, so a snapshot
// copies it in one contiguous allocation and copies no name.
class NameIndex {
 public:
  using Item = std::pair<std::string_view, size_t>;

  const Item* find(std::string_view name) const {
    auto it = LowerBound(name);
    return it != items_.end() && it->first == name ? &*it : end();
  }
  const Item* end() const { return items_.data() + items_.size(); }

  // `name` must be absent and outlive its item.
  void Insert(std::string_view name, size_t id) {
    items_.emplace(LowerBound(name), name, id);
  }
  // `name` must be present.
  void Erase(std::string_view name) { items_.erase(LowerBound(name)); }

 private:
  std::vector<Item>::const_iterator LowerBound(std::string_view name) const {
    return std::lower_bound(
        items_.begin(), items_.end(), name,
        [](const Item& item, std::string_view key) { return item.first < key; });
  }

  std::vector<Item> items_;
};

struct RegistrySnapshotView {
  uint64_t epoch = 0;
  // Everything below is read by index id: entries[id],
  // by_name.find(name)->second, resolution[lhs][rhs] and the members of
  // taxonomy.classes are all index ids.
  EntryList entries;
  NameIndex by_name;  // its names view the records in `entries`
  // This epoch's relation over the live entries: resolution[l][r] answers
  // entries[l] ⊆ entries[r].
  RelationView resolution;
  // Classes (numbered in registration order of their first members, each
  // listing member ids in registration order) and Hasse edges over class
  // numbers: the taxonomy a one-shot batch computes over `entries`.
  TaxonomyView taxonomy;
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
  // Retires every current record: snapshots stay readable past this.
  ~QueryRegistry();

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
  // Replay path: parses `text` into world_ and inserts it.
  Status ApplyRegister(const std::string& name, const std::string& text,
                       bool* applied);
  Status ApplyUnregister(const std::string& name, bool* applied);
  Status ApplyWalRecord(const std::string& payload, bool* applied);
  // Inserts an already-parsed query under `name` (absent).
  Status InsertLocked(const std::string& name, const std::string& text,
                      const ConjunctiveQuery& query);
  Status LoadCheckpoint(std::vector<RegistryEntryView>* entries,
                        uint64_t* epoch);
  Status CheckpointLocked();
  // Cadence checkpoint after a mutation: a failure here is reported, not
  // returned — the mutation is already durable in the WAL.
  void MaybeCheckpointLocked();
  // Publishes the current state as a new epoch and returns the previous
  // one. Callers hold it in a variable declared before their `mu_` lock,
  // so that whatever it alone keeps alive is freed after `mu_` is
  // released.
  [[nodiscard]] std::shared_ptr<const RegistrySnapshotView> PublishLocked();

  const RegistryOptions options_;
  const std::string checkpoint_path_;
  const std::string wal_path_;

  // The live entry named `name`, or nullptr.
  const RegistryEntryView* FindLocked(std::string_view name) const;

  mutable std::mutex mu_;       // serializes mutations + file I/O
  World world_;
  ContainmentIndex index_;
  // Live entries in registration order, as each publish copies them, the
  // records they point to (same positions), and their names. An
  // unregistered record is retired.
  EntryList entries_;
  std::vector<std::shared_ptr<const RegistryEntryView>> records_;
  Retirer retired_entries_;
  NameIndex by_name_;
  Wal wal_;
  uint64_t epoch_ = 0;
  uint64_t dirty_ = 0;  // mutations since the last checkpoint

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const RegistrySnapshotView> snapshot_;
};

}  // namespace floq::server

#endif  // FLOQ_SERVER_REGISTRY_H_
