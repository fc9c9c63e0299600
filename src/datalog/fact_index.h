#ifndef FLOQ_DATALOG_FACT_INDEX_H_
#define FLOQ_DATALOG_FACT_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "term/atom.h"

// An append-only, duplicate-free collection of atoms with hash indexes by
// predicate and by (predicate, argument position, term). This is the
// storage shared by the Datalog engine (ground facts), the chase (conjuncts
// of chase_Sigma(q), where query variables are treated as values), and the
// homomorphism search (candidate lookup).
//
// Every posting list is one ascending run of fact ids (DESIGN.md §14), and
// lookups hand it out as a span. The atom array and the posting lists can
// be written to a snapshot file and mmap-ed back (datalog/snapshot.h); a
// loaded list reads its run from the mapping until an insert appends to
// it.

namespace floq {

/// Sentinel id returned by IdOf for absent atoms.
inline constexpr uint32_t kInvalidFactId = UINT32_MAX;

class SnapshotIO;  // snapshot.cc: serialized access to the private storage

class FactIndex {
 public:
  FactIndex() = default;

  FactIndex(const FactIndex&) = delete;
  FactIndex& operator=(const FactIndex&) = delete;
  FactIndex(FactIndex&&) = default;
  FactIndex& operator=(FactIndex&&) = default;

  /// Appends `atom` unless already present. Returns the atom's id and
  /// whether it was newly inserted.
  std::pair<uint32_t, bool> Insert(const Atom& atom);

  bool Contains(const Atom& atom) const {
    EnsureIds();
    return ids_.count(atom) > 0;
  }

  /// Id lookup; returns kInvalidFactId if absent.
  uint32_t IdOf(const Atom& atom) const {
    EnsureIds();
    auto it = ids_.find(atom);
    return it == ids_.end() ? kInvalidFactId : it->second;
  }

  const Atom& at(uint32_t id) const {
    return id < mapped_count_ ? mapped_atoms_[id] : atoms_[id - mapped_count_];
  }

  uint32_t size() const { return mapped_count_ + uint32_t(atoms_.size()); }
  bool empty() const { return size() == 0; }

  /// Random-access range over all atoms in id order (the atom array may be
  /// split between an mmap-ed snapshot prefix and the in-memory suffix, so
  /// there is no single contiguous vector to return).
  class AtomRange {
   public:
    class iterator {
     public:
      using value_type = Atom;
      using difference_type = std::ptrdiff_t;
      using reference = const Atom&;
      using pointer = const Atom*;
      using iterator_category = std::forward_iterator_tag;

      iterator() = default;
      iterator(const FactIndex* index, uint32_t id) : index_(index), id_(id) {}
      const Atom& operator*() const { return index_->at(id_); }
      const Atom* operator->() const { return &index_->at(id_); }
      iterator& operator++() {
        ++id_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++id_;
        return old;
      }
      bool operator==(const iterator& o) const { return id_ == o.id_; }
      bool operator!=(const iterator& o) const { return id_ != o.id_; }

     private:
      const FactIndex* index_ = nullptr;
      uint32_t id_ = 0;
    };

    explicit AtomRange(const FactIndex* index) : index_(index) {}
    uint32_t size() const { return index_->size(); }
    bool empty() const { return index_->empty(); }
    const Atom& operator[](uint32_t id) const { return index_->at(id); }
    iterator begin() const { return iterator(index_, 0); }
    iterator end() const { return iterator(index_, index_->size()); }

   private:
    const FactIndex* index_;
  };

  AtomRange atoms() const { return AtomRange(this); }

  /// Ids of all atoms with the given predicate, ascending. The span is
  /// invalidated by the next Insert.
  std::span<const uint32_t> WithPredicate(PredicateId pred) const;

  /// Ids of all atoms with `pred` whose argument `position` equals `value`,
  /// ascending. The span is invalidated by the next Insert.
  std::span<const uint32_t> WithArgument(PredicateId pred, int position,
                                         Term value) const;

  /// Removes everything and releases all heap capacity (swap-clear: a
  /// long-lived process that resets its registry must actually return the
  /// bucket arrays and posting vectors to the allocator).
  void Clear();

  /// True iff every WithPredicate/WithArgument posting list is strictly
  /// increasing in fact id. This holds by construction (ids are assigned
  /// in insertion order and each Insert appends), and the kernel's
  /// candidate order and the snapshot's runs rely on it; Insert
  /// FLOQ_DCHECKs it per append, and this full scan backs the unit test.
  bool PostingListsSorted() const;

  /// Approximate heap bytes owned by the index (atoms, id map, posting
  /// lists). Mapped snapshot bytes are excluded — they are shared pages,
  /// the point of mmap loading.
  size_t MemoryFootprint() const;

 private:
  friend class SnapshotIO;

  /// One posting list. A list loaded from a snapshot reads its run in
  /// place from the mapping (`mapped`) until the first append copies it
  /// to `ids`; every other list lives in `ids` alone.
  struct PostingList {
    std::span<const uint32_t> mapped;
    std::vector<uint32_t> ids;

    std::span<const uint32_t> view() const {
      return mapped.empty() ? std::span<const uint32_t>(ids) : mapped;
    }
  };

  // Packs (predicate, position, term) into one hash key: term in the low
  // 32 bits, position in the next 4, predicate above. An earlier packing
  // gave position only 2 bits, so position 4 of a wide predicate aliased
  // position 0 of predicate id + 1 and buckets silently collided (caught
  // by FactIndexTest.WideArityPositionsDoNotCollide).
  static uint64_t PositionKey(PredicateId pred, int position, Term value) {
    static_assert(kMaxArity <= 16, "position field packs into 4 bits");
    return (uint64_t(pred) << 36) | (uint64_t(position) << 32) |
           uint64_t(value.raw());
  }

  static void AppendPosting(PostingList& list, uint32_t id);

  // The atom -> id map is rebuilt lazily after a snapshot load (building
  // it eagerly would touch every mapped page up front, defeating the
  // mmap). First touch is not thread-safe; snapshot loads happen on the
  // single-threaded CLI path before any search starts.
  void EnsureIds() const;

  // Atoms in id order: an optional mmap-ed prefix (ids [0, mapped_count_))
  // followed by the in-memory suffix. `mapped_owner_` keeps the mapping
  // alive for the mapped atoms and posting runs alike.
  std::span<const Atom> mapped_atoms_;
  uint32_t mapped_count_ = 0;
  std::shared_ptr<const void> mapped_owner_;
  std::vector<Atom> atoms_;

  mutable std::unordered_map<Atom, uint32_t, AtomHash> ids_;
  mutable bool ids_built_ = true;

  std::unordered_map<PredicateId, PostingList> by_predicate_;
  std::unordered_map<uint64_t, PostingList> by_argument_;
};

}  // namespace floq

#endif  // FLOQ_DATALOG_FACT_INDEX_H_
