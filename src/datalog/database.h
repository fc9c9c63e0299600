#ifndef FLOQ_DATALOG_DATABASE_H_
#define FLOQ_DATALOG_DATABASE_H_

#include <span>
#include <vector>

#include "datalog/fact_index.h"
#include "term/atom.h"
#include "term/world.h"
#include "util/status.h"

// A database instance: a duplicate-free set of facts. Facts are normally
// ground (constants and nulls); the engine tolerates variables in facts
// because the chase reuses this storage with query variables as values.

namespace floq {

class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Adds a fact; returns true if it was new.
  bool Insert(const Atom& fact) { return index_.Insert(fact).second; }

  /// Adds many facts.
  void InsertAll(const std::vector<Atom>& facts) {
    for (const Atom& fact : facts) Insert(fact);
  }

  bool Contains(const Atom& fact) const { return index_.Contains(fact); }

  const FactIndex& index() const { return index_; }
  /// Mutable access for snapshot loads; the engines only ever read
  /// through index().
  FactIndex& mutable_index() { return index_; }
  FactIndex::AtomRange facts() const { return index_.atoms(); }
  uint32_t size() const { return index_.size(); }

  /// Facts of one predicate (ids into facts()).
  std::span<const uint32_t> FactsWith(PredicateId pred) const {
    return index_.WithPredicate(pred);
  }

  void Clear() { index_.Clear(); }

 private:
  FactIndex index_;
};

}  // namespace floq

#endif  // FLOQ_DATALOG_DATABASE_H_
