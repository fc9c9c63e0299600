#ifndef FLOQ_TERM_WORLD_H_
#define FLOQ_TERM_WORLD_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "term/predicate.h"
#include "term/source_span.h"
#include "term/term.h"
#include "util/interner.h"

// A World owns the symbol universe for a family of queries, chases, and
// databases: the names of constants and variables, the supply of fresh
// nulls, and the predicate registry. Everything that must be compared
// (queries in a containment check, a query and a database) must live in
// the same World.
//
// Threads: const reads may run concurrently while nothing interns, and
// MakeFreshNull may run concurrently with them and with itself; every
// other mutation needs the World to itself.

namespace floq {

class World {
 public:
  World() = default;

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Interns a named constant.
  Term MakeConstant(std::string_view name) {
    return Term::Constant(constants_.Intern(name));
  }

  /// Interns a named variable.
  Term MakeVariable(std::string_view name) {
    return Term::Variable(variables_.Intern(name));
  }

  /// Creates a fresh labeled null. Nulls are ordered by creation, matching
  /// the paper's requirement that each fresh value "lexicographically
  /// follows all other constants in the segment of the chase constructed
  /// so far (but still precedes all variables)". The only World member
  /// concurrent chases may call: nulls stay globally unique, and the nulls
  /// one chase draws rise in the order it draws them, which is all the
  /// chase order compares (the nulls of one chase only meet each other).
  Term MakeFreshNull() {
    return Term::Null(null_count_.fetch_add(1, std::memory_order_relaxed));
  }

  /// Creates a fresh variable never seen before (for `_` in the surface
  /// syntax and for renaming queries apart). The generated "_G<n>" names
  /// are parseable, so printed queries round-trip.
  Term MakeFreshVariable() {
    for (;;) {
      std::string name = "_G" + std::to_string(fresh_variable_count_++);
      if (variables_.Lookup(name) == UINT32_MAX) {
        return Term::Variable(variables_.Intern(name));
      }
    }
  }

  /// Creates a fresh variable whose name ("$R<n>") no floq parser can
  /// produce, so it can never collide with any variable of any
  /// later-parsed query. Used for the variables of user dependency sets,
  /// whose identity must stay disjoint from all chase values (Sigma_FL's
  /// rules intern fixed "$" names instead; see chase/sigma_fl.h).
  Term MakeReservedVariable() {
    std::string name = "$R" + std::to_string(reserved_variable_count_++);
    return Term::Variable(variables_.Intern(name));
  }

  /// Human-readable name of any term (nulls render as "_#k").
  std::string NameOf(Term t) const {
    switch (t.kind()) {
      case Term::Kind::kConstant:
        return constants_.NameOf(t.index());
      case Term::Kind::kNull:
        return "_#" + std::to_string(t.index());
      case Term::Kind::kVariable:
        return variables_.NameOf(t.index());
    }
    return "?";
  }

  /// The chase order of Definition 2: all constants (lexicographically)
  /// precede all nulls (by creation) precede all variables
  /// (lexicographically). Returns true if `a` strictly precedes `b`.
  bool PrecedesInChaseOrder(Term a, Term b) const {
    if (a.kind() != b.kind()) return uint8_t(a.kind()) < uint8_t(b.kind());
    switch (a.kind()) {
      case Term::Kind::kConstant:
        return constants_.NameOf(a.index()) < constants_.NameOf(b.index());
      case Term::Kind::kNull:
        return a.index() < b.index();
      case Term::Kind::kVariable:
        return variables_.NameOf(a.index()) < variables_.NameOf(b.index());
    }
    return false;
  }

  PredicateTable& predicates() { return predicates_; }
  const PredicateTable& predicates() const { return predicates_; }

  /// Source spans recorded by the parsers (Atom/ConjunctiveQuery
  /// provenance ids index into this table).
  SpanTable& spans() { return spans_; }
  const SpanTable& spans() const { return spans_; }

  uint32_t constant_count() const { return constants_.size(); }
  uint32_t variable_count() const { return variables_.size(); }
  uint32_t null_count() const {
    return null_count_.load(std::memory_order_relaxed);
  }

  /// Fast-forwards the fresh-null supply so the next MakeFreshNull() is at
  /// least Null(count). Snapshot loading restores a saved World's null
  /// watermark this way; never rewinds.
  void AdvanceNullCounter(uint32_t count) {
    uint32_t current = null_count();
    while (count > current &&
           !null_count_.compare_exchange_weak(current, count,
                                              std::memory_order_relaxed)) {
    }
  }

 private:
  StringInterner constants_;
  StringInterner variables_;
  PredicateTable predicates_;
  SpanTable spans_;
  std::atomic<uint32_t> null_count_{0};
  uint32_t fresh_variable_count_ = 0;
  uint32_t reserved_variable_count_ = 0;
};

}  // namespace floq

#endif  // FLOQ_TERM_WORLD_H_
