#ifndef FLOQ_TERM_PREDICATE_H_
#define FLOQ_TERM_PREDICATE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/interner.h"

// Predicates. The F-logic Lite encoding P_FL of the paper fixes six
// predicates (Section 2); user programs (the Datalog substrate, the RDF
// bridge) may register further ones. Predicate ids are dense uint32s,
// with the P_FL six occupying fixed ids 0..5 in every World.

namespace floq {

using PredicateId = uint32_t;

inline constexpr PredicateId kInvalidPredicate = ~0u;

/// Maximum predicate arity the engine supports. P_FL needs 3; the
/// headroom is for user predicates of dependency sets (e.g., reified
/// relations with a handful of roles).
inline constexpr int kMaxArity = 6;

// The fixed P_FL catalog (Section 2 of the paper).
namespace pfl {
inline constexpr PredicateId kMember = 0;     // member(O, C)    — O : C
inline constexpr PredicateId kSub = 1;        // sub(C1, C2)     — C1 :: C2
inline constexpr PredicateId kData = 2;       // data(O, A, V)   — O[A->V]
inline constexpr PredicateId kType = 3;       // type(O, A, T)   — O[A*=>T]
inline constexpr PredicateId kMandatory = 4;  // mandatory(A, O) — O[A{1:*}*=>_]
inline constexpr PredicateId kFunct = 5;      // funct(A, O)     — O[A{0:1}*=>_]
inline constexpr PredicateId kCount = 6;      // number of P_FL predicates

/// True if `id` is one of the six P_FL predicates.
inline bool IsPfl(PredicateId id) { return id < kCount; }
}  // namespace pfl

/// Registry of predicate names and arities. Every World owns one and
/// pre-registers the P_FL six.
class PredicateTable {
 public:
  PredicateTable();

  PredicateTable(const PredicateTable&) = delete;
  PredicateTable& operator=(const PredicateTable&) = delete;

  /// Returns the id for (name, arity), registering it if new. If `name`
  /// is already registered with a different arity, returns
  /// kInvalidPredicate (the caller reports the error).
  PredicateId Intern(std::string_view name, int arity);

  /// Returns the id for `name` or kInvalidPredicate if unknown.
  PredicateId Lookup(std::string_view name) const;

  const std::string& NameOf(PredicateId id) const;
  int ArityOf(PredicateId id) const;
  uint32_t size() const { return names_.size(); }

 private:
  StringInterner names_;
  std::vector<int> arities_;
};

}  // namespace floq

#endif  // FLOQ_TERM_PREDICATE_H_
