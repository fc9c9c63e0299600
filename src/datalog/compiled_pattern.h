#ifndef FLOQ_DATALOG_COMPILED_PATTERN_H_
#define FLOQ_DATALOG_COMPILED_PATTERN_H_

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "datalog/fact_index.h"
#include "datalog/match.h"
#include "term/atom.h"
#include "term/substitution.h"

// Pattern compilation for the homomorphism kernel, the one search behind
// MatchConjunction. Each search compiles its conjunction once instead of
// re-interpreting it at every backtracking node:
//
//   * pattern variables are renumbered to dense slots, so the search-time
//     substitution is a flat array + undo trail (binding_trail.h) instead
//     of a mutated hash map;
//   * every argument position is classified up front as a constant (its
//     image under the initial substitution), a first-occurrence variable,
//     or a repeated variable;
//   * posting lists for constant positions are resolved against the
//     FactIndex at compile time, so their hash probes are paid once per
//     search instead of once per node — and an empty constant list proves
//     the whole conjunction unmatchable before any node is expanded.
//
// See DESIGN.md §9 for the full kernel design.

namespace floq {

/// One compiled argument position.
struct CompiledArg {
  enum class Kind : uint8_t { kConstant, kSlot };
  Kind kind = Kind::kConstant;
  /// kSlot only: this slot already occurred at an earlier position of the
  /// same atom (p(X, X)), so unification always compares here.
  bool repeated_in_atom = false;
  uint32_t slot = 0;  // kSlot only
  Term value;         // kConstant only: the image under `initial`
};

/// One compiled pattern atom.
struct CompiledAtom {
  PredicateId predicate = kInvalidPredicate;
  uint8_t arity = 0;
  std::array<CompiledArg, kMaxArity> args;

  /// (position, slot) of each kSlot argument; when the slot is bound at
  /// runtime the (predicate, position, image) posting list applies.
  uint8_t num_slot_positions = 0;
  std::array<std::pair<uint8_t, uint32_t>, kMaxArity> slot_positions;

  /// Smallest of the predicate bucket and the constant-position lists
  /// (resolved at compile time, fixed for the whole search) — the
  /// candidate list before any slot is bound.
  std::span<const uint32_t> static_best;
};

class CompiledPattern {
 public:
  /// Compiles `pattern` against `index`: variables unbound in `initial`
  /// become dense slots; everything else becomes a constant. Constant-
  /// position index probes are charged to `stats->index_probes`.
  CompiledPattern(std::span<const Atom> pattern, const FactIndex& index,
                  const Substitution& initial, MatchStats* stats) {
    Compile(pattern, index, initial, stats);
  }

  /// An empty pattern, for reuse via Compile.
  CompiledPattern() = default;

  /// Recompiles in place, reusing vector capacity — the kernel keeps one
  /// CompiledPattern per thread so steady-state searches do not allocate.
  void Compile(std::span<const Atom> pattern, const FactIndex& index,
               const Substitution& initial, MatchStats* stats);

  const std::vector<CompiledAtom>& atoms() const { return atoms_; }
  uint32_t num_slots() const { return uint32_t(slot_vars_.size()); }
  /// The pattern variable a slot was renumbered from.
  Term slot_var(uint32_t slot) const { return slot_vars_[slot]; }
  /// True when some constant position has an empty posting list: no
  /// homomorphism exists and the search can be skipped entirely.
  bool impossible() const { return impossible_; }

 private:
  std::vector<CompiledAtom> atoms_;
  std::vector<Term> slot_vars_;
  bool impossible_ = false;
};

}  // namespace floq

#endif  // FLOQ_DATALOG_COMPILED_PATTERN_H_
