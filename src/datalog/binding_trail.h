#ifndef FLOQ_DATALOG_BINDING_TRAIL_H_
#define FLOQ_DATALOG_BINDING_TRAIL_H_

#include <cstdint>
#include <vector>

#include "term/term.h"
#include "util/check.h"

// Flat binding store for the compiled homomorphism kernel. Pattern
// variables are renumbered to dense slots by CompiledPattern, so the
// search-time substitution becomes a plain array of Terms indexed by slot
// plus an undo trail of slot ids — no hashing, no map mutation, no Erase.
// The invalid default-constructed Term is the "unbound" sentinel.

namespace floq {

class BindingTrail {
 public:
  BindingTrail() = default;
  explicit BindingTrail(size_t num_slots) { Reset(num_slots); }

  /// Re-initializes to `num_slots` unbound slots, reusing capacity (the
  /// kernel keeps one trail per thread across searches).
  void Reset(size_t num_slots) {
    bindings_.assign(num_slots, Term());
    trail_.clear();
    trail_.reserve(num_slots);
  }

  bool Bound(uint32_t slot) const { return bindings_[slot].valid(); }

  /// The image of `slot`; only meaningful when Bound(slot).
  Term Get(uint32_t slot) const { return bindings_[slot]; }

  /// Binds an *unbound* slot and records it for undo.
  void Bind(uint32_t slot, Term value) {
    FLOQ_CHECK(!bindings_[slot].valid());
    bindings_[slot] = value;
    trail_.push_back(slot);
  }

  /// Checkpoint for UndoTo: the current trail depth.
  size_t Mark() const { return trail_.size(); }

  /// Unbinds every slot bound since `mark` (most recent first).
  void UndoTo(size_t mark) {
    while (trail_.size() > mark) {
      bindings_[trail_.back()] = Term();
      trail_.pop_back();
    }
  }

  /// The slots bound so far, in binding order (the kernel reads the
  /// suffix since a mark to invalidate its selectivity cache before
  /// undoing).
  const std::vector<uint32_t>& trail() const { return trail_; }

  size_t num_slots() const { return bindings_.size(); }

 private:
  std::vector<Term> bindings_;
  std::vector<uint32_t> trail_;
};

}  // namespace floq

#endif  // FLOQ_DATALOG_BINDING_TRAIL_H_
