#include "datalog/match.h"

#include <algorithm>
#include <vector>

#include "datalog/compiled_pattern.h"
#include "util/metrics.h"

namespace floq {

namespace {

// Folds the search effort of one MatchConjunction call into the registry.
// The counters mirror MatchStats field for field so --metrics-out exposes
// the same series bench_hom_search reports. Called only when metrics are
// enabled; the instruments are cached in statics after the first call.
void FoldMatchMetrics(const MatchStats& before, const MatchStats& after,
                      bool used_kernel) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  static Counter& kernel_dispatch = registry.counter("match.kernel_dispatch");
  static Counter& interpreter_dispatch =
      registry.counter("match.interpreter_dispatch");
  static Counter& nodes = registry.counter("hom.nodes_visited");
  static Counter& matches = registry.counter("hom.matches_found");
  static Counter& probes = registry.counter("hom.index_probes");
  static Counter& rejects = registry.counter("hom.reject_prepass_hits");
  (used_kernel ? kernel_dispatch : interpreter_dispatch).Add(1);
  auto fold = [](Counter& c, uint64_t b, uint64_t a) {
    if (a > b) c.Add(a - b);
  };
  fold(nodes, before.nodes_visited, after.nodes_visited);
  fold(matches, before.matches_found, after.matches_found);
  fold(probes, before.index_probes, after.index_probes);
  fold(rejects, before.reject_prepass_hits, after.reject_prepass_hits);
}

// Per-call state for the legacy (interpreted, map-based) backtracking
// search. The production path is the compiled kernel in
// compiled_pattern.cc; this matcher is kept as the differential-testing
// and ablation baseline (MatchOptions::use_compiled_kernel = false).
class Matcher {
 public:
  Matcher(std::span<const Atom> pattern, const FactIndex& index,
          const Substitution& initial,
          FunctionRef<bool(const Substitution&)> on_match,
          MatchStats* stats, const MatchOptions& options)
      : pattern_(pattern),
        index_(index),
        subst_(initial),
        on_match_(on_match),
        stats_(stats),
        options_(options) {
    remaining_.reserve(pattern.size());
    for (uint32_t i = 0; i < pattern.size(); ++i) remaining_.push_back(i);
  }

  /// Returns false iff enumeration was stopped early by the callback.
  bool Run() { return Recurse(); }

 private:
  // Candidate fact ids for pattern atom `p` under the current bindings:
  // the smallest index list over the bound argument positions, or the
  // whole predicate bucket if no argument is bound.
  PostingView Candidates(const Atom& p) const {
    PostingView best = index_.WithPredicate(p.predicate());
    for (int i = 0; i < p.arity(); ++i) {
      Term arg = p.arg(i);
      // Unbound pattern variables constrain nothing; anything else (a
      // constant, a value variable, or a bound pattern variable's image)
      // pins the argument and its index applies. Lookup gives the image
      // in the same hash probe that decides boundness.
      const Term* image = subst_.Lookup(arg);
      if (arg.IsVariable() && image == nullptr) continue;
      if (stats_ != nullptr) ++stats_->index_probes;
      const PostingView ids = index_.WithArgument(
          p.predicate(), i, image != nullptr ? *image : arg);
      if (ids.size() < best.size()) best = ids;
    }
    return best;
  }

  bool Recurse() {
    if (stats_ != nullptr) ++stats_->nodes_visited;
    // A governor trip unwinds exactly like a callback stop: every frame
    // undoes its bindings and Run() reports the enumeration incomplete.
    if (options_.governor != nullptr && !options_.governor->Tick()) {
      return false;
    }
    if (remaining_.empty()) {
      if (stats_ != nullptr) ++stats_->matches_found;
      return on_match_(subst_);
    }

    // Most-constrained-first: pick the remaining atom with the fewest
    // candidates (or just the first one in the ablation configuration).
    size_t best_slot = 0;
    PostingView best_candidates;
    bool have_best = false;
    if (options_.most_constrained_first) {
      for (size_t slot = 0; slot < remaining_.size(); ++slot) {
        const PostingView ids = Candidates(pattern_[remaining_[slot]]);
        if (!have_best || ids.size() < best_candidates.size()) {
          best_candidates = ids;
          have_best = true;
          best_slot = slot;
          if (ids.empty()) return true;  // dead end, enumerate siblings
        }
      }
    } else {
      best_candidates = Candidates(pattern_[remaining_[0]]);
    }

    uint32_t atom_index = remaining_[best_slot];
    remaining_.erase(remaining_.begin() + best_slot);
    const Atom& p = pattern_[atom_index];

    bool keep_going = true;
    // The view is a value: candidate lists are stable (FactIndex is not
    // mutated during matching), and the cursor-backed iteration holds no
    // pointer into mutable index state.
    for (uint32_t fact_id : best_candidates) {
      if (options_.governor != nullptr && !options_.governor->Tick()) {
        keep_going = false;
        break;
      }
      const Atom& fact = index_.at(fact_id);
      std::vector<Term> bound_here;
      if (TryUnify(p, fact, bound_here)) {
        keep_going = Recurse();
      }
      for (Term var : bound_here) subst_.Erase(var);
      if (!keep_going) break;
    }

    remaining_.insert(remaining_.begin() + best_slot, atom_index);
    return keep_going;
  }

  // Attempts to extend subst_ so that it maps `p` onto `fact`. Newly bound
  // variables are appended to `bound_here` for undo.
  //
  // Only variables occurring *syntactically* in the pattern are bindable.
  // The image of a binding may itself be a variable (chase conjuncts carry
  // the chased query's variables as values); such images are compared, not
  // rebound. Callers must therefore keep pattern variables disjoint from
  // the target's value variables (rename apart).
  bool TryUnify(const Atom& p, const Atom& fact,
                std::vector<Term>& bound_here) {
    for (int i = 0; i < p.arity(); ++i) {
      Term arg = p.arg(i);
      // One Lookup replaces the old Binds-then-Apply pair (two probes of
      // the same key). The pointer is not held across Bind.
      const Term* image = subst_.Lookup(arg);
      if (arg.IsVariable() && image == nullptr) {
        subst_.Bind(arg, fact.arg(i));
        bound_here.push_back(arg);
      } else if ((image != nullptr ? *image : arg) != fact.arg(i)) {
        for (Term var : bound_here) subst_.Erase(var);
        bound_here.clear();
        return false;
      }
    }
    return true;
  }

  std::span<const Atom> pattern_;
  const FactIndex& index_;
  Substitution subst_;
  FunctionRef<bool(const Substitution&)> on_match_;
  MatchStats* stats_;
  MatchOptions options_;
  std::vector<uint32_t> remaining_;
};

}  // namespace

bool MatchConjunction(std::span<const Atom> pattern, const FactIndex& index,
                      const Substitution& initial,
                      FunctionRef<bool(const Substitution&)> on_match,
                      MatchStats* stats, const MatchOptions& options) {
  // The compiled kernel renumbers pattern variables into uint16_t slots;
  // a pathological pattern could overflow that space (at most kMaxArity
  // distinct variables per atom), so route oversized conjunctions to the
  // interpreter, which has no slot limit.
  const bool use_kernel = options.use_compiled_kernel &&
                          pattern.size() < size_t(UINT16_MAX) / size_t(kMaxArity);

  // With metrics on, effort is folded into the registry once per call —
  // never per node. A caller-provided MatchStats is snapshotted so only
  // this call's delta lands; callers without one get a local stand-in.
  const bool metrics = MetricsRegistry::enabled();
  MatchStats local;
  MatchStats* effective = stats;
  if (metrics && effective == nullptr) effective = &local;
  const MatchStats before = effective != nullptr ? *effective : MatchStats{};

  bool complete =
      use_kernel
          ? MatchCompiled(pattern, index, initial, on_match, effective, options)
          : Matcher(pattern, index, initial, on_match, effective, options)
                .Run();
  if (metrics) FoldMatchMetrics(before, *effective, use_kernel);
  return complete;
}

bool FindFirstMatch(std::span<const Atom> pattern, const FactIndex& index,
                    const Substitution& initial, Substitution* out,
                    MatchStats* stats) {
  bool found = false;
  MatchConjunction(
      pattern, index, initial,
      [&](const Substitution& match) {
        found = true;
        if (out != nullptr) *out = match;
        return false;  // stop at the first match
      },
      stats);
  return found;
}

}  // namespace floq
