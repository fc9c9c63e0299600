#include "chase/chase.h"

#include <algorithm>
#include <charconv>
#include <set>
#include <span>
#include <unordered_set>

#include "chase/term_union_find.h"
#include "datalog/evaluator.h"
#include "datalog/match.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/trace.h"

namespace floq {

const char* ChaseOutcomeName(ChaseOutcome outcome) {
  switch (outcome) {
    case ChaseOutcome::kCompleted: return "COMPLETED";
    case ChaseOutcome::kLevelCapped: return "LEVEL_CAPPED";
    case ChaseOutcome::kBudgetExceeded: return "BUDGET_EXCEEDED";
    case ChaseOutcome::kInterrupted: return "INTERRUPTED";
    case ChaseOutcome::kFailed: return "FAILED";
  }
  return "?";
}

namespace {

// A TGD as the engine runs it.
struct ChaseTgd {
  const Tgd* tgd;
  RuleId id;
  // Head variables missing from the body; empty for a full TGD.
  std::vector<Term> existential;
};

// An EGD as the engine runs it. value_pos >= 0 marks the shape of a
// functional dependency, V = W :- R(x, V), R(x, W), guard: `key` is
// R(x, V) with V at value_pos, and `guard` holds the other body atoms
// (R(x, V) itself when there are none) and binds every variable of x.
// Each guard match then fixes one key, and all values R has at that key
// form one class.
struct ChaseEgd {
  const Egd* egd = nullptr;
  int value_pos = -1;
  Atom key;
  std::vector<Atom> guard;
};

// A TGD application found during a collection pass: the instantiated head
// (an existential TGD's head still carries its existential variables),
// the conjuncts the rule body mapped onto, and the level the new conjunct
// would get (Definition 3(3)).
struct PendingTgd {
  const ChaseTgd* tgd;
  Atom head;
  std::vector<uint32_t> parents;
  int level;
};

bool Contains(std::span<const Term> terms, Term t) {
  return std::find(terms.begin(), terms.end(), t) != terms.end();
}

int Occurrences(std::span<const Atom> atoms, Term t) {
  int count = 0;
  for (const Atom& atom : atoms) {
    for (Term u : atom) count += u == t ? 1 : 0;
  }
  return count;
}

// True iff `fact` matches `pattern`, whose `wildcards` match any term
// (consistently where one repeats) and whose other terms match themselves.
bool Matches(const Atom& pattern, const Atom& fact,
             std::span<const Term> wildcards) {
  for (int i = 0; i < pattern.arity(); ++i) {
    Term t = pattern.arg(i);
    if (!Contains(wildcards, t)) {
      if (t != fact.arg(i)) return false;
      continue;
    }
    for (int j = 0; j < i; ++j) {
      if (pattern.arg(j) == t && fact.arg(j) != fact.arg(i)) return false;
    }
  }
  return true;
}

// True iff `fact` agrees with `key` everywhere but at `value_pos`.
bool SameKey(const Atom& key, const Atom& fact, int value_pos) {
  for (int i = 0; i < key.arity(); ++i) {
    if (i != value_pos && key.arg(i) != fact.arg(i)) return false;
  }
  return true;
}

// Chase-graph rule id of tgds[index]: Sigma_FL's rules carry their paper
// number in their name ("rho5"); user TGDs get 1000 + index.
RuleId TgdRuleId(const Tgd& tgd, size_t index) {
  const std::string& name = tgd.name;
  const char* end = name.data() + name.size();
  int k = 0;
  if (name.starts_with("rho") &&
      std::from_chars(name.data() + 3, end, k).ptr == end && k >= kRho1 &&
      k <= kRho12) {
    return RuleId(k);
  }
  return RuleId(1000 + int(index));
}

ChaseEgd CompileEgd(const Egd& egd) {
  ChaseEgd out;
  out.egd = &egd;
  if (!egd.left.IsVariable() || !egd.right.IsVariable() ||
      Occurrences(egd.body, egd.left) != 1 ||
      Occurrences(egd.body, egd.right) != 1) {
    return out;
  }
  // Look for the two R atoms: they agree everywhere except at one
  // position, where one holds V and the other W.
  for (size_t i = 0; i < egd.body.size(); ++i) {
    for (size_t j = i + 1; j < egd.body.size(); ++j) {
      const Atom& a = egd.body[i];
      const Atom& b = egd.body[j];
      if (a.predicate() != b.predicate()) continue;
      int differ = -1;
      int differences = 0;
      for (int p = 0; p < a.arity(); ++p) {
        if (a.arg(p) != b.arg(p)) {
          differ = p;
          ++differences;
        }
      }
      if (differences != 1) continue;
      const Term x = a.arg(differ);
      const Term y = b.arg(differ);
      if (!(x == egd.left && y == egd.right) &&
          !(x == egd.right && y == egd.left)) {
        continue;
      }
      for (size_t k = 0; k < egd.body.size(); ++k) {
        if (k != i && k != j) out.guard.push_back(egd.body[k]);
      }
      if (out.guard.empty()) out.guard.push_back(a);
      for (Term t : a) {
        if (t.IsVariable() && t != a.arg(differ) &&
            Occurrences(out.guard, t) == 0) {
          out.guard.clear();  // the guard leaves part of the key open
          return out;
        }
      }
      out.key = a;
      out.value_pos = differ;
      return out;
    }
  }
  return out;
}

// Folds the difference between two stats snapshots (plus the run's final
// shape) into the process-wide MetricsRegistry at the end of every
// run/resume. No-op when metrics are disabled.
void FoldChaseMetrics(const ChaseStats& before, const ChaseStats& after,
                      const ChaseResult& result) {
  if (!MetricsRegistry::enabled()) return;
  MetricsRegistry& registry = MetricsRegistry::Get();
  // All twelve rule counters are registered eagerly (not on first firing)
  // so a metrics export always carries the full rho_1..rho_12 series,
  // zeros included.
  static const std::array<Counter*, 13>& rules = *[] {
    auto* out = new std::array<Counter*, 13>{};
    for (int k = 1; k <= 12; ++k) {
      (*out)[size_t(k)] =
          &MetricsRegistry::Get().counter(StrCat("chase.rule.rho", k));
    }
    return out;
  }();
  for (int k = 1; k <= 12; ++k) {
    uint64_t fired =
        after.rule_fired[size_t(k)] - before.rule_fired[size_t(k)];
    if (fired > 0) rules[size_t(k)]->Add(fired);
  }

  static Counter& runs = registry.counter("chase.runs");
  static Counter& rounds = registry.counter("chase.rounds");
  static Counter& applications = registry.counter("chase.tgd_applications");
  static Counter& nulls = registry.counter("chase.fresh_nulls");
  static Counter& merges = registry.counter("chase.egd_merges");
  static Counter& rebuilds = registry.counter("chase.rebuilds");
  runs.Add(1);
  if (after.rounds > before.rounds) rounds.Add(after.rounds - before.rounds);
  if (after.tgd_applications > before.tgd_applications) {
    applications.Add(after.tgd_applications - before.tgd_applications);
  }
  if (after.fresh_nulls > before.fresh_nulls) {
    nulls.Add(after.fresh_nulls - before.fresh_nulls);
  }
  if (after.egd_merges > before.egd_merges) {
    merges.Add(after.egd_merges - before.egd_merges);
  }
  if (after.rebuilds > before.rebuilds) {
    rebuilds.Add(after.rebuilds - before.rebuilds);
  }

  static Histogram& level = registry.histogram("chase.max_level");
  static Histogram& conjuncts = registry.histogram("chase.conjuncts");
  level.Record(uint64_t(std::max(result.max_level(), 0)));
  conjuncts.Record(result.size());
}

}  // namespace

class ChaseEngine {
 public:
  // The compiled rules point into the rule vectors of `dependencies`, so
  // those vectors must outlive the engine (moving the set keeps them).
  ChaseEngine(World& world, const DependencySet& dependencies,
              const ChaseOptions& options)
      : world_(world), options_(options) {
    for (size_t i = 0; i < dependencies.tgds.size(); ++i) {
      const Tgd& tgd = dependencies.tgds[i];
      ChaseTgd compiled{&tgd, TgdRuleId(tgd, i), tgd.ExistentialVariables()};
      (compiled.existential.empty() ? full_tgds_ : existential_tgds_)
          .push_back(std::move(compiled));
    }
    egds_.reserve(dependencies.egds.size());
    for (const Egd& egd : dependencies.egds) {
      egds_.push_back(CompileEgd(egd));
    }
  }

  void Run(std::span<const Atom> initial, const std::vector<Term>& head,
           ExecGovernor* governor = nullptr) {
    TraceSpan span("chase.run");
    const ChaseStats before = result_.stats_;
    // The head comes first: a run the atom budget stops while seeding
    // still has one, and the hom search seeds from it.
    result_.head_ = head;
    // Initial conjuncts at level 0. Inserted before the governor is
    // armed: a resumed run cannot re-seed them, so they must all be
    // present before any trip can stop the engine.
    for (const Atom& atom : initial) {
      if (!InsertNode(atom, 0, kRho0, {})) return Finish(span, before);
    }
    SetGovernor(governor);
    Advance();
    Finish(span, before);
  }

  /// Resumes a kLevelCapped chase with a deeper level cap, or an
  /// interrupted chase at any level. Instances that were deferred beyond
  /// the old cap (or lost when a governor tripped mid-batch) are no longer
  /// in any delta window, so the first resumed collection rescans the
  /// whole instance. No-op on completed, failed, or budget-exhausted
  /// chases. `governor`, when non-null, bounds this resume only.
  void Deepen(int new_max_level, ExecGovernor* governor = nullptr) {
    ChaseOutcome outcome = result_.outcome_;
    if (outcome == ChaseOutcome::kLevelCapped) {
      if (new_max_level <= options_.max_level) return;
    } else if (outcome != ChaseOutcome::kInterrupted) {
      return;
    }
    TraceSpan span("chase.deepen");
    const ChaseStats before = result_.stats_;
    options_.max_level = std::max(options_.max_level, new_max_level);
    SetGovernor(governor);
    full_recheck_ = true;
    delta_.clear();
    Advance();
    Finish(span, before);
  }

  /// Marks a kLevelCapped chase as out of atoms without running it, when
  /// a deeper chase of the same query already ran out.
  void MarkBudgetExceeded() {
    result_.outcome_ = ChaseOutcome::kBudgetExceeded;
  }

  const ChaseResult& result() const { return result_; }
  ChaseResult TakeResult() { return std::move(result_); }
  int level_cap() const { return options_.max_level; }

 private:
  void SetGovernor(ExecGovernor* governor) {
    governor_ = governor != nullptr ? governor : options_.governor;
    match_options_.governor = governor_;
  }

  // True when the governor has tripped. Latches kInterrupted and arms a
  // full rescan: a trip can lose pending applications mid-batch (they are
  // in no delta window afterwards), so a resumed run must re-collect from
  // the whole instance.
  bool Interrupted() {
    if (governor_ == nullptr || governor_->CheckNow()) return false;
    result_.outcome_ = ChaseOutcome::kInterrupted;
    full_recheck_ = true;
    return true;
  }

  // Counts one unit of work; false (with kInterrupted latched as above)
  // once the governor has tripped.
  bool Tick() {
    if (governor_ == nullptr || governor_->Tick()) return true;
    result_.outcome_ = ChaseOutcome::kInterrupted;
    full_recheck_ = true;
    return false;
  }

  // Drives the chase from wherever it stopped: phase A (the full TGDs —
  // Sigma_FL^- for Sigma_FL) to fixpoint, then phase B under the current
  // level cap. First call and resumed calls share this path; phase A is
  // skipped once it has completed.
  void Advance() {
    // Always reach the EGD fixpoint first: a resumed run may have been
    // interrupted mid-merge, and quiescence detection assumes an
    // EGD-saturated instance. At fixpoint this is one cheap scan.
    if (!EgdFixpoint()) return Seal();

    if (!preliminary_done_) {
      // Phase A: saturate the full TGDs (EGDs interleaved); everything
      // stays at level 0.
      for (;;) {
        if (Interrupted()) return Seal();
        DeltaWindow window = TakeDelta();
        std::vector<PendingTgd> pending;
        CollectTgds(full_tgds_, window, /*level_zero=*/true, pending);
        if (pending.empty()) break;
        for (PendingTgd& p : pending) {
          if (!ApplyFull(p)) return Seal();
        }
        if (!EgdFixpoint()) return Seal();
        ++result_.stats_.rounds;
      }
      // An empty collection pass under a tripped governor is truncation,
      // not fixpoint — do not advance the phase marker.
      if (Interrupted()) return Seal();
      preliminary_done_ = true;
      // Phase B: the existential TGDs join in and levels grow. They have
      // not seen the level-0 instance yet, so rescan.
      full_recheck_ = true;
      delta_.clear();
    }
    RunCyclic();
  }

  // Runs phase B until quiescence under the current level cap, setting the
  // outcome (kCompleted if nothing applicable remains anywhere,
  // kLevelCapped if instances beyond the cap were deferred).
  void RunCyclic() {
    bool saw_beyond_cap = false;
    auto drop_beyond_cap = [&](std::vector<PendingTgd>& pending) {
      std::erase_if(pending, [&](const PendingTgd& p) {
        const bool beyond = p.level > options_.max_level;
        saw_beyond_cap |= beyond;
        return beyond;
      });
    };
    for (;;) {
      if (Interrupted()) return Seal();
      DeltaWindow window = TakeDelta();
      std::vector<PendingTgd> full;
      std::vector<PendingTgd> existential;
      CollectTgds(full_tgds_, window, /*level_zero=*/false, full);
      CollectTgds(existential_tgds_, window, /*level_zero=*/false,
                  existential);
      drop_beyond_cap(full);
      drop_beyond_cap(existential);

      if (full.empty() && existential.empty()) {
        // A trip during collection truncates the pending sets; re-check
        // before declaring quiescence.
        if (Interrupted()) return Seal();
        result_.outcome_ = saw_beyond_cap ? ChaseOutcome::kLevelCapped
                                          : ChaseOutcome::kCompleted;
        return Seal();
      }

      for (PendingTgd& p : full) {
        if (!ApplyFull(p)) return Seal();
      }
      for (PendingTgd& p : existential) {
        if (!ApplyExistential(p)) return Seal();
      }
      if (!EgdFixpoint()) return Seal();
      ++result_.stats_.rounds;
      // Beyond-cap instances remain applicable; they will be re-collected
      // only while their body atoms stay in the delta window, so remember
      // that we saw them.
    }
  }
  FactIndex& index() { return result_.conjuncts_; }

  // ---- node insertion -------------------------------------------------

  // Returns false if the atom budget is exhausted or the governor tripped
  // (outcome set).
  bool InsertNode(const Atom& atom, int level, RuleId rule,
                  std::vector<uint32_t> parents) {
    if (!Tick()) return false;
    auto [id, inserted] = index().Insert(atom);
    if (!inserted) return true;
    FLOQ_CHECK_EQ(id, result_.meta_.size());
    result_.meta_.push_back(ChaseNodeMeta{level, rule, std::move(parents)});
    result_.max_level_ = std::max(result_.max_level_, level);
    delta_.push_back(atom);
    if (rule != kRho0) ++result_.stats_.tgd_applications;
    if (rule > kRho0 && rule <= kRho12) {
      ++result_.stats_.rule_fired[size_t(rule)];
    }
    if (index().size() > options_.max_atoms) {
      result_.outcome_ = ChaseOutcome::kBudgetExceeded;
      return false;
    }
    return true;
  }

  bool ApplyFull(PendingTgd& p) {
    if (uint32_t existing = index().IdOf(p.head);
        existing != kInvalidFactId) {
      // Another application in this batch got there first: by
      // Definition 3(4) this is a cross-arc situation.
      RecordCrossArcs(p.parents, existing, p.tgd->id);
      return true;
    }
    return InsertNode(p.head, p.level, p.tgd->id, std::move(p.parents));
  }

  bool ApplyExistential(PendingTgd& p) {
    const ChaseTgd& tgd = *p.tgd;
    // Re-check the restriction against the current instance: an earlier
    // application in this batch may have satisfied the head.
    if (uint32_t blocker = FindMatch(p.head, tgd.existential);
        blocker != kInvalidFactId) {
      RecordCrossArcs(p.parents, blocker, tgd.id);
      return true;
    }
    Atom head = p.head;
    for (Term var : tgd.existential) {
      Term fresh = world_.MakeFreshNull();
      ++result_.stats_.fresh_nulls;
      for (int i = 0; i < head.arity(); ++i) {
        if (head.arg(i) == var) head.set_arg(i, fresh);
      }
    }
    return InsertNode(head, p.level, tgd.id, std::move(p.parents));
  }

  // The conjuncts that may match `pattern` (wildcards as in Matches): the
  // shortest posting list among its non-wildcard positions.
  std::span<const uint32_t> Candidates(const Atom& pattern,
                                       std::span<const Term> wildcards) const {
    const FactIndex& idx = result_.conjuncts_;
    std::span<const uint32_t> best = idx.WithPredicate(pattern.predicate());
    for (int i = 0; i < pattern.arity(); ++i) {
      if (Contains(wildcards, pattern.arg(i))) continue;
      const std::span<const uint32_t> ids =
          idx.WithArgument(pattern.predicate(), i, pattern.arg(i));
      if (ids.size() < best.size()) best = ids;
    }
    return best;
  }

  // Id of the first conjunct matching `pattern`, or kInvalidFactId.
  uint32_t FindMatch(const Atom& pattern,
                     std::span<const Term> wildcards) const {
    for (uint32_t id : Candidates(pattern, wildcards)) {
      if (Matches(pattern, result_.conjuncts_.at(id), wildcards)) return id;
    }
    return kInvalidFactId;
  }

  void RecordCrossArcs(const std::vector<uint32_t>& from, uint32_t to,
                       RuleId rule) {
    if (!options_.record_cross_arcs) return;
    for (uint32_t f : from) {
      uint64_t key = (uint64_t(f) << 32) | to;
      if (cross_seen_.insert({key, rule}).second) {
        result_.cross_arcs_.push_back(ChaseArc{f, to, rule, /*cross=*/true});
      }
    }
  }

  // ---- TGD collection --------------------------------------------------

  // The set of conjuncts added since the previous collection pass, or a
  // request to rescan everything (initially and after EGD rebuilds).
  struct DeltaWindow {
    bool full = false;
    std::vector<Atom> atoms;
  };

  DeltaWindow TakeDelta() {
    DeltaWindow window;
    window.full = full_recheck_;
    if (!window.full) window.atoms = std::move(delta_);
    delta_.clear();
    full_recheck_ = false;
    return window;
  }

  // Appends every applicable instance of `rules` to `pending`: the body
  // matches and the head is not yet satisfied (a full TGD's head is
  // absent; no conjunct matches an existential TGD's head).
  // With a delta window, only instances using at least one conjunct added
  // since the previous collection are searched — applicability is
  // monotone, so older instances were found earlier.
  void CollectTgds(const std::vector<ChaseTgd>& rules,
                   const DeltaWindow& window, bool level_zero,
                   std::vector<PendingTgd>& pending) {
    std::unordered_set<Atom, AtomHash> pending_heads;

    auto consider = [&](const ChaseTgd& tgd, const Substitution& match) {
      Atom head = match.Apply(tgd.tgd->head);
      std::vector<uint32_t> parents;
      parents.reserve(tgd.tgd->body.size());
      int level = 0;
      for (const Atom& body_atom : tgd.tgd->body) {
        uint32_t id = index().IdOf(match.Apply(body_atom));
        FLOQ_CHECK_NE(id, kInvalidFactId);
        parents.push_back(id);
        level = std::max(level, result_.meta_[id].level);
      }
      if (tgd.existential.empty()) {
        if (uint32_t existing = index().IdOf(head);
            existing != kInvalidFactId) {
          RecordCrossArcs(parents, existing, tgd.id);
          return;
        }
        if (!pending_heads.insert(head).second) return;
      } else {
        if (!pending_heads.insert(head).second) return;
        if (uint32_t blocker = FindMatch(head, tgd.existential);
            blocker != kInvalidFactId) {
          RecordCrossArcs(parents, blocker, tgd.id);
          return;
        }
      }
      pending.push_back(PendingTgd{&tgd, std::move(head), std::move(parents),
                                   level_zero ? 0 : level + 1});
    };

    for (const ChaseTgd& tgd : rules) {
      const std::vector<Atom>& body = tgd.tgd->body;
      auto on_match = [&](const Substitution& match) {
        consider(tgd, match);
        return true;
      };
      if (window.full) {
        MatchConjunction(body, index(), Substitution(), on_match,
                         /*stats=*/nullptr, match_options_);
        continue;
      }
      // Pin each body atom in turn to a delta conjunct and match the rest.
      for (size_t pivot = 0; pivot < body.size(); ++pivot) {
        rest_.assign(body.begin(), body.end());
        rest_.erase(rest_.begin() + pivot);
        for (const Atom& fact : window.atoms) {
          Substitution subst;
          if (!TryUnifyAtom(body[pivot], fact, subst)) continue;
          MatchConjunction(rest_, index(), subst, on_match,
                           /*stats=*/nullptr, match_options_);
        }
      }
    }
  }

  // ---- EGDs -------------------------------------------------------------

  // Applies the EGDs to exhaustion (chase step (a) of Definition 2),
  // rebuilding the instance after every pass that merged terms.
  bool EgdFixpoint() {
    for (;;) {
      if (Interrupted()) return false;
      const uint64_t merges = uf_.merge_count();
      for (const ChaseEgd& egd : egds_) {
        if (!(egd.value_pos >= 0 ? MergeKeys(egd) : MergeMatches(egd))) {
          return false;
        }
      }
      if (uf_.merge_count() == merges) return true;
      result_.stats_.egd_merges = uf_.merge_count();
      Rebuild();
    }
  }

  // A functional-dependency EGD: for each key a guard match fixes, merge
  // every value R has there into the first one, instead of enumerating
  // the quadratic set of homomorphisms of the body.
  bool MergeKeys(const ChaseEgd& egd) {
    for (const Atom& atom : egd.guard) {
      if (index().WithPredicate(atom.predicate()).empty()) return true;
    }
    const Term value = egd.key.arg(egd.value_pos);
    std::unordered_set<Atom, AtomHash> keys;
    bool ok = true;
    MatchConjunction(
        egd.guard, index(), Substitution(),
        [&](const Substitution& match) {
          if (!Tick()) return ok = false;
          Atom key = match.Apply(egd.key);
          key.set_arg(egd.value_pos, value);
          if (!keys.insert(key).second) return true;
          Term first;
          for (uint32_t id : Candidates(key, {&value, 1})) {
            const Atom& fact = index().at(id);
            if (!SameKey(key, fact, egd.value_pos)) continue;
            if (!first.valid()) {
              first = fact.arg(egd.value_pos);
            } else if (!Merge(first, fact.arg(egd.value_pos))) {
              return ok = false;
            }
          }
          return true;
        },
        /*stats=*/nullptr, match_options_);
    return ok && !Interrupted();
  }

  // Any other EGD: equate left and right under every body match.
  bool MergeMatches(const ChaseEgd& egd) {
    bool ok = true;
    MatchConjunction(
        egd.egd->body, index(), Substitution(),
        [&](const Substitution& match) {
          return ok = Merge(match.Apply(egd.egd->left),
                            match.Apply(egd.egd->right));
        },
        /*stats=*/nullptr, match_options_);
    return ok && !Interrupted();
  }

  // Equates two terms; false (kFailed) when both are distinct constants.
  bool Merge(Term a, Term b) {
    if (uf_.Merge(a, b, world_).ok()) return true;
    result_.outcome_ = ChaseOutcome::kFailed;
    return false;
  }

  // Rewrites every conjunct, the head, and the graph metadata through the
  // union-find, collapsing conjuncts that become equal.
  void Rebuild() {
    ++result_.stats_.rebuilds;
    FactIndex old_index = std::move(result_.conjuncts_);
    std::vector<ChaseNodeMeta> old_meta = std::move(result_.meta_);
    result_.conjuncts_ = FactIndex();
    result_.meta_.clear();

    std::vector<uint32_t> remap(old_index.size());
    for (uint32_t i = 0; i < old_index.size(); ++i) {
      Atom atom = Canonicalize(old_index.at(i));
      auto [id, inserted] = result_.conjuncts_.Insert(atom);
      remap[i] = id;
      ChaseNodeMeta meta = std::move(old_meta[i]);
      for (uint32_t& parent : meta.parents) parent = remap[parent];
      if (inserted) {
        result_.meta_.push_back(std::move(meta));
      } else {
        // Two conjuncts collapsed; the earlier generation wins, the later
        // one's derivation becomes cross-arcs.
        result_.meta_[id].level = std::min(result_.meta_[id].level, meta.level);
        RecordCrossArcs(meta.parents, id, meta.rule);
      }
    }

    for (ChaseArc& arc : result_.cross_arcs_) {
      arc.from = remap[arc.from];
      arc.to = remap[arc.to];
    }
    for (Term& t : result_.head_) t = uf_.Find(t);

    result_.max_level_ = 0;
    for (const ChaseNodeMeta& meta : result_.meta_) {
      result_.max_level_ = std::max(result_.max_level_, meta.level);
    }

    delta_.clear();
    full_recheck_ = true;
  }

  Atom Canonicalize(const Atom& atom) {
    Atom out = atom;
    for (int i = 0; i < atom.arity(); ++i) out.set_arg(i, uf_.Find(atom.arg(i)));
    return out;
  }

  void Seal() { result_.stats_.egd_merges = uf_.merge_count(); }

  // End-of-run observability: annotates the surrounding span with the
  // final shape and folds the stats delta of this Run/Deepen call into
  // the registry. Both are no-ops with no sink installed.
  void Finish(TraceSpan& span, const ChaseStats& before) {
    Seal();  // idempotent; covers early returns that bypass Advance()
    if (span.active()) {
      span.Arg("outcome", ChaseOutcomeName(result_.outcome_))
          .Arg("conjuncts", int64_t(result_.conjuncts_.size()))
          .Arg("max_level", int64_t(result_.max_level_))
          .Arg("level_cap", int64_t(options_.max_level));
    }
    FoldChaseMetrics(before, result_.stats_, result_);
  }

  World& world_;
  ChaseOptions options_;
  std::vector<ChaseTgd> full_tgds_;
  std::vector<ChaseTgd> existential_tgds_;
  std::vector<ChaseEgd> egds_;
  ChaseResult result_;
  TermUnionFind uf_;
  std::vector<Atom> delta_;
  // Scratch for CollectTgds: a rule body without its pinned atom.
  std::vector<Atom> rest_;
  // Governor of the current Run/Deepen call (not owned; see SetGovernor).
  ExecGovernor* governor_ = nullptr;
  MatchOptions match_options_;
  bool preliminary_done_ = false;
  bool full_recheck_ = true;
  std::set<std::pair<uint64_t, RuleId>> cross_seen_;
};

uint32_t ChaseResult::CountUpToLevel(int level) const {
  uint32_t count = 0;
  for (const ChaseNodeMeta& meta : meta_) {
    if (meta.level <= level) ++count;
  }
  return count;
}

std::vector<ChaseArc> ChaseResult::Arcs() const {
  std::vector<ChaseArc> arcs;
  for (uint32_t id = 0; id < meta_.size(); ++id) {
    for (uint32_t parent : meta_[id].parents) {
      arcs.push_back(ChaseArc{parent, id, meta_[id].rule, /*cross=*/false});
    }
  }
  arcs.insert(arcs.end(), cross_arcs_.begin(), cross_arcs_.end());
  return arcs;
}

std::string ChaseResult::DebugString(const World& world) const {
  std::string out = StrCat("chase: ", ChaseOutcomeName(outcome_), ", ",
                           size(), " conjuncts, max level ", max_level_, "\n");
  for (uint32_t id = 0; id < size(); ++id) {
    const ChaseNodeMeta& m = meta_[id];
    out += StrCat("  [", id, "] L", m.level, " ",
                  conjuncts_.at(id).ToString(world));
    if (m.rule != kRho0) {
      out += StrCat("  (rho_", int(m.rule), " from");
      for (uint32_t parent : m.parents) out += StrCat(" ", parent);
      out += ")";
    }
    out += '\n';
  }
  return out;
}

ChaseResult ChaseQuery(World& world, const ConjunctiveQuery& query,
                       const ChaseOptions& options) {
  return ChaseQuery(world, query, MakeSigmaFLDependencies(world), options);
}

ChaseResult ChaseQuery(World& world, const ConjunctiveQuery& query,
                       const DependencySet& dependencies,
                       const ChaseOptions& options) {
  ChaseEngine engine(world, dependencies, options);
  engine.Run(query.body(), query.head());
  return engine.TakeResult();
}

ChaseResult ChaseFacts(World& world, const std::vector<Atom>& facts,
                       const DependencySet& dependencies,
                       const ChaseOptions& options) {
  ChaseEngine engine(world, dependencies, options);
  engine.Run(facts, {});
  return engine.TakeResult();
}

ChaseResult ChaseLevelZero(World& world, const ConjunctiveQuery& query,
                           const ChaseOptions& options) {
  ChaseOptions level_zero = options;
  level_zero.max_level = 0;
  return ChaseQuery(world, query, level_zero);
}

// ---- ResumableChase ---------------------------------------------------------

ResumableChase::ResumableChase(World& world, const ConjunctiveQuery& query,
                               const DependencySet& dependencies,
                               const ChaseOptions& options)
    : world_(&world),
      query_(query),
      dependencies_(&dependencies),
      options_(options) {}

ResumableChase::~ResumableChase() = default;
ResumableChase::ResumableChase(ResumableChase&&) noexcept = default;
ResumableChase& ResumableChase::operator=(ResumableChase&&) noexcept = default;

const ChaseResult& ResumableChase::EnsureLevel(int level,
                                               ExecGovernor* governor) {
  if (engine_ == nullptr) {
    engine_ = RunFresh(level, governor);
    return engine_->result();
  }
  switch (engine_->result().outcome()) {
    case ChaseOutcome::kCompleted:
    case ChaseOutcome::kFailed:
      return engine_->result();  // nothing deeper exists or can be computed
    case ChaseOutcome::kLevelCapped:
      if (level <= engine_->level_cap()) return engine_->result();
      if (level >= exhausted_level_) {
        // A chase this deep ran out of atoms before, and would again.
        engine_->MarkBudgetExceeded();
        return engine_->result();
      }
      break;
    case ChaseOutcome::kBudgetExceeded:
      // A deeper run ran out of atoms before this level was complete. A
      // chase to this level alone may fit the budget: keep it if it does.
      if (level > complete_level_ && level < exhausted_level_) {
        std::unique_ptr<ChaseEngine> fresh = RunFresh(level, governor);
        const ChaseOutcome outcome = fresh->result().outcome();
        if (outcome != ChaseOutcome::kBudgetExceeded &&
            outcome != ChaseOutcome::kInterrupted) {
          engine_ = std::move(fresh);
        }
      }
      return engine_->result();
    case ChaseOutcome::kInterrupted:
      break;  // incomplete even at its cap: always resume
  }
  engine_->Deepen(level, governor);
  ++deepen_count_;
  NoteLevels(*engine_);
  return engine_->result();
}

std::unique_ptr<ChaseEngine> ResumableChase::RunFresh(int level,
                                                      ExecGovernor* governor) {
  ChaseOptions run_options = options_;
  run_options.max_level = level;
  auto engine =
      std::make_unique<ChaseEngine>(*world_, *dependencies_, run_options);
  engine->Run(query_.body(), query_.head(), governor);
  ++run_count_;
  NoteLevels(*engine);
  return engine;
}

void ResumableChase::NoteLevels(const ChaseEngine& engine) {
  const ChaseOutcome outcome = engine.result().outcome();
  if (outcome == ChaseOutcome::kCompleted) {
    complete_level_ = std::numeric_limits<int>::max();
  } else if (outcome == ChaseOutcome::kLevelCapped) {
    complete_level_ = engine.level_cap();
  } else if (outcome == ChaseOutcome::kBudgetExceeded) {
    exhausted_level_ = std::min(exhausted_level_, engine.level_cap());
  }
}

const ChaseResult& ResumableChase::result() const {
  FLOQ_CHECK(started());
  return engine_->result();
}

}  // namespace floq
