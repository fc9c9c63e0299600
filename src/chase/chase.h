#ifndef FLOQ_CHASE_CHASE_H_
#define FLOQ_CHASE_CHASE_H_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "chase/sigma_fl.h"
#include "datalog/fact_index.h"
#include "query/conjunctive_query.h"
#include "term/world.h"
#include "util/deadline.h"

// The chase of a conjunctive meta-query (Definition 2 of the paper): one
// restricted chase engine that runs any DependencySet — Sigma_FL
// (sigma_fl.h) or a user set (dependencies.h). It is organized as in
// Section 4: a terminating preliminary phase saturates the full TGDs
// (for Sigma_FL, Sigma_FL^- = Sigma_FL - {rho_5}) with every conjunct at
// level 0, then the (possibly infinite) cyclic phase lets the existential
// TGDs invent fresh nulls while levels grow. EGDs are applied to
// exhaustion between rounds. The engine materializes the chase
// breadth-first, level by level, up to a caller-supplied level cap —
// Theorem 12 shows the cap |q2| * 2|q1| suffices for Sigma_FL containment.
//
// The rules' shapes select the engine's tactics: an EGD shaped like a
// functional dependency (V = W :- R(x, V), R(x, W), guard; rho_4 is one)
// merges the values of each key instead of enumerating its quadratic
// body; a full TGD checks its head with one hash lookup; an existential
// TGD checks its restriction by probing the shortest posting list of its
// non-existential head positions.
//
// Two entry points exist: the one-shot ChaseQuery below, and ResumableChase,
// a handle that keeps the engine state (FactIndex, delta frontier, level
// bookkeeping, union-find) alive so the materialized prefix can later be
// *deepened* from level k to k' > k without recomputing levels <= k. Batch
// workloads (ContainmentEngine) cache one handle per query and deepen it
// lazily to the largest level any containment pair demands.

namespace floq {

enum class ChaseOutcome {
  /// Fixpoint reached: the chase is finite and fully materialized.
  kCompleted,
  /// All conjuncts up to the level cap are materialized; deeper conjuncts
  /// exist but are not needed.
  kLevelCapped,
  /// The atom budget was exhausted before the level cap.
  kBudgetExceeded,
  /// A resource governor (deadline or cancellation; see util/deadline.h)
  /// stopped the run mid-materialization. Unlike kBudgetExceeded this is
  /// resumable: Deepen / EnsureLevel under a fresh governor picks up where
  /// the run stopped (the first resumed collection rescans the instance).
  kInterrupted,
  /// rho_4 tried to equate two distinct constants: the chase fails, i.e.
  /// the query has no answer on any database satisfying Sigma_FL.
  kFailed,
};

const char* ChaseOutcomeName(ChaseOutcome outcome);

struct ChaseOptions {
  /// Materialize conjuncts up to this level of the chase graph.
  int max_level = std::numeric_limits<int>::max();
  /// Hard cap on materialized conjuncts.
  uint64_t max_atoms = 1'000'000;
  /// Record cross-arcs (Definition 3(4)); costs extra bookkeeping.
  bool record_cross_arcs = false;
  /// Optional resource governor (not owned; must outlive the run). Checked
  /// at round boundaries and ticked per inserted conjunct; a trip stops
  /// the run with ChaseOutcome::kInterrupted. One-shot entry points
  /// (ChaseQuery, ChaseFacts) read it from here; ResumableChase instead
  /// takes a per-call governor in EnsureLevel so each resume can run under
  /// its caller's budget.
  ExecGovernor* governor = nullptr;
};

/// Per-conjunct provenance: generating rule and the conjuncts its body
/// mapped onto (the sources of the chase-graph arcs into this node).
struct ChaseNodeMeta {
  int level = 0;
  RuleId rule = kRho0;  // kRho0 = initial conjunct from body(q)
  std::vector<uint32_t> parents;
};

/// An arc of the chase graph G(q) (Definition 3).
struct ChaseArc {
  uint32_t from = 0;
  uint32_t to = 0;
  RuleId rule = kRho0;
  bool cross = false;  // Definition 3(4) cross-arc
};

struct ChaseStats {
  uint64_t rounds = 0;
  uint64_t tgd_applications = 0;
  uint64_t fresh_nulls = 0;
  uint64_t egd_merges = 0;
  uint64_t rebuilds = 0;
  /// Applications per Sigma_FL rule, indexed by RuleId (kRho1..kRho12;
  /// slot 0 is unused — initial conjuncts are not rule firings). User
  /// TGDs carry ids >= 1000 and are counted in tgd_applications only.
  std::array<uint64_t, 13> rule_fired{};
};

/// The materialized (prefix of the) chase, with the chase graph.
class ChaseResult {
 public:
  ChaseOutcome outcome() const { return outcome_; }
  bool failed() const { return outcome_ == ChaseOutcome::kFailed; }

  /// All materialized conjuncts with id-addressed metadata. Conjunct ids
  /// are dense [0, size()).
  const FactIndex& conjuncts() const { return conjuncts_; }
  uint32_t size() const { return conjuncts_.size(); }
  const Atom& conjunct(uint32_t id) const { return conjuncts_.at(id); }

  /// A no-op: posting lists have one representation, so there is nothing
  /// to freeze. perfbench/serve_workloads.cc:716 is its only caller; the
  /// next change to the benchmark deletes both.
  void FreezeConjuncts() {}
  const ChaseNodeMeta& meta(uint32_t id) const { return meta_[id]; }
  int LevelOf(uint32_t id) const { return meta_[id].level; }

  /// The head of the query as rewritten by the chase (rho_4 can rename
  /// head terms; Example 1 of the paper).
  const std::vector<Term>& head() const { return head_; }

  /// Highest level among materialized conjuncts.
  int max_level() const { return max_level_; }

  /// Number of conjuncts with level <= `level`.
  uint32_t CountUpToLevel(int level) const;

  /// All arcs of the chase graph: generation arcs from the per-node
  /// provenance plus recorded cross-arcs.
  std::vector<ChaseArc> Arcs() const;

  /// Primary arc test (Definition 3(5)): from level k to level k+1.
  bool IsPrimary(const ChaseArc& arc) const {
    return meta_[arc.to].level == meta_[arc.from].level + 1;
  }

  const ChaseStats& stats() const { return stats_; }

  /// Multi-line dump: one conjunct per line with level and provenance.
  std::string DebugString(const World& world) const;

 private:
  friend class ChaseEngine;

  ChaseOutcome outcome_ = ChaseOutcome::kCompleted;
  FactIndex conjuncts_;
  std::vector<ChaseNodeMeta> meta_;
  std::vector<ChaseArc> cross_arcs_;
  std::vector<Term> head_;
  int max_level_ = 0;
  ChaseStats stats_;
};

/// Chases `query` w.r.t. Sigma_FL. All terms must come from `world` (fresh
/// nulls are drawn from it). The body of the query is taken as the initial
/// database; its variables are treated as values throughout.
ChaseResult ChaseQuery(World& world, const ConjunctiveQuery& query,
                       const ChaseOptions& options = {});

/// Chases `query` w.r.t. a dependency set (e.g. a parsed user set). The
/// conjuncts derived by tgds[i] carry rule id 1000 + i, or the paper's
/// number for Sigma_FL's rules.
ChaseResult ChaseQuery(World& world, const ConjunctiveQuery& query,
                       const DependencySet& dependencies,
                       const ChaseOptions& options = {});

/// Chases a plain set of atoms (e.g. a ground database) w.r.t. a
/// dependency set; the result's head is empty.
ChaseResult ChaseFacts(World& world, const std::vector<Atom>& facts,
                       const DependencySet& dependencies,
                       const ChaseOptions& options = {});

class ChaseEngine;

/// A memoized, resumable chase of one query: the engine state survives
/// between calls, so EnsureLevel(k') after EnsureLevel(k) only materializes
/// the missing levels (k, k']. `options.max_level` is ignored — the level
/// cap always comes from EnsureLevel. The handle borrows `dependencies`
/// (Sigma_FL for the batch engine, which builds it once and lends it to
/// every handle): the set must outlive the handle and stay unchanged.
///
/// Concurrency contract: one thread at a time may deepen or read a handle.
/// Distinct handles may be deepened concurrently: they share only the
/// borrowed dependency set (read-only) and the World, from which a chase
/// draws fresh nulls (World::MakeFreshNull is safe to share) and reads
/// names, so nothing may intern into that World meanwhile.
class ResumableChase {
 public:
  ResumableChase(World& world, const ConjunctiveQuery& query,
                 const DependencySet& dependencies,
                 const ChaseOptions& options = {});
  ~ResumableChase();
  ResumableChase(ResumableChase&&) noexcept;
  ResumableChase& operator=(ResumableChase&&) noexcept;

  /// Materializes conjuncts at least up to `level` (the first call runs
  /// phases A and B from scratch; later calls resume phase B). A chase
  /// that already completed, failed, or exhausted its budget is returned
  /// unchanged; an interrupted chase (a previous governor tripped) is
  /// always resumed, even at the same level. `governor`, when non-null,
  /// bounds this call only. Returns result().
  const ChaseResult& EnsureLevel(int level, ExecGovernor* governor = nullptr);

  /// The materialized prefix. Valid only after the first EnsureLevel.
  const ChaseResult& result() const;

  /// True once EnsureLevel has run the initial chase.
  bool started() const { return started_; }

  /// The level cap the engine has materialized to so far (meaningful only
  /// after the first EnsureLevel).
  int level_cap() const;

  /// Number of times EnsureLevel actually resumed phase B on an existing
  /// materialization (cache-friendly deepenings, excluding the first run).
  uint64_t deepen_count() const { return deepen_count_; }

 private:
  World* world_;
  ConjunctiveQuery query_;
  const DependencySet* dependencies_;
  ChaseOptions options_;
  std::unique_ptr<ChaseEngine> engine_;
  bool started_ = false;
  uint64_t deepen_count_ = 0;
};

/// The preliminary chase only (Sigma_FL^-): terminating, everything at
/// level 0. Equivalent to ChaseQuery with max_level = 0.
ChaseResult ChaseLevelZero(World& world, const ConjunctiveQuery& query,
                           const ChaseOptions& options = {});

}  // namespace floq

#endif  // FLOQ_CHASE_CHASE_H_
