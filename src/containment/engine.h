#ifndef FLOQ_CONTAINMENT_ENGINE_H_
#define FLOQ_CONTAINMENT_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "containment/containment.h"
#include "containment/signature.h"
#include "query/conjunctive_query.h"
#include "term/world.h"
#include "util/status.h"

// Batch containment over a shared query set. Every realistic workload —
// the classify taxonomy, view-based rewriting, the bench matrix — asks
// O(n^2) containment questions over the *same* n queries, and the pairwise
// CheckContainment re-materializes chase_Sigma(q1) from scratch for every
// pair. The engine instead keeps one memoized, resumable chase handle per
// registered query and deepens it lazily to each pair's Theorem 12 bound
// |q2| * 2|q1| (a deeper chase prefix is still a universal-model prefix,
// so homomorphism verdicts are unchanged). n queries cost n chases
// instead of n(n-1), all borrowing the one Sigma_FL the engine builds.
//
// With options.containment.use_signature_index on (the default), a stage-0
// signature filter runs first: registration computes a closure signature
// per query (signature.h) from a bounded probe chase and files the query
// in a posting under one of its constants, and any pair whose
// predicate/constant subset test fails is discharged as a definite
// kNotContained before either expensive stage — typically the vast
// majority of a dense N^2 matrix (DESIGN.md §13). A full row of CheckAll
// tests only the queries its postings enumerate.
//
// CheckAll decides each query shape once where verdicts are exact (no
// level cap, or cap 0): queries equal up to renaming (query/shape_key.h)
// share one representative row and column, which the row's worker copies
// to the rest of their class (DESIGN.md §8).
//
// Concurrency model (see DESIGN.md §8): a batch is a row per left-hand
// side, and `jobs` workers claim rows one at a time. A row task runs
// stage 0, deepens its own entry's chase and searches each surviving
// pair; it reads other entries' renamed copies and signatures, draws
// fresh nulls from the World (the one World member concurrent chases
// share), and writes only its row's verdict cells and its own stats
// partial, which are folded in row order after the join. Registration and
// removal (AddQuery, RemoveQuery) intern names and must not race a batch.

namespace floq {

struct BatchContainmentOptions {
  /// Per-pair semantics: level override, chase atom budget, and the
  /// resource budget (containment.budget). The engine decides under
  /// Sigma_FL to each pair's Theorem 12 bound, or to level_override for
  /// every pair (0: level 0 only); classical containment is
  /// CheckClassicalContainment alone. The budget is applied *per pair,
  /// per stage*: each pair's chase stage and hom stage re-anchor
  /// containment.budget's timeout_ms, so one runaway pair exhausts its own
  /// slice (at most ~2x timeout_ms) and every other pair still gets its
  /// full share. The absolute deadline and cancellation token are shared
  /// batch-wide.
  ContainmentOptions containment;
  /// Workers a batch's rows fan out to: the calling thread plus jobs - 1
  /// threads started per batch. 0 = hardware concurrency; 1 = run
  /// everything on the calling thread.
  int jobs = 0;
};

/// Wall-clock accounting for one pipeline stage across a batch. Only
/// *decided* pairs are recorded: a cancelled or timed-out pair's time
/// reflects where its budget tripped, not the cost of the work, and
/// folding it in would skew every throughput-style aggregate. Degraded
/// pairs are counted separately (unknown_pairs / timed_out_pairs /
/// cancelled_pairs and BatchStats::hom_degraded).
struct StageMetrics {
  uint64_t samples = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;

  void Record(double ms) {
    ++samples;
    total_ms += ms;
    if (ms > max_ms) max_ms = ms;
  }
  double mean_ms() const {
    return samples == 0 ? 0.0 : total_ms / double(samples);
  }
  void Accumulate(const StageMetrics& other) {
    samples += other.samples;
    total_ms += other.total_ms;
    if (other.max_ms > max_ms) max_ms = other.max_ms;
  }
};

/// Cache and fan-out accounting for one engine.
struct BatchStats {
  /// One request per checked pair (the pair's left-hand side needs a
  /// materialized chase).
  uint64_t chase_requests = 0;
  /// Requests served by a handle built for an earlier pair.
  uint64_t chase_cache_hits = 0;
  /// Distinct queries chased (cache misses; each query is chased once).
  uint64_t chases_run = 0;
  /// Times an existing handle had to resume its chase to a deeper level.
  uint64_t chase_deepenings = 0;
  uint64_t pairs_checked = 0;
  /// Pairs discharged by the stage-0 signature filter: definite
  /// kNotContained with zero chase or hom work (never counted in
  /// chase_requests), including the cells CheckAll copies from a pruned
  /// representative cell. pruned_pairs + chase_requests + shared_pairs ==
  /// pairs_checked.
  uint64_t pruned_pairs = 0;
  /// CheckAll cells settled without running the pipeline because their
  /// queries have the shape of another pair's (query/shape_key.h): a
  /// definite unpruned verdict copied from the representative pair, or a
  /// pair of two queries of one shape, CONTAINED by the renaming. Zero
  /// for CheckPairs.
  uint64_t shared_pairs = 0;
  /// Cumulative microseconds spent in the stage-0 signature subset tests,
  /// summed over the rows that ran them (registration-time probe chases
  /// are accounted to chases_run).
  double signature_us = 0.0;
  /// Pairs whose verdict degraded to Resolution::kUnknown (any reason).
  uint64_t unknown_pairs = 0;
  /// Unknown pairs whose reason was a tripped deadline.
  uint64_t timed_out_pairs = 0;
  /// Unknown pairs whose reason was cancellation (engine or user token).
  uint64_t cancelled_pairs = 0;
  /// Aggregated homomorphism search effort across *decided* pairs.
  MatchStats hom;
  /// Hom effort of pairs that degraded to Resolution::kUnknown — kept out
  /// of `hom` so decided-pair averages are not polluted by searches that
  /// were cut off mid-flight.
  MatchStats hom_degraded;
  /// Per-stage wall time, decided pairs only (see StageMetrics). Rows run
  /// on `jobs` workers, so the totals are busy time summed over workers.
  StageMetrics chase_stage;
  StageMetrics hom_stage;
  /// Delay between the batch's row fan-out opening and each pair's search
  /// starting: the wait for a worker plus the row's earlier work (its
  /// stage 0, its chase and the searches of the pairs before it).
  StageMetrics queue_wait;

  void Accumulate(const BatchStats& other);
};

/// Verdict for one ordered pair lhs ⊆ rhs. A CheckAll cell copied from
/// its shape class's representative pair carries that pair's verdict
/// whole; a cell whose two queries have one shape reads kContained with
/// the pair's level_bound and no flag set.
struct PairVerdict {
  /// Always equals (resolution == Resolution::kContained).
  bool contained = false;
  /// Three-valued verdict: kUnknown means this pair's resource budget
  /// tripped before the pair was decided (the rest of the batch is
  /// unaffected); `unknown_reason` names the budget that tripped first.
  Resolution resolution = Resolution::kNotContained;
  TripReason unknown_reason = TripReason::kNone;
  /// The stage-0 signature filter discharged this pair (a sound definite
  /// kNotContained; see signature.h): no chase or hom stage ran.
  bool pruned : 1 = false;
  /// Containment holds vacuously: chase(lhs) failed (rho_4 equated two
  /// distinct constants), so lhs is unsatisfiable under Sigma_FL.
  bool lhs_unsatisfiable : 1 = false;
  /// Level cap the pair was searched at: level_override, or the pair's
  /// Theorem 12 bound (-1 when its chase stage never ran).
  int level_bound = -1;
};
// The verdict alone: a cell of CheckAll's n x n matrix. Per-pair effort and
// stage times are folded into BatchStats instead of stored per cell.
static_assert(sizeof(PairVerdict) == 8);

class ContainmentEngine {
 public:
  explicit ContainmentEngine(World& world,
                             const BatchContainmentOptions& options = {});
  ~ContainmentEngine();

  ContainmentEngine(const ContainmentEngine&) = delete;
  ContainmentEngine& operator=(const ContainmentEngine&) = delete;

  /// Registers a query and returns its dense id (the cache key: chases are
  /// memoized per id). Fails if the query is malformed. Registration
  /// renames the query apart eagerly, so later checks share one renamed
  /// copy instead of re-renaming per pair.
  Result<size_t> AddQuery(const ConjunctiveQuery& query);

  /// Frees the entry of `id`: the query, its renamed copy, the resumable
  /// chase with its fact index, the signature and its posting. The id is
  /// never reused; a pair naming it fails CheckPairs with InvalidArgument, and
  /// the accessors below must not be called with it. NotFound when `id`
  /// is out of range or already removed. Must not race a batch.
  Status RemoveQuery(size_t id);

  /// Ids ever assigned, removed ones included (one past the largest id).
  size_t query_count() const;
  /// Whether `id` names an entry that has not been removed.
  bool has_query(size_t id) const;
  /// Entries held: query_count() minus the removed ones.
  size_t live_query_count() const { return live_entries_; }
  const ConjunctiveQuery& query(size_t id) const;

  /// Decides lhs ⊆_Sigma rhs for every requested (lhs, rhs) id pair.
  /// Verdicts align with `pairs`. Fails on arity mismatches. Resource
  /// trips never fail the batch: the affected pair's verdict becomes
  /// Resolution::kUnknown with a typed reason and every other pair still
  /// gets a definite answer.
  Result<std::vector<PairVerdict>> CheckPairs(
      std::span<const std::pair<size_t, size_t>> pairs);

  /// The full matrix: verdicts[i][j] answers query(i) ⊆ query(j) for all
  /// i != j (the diagonal is left defaulted — containment is reflexive).
  /// Fails once any query has been removed.
  ///
  /// Where verdicts are exact (level_override < 0, or 0), they depend on
  /// the queries only up to renaming, so each query shape is decided
  /// once: the batch runs only the representative of each shape class
  /// (ShapeKey; its lowest id), as a row and as a right-hand side, then
  /// every other member takes its representative's row and column. Two
  /// queries of one shape are kContained without a search. An UNKNOWN
  /// cell is never copied: its member pairs are decided one by one. At a
  /// cap >= 1 every pair is decided on its own, as in CheckPairs.
  Result<std::vector<std::vector<PairVerdict>>> CheckAll();

  /// The materialized chase of a query, if one was built (nullptr before
  /// any check used `id` as a left-hand side). With the signature index
  /// on, registration already runs a bounded probe chase, so this is
  /// non-null for every id right after AddQuery.
  const ChaseResult* chase_of(size_t id) const;

  /// The closure signature computed at registration, or nullptr when
  /// options.containment.use_signature_index is off. Incremental callers
  /// (ContainmentIndex) use it to prefilter candidate pairs before ever
  /// building a CheckPairs batch.
  const ClosureSignature* signature_of(size_t id) const;

  /// The live ids stage 0 enumerates as right-hand sides of `lhs`,
  /// ascending: for a prunable signature, the ids filed under one of its
  /// closure constants plus the constant-free ones; otherwise every live
  /// id. A superset of the ids j with MayContain(*signature_of(lhs),
  /// signature_of(j)->base), and it may include `lhs`. Requires
  /// options.containment.use_signature_index.
  std::vector<size_t> CandidatesOf(size_t lhs) const;

  const BatchStats& stats() const { return stats_; }

  /// Requests cooperative cancellation of any in-flight CheckPairs /
  /// CheckAll. Safe to call from another thread; the batch returns
  /// promptly (within one governor stride per worker) with every
  /// unfinished pair marked Resolution::kUnknown(kCancelled) and every
  /// already-finished pair keeping its definite verdict. Cancellation
  /// latches: later batches also return kCancelled until ResetCancel().
  void Cancel();
  bool cancel_requested() const { return cancel_source_.cancel_requested(); }
  /// Re-arms the engine after a Cancel(). Must not race an in-flight
  /// batch; call it between batches only.
  void ResetCancel();

 private:
  struct Entry;

  /// InvalidArgument unless both ids name live entries of equal arity.
  Status ValidatePair(size_t lhs, size_t rhs) const;

  /// A verdict slot before its batch: pruned when the signature index is
  /// on, since stage 0 discharges most pairs without visiting them.
  PairVerdict UncheckedVerdict() const;

  /// For each id, the lowest id of its shape class: every id is its own
  /// when verdicts are not exact (a level cap >= 1), and so is a query
  /// ShapeKey gives no key. Only queries whose ShapeDigest another query
  /// shares get a key.
  std::vector<size_t> ShapeRepresentatives() const;

  /// Calls fn(id) for each id CandidatesOf enumerates for a prunable
  /// `lhs`: the constant-free ids, then the ids filed under each of its
  /// closure constants. Each id comes once (it is filed once), unsorted.
  template <class Fn>
  void ForEachCandidate(const ClosureSignature& lhs, Fn&& fn) const;

  /// The batch pipeline behind CheckPairs and CheckAll, over pairs the
  /// caller has validated and grouped into rows by left-hand side (see
  /// MatrixRows and PairRows in engine.cc): row r is query rows.lhs(r)
  /// against the rhs ids rows.ForEach(r, visit) hands out as
  /// visit(rhs, verdict), each with its output slot. Every slot arrives
  /// pruned when the signature index is on; stage 0 clears the flag of
  /// each pair it keeps. Rows run in parallel, the pairs of a row in the
  /// order visited; a complete row then runs rows.Finish, CheckAll's copy
  /// pass for the row's shape class. Instantiated only in engine.cc.
  template <class Rows>
  void CheckPairsCore(size_t pair_count, const Rows& rows);

  World& world_;
  BatchContainmentOptions options_;
  // Sigma_FL, built once: every entry's chase borrows it.
  DependencySet sigma_;
  // By id; a removed entry is null.
  std::vector<std::unique_ptr<Entry>> entries_;
  size_t live_entries_ = 0;
  // Stage-0 postings (signature index on), keyed by Term::raw(): each
  // entry is filed under the base-signature constant whose list was
  // shortest when it was added, or under a key no constant has when it
  // has none. Lists are ascending by id.
  std::unordered_map<uint32_t, std::vector<size_t>> filed_;
  BatchStats stats_;
  CancellationSource cancel_source_;
};

}  // namespace floq

#endif  // FLOQ_CONTAINMENT_ENGINE_H_
