#ifndef FLOQ_CONTAINMENT_INDEX_H_
#define FLOQ_CONTAINMENT_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "containment/classifier.h"
#include "containment/engine.h"
#include "query/conjunctive_query.h"
#include "term/world.h"
#include "util/status.h"

// The containment index: an incrementally maintained containment preorder
// over a changing query registry. Where ClassifyQueries answers the full
// N^2 matrix in one batch, the index supports classify-on-insert: each
// Insert places the new query into the existing lattice by checking it
// against *only the candidate pairs that survive the signature prefilter*
// (signature.h) — for a typical registry the filter discharges the
// overwhelming majority of the 2·N candidate pairs before the engine ever
// sees them, so an insert costs a handful of chase/hom decisions instead
// of 2·N. Remove takes a query out again and frees its engine entry.
//
// The relation is stored sparse: per id, the ascending list of pairs whose
// verdict is not kNotContained (a contained pair, or an UNKNOWN one whose
// budget tripped). Most pairs are discharged or decided not contained, so
// memory, Remove and every relation or taxonomy read cost O(live + edges),
// never O(N^2).
//
// Soundness: a discharged pair is a definite kNotContained (the subset
// test is a necessary condition of containment, see signature.h), so the
// maintained relation is exactly what a full batch over the same options
// would produce — the differential suite in tests/containment_index_test.cc
// asserts this pair-for-pair.

namespace floq {

/// Cumulative accounting across all Inserts and Removes.
struct IndexStats {
  uint64_t inserts = 0;
  /// Ids taken out by Remove; inserts - removed is the live count.
  uint64_t removed = 0;
  /// Ordered same-arity candidate pairs considered ((id, j) and (j, id)
  /// per live entry j).
  uint64_t candidate_pairs = 0;
  /// Candidates discharged by the signature prefilter before reaching the
  /// engine (definite kNotContained).
  uint64_t pruned_pairs = 0;
  /// Candidates that survived and ran the full chase + hom pipeline.
  uint64_t checked_pairs = 0;
  /// Checked pairs whose verdict degraded to Resolution::kUnknown.
  uint64_t unknown_pairs = 0;
};

class ContainmentIndex {
 public:
  explicit ContainmentIndex(World& world,
                            const BatchContainmentOptions& options = {});

  ContainmentIndex(const ContainmentIndex&) = delete;
  ContainmentIndex& operator=(const ContainmentIndex&) = delete;

  /// Registers `query`, decides its containment relation to every live
  /// query (both directions), and returns its id. Ids are dense in
  /// insertion order and never reused. Cross-arity pairs are
  /// kNotContained without any check — containment only relates queries
  /// of equal arity.
  Result<size_t> Insert(const ConjunctiveQuery& query);

  /// Takes `id` out of the relation (its pairs in both directions) and
  /// frees its engine entry. NotFound for an id that is out of range or
  /// already removed.
  Status Remove(size_t id);

  /// Live ids, ascending (= insertion order).
  std::span<const size_t> live_ids() const { return live_ids_; }
  /// Pairs stored: those among live ids whose verdict is not
  /// kNotContained.
  size_t edge_count() const { return edge_count_; }
  bool live(size_t id) const { return id < nodes_.size() && nodes_[id].live; }
  /// The query of a live id.
  const ConjunctiveQuery& query(size_t id) const;

  /// The maintained verdict for query(lhs) ⊆_Sigma query(rhs), both live.
  /// The diagonal is kContained (containment is reflexive).
  Resolution ResolutionOf(size_t lhs, size_t rhs) const;
  bool Contains(size_t lhs, size_t rhs) const {
    return ResolutionOf(lhs, rhs) == Resolution::kContained;
  }

  /// The relation restricted to `ids` (live ids, any order), renumbered
  /// by position in `ids`. O(ids ever assigned + |ids| + edges), and no
  /// containment check runs.
  ContainmentRelation RelationOf(std::span<const size_t> ids) const;

  /// The taxonomy of `ids`, positional like RelationOf: `class_of` and
  /// `classes` index into `ids`. Built from the maintained relation
  /// without any further containment checks.
  QueryTaxonomy TaxonomyOf(std::span<const size_t> ids) const;
  /// TaxonomyOf(live_ids()).
  QueryTaxonomy Taxonomy() const { return TaxonomyOf(live_ids_); }
  /// The taxonomy of a relation RelationOf returned, with this index's
  /// counters.
  QueryTaxonomy TaxonomyOf(const ContainmentRelation& relation) const;

  const IndexStats& index_stats() const { return stats_; }
  /// The underlying engine's cache/fan-out stats (chases run, cache hits,
  /// in-engine pruning of pairs the prefilter let through).
  const BatchStats& engine_stats() const { return engine_.stats(); }
  ContainmentEngine& engine() { return engine_; }
  const ContainmentEngine& engine() const { return engine_; }

 private:
  using Edge = ContainmentRelation::Edge;
  struct Node {
    int arity = 0;
    bool live = true;
    // Pairs (this ⊆ rhs) whose verdict is not kNotContained, ascending.
    std::vector<Edge> supers;
  };

  ContainmentEngine engine_;
  std::vector<Node> nodes_;       // by id, removed ones included
  std::vector<size_t> live_ids_;  // ascending
  size_t edge_count_ = 0;
  IndexStats stats_;
};

}  // namespace floq

#endif  // FLOQ_CONTAINMENT_INDEX_H_
