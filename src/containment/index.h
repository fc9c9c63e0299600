#ifndef FLOQ_CONTAINMENT_INDEX_H_
#define FLOQ_CONTAINMENT_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
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
// of 2·N. The prefilter itself reads postings by constant rather than
// testing every live query (DESIGN.md §13). Remove takes a query out again
// and frees its engine entry.
//
// The relation is stored sparse: per id, the ascending lists of pairs
// whose verdict is not kNotContained (a contained pair, or an UNKNOWN one
// whose budget tripped), once as the id's supers and once as its subs.
// Most pairs are discharged or decided not contained, so memory is
// O(ids ever assigned + edges), never O(N^2). A mutation costs what it
// changes:
//   * Insert appends to the rows of the ids the new query relates to, and
//     the TaxonomyMaintainer (classifier.h) places the new id;
//   * Remove visits only the removed id's neighbours, and the maintainer
//     re-forms only its mutual-containment component;
//   * Relation() and taxonomy().View() copy one pointer per live id and
//     per class: rows and member lists are immutable once written, and one
//     a mutation replaces is retired, not freed, until the views that could
//     see it are gone (util/epoch.h).
// RelationOf and TaxonomyOf rebuild a positional relation or taxonomy over
// any subset of ids in O(ids ever assigned + |ids| + edges).
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

/// The maintained relation at one moment, read by index id:
/// `view[lhs][rhs]` answers like ContainmentIndex::ResolutionOf for the
/// ids live then. The rows are the index's own, kept alive by the view's
/// pin after a mutation replaces them or the index goes, so a view costs
/// one pointer per live id. Immutable: concurrent readers need no lock.
class RelationView {
 public:
  class Row {
   public:
    Row(const RelationView& view, size_t lhs) : view_(view), lhs_(lhs) {}
    Resolution operator[](size_t rhs) const { return view_.At(lhs_, rhs); }

   private:
    const RelationView& view_;
    size_t lhs_;
  };

  /// Live ids in this view.
  size_t size() const { return rows_.size(); }
  /// Both ids must be live in this view; the diagonal is kContained.
  Resolution At(size_t lhs, size_t rhs) const;
  Row operator[](size_t lhs) const { return Row(*this, lhs); }

 private:
  friend class ContainmentIndex;
  using Edges = std::vector<ContainmentRelation::Edge>;
  struct IdRow {
    size_t id = 0;
    const Edges* supers = nullptr;  // nullptr when empty
  };

  const IdRow* Find(size_t id) const;

  std::vector<IdRow> rows_;  // ascending by id
  Retirer::Pin pin_;
};

class ContainmentIndex : private RelationRows {
 public:
  explicit ContainmentIndex(World& world,
                            const BatchContainmentOptions& options = {});
  // Retires every current row: views stay readable past this.
  ~ContainmentIndex();

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

  /// The relation over the live ids as it stands now, by id. O(live)
  /// pointer copies; no row is copied.
  RelationView Relation() const;

  /// The taxonomy of the live ids in ascending order, maintained by every
  /// Insert and Remove: View() equals TaxonomyOf(live_ids()) with members
  /// read as ids.
  const TaxonomyMaintainer& taxonomy() const { return taxonomy_; }

  /// The relation restricted to `ids` (live ids, any order), renumbered
  /// by position in `ids`. O(ids ever assigned + |ids| + edges), and no
  /// containment check runs.
  ContainmentRelation RelationOf(std::span<const size_t> ids) const;

  /// The taxonomy of `ids`, positional like RelationOf: `class_of` and
  /// `classes` index into `ids`. Rebuilt in one batch pass from the
  /// maintained relation, without any further containment checks.
  QueryTaxonomy TaxonomyOf(std::span<const size_t> ids) const;

  const IndexStats& index_stats() const { return stats_; }
  /// The underlying engine's cache/fan-out stats (chases run, cache hits,
  /// in-engine pruning of pairs the prefilter let through).
  const BatchStats& engine_stats() const { return engine_.stats(); }
  ContainmentEngine& engine() { return engine_; }
  const ContainmentEngine& engine() const { return engine_; }

 private:
  using Edge = ContainmentRelation::Edge;
  using Edges = RelationView::Edges;
  struct Node {
    int arity = 0;
    bool live = true;
    // Pairs (this ⊆ rhs) whose verdict is not kNotContained, ascending.
    // Never changed in place: a change installs a new row and retires the
    // old one, which views may still read. nullptr when empty.
    std::shared_ptr<const Edges> supers;
    // The same pairs seen from the other side: (rhs ⊆ this), ascending.
    std::vector<Edge> subs;
  };

  // RelationRows, read by the taxonomy maintainer.
  std::span<const Edge> supers(size_t id) const override;
  std::span<const Edge> subs(size_t id) const override;
  // Installs `row` as id's supers row, retiring the one it replaces.
  void ReplaceSupers(size_t id, std::shared_ptr<const Edges> row);

  // Live ids, ascending, that may contain a query of `signature`: a
  // superset of the ids j with MayContain(signature_of(j), signature.base).
  std::vector<size_t> ContainerCandidates(
      const ClosureSignature& signature) const;
  void FileContainer(size_t id, const ClosureSignature& signature);
  void UnfileContainer(size_t id, const ClosureSignature& signature);

  ContainmentEngine engine_;
  std::vector<Node> nodes_;       // by id, removed ones included
  std::vector<size_t> live_ids_;  // ascending
  size_t edge_count_ = 0;
  // Live ids per arity: an insert's candidate count without a scan.
  std::vector<size_t> live_by_arity_;
  // Containers by constant (signature index on): each live id is filed
  // under every constant of its closure signature, or in unprunable_ when
  // its signature cannot discharge pairs. Lists ascend by id.
  std::unordered_map<uint32_t, std::vector<size_t>> by_closure_constant_;
  std::vector<size_t> unprunable_;
  IndexStats stats_;
  Retirer retired_rows_;
  TaxonomyMaintainer taxonomy_{*this};
};

}  // namespace floq

#endif  // FLOQ_CONTAINMENT_INDEX_H_
