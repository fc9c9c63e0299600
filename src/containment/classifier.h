#ifndef FLOQ_CONTAINMENT_CLASSIFIER_H_
#define FLOQ_CONTAINMENT_CLASSIFIER_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "containment/containment.h"
#include "containment/engine.h"
#include "query/conjunctive_query.h"
#include "term/world.h"
#include "util/epoch.h"
#include "util/status.h"

// Query classification under Sigma_FL — the knowledge-representation
// application the paper cites ("in knowledge representation it has been
// widely used ... for object classification, schema integration, service
// discovery", §1). Given a set of queries (views, service descriptions),
// the classifier computes the full containment preorder, collapses it into
// equivalence classes, and exposes the Hasse diagram of the induced
// partial order (most-specific to most-general).

namespace floq {

struct QueryTaxonomy {
  /// One entry per input query: the equivalence class it landed in.
  std::vector<int> class_of;

  /// The classes, each a non-empty list of input indexes; classes are
  /// numbered in input order of their first member.
  std::vector<std::vector<size_t>> classes;

  /// Hasse edges over classes: (sub, super) with sub ⊂ super and no class
  /// strictly between, in (sub, super) order. Classes are compared through
  /// their first members.
  std::vector<std::pair<int, int>> hasse_edges;

  /// Number of pairwise containment checks that ran the full chase + hom
  /// pipeline.
  int checks = 0;

  /// Pairwise checks that returned Resolution::kUnknown (a resource
  /// budget tripped). Unknown pairs are treated conservatively as
  /// not-contained when building the preorder — the taxonomy never
  /// *merges* classes on an unproven containment — so a nonzero count
  /// means some edges/classes may be missing, never wrong.
  int unknown_checks = 0;

  /// Pairs discharged as definite kNotContained by the signature
  /// prefilter (signature.h) without running the pipeline.
  int pruned_checks = 0;

  /// Pairs whose verdict was shared within a shape class
  /// (BatchStats::shared_pairs) without running the pipeline. checks +
  /// pruned_checks + shared_pairs covers every ordered pair the
  /// classification needed.
  int shared_pairs = 0;
};

/// A containment relation over n queries numbered 0..n-1, stored sparse:
/// row `lhs` lists, ascending by rhs, only the pairs whose verdict is not
/// kNotContained. An absent pair reads kNotContained and the diagonal
/// reads kContained. Built once, then only read: concurrent readers need
/// no lock.
class ContainmentRelation {
 public:
  struct Edge {
    size_t rhs = 0;
    Resolution resolution = Resolution::kContained;
  };

  /// Positional row access, so `relation[lhs][rhs]` reads like a matrix.
  class Row {
   public:
    Row(const ContainmentRelation& relation, size_t lhs)
        : relation_(relation), lhs_(lhs) {}
    Resolution operator[](size_t rhs) const { return relation_.At(lhs_, rhs); }

   private:
    const ContainmentRelation& relation_;
    size_t lhs_;
  };

  void Reserve(size_t rows, size_t edges);
  /// Appends row size(): its edges ascending by rhs, without the diagonal.
  void AddRow(std::span<const Edge> edges);

  size_t size() const { return offsets_.size() - 1; }
  size_t edge_count() const { return edges_.size(); }
  std::span<const Edge> edges(size_t lhs) const {
    return {edges_.data() + offsets_[lhs], edges_.data() + offsets_[lhs + 1]};
  }
  Resolution At(size_t lhs, size_t rhs) const;
  Row operator[](size_t lhs) const { return Row(*this, lhs); }

 private:
  // Row lhs is edges_[offsets_[lhs], offsets_[lhs + 1]).
  std::vector<size_t> offsets_ = {0};
  std::vector<Edge> edges_;
};

/// Builds the taxonomy (equivalence classes, Hasse diagram) from a sparse
/// containment relation in O(n + sum of squared degrees); kUnknown edges
/// count as not contained. `checks`, `unknown_checks` and `pruned_checks`
/// seed the counters. The batch algorithm behind the one-shot classifier
/// below and ContainmentIndex::TaxonomyOf, and the reference the
/// TaxonomyMaintainer must match.
QueryTaxonomy TaxonomyFromRelation(const ContainmentRelation& relation,
                                   int checks, int unknown_checks,
                                   int pruned_checks);

/// The dense entry point: converts a pairwise containment matrix (the
/// diagonal is ignored) to a relation and calls TaxonomyFromRelation.
QueryTaxonomy TaxonomyFromContainment(
    const std::vector<std::vector<bool>>& contained, int checks,
    int unknown_checks, int pruned_checks);

/// A relation over ids that changes over time, read by id: for a live id,
/// `supers(id)` lists the pairs id ⊆ edge.rhs and `subs(id)` the pairs
/// edge.rhs ⊆ id whose verdict is not kNotContained, each ascending by
/// edge.rhs and without the diagonal.
class RelationRows {
 public:
  virtual std::span<const ContainmentRelation::Edge> supers(
      size_t id) const = 0;
  virtual std::span<const ContainmentRelation::Edge> subs(size_t id) const = 0;

 protected:
  ~RelationRows() = default;
};

/// One epoch of a maintained taxonomy. `classes` and `hasse_edges` read as
/// in QueryTaxonomy, except that members are ids, ascending, instead of
/// positions. The member lists are the maintainer's own, kept alive by
/// `pin` after a mutation replaces them or the maintainer goes.
struct TaxonomyView {
  PointerArray<std::vector<size_t>> classes;
  std::vector<std::pair<int, int>> hasse_edges;
  Retirer::Pin pin;
};

/// The taxonomy of a changing set of ids, kept equal to what
/// TaxonomyFromRelation computes over the live ids in ascending order —
/// the same classes, members, order and Hasse edges, for any verdicts,
/// UNKNOWN and non-transitive ones included. A class is known by the id of
/// its first member, which no mutation renumbers.
///  * Insert places only the new id: it joins the class of the smallest
///    first member mutually contained with it, or opens the last class and
///    splices the Hasse edges that class bypasses.
///  * Removing a later member edits its class's member list and nothing
///    else. Removing a first member re-forms its mutual-containment
///    component, the only ids whose class can change, then re-reduces the
///    Hasse rows of the classes that appeared or vanished and of their
///    direct subclasses: no other row can change.
class TaxonomyMaintainer {
 public:
  explicit TaxonomyMaintainer(const RelationRows& rows) : rows_(rows) {}
  // Retires every current member list: views stay readable past this.
  ~TaxonomyMaintainer();

  TaxonomyMaintainer(const TaxonomyMaintainer&) = delete;
  TaxonomyMaintainer& operator=(const TaxonomyMaintainer&) = delete;

  /// Places `id`, larger than every id placed before. Its pairs with the
  /// live ids must already be in the rows.
  void Insert(size_t id);
  /// Takes the live `id` out. Its pairs must still be in the rows; they
  /// are ignored from here on.
  void Remove(size_t id);

  /// The current epoch: one pointer per class, and the Hasse edges.
  TaxonomyView View() const;

 private:
  struct Node {
    bool live = false;
    // The first member of this id's class; SIZE_MAX while unplaced.
    size_t first = SIZE_MAX;
    // For a first member: its class's position in classes_, and the first
    // members of the classes it has Hasse edges to, ascending.
    size_t position = 0;
    std::vector<size_t> hasse;
  };

  bool IsFirst(size_t id) const { return nodes_[id].first == id; }
  // First members `id` is contained in (kContained), ascending.
  std::vector<size_t> FirstsAbove(size_t id) const;
  // First members contained in `id` (kContained), ascending.
  std::vector<size_t> FirstsBelow(size_t id) const;
  // Live ids mutually contained with `id` (kContained both ways), ascending.
  std::vector<size_t> MutualNeighbours(size_t id) const;
  // The Hasse row of first member `a`: the classes above it with no class
  // strictly between, as TaxonomyFromRelation reduces them.
  std::vector<size_t> ReduceHasse(size_t a);
  // Re-derives hasse_edges_ from the per-class rows, in position order.
  void RebuildHasseEdges();

  using Members = std::shared_ptr<const std::vector<size_t>>;

  const RelationRows& rows_;
  std::vector<Node> nodes_;  // by id, removed ones included
  // Member lists by class position; a published list is never changed in
  // place but replaced, and the old one retired.
  std::vector<Members> classes_;
  Retirer retired_;
  std::vector<std::pair<int, int>> hasse_edges_;
  // Visit marks by id; a fresh token per pass.
  std::vector<uint64_t> stamp_;
  uint64_t token_ = 0;
};

/// Classifies `queries` (all must have equal arity) under Sigma_FL. The
/// n(n-1) pairwise checks run through a ContainmentEngine: each query is
/// chased once (not once per pair) and the homomorphism searches fan out
/// over `options.jobs` threads.
Result<QueryTaxonomy> ClassifyQueries(
    World& world, const std::vector<ConjunctiveQuery>& queries,
    const BatchContainmentOptions& options = {});

/// Convenience overload for callers holding plain per-pair options; runs
/// with the default thread count.
Result<QueryTaxonomy> ClassifyQueries(
    World& world, const std::vector<ConjunctiveQuery>& queries,
    const ContainmentOptions& options);

/// Renders the taxonomy as an indented forest, most general classes first.
std::string TaxonomyToString(const QueryTaxonomy& taxonomy,
                             const std::vector<ConjunctiveQuery>& queries,
                             const World& world);

}  // namespace floq

#endif  // FLOQ_CONTAINMENT_CLASSIFIER_H_
