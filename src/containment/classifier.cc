#include "containment/classifier.h"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "util/check.h"
#include "util/strings.h"

namespace floq {

Result<QueryTaxonomy> ClassifyQueries(
    World& world, const std::vector<ConjunctiveQuery>& queries,
    const BatchContainmentOptions& options) {
  const size_t n = queries.size();
  if (n == 0) {
    QueryTaxonomy taxonomy;
    return taxonomy;
  }

  // Pairwise containment matrix over queries, via the batch engine: one
  // memoized chase per query, the signature prefilter discharging most
  // pairs, homomorphism searches fanned out for the survivors.
  ContainmentEngine engine(world, options);
  for (const ConjunctiveQuery& query : queries) {
    Result<size_t> id = engine.AddQuery(query);
    if (!id.ok()) return id.status();
  }
  Result<std::vector<std::vector<PairVerdict>>> matrix = engine.CheckAll();
  if (!matrix.ok()) return matrix.status();

  int unknown_checks = 0;
  std::vector<std::vector<bool>> contained(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) {
    contained[i][i] = true;
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      // An UNKNOWN verdict (resource trip) counts as not-contained here:
      // the taxonomy only merges or orders classes on *proven*
      // containments, so trips can hide structure but never fabricate it.
      contained[i][j] = (*matrix)[i][j].contained;
      if ((*matrix)[i][j].resolution == Resolution::kUnknown) {
        ++unknown_checks;
      }
    }
  }
  const BatchStats& stats = engine.stats();
  return TaxonomyFromContainment(
      contained, int(stats.pairs_checked - stats.pruned_pairs),
      unknown_checks, int(stats.pruned_pairs));
}

void ContainmentRelation::Reserve(size_t rows, size_t edges) {
  offsets_.reserve(rows + 1);
  edges_.reserve(edges);
}

void ContainmentRelation::AddRow(std::span<const Edge> edges) {
  edges_.insert(edges_.end(), edges.begin(), edges.end());
  offsets_.push_back(edges_.size());
}

Resolution ContainmentRelation::At(size_t lhs, size_t rhs) const {
  FLOQ_CHECK_LT(lhs, size());
  FLOQ_CHECK_LT(rhs, size());
  if (lhs == rhs) return Resolution::kContained;  // reflexive
  std::span<const Edge> row = edges(lhs);
  auto it = std::lower_bound(
      row.begin(), row.end(), rhs,
      [](const Edge& edge, size_t target) { return edge.rhs < target; });
  return it != row.end() && it->rhs == rhs ? it->resolution
                                           : Resolution::kNotContained;
}

QueryTaxonomy TaxonomyFromRelation(const ContainmentRelation& relation,
                                   int checks, int unknown_checks,
                                   int pruned_checks) {
  const size_t n = relation.size();
  QueryTaxonomy taxonomy;
  taxonomy.class_of.assign(n, -1);
  taxonomy.checks = checks;
  taxonomy.unknown_checks = unknown_checks;
  taxonomy.pruned_checks = pruned_checks;
  // Only kContained edges order or merge anything: the taxonomy never acts
  // on an UNKNOWN verdict, so budget trips can hide structure but never
  // fabricate it.
  auto contained = [](const ContainmentRelation::Edge& edge) {
    return edge.resolution == Resolution::kContained;
  };

  // Equivalence classes: each query not yet placed opens a class, and
  // every later unplaced query mutually contained with it joins. Rows are
  // ascending, so members land in input order.
  for (size_t i = 0; i < n; ++i) {
    if (taxonomy.class_of[i] >= 0) continue;
    const int cls = int(taxonomy.classes.size());
    taxonomy.classes.push_back({i});
    taxonomy.class_of[i] = cls;
    for (const ContainmentRelation::Edge& edge : relation.edges(i)) {
      const size_t j = edge.rhs;
      if (j > i && contained(edge) && taxonomy.class_of[j] < 0 &&
          relation.At(j, i) == Resolution::kContained) {
        taxonomy.class_of[j] = cls;
        taxonomy.classes[size_t(cls)].push_back(j);
      }
    }
  }

  // Strict containment between classes, through their first members, as
  // flat adjacency: supers[begin[a], begin[a + 1]) lists every b != a with
  // first(a) ⊆ first(b). Class ids follow their first members' order, so
  // each list comes out ascending.
  const size_t m = taxonomy.classes.size();
  std::vector<size_t> begin(m + 1, 0);
  std::vector<int> supers;
  for (size_t a = 0; a < m; ++a) {
    for (const ContainmentRelation::Edge& edge :
         relation.edges(taxonomy.classes[a][0])) {
      const int b = taxonomy.class_of[edge.rhs];
      if (contained(edge) && taxonomy.classes[size_t(b)][0] == edge.rhs) {
        supers.push_back(b);
      }
    }
    begin[a + 1] = supers.size();
  }
  auto supers_of = [&](size_t a) {
    return std::span<const int>(supers.data() + begin[a],
                                supers.data() + begin[a + 1]);
  };

  // Hasse reduction: keep (a, b) unless some c has a ⊂ c ⊂ b. Every class
  // two steps above a is stamped first; a's direct supers that carry no
  // stamp are the edges.
  std::vector<size_t> stamp(m, SIZE_MAX);
  for (size_t a = 0; a < m; ++a) {
    for (int c : supers_of(a)) {
      for (int b : supers_of(size_t(c))) stamp[size_t(b)] = a;
    }
    for (int b : supers_of(a)) {
      if (stamp[size_t(b)] != a) taxonomy.hasse_edges.emplace_back(int(a), b);
    }
  }
  return taxonomy;
}

QueryTaxonomy TaxonomyFromContainment(
    const std::vector<std::vector<bool>>& contained, int checks,
    int unknown_checks, int pruned_checks) {
  const size_t n = contained.size();
  ContainmentRelation relation;
  std::vector<ContainmentRelation::Edge> row;
  for (size_t i = 0; i < n; ++i) {
    row.clear();
    for (size_t j = 0; j < n; ++j) {
      if (j != i && contained[i][j]) row.push_back({j, Resolution::kContained});
    }
    relation.AddRow(row);
  }
  return TaxonomyFromRelation(relation, checks, unknown_checks,
                              pruned_checks);
}

Result<QueryTaxonomy> ClassifyQueries(
    World& world, const std::vector<ConjunctiveQuery>& queries,
    const ContainmentOptions& options) {
  BatchContainmentOptions batch;
  batch.containment = options;
  return ClassifyQueries(world, queries, batch);
}

std::string TaxonomyToString(const QueryTaxonomy& taxonomy,
                             const std::vector<ConjunctiveQuery>& queries,
                             const World& world) {
  const size_t m = taxonomy.classes.size();
  std::string out;

  auto class_label = [&](size_t cls) {
    std::vector<std::string> names;
    for (size_t i : taxonomy.classes[cls]) names.push_back(queries[i].name());
    return Join(names, " ≡ ");
  };

  // Children of each class in the Hasse diagram (sub below super).
  std::vector<std::vector<int>> children(m);
  std::vector<bool> has_parent(m, false);
  for (const auto& [sub, super] : taxonomy.hasse_edges) {
    children[super].push_back(sub);
    has_parent[sub] = true;
  }

  std::function<void(size_t, int)> render = [&](size_t cls, int depth) {
    out += std::string(size_t(depth) * 2, ' ');
    out += class_label(cls);
    out += '\n';
    for (int child : children[cls]) render(size_t(child), depth + 1);
  };

  for (size_t cls = 0; cls < m; ++cls) {
    if (!has_parent[cls]) render(cls, 0);  // maximal (most general) roots
  }
  (void)world;
  return out;
}

}  // namespace floq
