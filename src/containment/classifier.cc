#include "containment/classifier.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <utility>

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
  QueryTaxonomy taxonomy =
      TaxonomyFromContainment(contained, int(stats.chase_requests),
                              unknown_checks, int(stats.pruned_pairs));
  taxonomy.shared_pairs = int(stats.shared_pairs);
  return taxonomy;
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

namespace {

using Edge = ContainmentRelation::Edge;

// As in TaxonomyFromRelation, only kContained edges order or merge classes.
bool IsContained(const Edge& edge) {
  return edge.resolution == Resolution::kContained;
}

// True when the ascending lists share an element.
bool Intersect(const std::vector<size_t>& a, const std::vector<size_t>& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i == *j) return true;
    if (*i < *j) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace

std::vector<size_t> TaxonomyMaintainer::FirstsAbove(size_t id) const {
  std::vector<size_t> out;
  for (const Edge& edge : rows_.supers(id)) {
    if (IsContained(edge) && IsFirst(edge.rhs)) out.push_back(edge.rhs);
  }
  return out;
}

std::vector<size_t> TaxonomyMaintainer::FirstsBelow(size_t id) const {
  std::vector<size_t> out;
  for (const Edge& edge : rows_.subs(id)) {
    if (IsContained(edge) && IsFirst(edge.rhs)) out.push_back(edge.rhs);
  }
  return out;
}

std::vector<size_t> TaxonomyMaintainer::MutualNeighbours(size_t id) const {
  std::vector<size_t> out;
  std::span<const Edge> up = rows_.supers(id);
  std::span<const Edge> down = rows_.subs(id);
  auto i = up.begin();
  auto j = down.begin();
  while (i != up.end() && j != down.end()) {
    if (i->rhs < j->rhs) {
      ++i;
    } else if (j->rhs < i->rhs) {
      ++j;
    } else {
      if (IsContained(*i) && IsContained(*j) && nodes_[i->rhs].live) {
        out.push_back(i->rhs);
      }
      ++i;
      ++j;
    }
  }
  return out;
}

std::vector<size_t> TaxonomyMaintainer::ReduceHasse(size_t a) {
  // As TaxonomyFromRelation: stamp every class two steps above a, keep
  // a's direct supers that carry no stamp.
  const std::vector<size_t> above = FirstsAbove(a);
  const uint64_t token = ++token_;
  for (size_t c : above) {
    for (size_t b : FirstsAbove(c)) stamp_[b] = token;
  }
  std::vector<size_t> hasse;
  for (size_t b : above) {
    if (stamp_[b] != token) hasse.push_back(b);
  }
  return hasse;
}

void TaxonomyMaintainer::RebuildHasseEdges() {
  hasse_edges_.clear();
  for (size_t p = 0; p < classes_.size(); ++p) {
    // Rows are ascending by first member, so positions come out ascending.
    for (size_t b : nodes_[(*classes_[p])[0]].hasse) {
      hasse_edges_.emplace_back(int(p), int(nodes_[b].position));
    }
  }
}

TaxonomyMaintainer::~TaxonomyMaintainer() {
  for (Members& members : classes_) retired_.Retire(std::move(members));
}

TaxonomyView TaxonomyMaintainer::View() const {
  TaxonomyView view;
  view.classes.items().reserve(classes_.size());
  for (const Members& members : classes_) {
    view.classes.items().push_back(members.get());
  }
  view.hasse_edges = hasse_edges_;
  view.pin = retired_.pin();
  return view;
}

void TaxonomyMaintainer::Insert(size_t id) {
  FLOQ_CHECK_GE(id, nodes_.size());
  nodes_.resize(id + 1);
  stamp_.resize(id + 1, 0);
  nodes_[id].live = true;

  // The batch pass would place id, the largest, into the class of the
  // first opener mutually contained with it.
  for (size_t f : MutualNeighbours(id)) {
    if (!IsFirst(f)) continue;
    nodes_[id].first = f;
    Members& members = classes_[nodes_[f].position];
    auto grown = std::make_shared<std::vector<size_t>>(*members);
    grown->push_back(id);
    retired_.Retire(std::exchange(members, std::move(grown)));
    retired_.Seal();
    return;  // the first members are unchanged, so is every Hasse row
  }

  // id opens the last class, z. Only z's row and the rows of the classes
  // below z change.
  Node& node = nodes_[id];
  node.first = id;
  node.position = classes_.size();
  classes_.push_back(std::make_shared<const std::vector<size_t>>(1, id));
  node.hasse = ReduceHasse(id);
  const std::vector<size_t> above = FirstsAbove(id);
  const std::vector<size_t> below = FirstsBelow(id);
  for (size_t a : below) {
    // a ⊂ z ⊂ b bypasses every edge a ⊂ b with b above z.
    std::vector<size_t>& hasse = nodes_[a].hasse;
    std::vector<size_t> kept;
    std::set_difference(hasse.begin(), hasse.end(), above.begin(),
                        above.end(), std::back_inserter(kept));
    // a ⊂ z is an edge unless a class c has a ⊂ c ⊂ z. z is the largest
    // first member, so appending keeps the row ascending.
    if (!Intersect(FirstsAbove(a), below)) kept.push_back(id);
    hasse = std::move(kept);
  }
  RebuildHasseEdges();
}

void TaxonomyMaintainer::Remove(size_t id) {
  FLOQ_CHECK_LT(id, nodes_.size());
  FLOQ_CHECK(nodes_[id].live);
  const size_t first = nodes_[id].first;
  nodes_[id].live = false;
  nodes_[id].first = SIZE_MAX;
  if (first != id) {
    // A later member leaves: the first members stay, and with them every
    // other class and Hasse row.
    Members& members = classes_[nodes_[first].position];
    auto shrunk = std::make_shared<std::vector<size_t>>();
    shrunk->reserve(members->size() - 1);
    for (size_t m : *members) {
      if (m != id) shrunk->push_back(m);
    }
    retired_.Retire(std::exchange(members, std::move(shrunk)));
    retired_.Seal();
    return;
  }

  // A first member leaves. Class membership only links mutually
  // contained ids, so the ids whose class can change are its
  // mutual-containment component; the batch pass over any other
  // component gives what it gave before.
  const uint64_t in_component = ++token_;
  stamp_[id] = in_component;
  std::vector<size_t> component = MutualNeighbours(id);
  for (size_t j : component) stamp_[j] = in_component;
  for (size_t k = 0; k < component.size(); ++k) {
    for (size_t j : MutualNeighbours(component[k])) {
      if (stamp_[j] != in_component) {
        stamp_[j] = in_component;
        component.push_back(j);
      }
    }
  }
  std::sort(component.begin(), component.end());

  std::vector<size_t> old_firsts = {id};
  for (size_t j : component) {
    if (IsFirst(j)) old_firsts.push_back(j);
    nodes_[j].first = SIZE_MAX;
  }
  std::sort(old_firsts.begin(), old_firsts.end());

  // The batch pass over the component alone.
  std::vector<std::pair<size_t, std::vector<size_t>>> formed;
  for (size_t i : component) {
    if (nodes_[i].first != SIZE_MAX) {
      auto it = std::lower_bound(
          formed.begin(), formed.end(), nodes_[i].first,
          [](const auto& entry, size_t f) { return entry.first < f; });
      it->second.push_back(i);
      continue;
    }
    nodes_[i].first = i;
    formed.push_back({i, {i}});
    for (size_t j : MutualNeighbours(i)) {
      if (j > i && nodes_[j].first == SIZE_MAX) nodes_[j].first = i;
    }
  }

  // Classes by first member: the untouched ones keep their lists.
  std::vector<Members> merged;
  merged.reserve(classes_.size() + formed.size());
  size_t next = 0;
  for (Members& members : classes_) {
    const size_t f = (*members)[0];
    if (stamp_[f] == in_component) {
      retired_.Retire(std::move(members));
      continue;
    }
    for (; next < formed.size() && formed[next].first < f; ++next) {
      merged.push_back(std::make_shared<const std::vector<size_t>>(
          std::move(formed[next].second)));
    }
    merged.push_back(members);
  }
  for (; next < formed.size(); ++next) {
    merged.push_back(std::make_shared<const std::vector<size_t>>(
        std::move(formed[next].second)));
  }
  classes_ = std::move(merged);
  for (size_t p = 0; p < classes_.size(); ++p) {
    nodes_[(*classes_[p])[0]].position = p;
  }

  // Class-level containment changes only by the first members that
  // vanished or appeared, so only their rows and the rows of the classes
  // directly below them can change.
  std::vector<size_t> new_firsts;
  for (const auto& [f, members] : formed) new_firsts.push_back(f);
  std::vector<size_t> changed;
  std::set_symmetric_difference(old_firsts.begin(), old_firsts.end(),
                                new_firsts.begin(), new_firsts.end(),
                                std::back_inserter(changed));
  std::vector<size_t> reduce;
  for (size_t f : changed) {
    if (IsFirst(f)) {
      reduce.push_back(f);
    } else {
      nodes_[f].hasse = {};
    }
    for (size_t a : FirstsBelow(f)) reduce.push_back(a);
  }
  std::sort(reduce.begin(), reduce.end());
  reduce.erase(std::unique(reduce.begin(), reduce.end()), reduce.end());
  for (size_t a : reduce) nodes_[a].hasse = ReduceHasse(a);
  RebuildHasseEdges();
  retired_.Seal();
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
