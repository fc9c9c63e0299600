#include "containment/index.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/check.h"

namespace floq {

namespace {

// First edge of an ascending row whose rhs is not below `rhs`.
template <class Row>
auto LowerBound(Row& row, size_t rhs) {
  return std::lower_bound(row.begin(), row.end(), rhs,
                          [](const ContainmentRelation::Edge& edge,
                             size_t target) { return edge.rhs < target; });
}

}  // namespace

ContainmentIndex::ContainmentIndex(World& world,
                                   const BatchContainmentOptions& options)
    : engine_(world, options) {}

const ConjunctiveQuery& ContainmentIndex::query(size_t id) const {
  FLOQ_CHECK(live(id));
  return engine_.query(id);
}

Resolution ContainmentIndex::ResolutionOf(size_t lhs, size_t rhs) const {
  FLOQ_CHECK(live(lhs));
  FLOQ_CHECK(live(rhs));
  if (lhs == rhs) return Resolution::kContained;  // reflexive
  const std::vector<Edge>& supers = nodes_[lhs].supers;
  auto it = LowerBound(supers, rhs);
  return it != supers.end() && it->rhs == rhs ? it->resolution
                                              : Resolution::kNotContained;
}

Result<size_t> ContainmentIndex::Insert(const ConjunctiveQuery& query) {
  Result<size_t> id_or = engine_.AddQuery(query);
  if (!id_or.ok()) return id_or.status();
  const size_t id = *id_or;
  FLOQ_CHECK_EQ(id, nodes_.size());
  nodes_.push_back(Node{query.arity(), true, {}});
  ++stats_.inserts;

  // Candidate pairs in both directions against every live same-arity
  // entry, prefiltered here so the engine batch holds only survivors. The
  // engine applies the same test again as its stage 0 — deterministic, so
  // the survivors pass it and nothing is double-counted as pruned.
  const ClosureSignature* sig_new = engine_.signature_of(id);
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t j : live_ids_) {
    if (nodes_[j].arity != query.arity()) continue;
    const ClosureSignature* sig_old = engine_.signature_of(j);
    const std::pair<size_t, size_t> directions[2] = {{id, j}, {j, id}};
    for (const auto& [lhs, rhs] : directions) {
      ++stats_.candidate_pairs;
      const ClosureSignature* ls = lhs == id ? sig_new : sig_old;
      const ClosureSignature* rs = rhs == id ? sig_new : sig_old;
      if (ls != nullptr && rs != nullptr && !MayContain(*ls, rs->base)) {
        ++stats_.pruned_pairs;  // an absent pair reads kNotContained
        continue;
      }
      pairs.emplace_back(lhs, rhs);
    }
  }
  live_ids_.push_back(id);

  if (!pairs.empty()) {
    Result<std::vector<PairVerdict>> verdicts = engine_.CheckPairs(pairs);
    if (!verdicts.ok()) return verdicts.status();
    stats_.checked_pairs += pairs.size();
    for (size_t k = 0; k < pairs.size(); ++k) {
      const Resolution resolution = (*verdicts)[k].resolution;
      if (resolution == Resolution::kUnknown) ++stats_.unknown_pairs;
      if (resolution == Resolution::kNotContained) continue;
      // `id` is the largest id, and the pairs visit live ids ascending,
      // so every append keeps its row ascending.
      nodes_[pairs[k].first].supers.push_back({pairs[k].second, resolution});
      ++edge_count_;
    }
  }
  return id;
}

Status ContainmentIndex::Remove(size_t id) {
  if (!live(id)) {
    return NotFoundError("no live query with index id " + std::to_string(id));
  }
  // Pairs (j ⊆ id) live in the rows of the other live ids.
  for (size_t j : live_ids_) {
    std::vector<Edge>& supers = nodes_[j].supers;
    auto it = LowerBound(supers, id);
    if (it != supers.end() && it->rhs == id) {
      supers.erase(it);
      --edge_count_;
    }
  }
  Node& node = nodes_[id];
  node.live = false;
  edge_count_ -= node.supers.size();
  node.supers = {};  // releases the row's storage
  live_ids_.erase(std::lower_bound(live_ids_.begin(), live_ids_.end(), id));
  ++stats_.removed;
  return engine_.RemoveQuery(id);
}

ContainmentRelation ContainmentIndex::RelationOf(
    std::span<const size_t> ids) const {
  // Position of each id in `ids`, dense over every id ever assigned.
  constexpr size_t kAbsent = SIZE_MAX;
  std::vector<size_t> position(nodes_.size(), kAbsent);
  for (size_t i = 0; i < ids.size(); ++i) {
    FLOQ_CHECK(live(ids[i]));
    FLOQ_CHECK_EQ(position[ids[i]], kAbsent);  // no duplicates
    position[ids[i]] = i;
  }
  size_t edges = 0;
  for (size_t id : ids) edges += nodes_[id].supers.size();
  ContainmentRelation relation;
  relation.Reserve(ids.size(), edges);
  // Positions follow the order of `ids`; only when that is not ascending
  // do the rows need sorting.
  const bool ascending = std::is_sorted(ids.begin(), ids.end());
  std::vector<Edge> row;
  for (size_t id : ids) {
    row.clear();
    for (const Edge& edge : nodes_[id].supers) {
      if (position[edge.rhs] != kAbsent) {
        row.push_back({position[edge.rhs], edge.resolution});
      }
    }
    if (!ascending) {
      std::sort(row.begin(), row.end(), [](const Edge& a, const Edge& b) {
        return a.rhs < b.rhs;
      });
    }
    relation.AddRow(row);
  }
  return relation;
}

QueryTaxonomy ContainmentIndex::TaxonomyOf(
    const ContainmentRelation& relation) const {
  return TaxonomyFromRelation(relation, int(stats_.checked_pairs),
                              int(stats_.unknown_pairs),
                              int(stats_.pruned_pairs));
}

QueryTaxonomy ContainmentIndex::TaxonomyOf(std::span<const size_t> ids) const {
  return TaxonomyOf(RelationOf(ids));
}

}  // namespace floq
