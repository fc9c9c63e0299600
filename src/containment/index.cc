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

Resolution RelationView::At(size_t lhs, size_t rhs) const {
  const IdRow* row = Find(lhs);
  FLOQ_CHECK(row != nullptr);
  FLOQ_CHECK(Find(rhs) != nullptr);
  if (lhs == rhs) return Resolution::kContained;  // reflexive
  if (row->supers == nullptr) return Resolution::kNotContained;
  auto it = LowerBound(*row->supers, rhs);
  return it != row->supers->end() && it->rhs == rhs
             ? it->resolution
             : Resolution::kNotContained;
}

const RelationView::IdRow* RelationView::Find(size_t id) const {
  auto it = std::lower_bound(
      rows_.begin(), rows_.end(), id,
      [](const IdRow& row, size_t target) { return row.id < target; });
  return it != rows_.end() && it->id == id ? &*it : nullptr;
}

ContainmentIndex::ContainmentIndex(World& world,
                                   const BatchContainmentOptions& options)
    : engine_(world, options) {}

ContainmentIndex::~ContainmentIndex() {
  for (Node& node : nodes_) retired_rows_.Retire(std::move(node.supers));
}

const ConjunctiveQuery& ContainmentIndex::query(size_t id) const {
  FLOQ_CHECK(live(id));
  return engine_.query(id);
}

std::span<const ContainmentRelation::Edge> ContainmentIndex::supers(
    size_t id) const {
  const std::shared_ptr<const Edges>& row = nodes_[id].supers;
  return row == nullptr ? std::span<const Edge>() : std::span<const Edge>(*row);
}

std::span<const ContainmentRelation::Edge> ContainmentIndex::subs(
    size_t id) const {
  return nodes_[id].subs;
}

void ContainmentIndex::ReplaceSupers(size_t id,
                                     std::shared_ptr<const Edges> row) {
  if (row != nullptr && row->empty()) row = nullptr;
  retired_rows_.Retire(std::exchange(nodes_[id].supers, std::move(row)));
}

Resolution ContainmentIndex::ResolutionOf(size_t lhs, size_t rhs) const {
  FLOQ_CHECK(live(lhs));
  FLOQ_CHECK(live(rhs));
  if (lhs == rhs) return Resolution::kContained;  // reflexive
  std::span<const Edge> row = supers(lhs);
  auto it = LowerBound(row, rhs);
  return it != row.end() && it->rhs == rhs ? it->resolution
                                           : Resolution::kNotContained;
}

std::vector<size_t> ContainmentIndex::ContainerCandidates(
    const ClosureSignature& signature) const {
  const std::vector<uint32_t>& constants = signature.base.constants;
  if (constants.empty()) return live_ids_;
  // A prunable container carries every constant of the query among its
  // closure constants, so the query's least-filed constant lists it.
  const std::vector<size_t>* shortest = nullptr;
  for (uint32_t constant : constants) {
    auto it = by_closure_constant_.find(constant);
    if (it == by_closure_constant_.end()) {
      shortest = nullptr;
      break;
    }
    if (shortest == nullptr || it->second.size() < shortest->size()) {
      shortest = &it->second;
    }
  }
  std::vector<size_t> ids = unprunable_;
  if (shortest != nullptr) {
    ids.insert(ids.end(), shortest->begin(), shortest->end());
    std::sort(ids.begin(), ids.end());
  }
  return ids;
}

void ContainmentIndex::FileContainer(size_t id,
                                     const ClosureSignature& signature) {
  if (!signature.prunable) {
    unprunable_.push_back(id);
    return;
  }
  for (uint32_t constant : signature.closure_constants) {
    by_closure_constant_[constant].push_back(id);
  }
}

void ContainmentIndex::UnfileContainer(size_t id,
                                       const ClosureSignature& signature) {
  auto erase = [id](std::vector<size_t>& ids) {
    ids.erase(std::lower_bound(ids.begin(), ids.end(), id));
  };
  if (!signature.prunable) {
    erase(unprunable_);
    return;
  }
  for (uint32_t constant : signature.closure_constants) {
    auto it = by_closure_constant_.find(constant);
    erase(it->second);
    if (it->second.empty()) by_closure_constant_.erase(it);
  }
}

Result<size_t> ContainmentIndex::Insert(const ConjunctiveQuery& query) {
  Result<size_t> id_or = engine_.AddQuery(query);
  if (!id_or.ok()) return id_or.status();
  const size_t id = *id_or;
  FLOQ_CHECK_EQ(id, nodes_.size());
  const int arity = query.arity();
  nodes_.push_back(Node{arity, true, nullptr, {}});
  ++stats_.inserts;
  if (size_t(arity) >= live_by_arity_.size()) {
    live_by_arity_.resize(size_t(arity) + 1, 0);
  }

  // Candidate pairs in both directions against every live same-arity
  // entry. With signatures, each direction reads a posting instead of
  // testing them all: (id ⊆ j) the engine's stage-0 postings, (j ⊆ id)
  // the containers filed under id's least-filed constant plus those that
  // cannot prune. A pair neither lists fails MayContain, so it counts as
  // pruned unseen. The engine batch holds only survivors; its stage 0
  // applies the same test again — deterministic, so nothing is
  // double-counted as pruned.
  const ClosureSignature* sig_new = engine_.signature_of(id);
  auto kept = [&](size_t lhs, size_t rhs) {
    return lhs != rhs && nodes_[lhs].arity == nodes_[rhs].arity &&
           (sig_new == nullptr ||
            MayContain(*engine_.signature_of(lhs),
                       engine_.signature_of(rhs)->base));
  };
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t j : sig_new ? engine_.CandidatesOf(id) : live_ids_) {
    if (kept(id, j)) pairs.emplace_back(id, j);
  }
  for (size_t j : sig_new ? ContainerCandidates(*sig_new) : live_ids_) {
    if (kept(j, id)) pairs.emplace_back(j, id);
  }
  if (sig_new != nullptr) FileContainer(id, *sig_new);
  const uint64_t candidates = 2 * uint64_t(live_by_arity_[size_t(arity)]);
  stats_.candidate_pairs += candidates;
  stats_.pruned_pairs += candidates - pairs.size();  // absent: kNotContained
  ++live_by_arity_[size_t(arity)];
  live_ids_.push_back(id);

  Status checked = Status::Ok();
  if (!pairs.empty()) {
    Result<std::vector<PairVerdict>> verdicts = engine_.CheckPairs(pairs);
    if (verdicts.ok()) {
      stats_.checked_pairs += pairs.size();
      Edges own_supers;
      for (size_t k = 0; k < pairs.size(); ++k) {
        const Resolution resolution = (*verdicts)[k].resolution;
        if (resolution == Resolution::kUnknown) ++stats_.unknown_pairs;
        if (resolution == Resolution::kNotContained) continue;
        ++edge_count_;
        // `id` is the largest id and each direction's pairs visit live ids
        // ascending, so every append keeps its row ascending.
        const auto [lhs, rhs] = pairs[k];
        if (lhs == id) {
          own_supers.push_back({rhs, resolution});
          nodes_[rhs].subs.push_back({id, resolution});
        } else {
          auto row = std::make_shared<Edges>();
          row->reserve(supers(lhs).size() + 1);
          row->assign(supers(lhs).begin(), supers(lhs).end());
          row->push_back({id, resolution});
          ReplaceSupers(lhs, std::move(row));
          nodes_[id].subs.push_back({lhs, resolution});
        }
      }
      ReplaceSupers(id, std::make_shared<const Edges>(std::move(own_supers)));
    } else {
      checked = verdicts.status();
    }
  }
  // Placed even when the check failed: the taxonomy follows the relation
  // as stored, and `id` is live either way.
  taxonomy_.Insert(id);
  retired_rows_.Seal();
  if (!checked.ok()) return checked;
  return id;
}

Status ContainmentIndex::Remove(size_t id) {
  if (!live(id)) {
    return NotFoundError("no live query with index id " + std::to_string(id));
  }
  // The maintainer reads id's pairs to find what it unsettles, so it runs
  // before they go.
  taxonomy_.Remove(id);
  Node& node = nodes_[id];
  // Pairs (j ⊆ id) live in the rows of id's subs, pairs (id ⊆ j) in the
  // sub lists of id's supers: only id's neighbours are visited.
  for (const Edge& sub : node.subs) {
    auto row = std::make_shared<Edges>();
    row->reserve(supers(sub.rhs).size() - 1);
    for (const Edge& edge : supers(sub.rhs)) {
      if (edge.rhs != id) row->push_back(edge);
    }
    ReplaceSupers(sub.rhs, std::move(row));
  }
  for (const Edge& super : supers(id)) {
    std::vector<Edge>& subs = nodes_[super.rhs].subs;
    subs.erase(LowerBound(subs, id));
  }
  edge_count_ -= node.subs.size() + supers(id).size();
  node.live = false;
  ReplaceSupers(id, nullptr);
  node.subs = {};  // releases the list's storage
  retired_rows_.Seal();
  live_ids_.erase(std::lower_bound(live_ids_.begin(), live_ids_.end(), id));
  --live_by_arity_[size_t(node.arity)];
  if (const ClosureSignature* signature = engine_.signature_of(id)) {
    UnfileContainer(id, *signature);
  }
  ++stats_.removed;
  return engine_.RemoveQuery(id);
}

RelationView ContainmentIndex::Relation() const {
  RelationView view;
  view.rows_.reserve(live_ids_.size());
  for (size_t id : live_ids_) {
    view.rows_.push_back({id, nodes_[id].supers.get()});
  }
  view.pin_ = retired_rows_.pin();
  return view;
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
  for (size_t id : ids) edges += supers(id).size();
  ContainmentRelation relation;
  relation.Reserve(ids.size(), edges);
  // Positions follow the order of `ids`; only when that is not ascending
  // do the rows need sorting.
  const bool ascending = std::is_sorted(ids.begin(), ids.end());
  std::vector<Edge> row;
  for (size_t id : ids) {
    row.clear();
    for (const Edge& edge : supers(id)) {
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

QueryTaxonomy ContainmentIndex::TaxonomyOf(std::span<const size_t> ids) const {
  return TaxonomyFromRelation(RelationOf(ids), int(stats_.checked_pairs),
                              int(stats_.unknown_pairs),
                              int(stats_.pruned_pairs));
}

}  // namespace floq
