#include "datalog/fact_index.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace floq {

void FactIndex::EnsureIds() const {
  if (ids_built_) return;
  const uint32_t n = size();
  ids_.reserve(n);
  for (uint32_t id = 0; id < n; ++id) ids_.emplace(at(id), id);
  ids_built_ = true;
}

void FactIndex::AppendPosting(PostingList& list, uint32_t id) {
  if (!list.mapped.empty()) {
    list.ids.assign(list.mapped.begin(), list.mapped.end());
    list.mapped = {};
  }
  FLOQ_DCHECK(list.ids.empty() || list.ids.back() < id);
  list.ids.push_back(id);
}

std::pair<uint32_t, bool> FactIndex::Insert(const Atom& atom) {
  EnsureIds();
  auto [it, inserted] = ids_.emplace(atom, size());
  if (!inserted) return {it->second, false};
  const uint32_t id = it->second;
  atoms_.push_back(atom);
  AppendPosting(by_predicate_[atom.predicate()], id);
  for (int i = 0; i < atom.arity(); ++i) {
    AppendPosting(by_argument_[PositionKey(atom.predicate(), i, atom.arg(i))],
                  id);
  }
  return {id, true};
}

std::span<const uint32_t> FactIndex::WithPredicate(PredicateId pred) const {
  auto it = by_predicate_.find(pred);
  return it == by_predicate_.end() ? std::span<const uint32_t>()
                                   : it->second.view();
}

std::span<const uint32_t> FactIndex::WithArgument(PredicateId pred,
                                                  int position,
                                                  Term value) const {
  auto it = by_argument_.find(PositionKey(pred, position, value));
  return it == by_argument_.end() ? std::span<const uint32_t>()
                                  : it->second.view();
}

void FactIndex::Clear() {
  mapped_atoms_ = {};
  mapped_count_ = 0;
  mapped_owner_.reset();
  std::vector<Atom>().swap(atoms_);
  std::unordered_map<Atom, uint32_t, AtomHash>().swap(ids_);
  ids_built_ = true;
  std::unordered_map<PredicateId, PostingList>().swap(by_predicate_);
  std::unordered_map<uint64_t, PostingList>().swap(by_argument_);
}

bool FactIndex::PostingListsSorted() const {
  auto strictly_increasing = [](const PostingList& list) {
    const std::span<const uint32_t> ids = list.view();
    return std::ranges::adjacent_find(ids, std::greater_equal<>()) ==
           ids.end();
  };
  for (const auto& [pred, list] : by_predicate_) {
    if (!strictly_increasing(list)) return false;
  }
  for (const auto& [key, list] : by_argument_) {
    if (!strictly_increasing(list)) return false;
  }
  return true;
}

size_t FactIndex::MemoryFootprint() const {
  // Approximate: capacities plus per-node map overhead (bucket pointer +
  // node next-pointer), enough to make shrinkage measurable.
  constexpr size_t kNodeOverhead = 2 * sizeof(void*);
  size_t bytes = atoms_.capacity() * sizeof(Atom);
  bytes += ids_.bucket_count() * sizeof(void*);
  bytes += ids_.size() * (sizeof(std::pair<Atom, uint32_t>) + kNodeOverhead);
  auto fold = [&](const auto& map) {
    bytes += map.bucket_count() * sizeof(void*);
    for (const auto& [key, list] : map) {
      bytes += sizeof(key) + sizeof(PostingList) + kNodeOverhead;
      bytes += list.ids.capacity() * sizeof(uint32_t);
    }
  };
  fold(by_predicate_);
  fold(by_argument_);
  return bytes;
}

}  // namespace floq
