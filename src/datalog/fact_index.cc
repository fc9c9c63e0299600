#include "datalog/fact_index.h"

#include <algorithm>

#include "util/check.h"

namespace floq {

void FactIndex::EnsureIds() const {
  if (ids_built_) return;
  const uint32_t n = size();
  ids_.reserve(n);
  for (uint32_t id = 0; id < n; ++id) ids_.emplace(at(id), id);
  ids_built_ = true;
}

void FactIndex::AppendPosting(PostingSlot& slot, uint32_t id) {
  FLOQ_DCHECK(slot.tail.empty() || slot.tail.back() < id);
  slot.tail.push_back(id);
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

PostingView FactIndex::WithPredicate(PredicateId pred) const {
  auto it = by_predicate_.find(pred);
  return it == by_predicate_.end() ? PostingView() : ViewOf(it->second);
}

PostingView FactIndex::WithArgument(PredicateId pred, int position,
                                    Term value) const {
  auto it = by_argument_.find(PositionKey(pred, position, value));
  return it == by_argument_.end() ? PostingView() : ViewOf(it->second);
}

void FactIndex::Freeze(uint32_t min_list_size) {
  PostingArena next;
  std::vector<uint32_t> scratch;
  auto freeze_slot = [&](PostingSlot& slot) {
    const size_t total = size_t(slot.frozen_count) + slot.tail.size();
    // A pure tail below the threshold stays mutable; anything already
    // frozen must be re-encoded regardless, since the old arena dies.
    if (slot.frozen_count == 0 && total < min_list_size) return;
    scratch.clear();
    ViewOf(slot).Materialize(scratch);
    slot.frozen_offset = next.EncodeList(scratch);
    slot.frozen_count = uint32_t(scratch.size());
    std::vector<uint32_t>().swap(slot.tail);
  };
  for (auto& [pred, slot] : by_predicate_) freeze_slot(slot);
  for (auto& [key, slot] : by_argument_) freeze_slot(slot);
  arena_ = std::move(next);
}

void FactIndex::Clear() {
  mapped_atoms_ = {};
  mapped_count_ = 0;
  mapped_owner_.reset();
  std::vector<Atom>().swap(atoms_);
  std::unordered_map<Atom, uint32_t, AtomHash>().swap(ids_);
  ids_built_ = true;
  std::unordered_map<PredicateId, PostingSlot>().swap(by_predicate_);
  std::unordered_map<uint64_t, PostingSlot>().swap(by_argument_);
  arena_.Clear();
}

bool FactIndex::PostingListsSorted() const {
  std::vector<uint32_t> scratch;
  auto strictly_increasing = [&](const PostingSlot& slot) {
    scratch.clear();
    ViewOf(slot).Materialize(scratch);
    for (size_t i = 1; i < scratch.size(); ++i) {
      if (scratch[i - 1] >= scratch[i]) return false;
    }
    return true;
  };
  for (const auto& [pred, slot] : by_predicate_) {
    if (!strictly_increasing(slot)) return false;
  }
  for (const auto& [key, slot] : by_argument_) {
    if (!strictly_increasing(slot)) return false;
  }
  return true;
}

FactIndex::StorageStats FactIndex::Stats() const {
  StorageStats stats;
  auto fold = [&](const PostingSlot& slot) {
    stats.postings += slot.frozen_count + slot.tail.size();
    stats.frozen_postings += slot.frozen_count;
    stats.tail_bytes += slot.tail.capacity() * sizeof(uint32_t);
  };
  for (const auto& [pred, slot] : by_predicate_) fold(slot);
  for (const auto& [key, slot] : by_argument_) fold(slot);
  stats.arena_bytes = arena_.size();
  return stats;
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
    for (const auto& [key, slot] : map) {
      bytes += sizeof(key) + sizeof(PostingSlot) + kNodeOverhead;
      bytes += slot.tail.capacity() * sizeof(uint32_t);
    }
  };
  fold(by_predicate_);
  fold(by_argument_);
  bytes += arena_.HeapBytes();
  return bytes;
}

}  // namespace floq
