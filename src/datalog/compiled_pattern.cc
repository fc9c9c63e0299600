#include "datalog/compiled_pattern.h"

#include <algorithm>
#include <memory>
#include <type_traits>

#include "datalog/binding_trail.h"
#include "util/metrics.h"

namespace floq {

void CompiledPattern::Compile(std::span<const Atom> pattern,
                              const FactIndex& index,
                              const Substitution& initial,
                              MatchStats* stats) {
  atoms_.clear();
  slot_vars_.clear();
  impossible_ = false;
  // Reject pass: before allocating anything, scan for an atom whose
  // predicate bucket or constant-position posting list is empty. Dead
  // patterns are the common case in containment search (most probes do
  // not embed), and this makes them allocation-free: the whole "search"
  // is a handful of hash probes. The re-probe of surviving constant
  // positions below is one hash lookup each, noise next to the search a
  // live pattern then runs.
  for (const Atom& p : pattern) {
    if (index.WithPredicate(p.predicate()).empty()) {
      impossible_ = true;
      return;
    }
    for (int i = 0; i < p.arity(); ++i) {
      Term arg = p.arg(i);
      if (arg.IsVariable() && initial.Lookup(arg) == nullptr) continue;
      if (stats != nullptr) ++stats->index_probes;
      if (index.WithArgument(p.predicate(), i, initial.Apply(arg)).empty()) {
        impossible_ = true;
        return;
      }
    }
  }

  atoms_.reserve(pattern.size());
  for (const Atom& p : pattern) {
    CompiledAtom ca;
    ca.predicate = p.predicate();
    ca.arity = uint8_t(p.arity());
    ca.static_best = index.WithPredicate(p.predicate());
    for (int i = 0; i < p.arity(); ++i) {
      Term arg = p.arg(i);
      CompiledArg& slot_arg = ca.args[i];
      if (arg.IsVariable() && initial.Lookup(arg) == nullptr) {
        // Renumber to a dense slot. Linear scan: patterns have a handful
        // of distinct variables, and this runs once per search (a hash
        // map's allocation costs more than the scan saves).
        auto it = std::find(slot_vars_.begin(), slot_vars_.end(), arg);
        uint32_t slot = uint32_t(it - slot_vars_.begin());
        if (it == slot_vars_.end()) slot_vars_.push_back(arg);
        slot_arg.kind = CompiledArg::Kind::kSlot;
        slot_arg.slot = slot;
        for (int j = 0; j < i; ++j) {
          if (ca.args[j].kind == CompiledArg::Kind::kSlot &&
              ca.args[j].slot == slot) {
            slot_arg.repeated_in_atom = true;
            break;
          }
        }
        ca.slot_positions[ca.num_slot_positions++] = {uint8_t(i), slot};
      } else {
        // A constant, a null, or a variable the initial substitution
        // already pins: its posting list is fixed for the whole search.
        // The reject pass proved it nonempty.
        slot_arg.kind = CompiledArg::Kind::kConstant;
        slot_arg.value = initial.Apply(arg);
        const std::span<const uint32_t> ids =
            index.WithArgument(p.predicate(), i, slot_arg.value);
        // <= so ties prefer the argument list: it is a subset of the
        // predicate bucket, so unification rejects fewer candidates.
        if (ids.size() <= ca.static_best.size()) ca.static_best = ids;
      }
    }
    atoms_.push_back(ca);
  }
}

namespace {

// Cached candidate list for one pattern atom — the smallest of its
// constraining posting lists (predicate bucket, constant positions, bound
// slot positions) — valid as long as none of its slots was bound or
// unbound since (tracked by version sums: slot_version is bumped on every
// bind *and* undo, so a version-sum match proves the atom's binding state
// is unchanged and the node can reuse the cached list without re-probing
// the index). Within a stale atom, caching is per *position*: binding one
// slot of a three-slot atom re-probes one list, not three — index probes
// are the dominant per-node cost, and sibling nodes invalidate shared
// atoms constantly.
struct AtomCache {
  uint64_t version = ~uint64_t{0};  // sentinel: always stale initially
  uint32_t best_size = 0;
  std::span<const uint32_t> best;
  // Per-slot-position memo, indexed like CompiledAtom::slot_positions:
  // the list probed for that position and the slot version it was probed
  // at (pos_has_list marks positions whose slot was unbound then — an
  // empty span is also what a bound slot with no facts probes, so
  // boundness needs its own flag).
  std::array<std::span<const uint32_t>, kMaxArity> pos_list{};
  std::array<bool, kMaxArity> pos_has_list{};
  std::array<uint64_t, kMaxArity> pos_version{};
};

// Candidates walked per governor TickBatch (see BindNextCandidate).
constexpr uint32_t kGovernorBatch = 64;

// One level of the explicit search stack: the atom placed at this depth,
// where it sat in the remaining list, and its candidate ids [next, end).
// `mark` is the trail depth before the current candidate's bindings.
struct Frame {
  Frame() = default;
  Frame(std::span<const uint32_t> candidates, uint32_t atom,
        uint32_t position)
      : next(candidates.data()),
        end(candidates.data() + candidates.size()),
        atom_index(atom),
        remaining_pos(position) {}
  const uint32_t* next = nullptr;
  const uint32_t* end = nullptr;
  uint32_t atom_index = 0;
  uint32_t remaining_pos = 0;
  uint32_t governor_countdown = kGovernorBatch;
  size_t mark = 0;
};
static_assert(std::is_trivially_destructible_v<Frame>);

// Per-thread reusable kernel state. Containment search runs millions of
// tiny searches (most die after a handful of nodes), so per-search
// malloc/free of the compile output and matcher arrays would rival the
// search itself; keeping one scratch per thread makes the steady state
// allocation-free. `in_use` guards re-entrancy: an on_match callback that
// starts another search gets a fresh stack-local scratch instead.
struct KernelScratch {
  CompiledPattern pattern;
  BindingTrail trail;
  std::vector<uint64_t> slot_version;
  std::vector<AtomCache> cache;
  std::vector<Term> emitted;
  std::vector<uint32_t> remaining;
  std::vector<Frame> frames;
  bool in_use = false;
};

// How a search node settled: kDescend pushed a frame whose candidates are
// still to walk; kContinue and kStop are a finished node's verdict (go on
// enumerating, or stop: the callback said so or the governor tripped).
enum class Step : uint8_t { kDescend, kContinue, kStop };

// The trail-based backtracking search over a compiled pattern, run on an
// explicit stack of Frames rather than the call stack, so the depth a
// pattern reaches (one frame per atom) costs heap, not thread stack.
class CompiledMatcher {
 public:
  CompiledMatcher(const CompiledPattern& pattern, const FactIndex& index,
                  const Substitution& initial,
                  FunctionRef<bool(const Substitution&)> on_match,
                  MatchStats* stats, ExecGovernor* governor,
                  KernelScratch& scratch)
      : pattern_(pattern),
        index_(index),
        on_match_(on_match),
        stats_(stats),
        governor_(governor),
        trail_(scratch.trail),
        slot_version_(scratch.slot_version),
        cache_(scratch.cache),
        emit_(initial),
        emitted_(scratch.emitted),
        remaining_(scratch.remaining) {
    size_t num_slots = pattern.num_slots();
    size_t num_atoms = pattern.atoms().size();
    trail_.Reset(num_slots);
    slot_version_.assign(num_slots, 0);
    cache_.assign(num_atoms, AtomCache{});
    emitted_.assign(num_slots, Term());
    remaining_.clear();
    remaining_.reserve(num_atoms);
    for (size_t i = 0; i < num_atoms; ++i) remaining_.push_back(uint32_t(i));
    // Depth never exceeds the atom count. Frames are trivially
    // destructible, so Expand constructs each node's frame in place over
    // the slot its finished sibling left: no per-node vector bookkeeping.
    if (scratch.frames.size() < num_atoms) scratch.frames.resize(num_atoms);
    frames_ = scratch.frames.data();
  }

  /// Returns false iff the enumeration was stopped early.
  bool Run() {
    Step step = Expand();
    while (depth_ > 0) {
      Frame& frame = frames_[depth_ - 1];
      if (step != Step::kDescend) {
        // The node under this frame's current candidate has settled:
        // undo its bindings and, unless it stopped the search, move on.
        UndoToMark(frame.mark);
        if (step == Step::kContinue) ++frame.next;
      }
      if (step != Step::kStop) {
        step = BindNextCandidate(frame);
        if (step == Step::kDescend) {
          step = Expand();
          continue;
        }
      }
      // Candidates exhausted, or the search stops: the frame settles with
      // `step` as its verdict, which its parent receives next iteration.
      remaining_.insert(remaining_.begin() + frame.remaining_pos,
                        frame.atom_index);
      --depth_;
    }
    return step != Step::kStop;
  }

 private:
  uint64_t VersionOf(const CompiledAtom& atom) const {
    uint64_t v = 0;
    for (uint8_t i = 0; i < atom.num_slot_positions; ++i) {
      v += slot_version_[atom.slot_positions[i].second];
    }
    return v;
  }

  void Refresh(uint32_t atom_index, uint64_t version) {
    const CompiledAtom& atom = pattern_.atoms()[atom_index];
    AtomCache& cache = cache_[atom_index];
    cache.version = version;
    const std::span<const uint32_t>* best = &atom.static_best;
    for (uint8_t i = 0; i < atom.num_slot_positions; ++i) {
      auto [position, slot] = atom.slot_positions[i];
      // The zero-initialized memo is already valid: slot version 0 means
      // "never bound", and the memo's default for it is "no list".
      uint64_t slot_version = slot_version_[slot];
      if (cache.pos_version[i] != slot_version) {
        cache.pos_version[i] = slot_version;
        if (trail_.Bound(slot)) {
          if (stats_ != nullptr) ++stats_->index_probes;
          cache.pos_list[i] = index_.WithArgument(atom.predicate, position,
                                                  trail_.Get(slot));
          cache.pos_has_list[i] = true;
        } else {
          cache.pos_has_list[i] = false;
        }
      }
      if (cache.pos_has_list[i] && cache.pos_list[i].size() < best->size()) {
        best = &cache.pos_list[i];
      }
    }
    cache.best = *best;
    cache.best_size = uint32_t(best->size());
  }

  void BindSlot(uint32_t slot, Term value) {
    trail_.Bind(slot, value);
    ++slot_version_[slot];
  }

  void UndoToMark(size_t mark) {
    const std::vector<uint32_t>& trail = trail_.trail();
    for (size_t i = mark; i < trail.size(); ++i) ++slot_version_[trail[i]];
    trail_.UndoTo(mark);
  }

  bool Unify(const CompiledAtom& atom, const Atom& fact, size_t mark) {
    for (uint8_t i = 0; i < atom.arity; ++i) {
      const CompiledArg& arg = atom.args[i];
      Term image = fact.arg(i);
      if (arg.kind == CompiledArg::Kind::kConstant) {
        if (arg.value != image) {
          UndoToMark(mark);
          return false;
        }
      } else if (trail_.Bound(arg.slot)) {
        if (trail_.Get(arg.slot) != image) {
          UndoToMark(mark);
          return false;
        }
      } else {
        BindSlot(arg.slot, image);
      }
    }
    return true;
  }

  // The Substitution handed to the callback. Built incrementally: at a
  // full match every slot is bound, and consecutive matches of a DFS
  // enumeration differ only in their deepest bindings, so diffing against
  // the previously emitted assignment turns the per-match cost from
  // "rebuild a hash map" into a slot-array scan plus a hash update per
  // *changed* slot. The substitution is valid for the duration of the
  // callback; copy to retain.
  const Substitution& Materialize() {
    for (uint32_t slot = 0; slot < uint32_t(emitted_.size()); ++slot) {
      Term value = trail_.Get(slot);
      if (emitted_[slot] != value) {
        emit_.Bind(pattern_.slot_var(slot), value);
        emitted_[slot] = value;
      }
    }
    return emit_;
  }

  // Expands one search node: a complete match goes to the callback, a
  // dead end settles at once, and otherwise the most constrained remaining
  // atom leaves the remaining list and gets a frame.
  Step Expand() {
    if (stats_ != nullptr) ++stats_->nodes_visited;
    // A governor trip unwinds exactly like a callback stop (every frame
    // undoes its trail mark); the caller distinguishes the two by
    // inspecting governor->tripped().
    if (governor_ != nullptr && !governor_->Tick()) return Step::kStop;
    if (remaining_.empty()) {
      if (stats_ != nullptr) ++stats_->matches_found;
      return on_match_(Materialize()) ? Step::kContinue : Step::kStop;
    }

    // Most-constrained-first over *cached* candidate counts: only atoms
    // whose slots changed since their last estimate re-probe the index.
    size_t best_pos = 0;
    uint32_t best_count = UINT32_MAX;
    for (size_t pos = 0; pos < remaining_.size(); ++pos) {
      uint32_t atom_index = remaining_[pos];
      uint64_t version = VersionOf(pattern_.atoms()[atom_index]);
      if (cache_[atom_index].version != version) Refresh(atom_index, version);
      uint32_t count = cache_[atom_index].best_size;
      if (count < best_count) {
        best_count = count;
        best_pos = pos;
        if (count == 0) return Step::kContinue;  // dead end
      }
    }
    uint32_t atom_index = remaining_[best_pos];
    remaining_.erase(remaining_.begin() + best_pos);
    std::construct_at(&frames_[depth_++], cache_[atom_index].best,
                      atom_index, uint32_t(best_pos));
    return Step::kDescend;
  }

  // Advances the frame through its atom's smallest constraining list to
  // the next candidate that unifies, leaving that candidate's bindings on
  // the trail: kDescend. Unify rejects candidates that miss one of the
  // atom's other constants or bound slots. kContinue when the list is
  // exhausted; kStop when the governor trips. The governor ticks per
  // candidate, since a long run of rejected candidates never reaches
  // Expand(), batched through the frame's countdown: the hot loop pays
  // one decrement, and the governor's state is touched once per
  // kGovernorBatch candidates (still far finer than its clock stride).
  Step BindNextCandidate(Frame& frame) {
    const CompiledAtom& atom = pattern_.atoms()[frame.atom_index];
    for (; frame.next != frame.end; ++frame.next) {
      if (governor_ != nullptr && --frame.governor_countdown == 0) {
        frame.governor_countdown = kGovernorBatch;
        if (!governor_->TickBatch(kGovernorBatch)) return Step::kStop;
      }
      frame.mark = trail_.Mark();
      if (Unify(atom, index_.at(*frame.next), frame.mark)) {
        return Step::kDescend;
      }
    }
    return Step::kContinue;
  }

  const CompiledPattern& pattern_;
  const FactIndex& index_;
  FunctionRef<bool(const Substitution&)> on_match_;
  MatchStats* stats_;
  ExecGovernor* governor_;
  // Search state, borrowed from the per-thread KernelScratch.
  BindingTrail& trail_;
  std::vector<uint64_t>& slot_version_;
  std::vector<AtomCache>& cache_;
  // Emission state for Materialize(): the last substitution handed to the
  // callback and, per slot, the value it held then (invalid = never).
  Substitution emit_;
  std::vector<Term>& emitted_;
  std::vector<uint32_t>& remaining_;
  // The search stack: frames_[0, depth_) are the placed atoms' frames.
  Frame* frames_ = nullptr;
  size_t depth_ = 0;
};

// Folds the search effort of one MatchConjunction call into the registry.
// The counters mirror MatchStats field for field so --metrics-out exposes
// the same series bench_hom_search reports. Called only when metrics are
// enabled; the instruments are cached in statics after the first call.
void FoldMatchMetrics(const MatchStats& before, const MatchStats& after) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  static Counter& searches = registry.counter("match.kernel_dispatch");
  static Counter& nodes = registry.counter("hom.nodes_visited");
  static Counter& matches = registry.counter("hom.matches_found");
  static Counter& probes = registry.counter("hom.index_probes");
  static Counter& rejects = registry.counter("hom.reject_prepass_hits");
  searches.Add(1);
  auto fold = [](Counter& c, uint64_t b, uint64_t a) {
    if (a > b) c.Add(a - b);
  };
  fold(nodes, before.nodes_visited, after.nodes_visited);
  fold(matches, before.matches_found, after.matches_found);
  fold(probes, before.index_probes, after.index_probes);
  fold(rejects, before.reject_prepass_hits, after.reject_prepass_hits);
}

bool Search(std::span<const Atom> pattern, const FactIndex& index,
            const Substitution& initial,
            FunctionRef<bool(const Substitution&)> on_match,
            MatchStats* stats, ExecGovernor* governor) {
  thread_local KernelScratch tls;
  KernelScratch local;  // empty vectors: only filled if re-entered
  KernelScratch& scratch = tls.in_use ? local : tls;
  scratch.in_use = true;
  struct Release {
    bool* flag;
    ~Release() { *flag = false; }
  } release{&scratch.in_use};

  scratch.pattern.Compile(pattern, index, initial, stats);
  if (scratch.pattern.impossible()) {
    if (stats != nullptr) ++stats->reject_prepass_hits;
    return true;  // no matches, not stopped early
  }
  return CompiledMatcher(scratch.pattern, index, initial, on_match, stats,
                         governor, scratch)
      .Run();
}

}  // namespace

bool MatchConjunction(std::span<const Atom> pattern, const FactIndex& index,
                      const Substitution& initial,
                      FunctionRef<bool(const Substitution&)> on_match,
                      MatchStats* stats, const MatchOptions& options) {
  // With metrics on, effort is folded into the registry once per call —
  // never per node. A caller-provided MatchStats is snapshotted so only
  // this call's delta lands; callers without one get a local stand-in.
  const bool metrics = MetricsRegistry::enabled();
  MatchStats local;
  MatchStats* effective = stats;
  if (metrics && effective == nullptr) effective = &local;
  const MatchStats before = effective != nullptr ? *effective : MatchStats{};
  const bool complete =
      Search(pattern, index, initial, on_match, effective, options.governor);
  if (metrics) FoldMatchMetrics(before, *effective);
  return complete;
}

}  // namespace floq
