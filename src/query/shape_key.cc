#include "query/shape_key.h"

#include <algorithm>
#include <array>

#include "term/predicate.h"

namespace floq {

namespace {

constexpr int kNotVariable = -1;
constexpr int kUnranked = -1;
// Atom placements a key's search may try before it gives up.
constexpr uint32_t kSearchNodes = 4096;

// An atom's code: its predicate, then one value per argument.
using AtomCode = std::array<uint32_t, kMaxArity + 1>;

// Builds the least key by a depth-first search over atom orders. Each
// step places one of the unplaced atoms whose code under the ranks given
// so far is least, ranking its new variables in order; only ties branch.
class Canonicalizer {
 public:
  explicit Canonicalizer(const ConjunctiveQuery& query) : query_(query) {
    const std::vector<Atom>& body = query.body();
    // Queries hold a handful of variables: a linear scan beats hashing.
    auto index_of = [&](Term t) {
      if (!t.IsVariable()) return kNotVariable;
      for (size_t v = 0; v < variables_.size(); ++v) {
        if (variables_[v].term == t) return int(v);
      }
      variables_.push_back({t});
      return int(variables_.size() - 1);
    };
    atoms_.resize(body.size());
    size_t key_size = 2 + query.head().size();
    for (size_t a = 0; a < body.size(); ++a) {
      key_size += 1 + body[a].arity();
      for (int i = 0; i < body[a].arity(); ++i) {
        const int v = index_of(body[a].arg(i));
        atoms_[a].args[i] = v;
        if (v == kNotVariable) continue;
        // Count each atom once per variable it holds.
        bool seen = false;
        for (int k = 0; k < i; ++k) seen |= atoms_[a].args[k] == v;
        if (!seen) ++variables_[v].atoms;
      }
    }
    key_.reserve(key_size);
    tied_.reserve(body.size());
    key_.push_back(uint32_t(query.arity()));
    for (Term t : query.head()) {
      const int v = index_of(t);
      if (v != kNotVariable && variables_[v].rank == kUnranked) {
        variables_[v].rank = next_rank_++;
      }
      key_.push_back(v == kNotVariable
                         ? t.raw()
                         : Term::Variable(variables_[v].rank).raw());
    }
    key_.push_back(uint32_t(body.size()));
  }

  std::optional<std::vector<uint32_t>> Run() {
    if (!Search(0)) return std::nullopt;
    return std::move(best_);
  }

 private:
  struct Variable {
    Term term;
    int rank = kUnranked;
    // The number of body atoms holding the variable.
    uint32_t atoms = 0;
  };
  struct AtomSlots {
    // Per argument: the variable's index into variables_, or
    // kNotVariable.
    std::array<int, kMaxArity> args{};
    bool placed = false;
  };

  int length(size_t atom) const { return 1 + query_.body()[atom].arity(); }

  // The code of `atom` under the current ranks; a variable without a rank
  // reads as the rank it would get if `atom` were placed next.
  AtomCode Encode(size_t atom) const {
    const Atom& a = query_.body()[atom];
    const std::array<int, kMaxArity>& args = atoms_[atom].args;
    AtomCode code{};
    code[0] = a.predicate();
    std::array<int, kMaxArity> ranks{};
    int fresh = next_rank_;
    for (int i = 0; i < a.arity(); ++i) {
      const int v = args[i];
      if (v == kNotVariable) {
        code[i + 1] = a.arg(i).raw();
        continue;
      }
      ranks[i] = variables_[v].rank;
      for (int k = 0; k < i && ranks[i] == kUnranked; ++k) {
        if (args[k] == v) ranks[i] = ranks[k];
      }
      if (ranks[i] == kUnranked) ranks[i] = fresh++;
      code[i + 1] = Term::Variable(uint32_t(ranks[i])).raw();
    }
    return code;
  }

  // Whether every variable `atom` would rank is private to it: then any
  // tied atom of the same kind is its image under an automorphism that
  // fixes everything placed, and placing either yields the same keys.
  bool IntroducesOnlyPrivateVariables(size_t atom) const {
    for (int i = 0; i < query_.body()[atom].arity(); ++i) {
      const int v = atoms_[atom].args[i];
      if (v != kNotVariable && variables_[v].rank == kUnranked &&
          variables_[v].atoms != 1) {
        return false;
      }
    }
    return true;
  }

  // False once the node budget is spent.
  bool Search(size_t placed) {
    const std::vector<Atom>& body = query_.body();
    if (placed == body.size()) {
      if (best_.empty() || key_ < best_) best_ = key_;
      return true;
    }
    // This node's tied atoms sit at the top of tied_, above its callers'.
    const size_t first = tied_.size();
    AtomCode least{};
    for (size_t a = 0; a < body.size(); ++a) {
      if (atoms_[a].placed) continue;
      const AtomCode code = Encode(a);
      const int n = length(a);
      if (tied_.size() == first ||
          std::lexicographical_compare(code.begin(), code.begin() + n,
                                       least.begin(), least.begin() + n)) {
        least = code;
        tied_.resize(first);
        tied_.push_back(a);
      } else if (std::equal(code.begin(), code.begin() + n, least.begin())) {
        tied_.push_back(a);
      }
    }
    const size_t prefix = key_.size();
    key_.insert(key_.end(), least.begin(),
                least.begin() + length(tied_[first]));
    // A prefix already above the best key's cannot lead below it.
    if (!best_.empty() &&
        std::lexicographical_compare(best_.begin(),
                                     best_.begin() + key_.size(),
                                     key_.begin(), key_.end())) {
      key_.resize(prefix);
      tied_.resize(first);
      return true;
    }
    const int rank_before = next_rank_;
    bool private_tried = false;
    for (size_t k = first; k < tied_.size(); ++k) {
      const size_t a = tied_[k];
      // Skip a copy of an atom already tried, and all but the first atom
      // that introduces only private variables.
      bool repeat = false;
      for (size_t j = first; j < k && !repeat; ++j) {
        repeat = body[tied_[j]] == body[a];
      }
      if (repeat) continue;
      if (IntroducesOnlyPrivateVariables(a)) {
        if (private_tried) continue;
        private_tried = true;
      }
      if (++nodes_ > kSearchNodes) return false;
      std::array<int, kMaxArity> ranked{};
      int ranked_count = 0;
      for (int i = 0; i < body[a].arity(); ++i) {
        const int v = atoms_[a].args[i];
        if (v != kNotVariable && variables_[v].rank == kUnranked) {
          variables_[v].rank = next_rank_++;
          ranked[ranked_count++] = v;
        }
      }
      atoms_[a].placed = true;
      if (!Search(placed + 1)) return false;
      atoms_[a].placed = false;
      for (int r = 0; r < ranked_count; ++r) {
        variables_[ranked[r]].rank = kUnranked;
      }
      next_rank_ = rank_before;
    }
    key_.resize(prefix);
    tied_.resize(first);
    return true;
  }

  const ConjunctiveQuery& query_;
  // In order of first occurrence in the body.
  std::vector<Variable> variables_;
  // Parallel to the body.
  std::vector<AtomSlots> atoms_;
  int next_rank_ = 0;
  // The tied atoms of every node on the current path, deepest last.
  std::vector<size_t> tied_;
  // The key of the current partial order, and the least complete key.
  std::vector<uint32_t> key_;
  std::vector<uint32_t> best_;
  uint32_t nodes_ = 0;
};

// One step of a multiplicative hash, and a final avalanche (splitmix64's).
uint64_t Mix(uint64_t h, uint64_t v) { return (h ^ v) * 0x9e3779b97f4a7c15ULL; }
uint64_t Avalanche(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Every variable digests as this value: no Term::raw() is this large.
constexpr uint64_t kAnyVariable = uint64_t(1) << 32;

uint64_t TermDigest(Term t) { return t.IsVariable() ? kAnyVariable : t.raw(); }

}  // namespace

std::optional<std::vector<uint32_t>> ShapeKey(const ConjunctiveQuery& query) {
  return Canonicalizer(query).Run();
}

uint64_t ShapeDigest(const ConjunctiveQuery& query) {
  uint64_t head = Mix(0, uint64_t(query.arity()));
  for (Term t : query.head()) head = Mix(head, TermDigest(t));
  uint64_t body = 0;
  for (const Atom& atom : query.body()) {
    uint64_t h = Mix(1, atom.predicate());
    for (Term t : atom) h = Mix(h, TermDigest(t));
    body += Avalanche(h);
  }
  return Avalanche(Mix(head, body));
}

}  // namespace floq
