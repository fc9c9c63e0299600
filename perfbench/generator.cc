#include "generator.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "containment/containment.h"
#include "containment/homomorphism.h"
#include "flogic/parser.h"
#include "term/atom.h"
#include "util/rng.h"

namespace floqbench {

using floq::Atom;
using floq::ConjunctiveQuery;
using floq::Resolution;
using floq::Result;
using floq::Rng;
using floq::Status;
using floq::Term;
using floq::World;

namespace {

GenTerm V(std::string name) { return GenTerm{std::move(name), true}; }
GenTerm C(std::string name) { return GenTerm{std::move(name), false}; }

GenAtom Member(GenTerm o, GenTerm c) { return {Pred::kMember, {o, c}}; }
GenAtom Sub(GenTerm c, GenTerm d) { return {Pred::kSub, {c, d}}; }
GenAtom Data(GenTerm o, GenTerm a, GenTerm v) {
  return {Pred::kData, {o, a, v}};
}
GenAtom Type(GenTerm o, GenTerm a, GenTerm t) {
  return {Pred::kType, {o, a, t}};
}
GenAtom Mandatory(GenTerm a, GenTerm o) { return {Pred::kMandatory, {a, o}}; }
GenAtom Funct(GenTerm a, GenTerm o) { return {Pred::kFunct, {a, o}}; }

// prefix + decimal index ("O3", "fam12").
std::string Numbered(std::string prefix, int64_t index) {
  prefix += std::to_string(index);
  return prefix;
}

std::string Pick(Rng& rng, const std::vector<std::string>& pool) {
  return pool[rng.Below(pool.size())];
}

std::vector<std::string> Names(const std::string& prefix, int count) {
  std::vector<std::string> names;
  for (int i = 0; i < count; ++i) names.push_back(Numbered(prefix, i));
  return names;
}

// ---- families ---------------------------------------------------------------

const std::vector<std::string>& FamilyClasses() {
  static const std::vector<std::string> names = Names("k", 12);
  return names;
}
const std::vector<std::string>& FamilyAttributes() {
  static const std::vector<std::string> names = Names("at", 8);
  return names;
}

GenQuery FamilyBase(Rng& rng, int family) {
  GenQuery q;
  q.name = Numbered("f", family) + "b";
  q.head = {V("X")};
  q.body.push_back(Member(V("X"), C(Numbered("fam", family))));
  std::vector<std::string> vars = {"X"};
  const std::vector<std::string> fresh = {"Y", "Z", "U", "W"};
  const int extra = int(rng.Between(2, 5));
  for (int i = 0; i < extra; ++i) {
    const std::string from = Pick(rng, vars);
    const uint64_t kind = rng.Below(10);
    if (kind < 5) {
      std::string to;
      if (vars.size() <= fresh.size() && rng.Chance(0.7)) {
        to = fresh[vars.size() - 1];
        vars.push_back(to);
      } else {
        to = Pick(rng, vars);
      }
      q.body.push_back(
          Data(V(from), C(Pick(rng, FamilyAttributes())), V(to)));
    } else if (kind < 8) {
      q.body.push_back(Member(V(from), C(Pick(rng, FamilyClasses()))));
    } else if (kind < 9) {
      q.body.push_back(Type(V(from), C(Pick(rng, FamilyAttributes())),
                            C(Pick(rng, FamilyClasses()))));
    } else {
      q.body.push_back(Sub(C(Pick(rng, FamilyClasses())),
                           C(Pick(rng, FamilyClasses()))));
    }
  }
  return q;
}

std::vector<std::string> VariablesOf(const GenQuery& q) {
  std::vector<std::string> vars;
  for (const GenAtom& atom : q.body) {
    for (const GenTerm& t : atom.args) {
      if (t.variable &&
          std::find(vars.begin(), vars.end(), t.name) == vars.end()) {
        vars.push_back(t.name);
      }
    }
  }
  return vars;
}

// Renamed variables, shuffled atoms: equivalent to the base.
GenQuery FamilyRenamed(Rng& rng, const GenQuery& base, int family) {
  GenQuery q = base;
  q.name = Numbered("f", family) + "r";
  auto rename = [](GenTerm& t) {
    if (t.variable) t.name += "r";
  };
  for (GenTerm& t : q.head) rename(t);
  for (GenAtom& atom : q.body) {
    for (GenTerm& t : atom.args) rename(t);
  }
  for (size_t i = q.body.size(); i > 1; --i) {
    std::swap(q.body[i - 1], q.body[rng.Below(i)]);
  }
  return q;
}

// `X : famF` becomes `X : famFs, famFs :: famF`: contained in the base
// only through rho_3.
GenQuery FamilySubclassed(const GenQuery& base, int family) {
  GenQuery q;
  q.name = Numbered("f", family) + "s";
  q.head = base.head;
  const std::string fam = Numbered("fam", family);
  const std::string sub = fam + "s";
  for (const GenAtom& atom : base.body) {
    if (atom.pred == Pred::kMember && !atom.args[1].variable &&
        atom.args[1].name == fam) {
      q.body.push_back(Member(atom.args[0], C(sub)));
      q.body.push_back(Sub(C(sub), C(fam)));
    } else {
      q.body.push_back(atom);
    }
  }
  return q;
}

// The base plus atoms over a private constant: contained in its parent.
GenQuery FamilyExtended(Rng& rng, const GenQuery& parent, int family,
                        int level) {
  GenQuery q = parent;
  q.name = Numbered("f", family) + Numbered("e", level);
  const std::string mark =
      Numbered("fam", family) + Numbered("e", level);
  std::vector<std::string> vars = VariablesOf(parent);
  q.body.push_back(Member(V(Pick(rng, vars)), C(mark)));
  if (rng.Chance(0.5)) {
    q.body.push_back(Data(V(Pick(rng, vars)), C(Pick(rng, FamilyAttributes())),
                          V(Numbered("E", level))));
  }
  return q;
}

// ---- narrow vocabulary ------------------------------------------------------

GenQuery NarrowQuery(Rng& rng, const std::string& name) {
  static const std::vector<std::string> classes = Names("n", 3);
  static const std::vector<std::string> attributes = Names("na", 2);
  GenQuery q;
  q.name = name;
  q.head = {V("X")};
  std::vector<std::string> vars = {"X"};
  const int atoms = int(rng.Between(2, 4));
  for (int i = 0; i < atoms; ++i) {
    const std::string from = Pick(rng, vars);
    const uint64_t kind = rng.Below(10);
    if (kind < 4) {
      std::string to;
      if (vars.size() < 3 && rng.Chance(0.6)) {
        to = vars.size() == 1 ? "Y" : "Z";
        vars.push_back(to);
      } else {
        to = Pick(rng, vars);
      }
      q.body.push_back(Data(V(from), C(Pick(rng, attributes)), V(to)));
    } else if (kind < 7) {
      q.body.push_back(Member(V(from), C(Pick(rng, classes))));
    } else if (kind < 9) {
      q.body.push_back(
          Type(V(from), C(Pick(rng, attributes)), C(Pick(rng, classes))));
    } else {
      q.body.push_back(Sub(C(Pick(rng, classes)), C(Pick(rng, classes))));
    }
  }
  // The head variable must occur in the body.
  bool has_head = false;
  for (const GenAtom& atom : q.body) {
    for (const GenTerm& t : atom.args) has_head |= t.variable && t.name == "X";
  }
  if (!has_head) q.body.push_back(Member(V("X"), C(Pick(rng, classes))));
  return q;
}

// ---- spine ------------------------------------------------------------------

// s(T) :- mandatory(sa1, T), T[sa1 *=> st2], mandatory(sa2, st2), ...,
//         stk[sak *=> T].
GenQuery MandatoryCycle(int k, const std::string& name) {
  GenQuery q;
  q.name = name;
  q.head = {V("T")};
  auto node = [](int i) {
    return i == 1 ? V("T") : C(Numbered("st", i));
  };
  for (int i = 1; i <= k; ++i) {
    const GenTerm attribute = C(Numbered("sa", i));
    q.body.push_back(Mandatory(attribute, node(i)));
    q.body.push_back(Type(node(i), attribute, node(i == k ? 1 : i + 1)));
  }
  return q;
}

// p(O1) :- O1[A -> O2], O2[A -> O3], ..., Om[A -> Om+1].
GenQuery DataChainProbe(int m, const std::string& name) {
  GenQuery q;
  q.name = name;
  q.head = {V("O1")};
  for (int i = 1; i <= m; ++i) {
    q.body.push_back(Data(V(Numbered("O", i)), V("A"),
                          V(Numbered("O", i + 1))));
  }
  return q;
}

// ---- ad-hoc classes ---------------------------------------------------------

// Class (e) shape: one attribute over 14 nodes makes the 68-edge target
// dense, so an induced 8-10 node probe has few images and the search
// backtracks (p50 a few ms, tail tens of ms at the 1M step budget).
constexpr int kProbeNodes = 14;
constexpr int kProbeAttributes = 1;
constexpr int kProbeMinNodes = 8;
constexpr int kProbeMaxNodes = 10;
constexpr double kProbeMemberChance = 0.1;

// Long form: T1[A1 *=> T2], T2 :: T3, T3[A2 *=> T4], ...; short form:
// T1[A1 *=> T2], T2[A2 *=> T3], ... Long ⊆ short holds through rho_8.
GenQuery AttributeChain(int hops, bool long_form, const std::string& name) {
  GenQuery q;
  q.name = name;
  q.head = {V("A1"), V(Numbered("A", hops))};
  int t = 1;
  for (int i = 1; i <= hops; ++i) {
    const GenTerm from = V(Numbered("T", t));
    const GenTerm to = V(Numbered("T", t + 1));
    q.body.push_back(Type(from, V(Numbered("A", i)), to));
    ++t;
    if (long_form && i < hops) {
      q.body.push_back(Sub(to, V(Numbered("T", t + 1))));
      ++t;
    }
  }
  return q;
}

// q(V1) :- funct(faI, foJ), foJ[faI -> V1], ..., foJ[faI -> Vm].
GenQuery FunctFan(int fan, int attribute, int object,
                  const std::string& name) {
  GenQuery q;
  q.name = name;
  q.head = {V("V1")};
  const GenTerm a = C(Numbered("fa", attribute));
  const GenTerm o = C(Numbered("fo", object));
  q.body.push_back(Funct(a, o));
  for (int i = 1; i <= fan; ++i) {
    q.body.push_back(Data(o, a, V(Numbered("V", i))));
  }
  return q;
}

// A ~96-atom target (random data graph with class memberships and a few
// typing atoms) and the subquery it induces on a handful of its nodes,
// renamed apart. The target is contained in the probe by construction (the
// subquery maps identically); finding a map into the dense target is the
// expensive, hom-bound part, and some searches exhaust the step budget.
std::pair<GenQuery, GenQuery> SubqueryProbe(Rng& rng, int id) {
  const int nodes = kProbeNodes;
  const std::vector<std::string> attributes = Names("ea", kProbeAttributes);
  const std::vector<std::string> classes = Names("ec", 3);
  auto node = [](const std::string& prefix, int i) {
    return V(Numbered(prefix, i));
  };
  GenQuery target;
  target.name = Numbered("t", id);
  struct Edge {
    int from, to, attribute;
  };
  std::vector<Edge> edges;
  std::set<std::tuple<int, int, int>> seen;
  while (edges.size() < 68) {
    const int from = int(rng.Below(nodes)), to = int(rng.Below(nodes));
    const int attribute = int(rng.Below(attributes.size()));
    if (from == to || !seen.insert({from, to, attribute}).second) continue;
    edges.push_back({from, to, attribute});
    target.body.push_back(Data(node("N", from), C(attributes[attribute]),
                               node("N", to)));
  }
  std::vector<std::set<int>> member_classes(nodes);
  for (int i = 0; i < 24; ++i) {
    const int n = int(rng.Below(nodes));
    const int c = int(rng.Below(classes.size()));
    member_classes[n].insert(c);
    target.body.push_back(Member(node("N", n), C(classes[c])));
  }
  for (int i = 0; i < 3; ++i) {
    target.body.push_back(Type(C(Pick(rng, classes)), C(Pick(rng, attributes)),
                               C(Pick(rng, classes))));
  }
  target.body.push_back(Sub(C(classes[0]), C(classes[1])));

  GenQuery probe;
  probe.name = Numbered("p", id);
  std::set<int> chosen;
  const int size = int(rng.Between(kProbeMinNodes, kProbeMaxNodes));
  while (int(chosen.size()) < size) chosen.insert(int(rng.Below(nodes)));
  for (const Edge& e : edges) {
    if (chosen.count(e.from) != 0 && chosen.count(e.to) != 0) {
      probe.body.push_back(Data(node("P", e.from), C(attributes[e.attribute]),
                                node("P", e.to)));
    }
  }
  for (int n : chosen) {
    for (int c : member_classes[n]) {
      if (rng.Chance(kProbeMemberChance)) {
        probe.body.push_back(Member(node("P", n), C(classes[c])));
      }
    }
  }
  if (probe.body.empty()) {
    probe.body.push_back(Data(node("P", edges[0].from),
                              C(attributes[edges[0].attribute]),
                              node("P", edges[0].to)));
  }
  return {target, probe};
}

// ---- round trip -------------------------------------------------------------

Term ToTerm(World& world, const GenTerm& t) {
  return t.variable ? world.MakeVariable(t.name) : world.MakeConstant(t.name);
}

Atom ToAtom(World& world, const GenAtom& atom) {
  auto arg = [&](int i) { return ToTerm(world, atom.args[i]); };
  switch (atom.pred) {
    case Pred::kMember: return Atom::Member(arg(0), arg(1));
    case Pred::kSub: return Atom::Sub(arg(0), arg(1));
    case Pred::kData: return Atom::Data(arg(0), arg(1), arg(2));
    case Pred::kType: return Atom::Type(arg(0), arg(1), arg(2));
    case Pred::kMandatory: return Atom::Mandatory(arg(0), arg(1));
    case Pred::kFunct: return Atom::Funct(arg(0), arg(1));
  }
  return Atom::Member(arg(0), arg(1));
}

std::string RenderTerm(const GenTerm& t) { return t.name; }

std::string RenderAtom(const GenAtom& atom) {
  const auto& a = atom.args;
  switch (atom.pred) {
    case Pred::kMember: return RenderTerm(a[0]) + " : " + RenderTerm(a[1]);
    case Pred::kSub: return RenderTerm(a[0]) + " :: " + RenderTerm(a[1]);
    case Pred::kData:
      return RenderTerm(a[0]) + "[" + RenderTerm(a[1]) + " -> " +
             RenderTerm(a[2]) + "]";
    case Pred::kType:
      return RenderTerm(a[0]) + "[" + RenderTerm(a[1]) + " *=> " +
             RenderTerm(a[2]) + "]";
    case Pred::kMandatory:
      return "mandatory(" + RenderTerm(a[0]) + ", " + RenderTerm(a[1]) + ")";
    case Pred::kFunct:
      return "funct(" + RenderTerm(a[0]) + ", " + RenderTerm(a[1]) + ")";
  }
  return "";
}

// Extends a variable bijection with a -> b; false on a conflict.
bool MapTerm(Term a, Term b, std::map<uint32_t, uint32_t>& forward,
             std::map<uint32_t, uint32_t>& backward) {
  if (a.IsVariable() != b.IsVariable()) return false;
  if (!a.IsVariable()) return a == b;
  auto [fit, fnew] = forward.emplace(a.raw(), b.raw());
  auto [bit, bnew] = backward.emplace(b.raw(), a.raw());
  return fit->second == b.raw() && bit->second == a.raw();
}

}  // namespace

std::string Render(const GenQuery& query) {
  std::string text = query.name + "(";
  for (size_t i = 0; i < query.head.size(); ++i) {
    if (i > 0) text += ", ";
    text += RenderTerm(query.head[i]);
  }
  text += ") :- ";
  for (size_t i = 0; i < query.body.size(); ++i) {
    if (i > 0) text += ", ";
    text += RenderAtom(query.body[i]);
  }
  return text + ".";
}

Status RoundTripCheck(const GenQuery& query) {
  World world;
  const std::string text = Render(query);
  Result<ConjunctiveQuery> parsed = floq::flogic::ParseQuery(world, text);
  if (!parsed.ok()) {
    return floq::InvalidArgumentError("generated query does not parse: " +
                                      text + ": " +
                                      parsed.status().ToString());
  }
  auto mismatch = [&](const std::string& what) {
    return floq::InvalidArgumentError("round trip changed the query (" +
                                      what + "): " + text + " parsed as " +
                                      parsed->ToString(world));
  };
  if (parsed->body().size() != query.body.size()) return mismatch("size");
  if (parsed->head().size() != query.head.size()) return mismatch("arity");
  std::map<uint32_t, uint32_t> forward, backward;
  for (size_t i = 0; i < query.head.size(); ++i) {
    if (!MapTerm(parsed->head()[i], ToTerm(world, query.head[i]), forward,
                 backward)) {
      return mismatch("head");
    }
  }
  for (size_t i = 0; i < query.body.size(); ++i) {
    const Atom expected = ToAtom(world, query.body[i]);
    const Atom& got = parsed->body()[i];
    if (got.predicate() != expected.predicate()) return mismatch("predicate");
    for (int k = 0; k < got.arity(); ++k) {
      if (!MapTerm(got.arg(k), expected.arg(k), forward, backward)) {
        return mismatch("term");
      }
    }
  }
  return Status::Ok();
}

Known Corpus::KnownVerdict(size_t lhs, size_t rhs) const {
  if (lhs == rhs) return Known::kContained;
  const CorpusEntry& l = entries[lhs];
  const CorpusEntry& r = entries[rhs];
  if (r.family >= 0) {
    if (l.family != r.family) return Known::kNotContained;
    return (r.features & ~l.features) == 0 ? Known::kContained
                                           : Known::kNotContained;
  }
  // Every cycle carries sa1, which only cycles mention.
  if (r.family == -2 && l.family != -2) return Known::kNotContained;
  return Known::kUnknown;
}

Result<Corpus> MakeCorpus(uint64_t seed, size_t count) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Corpus corpus;
  int families = 0, narrow = 0, spine = 0;
  auto add = [&](const GenQuery& q, int family, uint32_t features) -> Status {
    if (corpus.entries.size() >= count) return Status::Ok();
    FLOQ_RETURN_IF_ERROR(RoundTripCheck(q));
    corpus.entries.push_back(CorpusEntry{q.name, Render(q), family, features});
    return Status::Ok();
  };
  while (corpus.entries.size() < count) {
    const double draw = double(rng.Below(1000)) / 1000.0;
    if (draw < 0.375) {
      const int f = families++;
      const GenQuery base = FamilyBase(rng, f);
      const GenQuery e1 = FamilyExtended(rng, base, f, 1);
      FLOQ_RETURN_IF_ERROR(add(base, f, 0));
      FLOQ_RETURN_IF_ERROR(add(FamilyRenamed(rng, base, f), f, 0));
      FLOQ_RETURN_IF_ERROR(add(FamilySubclassed(base, f), f, 1));
      FLOQ_RETURN_IF_ERROR(add(e1, f, 2));
      FLOQ_RETURN_IF_ERROR(add(FamilyExtended(rng, e1, f, 2), f, 2 | 4));
    } else if (draw < 0.875) {
      FLOQ_RETURN_IF_ERROR(
          add(NarrowQuery(rng, Numbered("n", narrow++)), -1, 0));
    } else {
      const int s = spine++;
      if (s % 2 == 0) {
        FLOQ_RETURN_IF_ERROR(add(MandatoryCycle(int(rng.Between(1, 4)),
                                                Numbered("c", s)),
                                 -2, 0));
      } else {
        FLOQ_RETURN_IF_ERROR(add(DataChainProbe(int(rng.Between(1, 6)),
                                                Numbered("p", s)),
                                 -3, 0));
      }
    }
  }
  return corpus;
}

Result<std::vector<AdhocPair>> MakeAdhocPool(uint64_t seed, size_t light,
                                             size_t heavy) {
  Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 7);
  std::vector<AdhocPair> pool;
  for (size_t i = 0; i < light + heavy; ++i) {
    AdhocPair pair;
    GenQuery lhs, rhs;
    const std::string id = std::to_string(i);
    if (i >= light) {
      pair.cls = 'e';
      std::tie(lhs, rhs) = SubqueryProbe(rng, int(i));
      pair.known = Known::kContained;
    } else {
      pair.cls = char('a' + i % 4);
      switch (pair.cls) {
        case 'a':
          lhs = MandatoryCycle(int(rng.Between(1, 4)), "c" + id);
          rhs = DataChainProbe(int(rng.Between(1, 6)), "p" + id);
          break;
        case 'b': {
          const int hops = int(rng.Between(2, 8));
          const bool forward = rng.Below(4) != 0;
          lhs = AttributeChain(hops, forward, "l" + id);
          rhs = AttributeChain(hops, !forward, "s" + id);
          pair.known = forward ? Known::kContained : Known::kNotContained;
          break;
        }
        case 'c': {
          const int attribute = int(rng.Below(4));
          const int object = int(rng.Below(4));
          const bool same = rng.Below(4) != 0;
          lhs = FunctFan(int(rng.Between(2, 8)), attribute, object, "u" + id);
          rhs = FunctFan(int(rng.Between(2, 8)), attribute,
                         same ? object : object + 4, "v" + id);
          pair.known = same ? Known::kContained : Known::kNotContained;
          break;
        }
        default:
          lhs = NarrowQuery(rng, "x" + id);
          rhs = NarrowQuery(rng, "y" + id);
          break;
      }
    }
    FLOQ_RETURN_IF_ERROR(RoundTripCheck(lhs));
    FLOQ_RETURN_IF_ERROR(RoundTripCheck(rhs));
    pair.lhs = Render(lhs);
    pair.rhs = Render(rhs);
    pool.push_back(std::move(pair));
  }
  return pool;
}

Result<Resolution> OneShotVerdict(const std::string& lhs,
                                  const std::string& rhs,
                                  const floq::ResourceBudget& budget) {
  World world;
  Result<ConjunctiveQuery> q1 = floq::flogic::ParseQuery(world, lhs);
  if (!q1.ok()) return q1.status();
  Result<ConjunctiveQuery> q2 = floq::flogic::ParseQuery(world, rhs);
  if (!q2.ok()) return q2.status();
  floq::ContainmentOptions options;
  options.budget = budget;
  Result<floq::ContainmentResult> result =
      floq::CheckContainment(world, *q1, *q2, options);
  if (!result.ok()) return result.status();
  if (result->resolution == Resolution::kContained &&
      !result->q1_unsatisfiable) {
    if (!result->witness.has_value() ||
        !floq::IsQueryHomomorphism(*q2, result->chase.conjuncts(),
                                   result->chase.head(), *result->witness)) {
      return floq::InternalError("CONTAINED witness fails validation: " +
                                 lhs + " in " + rhs);
    }
  }
  return result->resolution;
}

bool Agrees(Known known, Resolution resolution) {
  switch (known) {
    case Known::kUnknown: return true;
    case Known::kContained: return resolution == Resolution::kContained;
    case Known::kNotContained: return resolution == Resolution::kNotContained;
  }
  return false;
}

}  // namespace floqbench
