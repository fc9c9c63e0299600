// Property-based tests: randomized queries and databases checked against
// the paper's semantic definitions. Answers on databases and frozen
// chases come from the brute-force matcher in reference_matcher.h, an
// oracle independent of the kernel that decides containment. Each suite
// is parameterized by a generator seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>

#include "chase/chase.h"
#include "chase/sigma_fl.h"
#include "containment/classifier.h"
#include "containment/containment.h"
#include "containment/homomorphism.h"
#include "gen/generators.h"
#include "kb/knowledge_base.h"
#include "reference_matcher.h"
#include "term/world.h"
#include "util/rng.h"

namespace floq {
namespace {

gen::RandomQuerySpec SmallQuerySpec(uint64_t seed, int atoms, int arity) {
  gen::RandomQuerySpec spec;
  spec.seed = seed;
  spec.atoms = atoms;
  spec.arity = arity;
  spec.variable_pool = 4;
  spec.constant_pool = 3;
  spec.constant_probability = 0.2;
  return spec;
}

// ---- containment is reflexive ------------------------------------------------

class ReflexivityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReflexivityProperty, QContainedInQ) {
  World world;
  ConjunctiveQuery q = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam(), 2 + int(GetParam() % 4), 1));
  Result<ContainmentResult> result = CheckContainment(world, q, q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->contained) << q.ToString(world);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReflexivityProperty,
                         ::testing::Range(uint64_t(0), uint64_t(40)));

// ---- dropping body atoms only widens the query -------------------------------

class MonotonicityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MonotonicityProperty, SubBodyContainsFullBody) {
  World world;
  ConjunctiveQuery q = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam(), 4, 1));
  // Drop each atom in turn (when the result stays safe).
  for (size_t i = 0; i < q.body().size(); ++i) {
    std::vector<Atom> smaller = q.body();
    smaller.erase(smaller.begin() + i);
    ConjunctiveQuery wider(q.name(), q.head(), std::move(smaller));
    if (!wider.Validate(world).ok()) continue;
    Result<ContainmentResult> result = CheckContainment(world, q, wider);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->contained)
        << q.ToString(world) << " vs " << wider.ToString(world);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityProperty,
                         ::testing::Range(uint64_t(0), uint64_t(30)));

// ---- the weaker checkers are sound w.r.t. the paper's checker ----------------

class BaselineSoundnessProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BaselineSoundnessProperty, ClassicalImpliesSigma) {
  World world;
  ConjunctiveQuery q1 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 2 + 1, 3, 1), "q1");
  ConjunctiveQuery q2 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 2 + 2, 2, 1), "q2");
  if (q1.arity() != q2.arity()) return;

  Result<ContainmentResult> classical =
      CheckClassicalContainment(world, q1, q2);
  ASSERT_TRUE(classical.ok());
  if (!classical->contained) return;

  Result<ContainmentResult> paper = CheckContainment(world, q1, q2);
  ASSERT_TRUE(paper.ok()) << paper.status().ToString();
  EXPECT_TRUE(paper->contained)
      << q1.ToString(world) << " vs " << q2.ToString(world);
}

TEST_P(BaselineSoundnessProperty, LevelZeroImpliesSigma) {
  World world;
  ConjunctiveQuery q1 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 3 + 1, 3, 1), "q1");
  ConjunctiveQuery q2 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 3 + 2, 2, 1), "q2");
  if (q1.arity() != q2.arity()) return;

  ContainmentOptions level_zero;
  level_zero.level_override = 0;
  Result<ContainmentResult> shallow =
      CheckContainment(world, q1, q2, level_zero);
  ASSERT_TRUE(shallow.ok());
  if (!shallow->contained) return;

  Result<ContainmentResult> paper = CheckContainment(world, q1, q2);
  ASSERT_TRUE(paper.ok());
  EXPECT_TRUE(paper->contained);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineSoundnessProperty,
                         ::testing::Range(uint64_t(0), uint64_t(40)));

// ---- transitivity ---------------------------------------------------------------

class TransitivityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransitivityProperty, ContainmentComposes) {
  World world;
  ConjunctiveQuery q1 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 5 + 1, 4, 1), "q1");
  ConjunctiveQuery q2 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 5 + 2, 3, 1), "q2");
  ConjunctiveQuery q3 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 5 + 3, 2, 1), "q3");
  if (q1.arity() != q2.arity() || q2.arity() != q3.arity()) return;

  Result<ContainmentResult> first = CheckContainment(world, q1, q2);
  Result<ContainmentResult> second = CheckContainment(world, q2, q3);
  ASSERT_TRUE(first.ok() && second.ok());
  if (!first->contained || !second->contained) return;

  Result<ContainmentResult> third = CheckContainment(world, q1, q3);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->contained)
      << q1.ToString(world) << " | " << q2.ToString(world) << " | "
      << q3.ToString(world);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransitivityProperty,
                         ::testing::Range(uint64_t(0), uint64_t(40)));

// ---- completed chases satisfy Sigma_FL --------------------------------------

class ChaseModelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaseModelProperty, CompletedChaseIsAModelOfSigma) {
  World world;
  gen::RandomQuerySpec spec = SmallQuerySpec(GetParam(), 4, 0);
  ConjunctiveQuery q = gen::MakeRandomQuery(world, spec);
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 200,
                                            .max_atoms = 200'000});
  if (chase.outcome() != ChaseOutcome::kCompleted) return;

  // Every instance of a full TGD must have its head present.
  DependencySet sigma = MakeSigmaFLDependencies(world);
  for (const Tgd& tgd : sigma.tgds) {
    if (!tgd.ExistentialVariables().empty()) continue;
    MatchConjunction(tgd.body, chase.conjuncts(), Substitution(),
                     [&](const Substitution& match) {
                       EXPECT_TRUE(chase.conjuncts().Contains(
                           match.Apply(tgd.head)))
                           << tgd.name << " unsatisfied in "
                           << q.ToString(world);
                       return true;
                     });
  }

  // rho_4: a functional attribute has at most one value per object.
  for (uint32_t fid : chase.conjuncts().WithPredicate(pfl::kFunct)) {
    const Atom& funct = chase.conjunct(fid);
    std::set<Term> values;
    for (uint32_t id : chase.conjuncts().WithPredicate(pfl::kData)) {
      const Atom& data = chase.conjunct(id);
      if (data.arg(0) == funct.arg(1) && data.arg(1) == funct.arg(0)) {
        values.insert(data.arg(2));
      }
    }
    EXPECT_LE(values.size(), 1u) << q.ToString(world);
  }

  // rho_5: every mandatory attribute has a value.
  for (uint32_t mid : chase.conjuncts().WithPredicate(pfl::kMandatory)) {
    const Atom& mandatory = chase.conjunct(mid);
    bool has_value = false;
    for (uint32_t id : chase.conjuncts().WithPredicate(pfl::kData)) {
      const Atom& data = chase.conjunct(id);
      if (data.arg(0) == mandatory.arg(1) && data.arg(1) == mandatory.arg(0)) {
        has_value = true;
      }
    }
    EXPECT_TRUE(has_value) << q.ToString(world);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseModelProperty,
                         ::testing::Range(uint64_t(0), uint64_t(60)));

// ---- negative verdicts are witnessed by the frozen chase ---------------------

// A NOT_CONTAINED verdict on q1 ⊆ q2 over a completed chase must be refuted
// by the frozen chase: q1 returns its canonical tuple there and q2 does
// not. Both are evaluated by the brute-force oracle, not by the kernel
// whose search decided NOT_CONTAINED.
void ExpectFrozenChaseRefutes(World& world, const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2,
                              const ContainmentResult& result) {
  // Only finite chases yield genuine finite counterexample databases.
  if (result.contained || result.chase.outcome() != ChaseOutcome::kCompleted) {
    return;
  }

  // Freeze the chase: every variable becomes a fresh null.
  Substitution freeze;
  for (const Atom& atom : result.chase.conjuncts().atoms()) {
    for (Term t : atom) {
      if (t.IsVariable() && !freeze.Binds(t)) {
        freeze.Bind(t, world.MakeFreshNull());
      }
    }
  }
  std::vector<Atom> db;
  for (const Atom& atom : result.chase.conjuncts().atoms()) {
    db.push_back(freeze.Apply(atom));
  }
  std::vector<Term> frozen_head = freeze.ApplyToTerms(result.chase.head());

  EXPECT_EQ(reference::HasQueryHomomorphism(q1, db, frozen_head), true)
      << q1.ToString(world);
  EXPECT_EQ(reference::HasQueryHomomorphism(q2, db, frozen_head), false)
      << q1.ToString(world) << " vs " << q2.ToString(world);
}

// q's head over a random part of its body that keeps every head variable,
// renamed apart. q ⊆ the result by construction: the renaming's inverse
// maps its body into q's and its head onto q's head.
ConjunctiveQuery SubBodyWithHead(World& world, const ConjunctiveQuery& q,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<Atom> body;
  for (const Atom& atom : q.body()) {
    if (rng.Below(2) == 0) body.push_back(atom);
  }
  for (Term t : q.head()) {
    auto has_t = [t](const Atom& atom) {
      return std::find(atom.begin(), atom.end(), t) != atom.end();
    };
    if (!t.IsVariable() || std::any_of(body.begin(), body.end(), has_t)) {
      continue;
    }
    body.push_back(*std::find_if(q.body().begin(), q.body().end(), has_t));
  }
  if (body.empty()) body.push_back(q.body()[rng.Below(q.body().size())]);
  return ConjunctiveQuery("q2", q.head(), std::move(body)).RenameApart(world);
}

class CounterexampleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CounterexampleProperty, FrozenChaseRefutesContainment) {
  World world;
  ConjunctiveQuery q1 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 7 + 1, 4, 1), "q1");
  ConjunctiveQuery q2 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 7 + 2, 3, 1), "q2");
  if (q1.arity() == q2.arity()) {
    Result<ContainmentResult> result = CheckContainment(world, q1, q2);
    // Budget blowups are exercised elsewhere.
    if (result.ok()) ExpectFrozenChaseRefutes(world, q1, q2, *result);
  }

  // Random pairs are almost never contained, so a search that loses a
  // match rarely turns one of them into a wrong answer. A pair contained
  // by construction does: there a lost match reads NOT_CONTAINED, and the
  // frozen chase fails to refute it.
  ConjunctiveQuery sub = SubBodyWithHead(world, q1, GetParam());
  Result<ContainmentResult> result = CheckContainment(world, q1, sub);
  if (!result.ok()) return;
  EXPECT_TRUE(result->contained)
      << q1.ToString(world) << " vs " << sub.ToString(world);
  ExpectFrozenChaseRefutes(world, q1, sub, *result);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CounterexampleProperty,
                         ::testing::Range(uint64_t(0), uint64_t(60)));

// ---- soundness against random concrete databases -----------------------------

// The distinct answers of `query` on `facts`, from the brute-force oracle:
// no FactIndex posting list and no kernel search is involved.
std::set<std::vector<Term>> OracleAnswers(const ConjunctiveQuery& query,
                                          std::span<const Atom> facts) {
  std::set<std::vector<Term>> answers;
  reference::ForEachMatch(
      query.body(), facts, {}, [&](const reference::Assignment& binding) {
        std::vector<Term> tuple;
        for (Term t : query.head()) {
          auto it = binding.find(t);
          tuple.push_back(it == binding.end() ? t : it->second);
        }
        answers.insert(std::move(tuple));
        return true;
      });
  return answers;
}

// A pair contained for a nontrivial reason, and a near miss. q1 is a
// random query plus member(X, c1), sub(c1, c2) on its head variable X and
// three other members of a class c3. q2 is a renamed part of q1's body
// that keeps the head, plus member(X', c2): q1 ⊆ q2 only through rho_3's
// member(X, c2). The near miss asks member(X', c3) instead, which nothing
// in q1 implies, so q1 ⊄ near; c3's three members make its posting list
// longer than X's, so a matcher that picked X's list and skipped the
// constant would bind member(X, c1) and report CONTAINED.
struct SoundnessPair {
  ConjunctiveQuery q1, q2, near;
};

SoundnessPair MakeSoundnessPair(World& world, uint64_t seed) {
  ConjunctiveQuery random =
      gen::MakeRandomQuery(world, SmallQuerySpec(seed * 11 + 1, 3, 1), "q1");
  // A body without variables leaves the head empty; X then joins only
  // the added atoms.
  std::vector<Term> head = random.head();
  if (head.empty()) head.push_back(world.MakeVariable("X"));
  const Term x = head[0];
  std::vector<Atom> body = random.body();
  body.push_back(Atom::Member(x, world.MakeConstant("c1")));
  body.push_back(Atom::Sub(world.MakeConstant("c1"), world.MakeConstant("c2")));
  for (int i = 0; i < 3; ++i) {
    body.push_back(Atom::Member(world.MakeVariable("D" + std::to_string(i)),
                                world.MakeConstant("c3")));
  }
  SoundnessPair pair;
  pair.q1 = ConjunctiveQuery("q1", std::move(head), std::move(body));
  auto with = [&](const char* cls) {
    const ConjunctiveQuery part = SubBodyWithHead(world, pair.q1, seed);
    std::vector<Atom> atoms = part.body();
    atoms.push_back(Atom::Member(part.head()[0], world.MakeConstant(cls)));
    return ConjunctiveQuery("q2", part.head(), std::move(atoms));
  };
  pair.q2 = with("c2");
  pair.near = with("c3");
  return pair;
}

// Checks both verdicts of the seed's pair against the brute-force oracle
// on random legal databases, each holding q1's frozen body so that q1 has
// an answer there. Returns how many legal databases it evaluated.
int CheckSoundnessOnDatabases(uint64_t seed) {
  World world;
  const SoundnessPair pair = MakeSoundnessPair(world, seed);
  Result<ContainmentResult> verdict =
      CheckContainment(world, pair.q1, pair.q2);
  EXPECT_TRUE(verdict.ok()) << verdict.status().ToString();
  if (!verdict.ok()) return 0;
  EXPECT_EQ(verdict->resolution, Resolution::kContained)
      << pair.q1.ToString(world) << "\n  vs " << pair.q2.ToString(world);
  Result<ContainmentResult> near = CheckContainment(world, pair.q1, pair.near);
  EXPECT_TRUE(near.ok()) << near.status().ToString();
  if (!near.ok()) return 0;

  int evaluated = 0;
  for (uint64_t db_seed = 0; db_seed < 5; ++db_seed) {
    gen::RandomKbSpec kb_spec;
    kb_spec.seed = seed * 100 + db_seed;
    KnowledgeBase kb(world);
    for (const Atom& fact : gen::MakeRandomKbFacts(world, kb_spec)) {
      EXPECT_TRUE(kb.AddFact(fact).ok());
    }
    // Bridge the query constants (c0..c2) into the database so constant
    // atoms in the queries can match.
    EXPECT_TRUE(kb.AddFact(Atom::Member(world.MakeConstant("c0"),
                                        world.MakeConstant("c1"))).ok());
    EXPECT_TRUE(kb.AddFact(Atom::Data(world.MakeConstant("c0"),
                                      world.MakeConstant("c1"),
                                      world.MakeConstant("c2"))).ok());
    EXPECT_TRUE(kb.AddFact(Atom::Sub(world.MakeConstant("c1"),
                                     world.MakeConstant("c2"))).ok());
    for (const Atom& fact : pair.q1.Freeze(world)) {
      EXPECT_TRUE(kb.AddFact(fact).ok());
    }

    SaturateOptions options;
    options.mandatory_completion_rounds = 6;
    Result<ConsistencyReport> report = kb.Saturate(options);
    EXPECT_TRUE(report.ok());
    // Only legal instances count: Sigma_FL must hold in full.
    if (!report.ok() || !report->consistent ||
        !report->unsatisfied_mandatory.empty()) {
      continue;
    }
    ++evaluated;

    const std::vector<Atom> facts(kb.database().facts().begin(),
                                  kb.database().facts().end());
    const std::set<std::vector<Term>> q1_answers =
        OracleAnswers(pair.q1, facts);
    EXPECT_FALSE(q1_answers.empty()) << "q1's frozen body was not matched";
    for (const ConjunctiveQuery* q2 : {&pair.q2, &pair.near}) {
      const ContainmentResult& result = q2 == &pair.q2 ? *verdict : *near;
      if (!result.contained) continue;
      const std::set<std::vector<Term>> q2_answers = OracleAnswers(*q2, facts);
      for (const auto& tuple : q1_answers) {
        EXPECT_TRUE(q2_answers.count(tuple) > 0)
            << "containment verdict violated on database seed "
            << kb_spec.seed << "\n  q1 = " << pair.q1.ToString(world)
            << "\n  q2 = " << q2->ToString(world);
      }
    }
  }
  return evaluated;
}

class OracleSoundnessProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleSoundnessProperty, PositiveVerdictsHoldOnRandomDatabases) {
  CheckSoundnessOnDatabases(GetParam());
}

// The property is vacuous on a seed whose databases all come out illegal:
// most seeds must reach the oracle.
TEST(OracleSoundnessCoverage, MostSeedsEvaluateALegalDatabase) {
  int seeds = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    seeds += CheckSoundnessOnDatabases(seed) > 0 ? 1 : 0;
  }
  EXPECT_GE(seeds, 30);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSoundnessProperty,
                         ::testing::Range(uint64_t(0), uint64_t(40)));

// ---- witnesses are valid homomorphisms ----------------------------------------

class WitnessProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WitnessProperty, PositiveVerdictsCarryValidWitnesses) {
  World world;
  ConjunctiveQuery q1 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 13 + 1, 4, 1), "q1");
  ConjunctiveQuery q2 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 13 + 2, 2, 1), "q2");
  if (q1.arity() != q2.arity()) return;

  Result<ContainmentResult> result = CheckContainment(world, q1, q2);
  if (!result.ok() || !result->contained || result->q1_unsatisfiable) return;
  ASSERT_TRUE(result->witness.has_value());
  EXPECT_TRUE(IsQueryHomomorphism(q2, result->chase.conjuncts(),
                                  result->chase.head(), *result->witness))
      << q1.ToString(world) << " vs " << q2.ToString(world);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WitnessProperty,
                         ::testing::Range(uint64_t(0), uint64_t(60)));

}  // namespace
}  // namespace floq

// Appended suites: properties of the extension layer.

#include "containment/classifier.h"
#include "containment/minimize.h"

namespace floq {
namespace {

// ---- cores are equivalent and idempotent -------------------------------------

class CoreProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoreProperty, CoreIsEquivalentAndIdempotent) {
  World world;
  ConjunctiveQuery q = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 17 + 3, 4, 1));
  Result<ConjunctiveQuery> core = ComputeCore(world, q);
  if (!core.ok()) return;  // budget blowups tolerated
  EXPECT_LE(core->size(), q.size());

  Result<bool> equivalent = CheckEquivalence(world, q, *core);
  ASSERT_TRUE(equivalent.ok());
  EXPECT_TRUE(*equivalent) << q.ToString(world) << "  vs  "
                           << core->ToString(world);

  Result<ConjunctiveQuery> again = ComputeCore(world, *core);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), core->size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreProperty,
                         ::testing::Range(uint64_t(0), uint64_t(30)));

// ---- classifier agrees with pairwise checks -----------------------------------

class ClassifierProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClassifierProperty, ClassesMatchPairwiseEquivalence) {
  World world;
  std::vector<ConjunctiveQuery> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(gen::MakeRandomQuery(
        world, SmallQuerySpec(GetParam() * 19 + uint64_t(i), 3, 1),
        "q" + std::to_string(i)));
  }
  Result<QueryTaxonomy> taxonomy = ClassifyQueries(world, queries);
  if (!taxonomy.ok()) return;

  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = i + 1; j < queries.size(); ++j) {
      Result<bool> equivalent =
          CheckEquivalence(world, queries[i], queries[j]);
      ASSERT_TRUE(equivalent.ok());
      EXPECT_EQ(*equivalent,
                taxonomy->class_of[i] == taxonomy->class_of[j])
          << queries[i].ToString(world) << " vs "
          << queries[j].ToString(world);
    }
  }

  // Hasse edges are strict containments between representatives.
  for (const auto& [sub, super] : taxonomy->hasse_edges) {
    size_t i = taxonomy->classes[size_t(sub)][0];
    size_t j = taxonomy->classes[size_t(super)][0];
    Result<ContainmentResult> forward =
        CheckContainment(world, queries[i], queries[j]);
    Result<ContainmentResult> backward =
        CheckContainment(world, queries[j], queries[i]);
    ASSERT_TRUE(forward.ok() && backward.ok());
    EXPECT_TRUE(forward->contained);
    EXPECT_FALSE(backward->contained);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifierProperty,
                         ::testing::Range(uint64_t(0), uint64_t(25)));

// ---- the sparse taxonomy matches the dense reference ---------------------------

// The dense class and Hasse passes over an n x n matrix and an m x m class
// relation that TaxonomyFromContainment ran before the taxonomy moved to
// adjacency lists, kept verbatim as the reference.
QueryTaxonomy DenseReferenceTaxonomy(
    const std::vector<std::vector<bool>>& contained) {
  const size_t n = contained.size();
  QueryTaxonomy taxonomy;
  taxonomy.class_of.assign(n, -1);
  for (size_t i = 0; i < n; ++i) {
    if (taxonomy.class_of[i] >= 0) continue;
    int cls = int(taxonomy.classes.size());
    taxonomy.classes.push_back({i});
    taxonomy.class_of[i] = cls;
    for (size_t j = i + 1; j < n; ++j) {
      if (taxonomy.class_of[j] < 0 && contained[i][j] && contained[j][i]) {
        taxonomy.class_of[j] = cls;
        taxonomy.classes[cls].push_back(j);
      }
    }
  }
  const size_t m = taxonomy.classes.size();
  std::vector<std::vector<bool>> contains(m, std::vector<bool>(m, false));
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = 0; b < m; ++b) {
      if (a == b) continue;
      contains[a][b] =
          contained[taxonomy.classes[a][0]][taxonomy.classes[b][0]];
    }
  }
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = 0; b < m; ++b) {
      if (!contains[a][b]) continue;
      bool direct = true;
      for (size_t c = 0; c < m && direct; ++c) {
        if (c == a || c == b) continue;
        direct = !(contains[a][c] && contains[c][b]);
      }
      if (direct) taxonomy.hasse_edges.emplace_back(int(a), int(b));
    }
  }
  return taxonomy;
}

// A random verdict matrix shaped like a registry's: equivalence groups,
// chains of groups (closed transitively over a random span), and noise
// that breaks symmetry and transitivity the way UNKNOWN verdicts and
// budget-cut chases leave them.
std::vector<std::vector<Resolution>> RandomVerdicts(uint64_t seed) {
  Rng rng(seed * 7919 + 3);
  const size_t n = seed < 2 ? size_t(seed) : size_t(rng.Below(201));
  const size_t groups = 1 + size_t(rng.Below(n + 1));
  std::vector<size_t> group(n);
  for (size_t& g : group) g = size_t(rng.Below(groups));
  std::vector<size_t> rank(groups);
  std::iota(rank.begin(), rank.end(), size_t{0});
  for (size_t i = groups; i > 1; --i) {
    std::swap(rank[i - 1], rank[size_t(rng.Below(i))]);
  }
  const size_t span = size_t(rng.Below(4));  // 0: no chains
  const double noise = rng.Chance(0.5) ? 0.0 : 0.02;
  std::vector<std::vector<Resolution>> verdicts(
      n, std::vector<Resolution>(n, Resolution::kNotContained));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const size_t gi = rank[group[i]], gj = rank[group[j]];
      if (gi == gj || (gi < gj && gj - gi <= span)) {
        verdicts[i][j] = Resolution::kContained;
      }
      if (rng.Chance(noise)) {
        verdicts[i][j] = Resolution::kContained;
      } else if (rng.Chance(noise)) {
        verdicts[i][j] = Resolution::kUnknown;
      } else if (rng.Chance(noise)) {
        verdicts[i][j] = Resolution::kNotContained;
      }
    }
  }
  return verdicts;
}

class TaxonomyDifferentialProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TaxonomyDifferentialProperty, SparseCoreMatchesDenseReference) {
  const std::vector<std::vector<Resolution>> verdicts =
      RandomVerdicts(GetParam());
  const size_t n = verdicts.size();
  std::vector<std::vector<bool>> contained(n, std::vector<bool>(n, false));
  ContainmentRelation relation;
  std::vector<ContainmentRelation::Edge> row;
  for (size_t i = 0; i < n; ++i) {
    contained[i][i] = true;
    row.clear();
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      contained[i][j] = verdicts[i][j] == Resolution::kContained;
      if (verdicts[i][j] != Resolution::kNotContained) {
        row.push_back({j, verdicts[i][j]});
      }
    }
    relation.AddRow(row);
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(relation[i][j],
                i == j ? Resolution::kContained : verdicts[i][j]);
    }
  }

  const QueryTaxonomy reference = DenseReferenceTaxonomy(contained);
  const QueryTaxonomy sparse = TaxonomyFromRelation(relation, 1, 2, 3);
  const QueryTaxonomy dense = TaxonomyFromContainment(contained, 1, 2, 3);
  for (const QueryTaxonomy* got : {&sparse, &dense}) {
    EXPECT_EQ(got->class_of, reference.class_of) << "n=" << n;
    EXPECT_EQ(got->classes, reference.classes) << "n=" << n;
    EXPECT_EQ(got->hasse_edges, reference.hasse_edges) << "n=" << n;
    EXPECT_EQ(got->checks, 1);
    EXPECT_EQ(got->unknown_checks, 2);
    EXPECT_EQ(got->pruned_checks, 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaxonomyDifferentialProperty,
                         ::testing::Range(uint64_t(0), uint64_t(60)));

// ---- the maintained taxonomy matches the batch pass at every step ----------

// A verdict matrix read by id over a changing live set, kept the way
// ContainmentIndex keeps its rows: ascending, without kNotContained pairs.
class VerdictRows : public RelationRows {
 public:
  explicit VerdictRows(const std::vector<std::vector<Resolution>>& verdicts)
      : verdicts_(verdicts),
        supers_(verdicts.size()),
        subs_(verdicts.size()) {}

  // `id` exceeds every id in `live` (ascending).
  void Insert(size_t id, const std::vector<size_t>& live) {
    for (size_t j : live) {
      if (verdicts_[id][j] != Resolution::kNotContained) {
        supers_[id].push_back({j, verdicts_[id][j]});
        subs_[j].push_back({id, verdicts_[id][j]});
      }
      if (verdicts_[j][id] != Resolution::kNotContained) {
        supers_[j].push_back({id, verdicts_[j][id]});
        subs_[id].push_back({j, verdicts_[j][id]});
      }
    }
  }

  void Remove(size_t id) {
    auto drop = [id](std::vector<ContainmentRelation::Edge>& row) {
      std::erase_if(row, [id](const auto& edge) { return edge.rhs == id; });
    };
    for (const auto& edge : supers_[id]) drop(subs_[edge.rhs]);
    for (const auto& edge : subs_[id]) drop(supers_[edge.rhs]);
    supers_[id].clear();
    subs_[id].clear();
  }

  std::span<const ContainmentRelation::Edge> supers(size_t id) const override {
    return supers_[id];
  }
  std::span<const ContainmentRelation::Edge> subs(size_t id) const override {
    return subs_[id];
  }

 private:
  const std::vector<std::vector<Resolution>>& verdicts_;
  std::vector<std::vector<ContainmentRelation::Edge>> supers_;
  std::vector<std::vector<ContainmentRelation::Edge>> subs_;
};

class TaxonomyMaintainerProperty : public ::testing::TestWithParam<uint64_t> {
};

// Seeded insert/remove sequences over RandomVerdicts: inserts take the
// next id, removals a random live one. After every step the maintained
// classes, members and Hasse edges equal the batch pass over the live ids
// in ascending order.
TEST_P(TaxonomyMaintainerProperty, MatchesBatchAfterEveryStep) {
  const std::vector<std::vector<Resolution>> verdicts =
      RandomVerdicts(GetParam());
  const size_t n = verdicts.size();
  Rng rng(GetParam() * 104729 + 11);
  VerdictRows rows(verdicts);
  TaxonomyMaintainer maintainer(rows);
  std::vector<size_t> live;
  size_t next = 0;
  for (size_t step = 0; next < n || !live.empty(); ++step) {
    const bool insert =
        next < n && (live.empty() || rng.Chance(next < n / 2 ? 0.8 : 0.5));
    if (insert) {
      rows.Insert(next, live);
      maintainer.Insert(next);
      live.push_back(next++);
    } else {
      const size_t victim = size_t(rng.Below(live.size()));
      maintainer.Remove(live[victim]);
      rows.Remove(live[victim]);
      live.erase(live.begin() + std::ptrdiff_t(victim));
    }

    ContainmentRelation relation;
    std::vector<ContainmentRelation::Edge> row;
    for (size_t i = 0; i < live.size(); ++i) {
      row.clear();
      for (size_t j = 0; j < live.size(); ++j) {
        const Resolution verdict = verdicts[live[i]][live[j]];
        if (i != j && verdict != Resolution::kNotContained) {
          row.push_back({j, verdict});
        }
      }
      relation.AddRow(row);
    }
    const QueryTaxonomy batch = TaxonomyFromRelation(relation, 0, 0, 0);
    const TaxonomyView view = maintainer.View();
    std::vector<std::vector<size_t>> classes;
    for (const std::vector<size_t>& members : view.classes) {
      std::vector<size_t> positions;
      for (size_t id : members) {
        auto it = std::lower_bound(live.begin(), live.end(), id);
        ASSERT_TRUE(it != live.end() && *it == id) << "dead member " << id;
        positions.push_back(size_t(it - live.begin()));
      }
      classes.push_back(std::move(positions));
    }
    ASSERT_EQ(classes, batch.classes) << "n=" << n << " step " << step;
    ASSERT_EQ(view.hasse_edges, batch.hasse_edges)
        << "n=" << n << " step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaxonomyMaintainerProperty,
                         ::testing::Range(uint64_t(0), uint64_t(60)));

// ---- UCQ containment degenerates correctly -------------------------------------

class UcqProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UcqProperty, SingletonUnionEqualsPlainContainment) {
  World world;
  ConjunctiveQuery q1 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 23 + 1, 3, 1), "q1");
  ConjunctiveQuery q2 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 23 + 2, 2, 1), "q2");
  if (q1.arity() != q2.arity()) return;

  Result<ContainmentResult> plain = CheckContainment(world, q1, q2);
  std::vector<ConjunctiveQuery> disjuncts = {q2};
  Result<std::optional<size_t>> ucq =
      CheckUcqContainment(world, q1, disjuncts);
  if (!plain.ok() || !ucq.ok()) return;
  EXPECT_EQ(plain->contained, ucq->has_value())
      << q1.ToString(world) << " vs " << q2.ToString(world);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UcqProperty,
                         ::testing::Range(uint64_t(0), uint64_t(40)));

}  // namespace
}  // namespace floq

// Appended suite: the test-only reference chase of Sigma_FL
// (reference_chase.h), cut at the paper's level bound, decides every pair
// as the paper checker does.

#include "chase/dependencies.h"
#include "reference_chase.h"

namespace floq {
namespace {

class GenericAgreementProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GenericAgreementProperty, GenericSigmaFLMatchesPaperChecker) {
  World world;
  ConjunctiveQuery q1 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 29 + 1, 3, 1), "q1");
  ConjunctiveQuery q2 = gen::MakeRandomQuery(
      world, SmallQuerySpec(GetParam() * 29 + 2, 2, 1), "q2");
  if (q1.arity() != q2.arity()) return;

  Result<ContainmentResult> paper = CheckContainment(world, q1, q2);
  ASSERT_TRUE(paper.ok()) << paper.status().ToString();
  ASSERT_NE(paper->resolution, Resolution::kUnknown);

  reference::ReferenceChaseResult chase = reference::RunReferenceChase(
      world, q1.body(), q1.head(), MakeSigmaFLDependencies(world),
      PaperLevelBound(q1, q2));
  ASSERT_FALSE(chase.truncated);
  EXPECT_EQ(chase.failed, paper->q1_unsatisfiable)
      << q1.ToString(world) << " vs " << q2.ToString(world);
  if (chase.failed) return;
  FactIndex conjuncts;
  for (const Atom& atom : chase.atoms) conjuncts.Insert(atom);
  const bool contained =
      FindQueryHomomorphism(q2.RenameApart(world), conjuncts, chase.head)
          .has_value();
  EXPECT_EQ(contained, paper->contained)
      << q1.ToString(world) << " vs " << q2.ToString(world);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenericAgreementProperty,
                         ::testing::Range(uint64_t(0), uint64_t(50)));

}  // namespace
}  // namespace floq

// Appended suite: every containment entry point decides a pair the same
// way (DESIGN.md §7), and a tighter budget only ever turns a verdict into
// UNKNOWN. The classical check is held to a nested-loop Chandra–Merlin
// oracle built on reference::MatchAll, which shares no code with the
// homomorphism kernel.

#include "containment/engine.h"

namespace floq {
namespace {

// body(q2) -> body(q1) with head(q2) -> head(q1), by brute force.
bool ChandraMerlinContained(const ConjunctiveQuery& q1,
                            const ConjunctiveQuery& q2) {
  bool found = false;
  reference::MatchAll(
      q2.body(), 0, q1.body(), {}, [&](const reference::Binding& binding) {
        for (int i = 0; i < q1.arity(); ++i) {
          if (reference::Image(q2.head()[i], binding) != q1.head()[i]) return;
        }
        found = true;
      });
  return found;
}

struct EntryVerdict {
  const char* entry;
  Resolution resolution;
  // Unset where the entry point does not report it (the UCQ check).
  std::optional<bool> unsatisfiable;
};

// Decides q1 ⊆ q2 through every Sigma_FL entry point under `options`. A
// budget error of the UCQ check reads as UNKNOWN.
std::vector<EntryVerdict> DecideEverywhere(World& world,
                                           const ConjunctiveQuery& q1,
                                           const ConjunctiveQuery& q2,
                                           const ContainmentOptions& options) {
  std::vector<EntryVerdict> out;
  Result<ContainmentResult> plain = CheckContainment(world, q1, q2, options);
  EXPECT_TRUE(plain.ok()) << plain.status().ToString();
  if (!plain.ok()) return out;
  out.push_back({"CheckContainment", plain->resolution,
                 plain->q1_unsatisfiable});

  ContainmentOptions bounded = options;
  bounded.level_override = PaperLevelBound(q1, q2);
  Result<ContainmentResult> under = CheckContainmentUnderDependencies(
      world, q1, q2, MakeSigmaFLDependencies(world), bounded);
  EXPECT_TRUE(under.ok()) << under.status().ToString();
  if (!under.ok()) return out;
  out.push_back({"CheckContainmentUnderDependencies", under->resolution,
                 under->q1_unsatisfiable});

  std::vector<ConjunctiveQuery> disjuncts = {q2};
  Result<std::optional<size_t>> ucq =
      CheckUcqContainment(world, q1, disjuncts, options);
  if (ucq.ok()) {
    out.push_back({"CheckUcqContainment",
                   ucq->has_value() ? Resolution::kContained
                                    : Resolution::kNotContained,
                   std::nullopt});
  } else {
    const StatusCode code = ucq.status().code();
    EXPECT_TRUE(code == StatusCode::kResourceExhausted ||
                code == StatusCode::kDeadlineExceeded ||
                code == StatusCode::kCancelled)
        << ucq.status().ToString();
    out.push_back({"CheckUcqContainment", Resolution::kUnknown, std::nullopt});
  }

  for (bool index : {true, false}) {
    BatchContainmentOptions batch;
    batch.jobs = 1;
    batch.containment = options;
    batch.containment.use_signature_index = index;
    ContainmentEngine engine(world, batch);
    Result<size_t> lhs = engine.AddQuery(q1);
    Result<size_t> rhs = engine.AddQuery(q2);
    EXPECT_TRUE(lhs.ok() && rhs.ok());
    if (!lhs.ok() || !rhs.ok()) return out;
    std::vector<std::pair<size_t, size_t>> pairs = {{*lhs, *rhs}};
    Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
    EXPECT_TRUE(verdicts.ok()) << verdicts.status().ToString();
    if (!verdicts.ok()) return out;
    out.push_back({index ? "ContainmentEngine(index on)"
                         : "ContainmentEngine(index off)",
                   (*verdicts)[0].resolution,
                   bool((*verdicts)[0].lhs_unsatisfiable)});
  }
  return out;
}

// Two independent random queries are almost never contained, so three in
// four seeds derive the pair from one random query instead: q minus one
// body atom contains q classically (kind 1) and is contained in q exactly
// when the chase re-derives the atom (kind 3), and q plus one conjunct of
// its chase, nulls turned into variables, contains q under Sigma_FL only
// (kind 2).
std::pair<ConjunctiveQuery, ConjunctiveQuery> ParityPair(World& world,
                                                         uint64_t seed) {
  ConjunctiveQuery q = gen::MakeRandomQuery(
      world, SmallQuerySpec(seed * 37 + 1, 2 + int(seed % 3), 1), "q1");
  ConjunctiveQuery other =
      gen::MakeRandomQuery(world, SmallQuerySpec(seed * 37 + 2, 2, 1), "q2");
  std::vector<Atom> body = q.body();
  switch (seed % 4) {
    case 1:
    case 3: {
      body.erase(body.begin() + long(seed / 4 % body.size()));
      ConjunctiveQuery wider("q2", q.head(), std::move(body));
      if (!wider.Validate(world).ok()) break;
      if (seed % 4 == 1) return {q, wider};
      return {wider, q};
    }
    case 2: {
      ChaseResult chase = ChaseQuery(world, q, {.max_level = 3,
                                                .max_atoms = 2000});
      std::vector<uint32_t> derived;
      for (uint32_t id = 0; id < chase.size(); ++id) {
        if (chase.meta(id).rule != kRho0) derived.push_back(id);
      }
      if (chase.failed() || derived.empty()) break;
      Atom atom = chase.conjunct(derived[seed / 4 % derived.size()]);
      for (int i = 0; i < atom.arity(); ++i) {
        if (atom.arg(i).IsNull()) {
          atom.set_arg(i, world.MakeVariable("q2_N" + std::to_string(i)));
        }
      }
      body.push_back(atom);
      return {q, ConjunctiveQuery("q2", q.head(), std::move(body))};
    }
    default:
      break;
  }
  return {q, other};
}

class DecisionPathParityProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(DecisionPathParityProperty, EveryEntryPointSettlesAlike) {
  World world;
  auto [q1, q2] = ParityPair(world, GetParam());
  if (q1.arity() != q2.arity()) return;
  const std::string pair = q1.ToString(world) + " vs " + q2.ToString(world);

  std::vector<EntryVerdict> exact = DecideEverywhere(world, q1, q2, {});
  ASSERT_EQ(exact.size(), 5u) << pair;
  const EntryVerdict& reference = exact[0];
  ASSERT_NE(reference.resolution, Resolution::kUnknown) << pair;
  for (const EntryVerdict& v : exact) {
    EXPECT_EQ(v.resolution, reference.resolution) << v.entry << ": " << pair;
    if (v.unsatisfiable.has_value()) {
      EXPECT_EQ(*v.unsatisfiable, *reference.unsatisfiable)
          << v.entry << ": " << pair;
    }
  }

  const Resolution oracle = ChandraMerlinContained(q1, q2)
                                ? Resolution::kContained
                                : Resolution::kNotContained;
  Result<ContainmentResult> classical =
      CheckClassicalContainment(world, q1, q2);
  ASSERT_TRUE(classical.ok()) << classical.status().ToString();
  EXPECT_EQ(classical->resolution, oracle) << pair;

  // A tripped budget may cost a verdict, never flip it.
  for (uint64_t steps : {uint64_t(1), uint64_t(16), uint64_t(256)}) {
    for (uint64_t atoms : {uint64_t(2'000'000), uint64_t(4)}) {
      ContainmentOptions tight;
      tight.budget.hom_step_budget = steps;
      tight.max_chase_atoms = atoms;
      const std::string config = "hom_step_budget " + std::to_string(steps) +
                                 ", max_chase_atoms " + std::to_string(atoms);
      for (const EntryVerdict& v : DecideEverywhere(world, q1, q2, tight)) {
        EXPECT_TRUE(v.resolution == reference.resolution ||
                    v.resolution == Resolution::kUnknown)
            << v.entry << " under " << config << " said "
            << ResolutionName(v.resolution) << ": " << pair;
      }
      Result<ContainmentResult> governed =
          CheckClassicalContainment(world, q1, q2, tight);
      ASSERT_TRUE(governed.ok()) << governed.status().ToString();
      EXPECT_TRUE(governed->resolution == oracle ||
                  governed->resolution == Resolution::kUnknown)
          << "classical under " << config << ": " << pair;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecisionPathParityProperty,
                         ::testing::Range(uint64_t(0), uint64_t(60)));

}  // namespace
}  // namespace floq

// Appended suite: stage 0 and the index read postings by constant instead
// of testing every pair, so what they enumerate must cover every pair the
// signature test accepts (DESIGN.md §13). The corpus mixes the signature
// shapes the postings treat apart: constant-free queries (the
// constant-free list), queries whose only constant is in the head, and
// funct queries with two or more constants whose chase fails or stays
// inconclusive (not prunable: every id is a candidate).

#include "containment/index.h"
#include "containment/signature.h"

namespace floq {
namespace {

std::vector<ConjunctiveQuery> PostingCorpus(World& world, uint64_t seed) {
  std::vector<ConjunctiveQuery> queries;
  for (int k = 0; k < 18; ++k) {
    gen::RandomQuerySpec spec =
        SmallQuerySpec(seed * 101 + uint64_t(k), 2 + k % 3, k % 2);
    spec.constant_probability = k % 3 == 0 ? 0.0 : 0.3;
    queries.push_back(
        gen::MakeRandomQuery(world, spec, "r" + std::to_string(k)));
  }
  const Term c = world.MakeConstant("c" + std::to_string(seed % 3));
  for (int k = 0; k < 2; ++k) {
    // The head constant is the query's only constant.
    ConjunctiveQuery body = gen::MakeRandomQuery(
        world, SmallQuerySpec(seed * 103 + uint64_t(k), 2, 0), "h");
    std::vector<Atom> atoms;
    for (const Atom& atom : body.body()) {
      bool constant_free = true;
      for (Term t : atom) constant_free = constant_free && !t.IsConstant();
      if (constant_free) atoms.push_back(atom);
    }
    if (!atoms.empty()) {
      queries.emplace_back("h" + std::to_string(k), std::vector<Term>{c},
                           std::move(atoms));
    }
  }
  Term a = world.MakeConstant("a");
  Term o = world.MakeConstant("o");
  Term v1 = world.MakeConstant("c1");
  Term v2 = world.MakeConstant("c2");
  // rho_4 equates c1 and c2: the chase fails.
  queries.emplace_back("failing", std::vector<Term>{},
                       std::vector<Atom>{Atom::Funct(a, o),
                                         Atom::Data(o, a, v1),
                                         Atom::Data(o, a, v2)});
  // A mandatory cycle never completes, so a failure stays possible.
  ConjunctiveQuery cycle = gen::MakeMandatoryCycleQuery(world, 2, "cycle");
  std::vector<Atom> atoms = cycle.body();
  atoms.push_back(Atom::Funct(atoms[0].arg(0), atoms[0].arg(1)));
  queries.emplace_back("inconclusive", std::vector<Term>{}, std::move(atoms));
  return queries;
}

class StageZeroEnumerationProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StageZeroEnumerationProperty, PostingsCoverEveryPairMayContainKeeps) {
  World world;
  std::vector<ConjunctiveQuery> queries = PostingCorpus(world, GetParam());
  ContainmentEngine engine(world);
  for (const ConjunctiveQuery& q : queries) {
    ASSERT_TRUE(engine.AddQuery(q).ok()) << q.ToString(world);
  }
  size_t unprunable = 0;
  size_t constant_free = 0;
  for (size_t id = 0; id < queries.size(); ++id) {
    unprunable += engine.signature_of(id)->prunable ? 0 : 1;
    constant_free += engine.signature_of(id)->base.constants.empty() ? 1 : 0;
  }
  EXPECT_GE(unprunable, 2u);
  EXPECT_GT(constant_free, 0u);

  auto check = [&](const char* when) {
    for (size_t lhs = 0; lhs < queries.size(); ++lhs) {
      if (!engine.has_query(lhs)) continue;
      const std::vector<size_t> listed = engine.CandidatesOf(lhs);
      EXPECT_TRUE(std::is_sorted(listed.begin(), listed.end()));
      const std::set<size_t> enumerated(listed.begin(), listed.end());
      EXPECT_EQ(enumerated.size(), listed.size()) << "repeated id";
      for (size_t rhs = 0; rhs < queries.size(); ++rhs) {
        if (!engine.has_query(rhs)) {
          EXPECT_EQ(enumerated.count(rhs), 0u) << "removed id listed";
          continue;
        }
        if (MayContain(*engine.signature_of(lhs),
                       engine.signature_of(rhs)->base)) {
          EXPECT_EQ(enumerated.count(rhs), 1u)
              << when << ": " << queries[lhs].ToString(world) << " ⊆ "
              << queries[rhs].ToString(world);
        }
      }
    }
  };
  check("registered");
  for (size_t id = 0; id < queries.size(); id += 3) {
    ASSERT_TRUE(engine.RemoveQuery(id).ok());
  }
  check("after removals");
}

// The index checks exactly the same-arity pairs the signature test keeps,
// in both directions, and counts the rest as pruned.
TEST_P(StageZeroEnumerationProperty, IndexChecksExactlyThePairsKept) {
  World world;
  std::vector<ConjunctiveQuery> queries = PostingCorpus(world, GetParam());
  ContainmentIndex index(world);
  uint64_t kept = 0;
  uint64_t candidates = 0;
  for (size_t k = 0; k < queries.size(); ++k) {
    Result<size_t> id = index.Insert(queries[k]);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    const ClosureSignature& added = *index.engine().signature_of(*id);
    for (size_t j : index.live_ids()) {
      if (j == *id || index.query(j).arity() != queries[k].arity()) continue;
      const ClosureSignature& other = *index.engine().signature_of(j);
      candidates += 2;
      kept += MayContain(added, other.base) ? 1 : 0;
      kept += MayContain(other, added.base) ? 1 : 0;
    }
    if (k % 4 == 3) ASSERT_TRUE(index.Remove(index.live_ids()[k / 4]).ok());
  }
  const IndexStats& stats = index.index_stats();
  EXPECT_EQ(stats.candidate_pairs, candidates);
  EXPECT_EQ(stats.checked_pairs, kept);
  EXPECT_EQ(stats.pruned_pairs, candidates - kept);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StageZeroEnumerationProperty,
                         ::testing::Range(uint64_t(0), uint64_t(30)));

}  // namespace
}  // namespace floq
