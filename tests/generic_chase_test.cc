// Tests for the dependency framework: parsing, weak acyclicity, the chase
// under user dependency sets, cross-checks of the engine against the
// test-only reference chase, and containment under user dependency sets.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "chase/dependencies.h"
#include "chase/sigma_fl.h"
#include "containment/containment.h"
#include "query/parser.h"
#include "reference_chase.h"
#include "term/world.h"

namespace floq {
namespace {

// ---- parsing -------------------------------------------------------------

TEST(DependencyParserTest, TgdsAndEgds) {
  World world;
  Result<DependencySet> deps = ParseDependencies(world, R"(
    person(X) :- employee(X).
    works_for(X, Y) :- employee(X).     % Y is existential
    X = Y :- boss(E, X), boss(E, Y).
  )");
  ASSERT_TRUE(deps.ok()) << deps.status().ToString();
  ASSERT_EQ(deps->tgds.size(), 2u);
  ASSERT_EQ(deps->egds.size(), 1u);
  EXPECT_TRUE(deps->tgds[0].ExistentialVariables().empty());
  EXPECT_EQ(deps->tgds[1].ExistentialVariables().size(), 1u);
  EXPECT_TRUE(deps->egds[0].left.IsVariable());
}

TEST(DependencyParserTest, Errors) {
  World world;
  EXPECT_FALSE(ParseDependencies(world, "person(X).").ok());  // no :-
  EXPECT_FALSE(ParseDependencies(world, "p(X) :- .").ok());   // empty body
  // Equated variable not in body.
  EXPECT_FALSE(
      ParseDependencies(world, "X = Z :- boss(E, X), boss(E, Y).").ok());
  // Arity conflict on the head predicate.
  EXPECT_FALSE(ParseDependencies(world,
                                 "p(X) :- q(X). p(X, Y) :- q(X), q(Y).")
                   .ok());
}

TEST(DependencyParserTest, SigmaFLHasTwelveRules) {
  World world;
  DependencySet sigma = MakeSigmaFLDependencies(world);
  EXPECT_EQ(sigma.tgds.size(), 11u);
  EXPECT_EQ(sigma.egds.size(), 1u);
  // rho_5 is the only existential TGD.
  int existential = 0;
  for (const Tgd& tgd : sigma.tgds) {
    existential += tgd.ExistentialVariables().empty() ? 0 : 1;
  }
  EXPECT_EQ(existential, 1);
}

// ---- weak acyclicity -------------------------------------------------------

TEST(WeakAcyclicityTest, DatalogSetsAreWeaklyAcyclic) {
  World world;
  Result<DependencySet> deps = ParseDependencies(world, R"(
    sub(C1, C2) :- sub(C1, C3), sub(C3, C2).
    member(O, C1) :- member(O, C), sub(C, C1).
  )");
  ASSERT_TRUE(deps.ok());
  EXPECT_TRUE(IsWeaklyAcyclic(*deps, world));
}

TEST(WeakAcyclicityTest, AcyclicExistentialsAreFine) {
  World world;
  // Every employee works somewhere; departments don't generate employees.
  Result<DependencySet> deps = ParseDependencies(world, R"(
    works_in(X, D) :- employee(X).
    dept(D) :- works_in(X, D).
  )");
  ASSERT_TRUE(deps.ok());
  EXPECT_TRUE(IsWeaklyAcyclic(*deps, world));
}

TEST(WeakAcyclicityTest, ExistentialCycleDetected) {
  World world;
  // Every person has a parent who is a person: classic non-terminating.
  Result<DependencySet> deps = ParseDependencies(world, R"(
    parent_of(X, P) :- person(X).
    person(P) :- parent_of(X, P).
  )");
  ASSERT_TRUE(deps.ok());
  EXPECT_FALSE(IsWeaklyAcyclic(*deps, world));
}

TEST(WeakAcyclicityTest, SpecialSelfLoopIsACycleOfLengthOne) {
  World world;
  // The body variable Y sits at p[0] and feeds the invented X back into
  // p[0]: a special edge from a position to itself, the shortest
  // possible witness.
  Result<DependencySet> deps = ParseDependencies(
      world, "p(X, Y) :- p(Y, Z).");
  ASSERT_TRUE(deps.ok());
  WeakAcyclicityResult result = AnalyzeWeakAcyclicity(*deps, world);
  EXPECT_FALSE(result.weakly_acyclic);
  ASSERT_EQ(result.witness.size(), 1u);
  EXPECT_TRUE(result.witness[0].special);
  EXPECT_TRUE(result.witness[0].from == result.witness[0].to);
  EXPECT_EQ(result.witness[0].from.ToString(world), "p[0]");
}

TEST(WeakAcyclicityTest, EgdOnlySetsAreTriviallyWeaklyAcyclic) {
  World world;
  Result<DependencySet> deps = ParseDependencies(world, R"(
    X = Y :- boss(E, X), boss(E, Y).
    V = W :- data(O, A, V), data(O, A, W), funct(A, O).
  )");
  ASSERT_TRUE(deps.ok());
  ASSERT_TRUE(deps->tgds.empty());
  WeakAcyclicityResult result = AnalyzeWeakAcyclicity(*deps, world);
  EXPECT_TRUE(result.weakly_acyclic);
  EXPECT_TRUE(result.edges.empty());
  EXPECT_TRUE(result.witness.empty());
}

TEST(WeakAcyclicityTest, WitnessCycleIsWellFormedAndClosed) {
  World world;
  Result<DependencySet> deps = ParseDependencies(world, R"(
    parent_of(X, P) :- person(X).
    person(P) :- parent_of(X, P).
  )");
  ASSERT_TRUE(deps.ok());
  WeakAcyclicityResult result = AnalyzeWeakAcyclicity(*deps, world);
  ASSERT_FALSE(result.weakly_acyclic);
  ASSERT_GE(result.witness.size(), 2u);
  bool has_special = false;
  for (size_t i = 0; i < result.witness.size(); ++i) {
    const DependencyEdge& edge = result.witness[i];
    const DependencyEdge& next =
        result.witness[(i + 1) % result.witness.size()];
    EXPECT_TRUE(edge.to == next.from);  // consecutive edges chain, wrapping
    has_special |= edge.special;
  }
  EXPECT_TRUE(has_special);
}

TEST(WeakAcyclicityTest, SigmaFLWitnessRunsThroughRho5AndRho1) {
  World world;
  DependencySet sigma = MakeSigmaFLDependencies(world);
  WeakAcyclicityResult result = AnalyzeWeakAcyclicity(sigma, world);
  ASSERT_FALSE(result.weakly_acyclic);
  ASSERT_FALSE(result.witness.empty());
  // The first witness edge is the special edge of rho_5 (named rho5 in
  // the rendering): mandatory feeds the invented value position
  // data[2]; the cycle then returns to a mandatory position.
  EXPECT_TRUE(result.witness[0].special);
  EXPECT_EQ(result.witness[0].to.ToString(world), "data[2]");
  EXPECT_EQ(result.witness[0].from.ToString(world)
                .substr(0, 9), "mandatory");
  std::string rendered;
  for (const DependencyEdge& edge : result.witness) {
    rendered += edge.ToString(sigma, world) + "\n";
  }
  EXPECT_NE(rendered.find("*-->"), std::string::npos) << rendered;
}

TEST(WeakAcyclicityTest, SigmaFLIsNotWeaklyAcyclic) {
  // rho_5 feeds data, rho_1 feeds member, rho_10 feeds mandatory, which
  // feeds rho_5 again — the source of the paper's infinite chases.
  World world;
  DependencySet sigma = MakeSigmaFLDependencies(world);
  EXPECT_FALSE(IsWeaklyAcyclic(sigma, world));
}

TEST(WeakAcyclicityTest, JointlyAcyclicSetStillTerminates) {
  World world;
  // Not weakly acyclic (the special edge p[0] -*-> q[1] closes through
  // q[1] -> p[0]) yet the restricted chase terminates: the invented Y
  // never acquires an r fact, so the second rule cannot re-fire on it.
  Result<DependencySet> deps = ParseDependencies(world, R"(
    q(X, Y) :- p(X).
    p(Y) :- q(X, Y), r(Y).
  )");
  ASSERT_TRUE(deps.ok());
  EXPECT_FALSE(IsWeaklyAcyclic(*deps, world));
  ConjunctiveQuery q = *ParseQuery(world, "q0() :- p(A), r(A).");
  ChaseOptions options;
  options.max_level = 50;
  options.max_atoms = 10'000;
  ChaseResult chase = ChaseQuery(world, q, *deps, options);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
}

// ---- the chase under user dependency sets --------------------------------

TEST(GenericChaseTest, PlainTgdsSaturate) {
  World world;
  Result<DependencySet> deps = ParseDependencies(
      world, "sub(C1, C2) :- sub(C1, C3), sub(C3, C2).");
  ASSERT_TRUE(deps.ok());
  ConjunctiveQuery q = *ParseQuery(world, "q() :- sub(A, B), sub(B, C).");
  ChaseResult chase = ChaseQuery(world, q, *deps);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  EXPECT_TRUE(chase.conjuncts().Contains(
      Atom::Sub(world.MakeVariable("A"), world.MakeVariable("C"))));
}

TEST(GenericChaseTest, ExistentialInventsOneNullPerInstance) {
  World world;
  Result<DependencySet> deps = ParseDependencies(
      world, "works_in(X, D) :- employee(X).");
  ASSERT_TRUE(deps.ok());
  ConjunctiveQuery q =
      *ParseQuery(world, "q() :- employee(ann), employee(bob).");
  ChaseResult chase = ChaseFacts(world, q.body(), *deps);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  EXPECT_EQ(chase.stats().fresh_nulls, 2u);
  // Restricted: re-running adds nothing (heads satisfied).
}

TEST(GenericChaseTest, RestrictedExistentialIsBlockedByWitness) {
  World world;
  Result<DependencySet> deps = ParseDependencies(
      world, "works_in(X, D) :- employee(X).");
  ASSERT_TRUE(deps.ok());
  ConjunctiveQuery q = *ParseQuery(
      world, "q() :- employee(ann), works_in(ann, sales).");
  ChaseResult chase = ChaseQuery(world, q, *deps);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  EXPECT_EQ(chase.stats().fresh_nulls, 0u);
}

TEST(GenericChaseTest, EgdMergesAndFails) {
  World world;
  Result<DependencySet> deps = ParseDependencies(
      world, "X = Y :- boss(E, X), boss(E, Y).");
  ASSERT_TRUE(deps.ok());

  ConjunctiveQuery merging = *ParseQuery(
      world, "q(V, W) :- boss(e1, V), boss(e1, W).");
  ChaseResult chase = ChaseQuery(world, merging, *deps);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  EXPECT_EQ(chase.head()[0], chase.head()[1]);

  ConjunctiveQuery failing = *ParseQuery(
      world, "q() :- boss(e1, ann), boss(e1, bob).");
  ChaseResult failed = ChaseQuery(world, failing, *deps);
  EXPECT_EQ(failed.outcome(), ChaseOutcome::kFailed);
}

TEST(GenericChaseTest, NonTerminatingSetIsLevelCapped) {
  World world;
  Result<DependencySet> deps = ParseDependencies(world, R"(
    parent_of(X, P) :- person(X).
    person(P) :- parent_of(X, P).
  )");
  ASSERT_TRUE(deps.ok());
  ConjunctiveQuery q = *ParseQuery(world, "q() :- person(adam).");
  ChaseOptions options;
  options.max_level = 9;
  ChaseResult chase = ChaseQuery(world, q, *deps, options);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kLevelCapped);
  EXPECT_GE(chase.stats().fresh_nulls, 4u);
}

// ---- cross-check against the reference chase ------------------------------

// "Generic" is the reference chase of reference_chase.h, which follows
// Definitions 2-3 literally (full rescans, nested-loop matching, EGDs by
// enumerating their whole body); "specialized" is the engine, whose
// tactics the rules' shapes select. Both run Sigma_FL in separate worlds
// (so fresh nulls align) to level 9 and must agree on failure, on the
// head, and on the number of conjuncts per level and predicate.
class GenericVsSpecialized : public ::testing::TestWithParam<const char*> {};

using LevelCounts = std::map<std::pair<int, PredicateId>, int>;

LevelCounts CountsPerLevel(const ChaseResult& chase) {
  LevelCounts counts;
  for (uint32_t id = 0; id < chase.size(); ++id) {
    counts[{chase.LevelOf(id), chase.conjunct(id).predicate()}]++;
  }
  return counts;
}

LevelCounts CountsPerLevel(const reference::ReferenceChaseResult& chase) {
  LevelCounts counts;
  for (size_t i = 0; i < chase.atoms.size(); ++i) {
    counts[{chase.levels[i], chase.atoms[i].predicate()}]++;
  }
  return counts;
}

std::vector<std::string> Names(const World& world,
                               const std::vector<Term>& terms) {
  std::vector<std::string> names;
  names.reserve(terms.size());
  for (Term t : terms) names.push_back(world.NameOf(t));
  return names;
}

TEST_P(GenericVsSpecialized, SameConjunctCountsPerPredicate) {
  World world_e, world_r;
  ConjunctiveQuery qe = *ParseQuery(world_e, GetParam());
  ConjunctiveQuery qr = *ParseQuery(world_r, GetParam());

  ChaseOptions options;
  options.max_level = 9;
  ChaseResult engine = ChaseQuery(world_e, qe, options);
  reference::ReferenceChaseResult ref = reference::RunReferenceChase(
      world_r, qr.body(), qr.head(), MakeSigmaFLDependencies(world_r),
      options.max_level);

  ASSERT_FALSE(ref.truncated);
  ASSERT_EQ(engine.failed(), ref.failed) << GetParam();
  if (ref.failed) return;
  EXPECT_EQ(CountsPerLevel(engine), CountsPerLevel(ref)) << GetParam();
  EXPECT_EQ(Names(world_e, engine.head()), Names(world_r, ref.head));
}

INSTANTIATE_TEST_SUITE_P(
    Queries, GenericVsSpecialized,
    ::testing::Values(
        "q() :- sub(A, B), sub(B, C).",
        "q() :- member(O, C), type(C, A, T).",
        "q(V) :- data(O, A, V), data(O, A, W), funct(A, O).",
        "q() :- mandatory(A, O), type(O, A, T).",
        "q() :- data(O, A, one), data(O, A, two), funct(A, O).",
        "q() :- sub(C, D), mandatory(A, D), funct(B, D), member(O, C)."));

TEST(ReferenceChaseTest, UserSetAgreesWithEngine) {
  // A user set with an unguarded key EGD, a full TGD and an existential
  // cycle: the engine and the reference chase agree level by level.
  const char* text = R"(
    parent_of(X, P) :- person(X).
    person(P) :- parent_of(X, P).
    human(X) :- person(X).
    Y = Z :- parent_of(X, Y), parent_of(X, Z).
  )";
  const char* query = "q(A) :- person(A), parent_of(A, B), parent_of(A, C).";
  World world_e, world_r;
  ConjunctiveQuery qe = *ParseQuery(world_e, query);
  ConjunctiveQuery qr = *ParseQuery(world_r, query);
  Result<DependencySet> de = ParseDependencies(world_e, text);
  Result<DependencySet> dr = ParseDependencies(world_r, text);
  ASSERT_TRUE(de.ok() && dr.ok());
  ChaseOptions options;
  options.max_level = 7;
  ChaseResult engine = ChaseQuery(world_e, qe, *de, options);
  reference::ReferenceChaseResult ref = reference::RunReferenceChase(
      world_r, qr.body(), qr.head(), *dr, options.max_level);
  ASSERT_FALSE(ref.failed);
  ASSERT_FALSE(engine.failed());
  EXPECT_EQ(CountsPerLevel(engine), CountsPerLevel(ref));
  EXPECT_EQ(Names(world_e, engine.head()), Names(world_r, ref.head));
  EXPECT_EQ(engine.stats().egd_merges, 1u);
}

// ---- containment under user dependencies ---------------------------------------

TEST(UserDependencyContainmentTest, WeaklyAcyclicComplete) {
  World world;
  Result<DependencySet> deps = ParseDependencies(world, R"(
    person(X) :- employee(X).
    works_in(X, D) :- employee(X).
    dept(D) :- works_in(X, D).
  )");
  ASSERT_TRUE(deps.ok());
  ASSERT_TRUE(IsWeaklyAcyclic(*deps, world));

  ConjunctiveQuery q1 = *ParseQuery(world, "q(X) :- employee(X).");
  ConjunctiveQuery q2 = *ParseQuery(
      world, "q(X) :- person(X), works_in(X, D), dept(D).");
  Result<ContainmentResult> result =
      CheckContainmentUnderDependencies(world, q1, q2, *deps);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->contained);
  EXPECT_TRUE(result->conclusive);

  // Reverse fails conclusively (weakly acyclic).
  Result<ContainmentResult> reverse =
      CheckContainmentUnderDependencies(world, q2, q1, *deps);
  ASSERT_TRUE(reverse.ok());
  EXPECT_FALSE(reverse->contained);
  EXPECT_TRUE(reverse->conclusive);
}

TEST(UserDependencyContainmentTest, KeyEgdAlignsHeads) {
  World world;
  Result<DependencySet> deps = ParseDependencies(
      world, "X = Y :- ssn(P, S, X), ssn(P, S, Y).");
  ASSERT_TRUE(deps.ok());
  ConjunctiveQuery q1 = *ParseQuery(
      world, "q(X, Y) :- ssn(P, S, X), ssn(P, S, Y).");
  ConjunctiveQuery q2 = *ParseQuery(world, "q(V, V) :- ssn(P, S, V).");
  Result<ContainmentResult> result =
      CheckContainmentUnderDependencies(world, q1, q2, *deps);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->contained);
}

TEST(UserDependencyContainmentTest, NonWeaklyAcyclicNeedsOverride) {
  World world;
  DependencySet sigma = MakeSigmaFLDependencies(world);
  ConjunctiveQuery q1 = *ParseQuery(world, "q() :- mandatory(A, T), "
                                           "type(T, A, T).");
  ConjunctiveQuery q2 = *ParseQuery(world, "q() :- data(O, X, V).");

  // Without an override: precondition failure.
  Result<ContainmentResult> bare =
      CheckContainmentUnderDependencies(world, q1, q2, sigma);
  EXPECT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().code(), StatusCode::kFailedPrecondition);

  // With the paper's bound: positive and conclusive-as-positive.
  ContainmentOptions options;
  options.level_override = q2.size() * 2 * q1.size();
  Result<ContainmentResult> bounded =
      CheckContainmentUnderDependencies(world, q1, q2, sigma, options);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  EXPECT_TRUE(bounded->contained);

  // A deep negative is flagged inconclusive.
  ConjunctiveQuery q3 = *ParseQuery(world, "q() :- sub(S1, S2).");
  Result<ContainmentResult> negative =
      CheckContainmentUnderDependencies(world, q1, q3, sigma, options);
  ASSERT_TRUE(negative.ok());
  EXPECT_FALSE(negative->contained);
  EXPECT_FALSE(negative->conclusive);
}

TEST(UserDependencyContainmentTest, AgreesWithPaperMethodOnSigmaFL) {
  // The generic path with Sigma_FL-as-user-dependencies and the paper's
  // bound must agree with the specialized checker.
  const char* pairs[][2] = {
      {"q(X) :- member(X, C), sub(C, person).",
       "q(X) :- member(X, person)."},
      {"q(V) :- type(O, A, number), data(O, A, V).",
       "q(V) :- member(V, number)."},
      {"q(X) :- member(X, student).", "q(X) :- member(X, professor)."},
      {"q(C) :- mandatory(A, C), type(C, A, T), member(O, C).",
       "q(C) :- member(O, C), data(O, A, V)."},
  };
  for (const auto& pair : pairs) {
    World world;
    ConjunctiveQuery q1 = *ParseQuery(world, pair[0]);
    ConjunctiveQuery q2 = *ParseQuery(world, pair[1]);
    Result<ContainmentResult> paper = CheckContainment(world, q1, q2);
    ASSERT_TRUE(paper.ok());

    DependencySet sigma = MakeSigmaFLDependencies(world);
    ContainmentOptions options;
    options.level_override = q2.size() * 2 * q1.size();
    Result<ContainmentResult> generic =
        CheckContainmentUnderDependencies(world, q1, q2, sigma, options);
    ASSERT_TRUE(generic.ok()) << generic.status().ToString();
    EXPECT_EQ(paper->contained, generic->contained)
        << pair[0] << " vs " << pair[1];
  }
}

}  // namespace
}  // namespace floq

namespace floq {
namespace {

TEST(GenericChaseTest, DebugStringNamesGenericRules) {
  World world;
  Result<DependencySet> deps =
      ParseDependencies(world, "person(X) :- employee(X).");
  ASSERT_TRUE(deps.ok());
  ConjunctiveQuery q = *ParseQuery(world, "q() :- employee(ann).");
  ChaseResult chase = ChaseQuery(world, q, *deps);
  EXPECT_NE(chase.DebugString(world).find("rho_1000"), std::string::npos);
}

TEST(GenericChaseTest, BudgetExceededReported) {
  World world;
  Result<DependencySet> deps = ParseDependencies(world, R"(
    parent_of(X, P) :- person(X).
    person(P) :- parent_of(X, P).
  )");
  ASSERT_TRUE(deps.ok());
  ConjunctiveQuery q = *ParseQuery(world, "q() :- person(adam).");
  ChaseOptions options;
  options.max_atoms = 10;
  ChaseResult chase = ChaseQuery(world, q, *deps, options);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kBudgetExceeded);
}

TEST(GenericChaseTest, EveryExistentialVariableCountsANull) {
  // Two distinct existential variables: two nulls, both counted. Checked
  // through containment under the set, whose result carries the chase.
  World world;
  Result<DependencySet> deps =
      ParseDependencies(world, "pair(X, Y, Z) :- thing(X).");
  ASSERT_TRUE(deps.ok());
  ConjunctiveQuery q1 = *ParseQuery(world, "q() :- thing(a).");
  ConjunctiveQuery q2 = *ParseQuery(world, "q() :- pair(a, Y, Z).");
  Result<ContainmentResult> result =
      CheckContainmentUnderDependencies(world, q1, q2, *deps);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->contained);
  EXPECT_EQ(world.null_count(), 2u);
  EXPECT_EQ(result->chase.stats().fresh_nulls, 2u);
}

TEST(GenericChaseTest, RepeatedExistentialVariableSharesOneNull) {
  World world;
  // The same existential variable twice in the head: one null, repeated.
  Result<DependencySet> deps =
      ParseDependencies(world, "pair(X, Y, Y) :- thing(X).");
  ASSERT_TRUE(deps.ok());
  ConjunctiveQuery q = *ParseQuery(world, "q() :- thing(a).");
  ChaseResult chase = ChaseQuery(world, q, *deps);
  ASSERT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  bool found = false;
  for (uint32_t id = 0; id < chase.size(); ++id) {
    const Atom& atom = chase.conjunct(id);
    if (world.predicates().NameOf(atom.predicate()) == "pair") {
      found = true;
      EXPECT_TRUE(atom.arg(1).IsNull());
      EXPECT_EQ(atom.arg(1), atom.arg(2));
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(chase.stats().fresh_nulls, 1u);
}

}  // namespace
}  // namespace floq
