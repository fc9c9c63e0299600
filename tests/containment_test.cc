#include <gtest/gtest.h>

#include "containment/containment.h"
#include "containment/homomorphism.h"
#include "containment/minimize.h"
#include "query/parser.h"
#include "term/world.h"

namespace floq {
namespace {

ConjunctiveQuery Q(World& world, const char* text) {
  Result<ConjunctiveQuery> q = ParseQuery(world, text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

bool Contained(World& world, const ConjunctiveQuery& q1,
               const ConjunctiveQuery& q2,
               const ContainmentOptions& options = {}) {
  Result<ContainmentResult> result = CheckContainment(world, q1, q2, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->contained;
}

// ---- homomorphism search -----------------------------------------------------

TEST(HomomorphismTest, HeadConstraintSeedsSearch) {
  World world;
  ConjunctiveQuery pattern = Q(world, "q(X) :- member(X, C).");
  FactIndex target;
  Term john = world.MakeConstant("john");
  Term mary = world.MakeConstant("mary");
  Term student = world.MakeConstant("student");
  target.Insert(Atom::Member(john, student));
  target.Insert(Atom::Member(mary, student));

  std::optional<Substitution> hom =
      FindQueryHomomorphism(pattern, target, {john});
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(hom->Apply(world.MakeVariable("X")), john);

  EXPECT_FALSE(
      FindQueryHomomorphism(pattern, target, {world.MakeConstant("nobody")})
          .has_value());
}

TEST(HomomorphismTest, HeadConstantMustEqualTarget) {
  World world;
  ConjunctiveQuery pattern = Q(world, "q(john) :- member(john, C).");
  FactIndex target;
  Term john = world.MakeConstant("john");
  Term student = world.MakeConstant("student");
  target.Insert(Atom::Member(john, student));
  EXPECT_TRUE(FindQueryHomomorphism(pattern, target, {john}).has_value());
  EXPECT_FALSE(FindQueryHomomorphism(pattern, target,
                                     {world.MakeConstant("mary")})
                   .has_value());
}

TEST(HomomorphismTest, RepeatedHeadVariableNeedsOneImage) {
  World world;
  ConjunctiveQuery pattern = Q(world, "q(X, X) :- member(X, C).");
  FactIndex target;
  Term john = world.MakeConstant("john");
  Term mary = world.MakeConstant("mary");
  target.Insert(Atom::Member(john, mary));
  EXPECT_TRUE(FindQueryHomomorphism(pattern, target, {john, john}));
  EXPECT_FALSE(FindQueryHomomorphism(pattern, target, {john, mary}));
}

TEST(HomomorphismTest, IsQueryHomomorphismValidatesWitness) {
  World world;
  ConjunctiveQuery pattern = Q(world, "q(X) :- member(X, C).");
  FactIndex target;
  Term john = world.MakeConstant("john");
  Term student = world.MakeConstant("student");
  target.Insert(Atom::Member(john, student));

  std::optional<Substitution> hom =
      FindQueryHomomorphism(pattern, target, {john});
  ASSERT_TRUE(hom.has_value());
  EXPECT_TRUE(IsQueryHomomorphism(pattern, target, {john}, *hom));

  Substitution wrong;
  wrong.Bind(world.MakeVariable("X"), student);
  EXPECT_FALSE(IsQueryHomomorphism(pattern, target, {john}, wrong));
}

// ---- classical containment ------------------------------------------------------

TEST(ClassicalContainmentTest, Reflexive) {
  World world;
  ConjunctiveQuery q = Q(world, "q(A) :- member(A, C), sub(C, D).");
  Result<ContainmentResult> result = CheckClassicalContainment(world, q, q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->contained);
}

TEST(ClassicalContainmentTest, FewerAtomsContainMore) {
  World world;
  ConjunctiveQuery q1 = Q(world, "q(X) :- member(X, C), sub(C, D).");
  ConjunctiveQuery q2 = Q(world, "q(X) :- member(X, C).");
  EXPECT_TRUE(CheckClassicalContainment(world, q1, q2)->contained);
  EXPECT_FALSE(CheckClassicalContainment(world, q2, q1)->contained);
}

TEST(ClassicalContainmentTest, ConstantsRestrict) {
  World world;
  ConjunctiveQuery q1 = Q(world, "q(X) :- member(X, student).");
  ConjunctiveQuery q2 = Q(world, "q(X) :- member(X, C).");
  EXPECT_TRUE(CheckClassicalContainment(world, q1, q2)->contained);
  EXPECT_FALSE(CheckClassicalContainment(world, q2, q1)->contained);
}

TEST(ClassicalContainmentTest, ArityMismatchIsError) {
  World world;
  ConjunctiveQuery q1 = Q(world, "q(X) :- member(X, C).");
  ConjunctiveQuery q2 = Q(world, "q(X, C) :- member(X, C).");
  Result<ContainmentResult> result = CheckClassicalContainment(world, q1, q2);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---- containment under Sigma_FL ---------------------------------------------------

TEST(ContainmentTest, ReflexiveUnderSigma) {
  World world;
  ConjunctiveQuery q =
      Q(world, "q(A, B) :- type(T1, A, T2), sub(T2, T3), type(T3, B, X).");
  EXPECT_TRUE(Contained(world, q, q));
}

TEST(ContainmentTest, SubclassTransitivityMakesContainment) {
  World world;
  // q1 asks for members of C via a 2-step subclass path; q2 via 1 step.
  ConjunctiveQuery q1 =
      Q(world, "q(X) :- member(X, A), sub(A, B), sub(B, C).");
  ConjunctiveQuery q2 = Q(world, "q(X) :- member(X, A), sub(A, C1).");
  EXPECT_TRUE(Contained(world, q1, q2));
  // Classical containment also holds here (map sub(A,C1) to sub(A,B)), so
  // sharpen: require the subclass of a *specific* class.
  ConjunctiveQuery q3 =
      Q(world, "q(X) :- member(X, A), sub(A, B), sub(B, c0).");
  ConjunctiveQuery q4 = Q(world, "q(X) :- member(X, A), sub(A, c0).");
  EXPECT_TRUE(Contained(world, q3, q4));
  EXPECT_FALSE(CheckClassicalContainment(world, q3, q4)->contained);
}

TEST(ContainmentTest, MembershipPropagatesUpward) {
  World world;
  ConjunctiveQuery q1 = Q(world, "q(X) :- member(X, C), sub(C, person).");
  ConjunctiveQuery q2 = Q(world, "q(X) :- member(X, person).");
  EXPECT_TRUE(Contained(world, q1, q2));
  EXPECT_FALSE(Contained(world, q2, q1));
}

TEST(ContainmentTest, TypeCorrectnessGivesMembership) {
  World world;
  ConjunctiveQuery q1 =
      Q(world, "q(V) :- type(O, A, number), data(O, A, V).");
  ConjunctiveQuery q2 = Q(world, "q(V) :- member(V, number).");
  EXPECT_TRUE(Contained(world, q1, q2));
  EXPECT_FALSE(CheckClassicalContainment(world, q1, q2)->contained);
}

TEST(ContainmentTest, MandatoryAttributeImpliesSomeValue) {
  // Needs rho_5: every class with a mandatory typed attribute and a member
  // has a member of the attribute's type.
  World world;
  ConjunctiveQuery q1 = Q(world,
                          "q(C) :- mandatory(A, C), type(C, A, T), "
                          "member(O, C).");
  ConjunctiveQuery q2 = Q(world, "q(C) :- member(O, C), data(O, A, V).");
  EXPECT_TRUE(Contained(world, q1, q2));
  // Not visible at level 0 (rho_5 never fires there).
  ContainmentOptions level_zero;
  level_zero.level_override = 0;
  EXPECT_FALSE(Contained(world, q1, q2, level_zero));
}

TEST(ContainmentTest, EgdAlignsHeads) {
  // Example-1 shape: under funct, the two values coincide, so q1 is
  // contained in the diagonal query.
  World world;
  ConjunctiveQuery q1 = Q(world,
                          "q(V1, V2) :- data(O, A, V1), data(O, A, V2), "
                          "funct(A, C), member(O, C).");
  ConjunctiveQuery q2 = Q(world, "q(V, V) :- data(O, A, V).");
  EXPECT_TRUE(Contained(world, q1, q2));
  EXPECT_FALSE(CheckClassicalContainment(world, q1, q2)->contained);
}

TEST(ContainmentTest, UnsatisfiableQ1IsContainedInAnything) {
  World world;
  ConjunctiveQuery q1 = Q(world,
                          "q() :- data(O, A, one), data(O, A, two), "
                          "funct(A, O).");
  ConjunctiveQuery q2 = Q(world, "q() :- member(X, impossible).");
  Result<ContainmentResult> result = CheckContainment(world, q1, q2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->contained);
  EXPECT_TRUE(result->q1_unsatisfiable);
}

TEST(ContainmentTest, NegativeVerdictsComeWithChaseCounterexample) {
  World world;
  ConjunctiveQuery q1 = Q(world, "q(X) :- member(X, student).");
  ConjunctiveQuery q2 = Q(world, "q(X) :- member(X, professor).");
  Result<ContainmentResult> result = CheckContainment(world, q1, q2);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->contained);
  // The chase of q1 is the counterexample: q1 returns X there, q2 nothing.
  EXPECT_GE(result->chase.size(), 1u);
  EXPECT_FALSE(result->witness.has_value());
}

TEST(ContainmentTest, WitnessIsAValidHomomorphism) {
  World world;
  ConjunctiveQuery q1 =
      Q(world, "q(X) :- member(X, C), sub(C, person).");
  ConjunctiveQuery q2 = Q(world, "q(X) :- member(X, person).");
  Result<ContainmentResult> result = CheckContainment(world, q1, q2);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->witness.has_value());
  EXPECT_TRUE(IsQueryHomomorphism(q2, result->chase.conjuncts(),
                                  result->chase.head(), *result->witness));
}

TEST(ContainmentTest, InfiniteChaseIsHandledByTheBound) {
  // q1's chase is infinite (mandatory self-loop); Theorem 12's level bound
  // must still decide both directions.
  World world;
  ConjunctiveQuery q1 = Q(world, "q() :- mandatory(A, T), type(T, A, T).");
  ConjunctiveQuery q2 = Q(world, "q() :- data(O, X, V), data(V, X, W).");
  EXPECT_TRUE(Contained(world, q1, q2));
  ConjunctiveQuery q3 = Q(world, "q() :- sub(S1, S2).");
  EXPECT_FALSE(Contained(world, q1, q3));
}

TEST(ContainmentTest, DeepTargetNeedsDeepChase) {
  // q2 requires a 3-chain of data values; only levels >= 7 of chase(q1)
  // contain it. A small level override must miss it, the paper bound must
  // find it.
  World world;
  ConjunctiveQuery q1 = Q(world, "q() :- mandatory(A, T), type(T, A, T).");
  ConjunctiveQuery q2 =
      Q(world, "q() :- data(O1, X, O2), data(O2, X, O3), data(O3, X, O4).");
  ContainmentOptions shallow;
  shallow.level_override = 4;
  EXPECT_FALSE(Contained(world, q1, q2, shallow));
  EXPECT_TRUE(Contained(world, q1, q2));
}

TEST(ContainmentTest, BudgetExhaustionIsReported) {
  World world;
  ConjunctiveQuery q1 = Q(world, "q() :- mandatory(A, T), type(T, A, T).");
  ConjunctiveQuery q2 =
      Q(world, "q() :- data(O1, X, O2), data(O2, X, O3), data(O3, X, O4).");
  ContainmentOptions tiny;
  tiny.max_chase_atoms = 5;
  // The 5-atom prefix cannot contain q2's 3-chain, and a truncated chase
  // cannot refute containment: the verdict is UNKNOWN, not an error and
  // not a spurious "not contained".
  Result<ContainmentResult> result = CheckContainment(world, q1, q2, tiny);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->contained);
  EXPECT_EQ(result->resolution, Resolution::kUnknown);
  EXPECT_EQ(result->unknown_reason, TripReason::kChaseAtomBudget);
  EXPECT_FALSE(result->conclusive);
}

// ---- equivalence ---------------------------------------------------------

TEST(EquivalenceTest, RedundantAtomIsEquivalent) {
  World world;
  // member(O, D) is implied by member(O, C), sub(C, D).
  ConjunctiveQuery q1 =
      Q(world, "q(O) :- member(O, C), sub(C, D), member(O, D).");
  ConjunctiveQuery q2 = Q(world, "q(O) :- member(O, C), sub(C, D).");
  Result<bool> equivalent = CheckEquivalence(world, q1, q2);
  ASSERT_TRUE(equivalent.ok());
  EXPECT_TRUE(*equivalent);
}

TEST(EquivalenceTest, StrictContainmentIsNotEquivalence) {
  World world;
  ConjunctiveQuery q1 = Q(world, "q(X) :- member(X, person).");
  ConjunctiveQuery q2 = Q(world, "q(X) :- member(X, C).");
  Result<bool> equivalent = CheckEquivalence(world, q1, q2);
  ASSERT_TRUE(equivalent.ok());
  EXPECT_FALSE(*equivalent);
}

// A budget trip leaves q ≡ q open: the chase stops while it seeds q's
// body, so neither direction is decided, and "not equivalent" would be a
// false negative.
TEST(EquivalenceTest, UnknownDirectionIsATypedErrorNotANegative) {
  World world;
  ConjunctiveQuery q =
      Q(world, "q(X) :- member(X, C), sub(C, D), member(X, D).");
  ContainmentOptions options;
  options.max_chase_atoms = 1;
  Result<ContainmentResult> contained =
      CheckContainment(world, q, q, options);
  ASSERT_TRUE(contained.ok()) << contained.status().ToString();
  EXPECT_EQ(contained->resolution, Resolution::kUnknown);

  Result<bool> equivalent = CheckEquivalence(world, q, q, options);
  ASSERT_FALSE(equivalent.ok());
  EXPECT_EQ(equivalent.status().code(), StatusCode::kResourceExhausted);

  // A refuted direction still settles the question despite the trip.
  ConjunctiveQuery narrower = Q(world, "q(X) :- member(X, person).");
  ConjunctiveQuery wider = Q(world, "q(X) :- member(X, C).");
  Result<bool> strict = CheckEquivalence(world, wider, narrower, options);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_FALSE(*strict);
}

// ---- UCQ containment ---------------------------------------------------------

TEST(UcqContainmentTest, PicksTheMatchingDisjunct) {
  World world;
  ConjunctiveQuery q = Q(world, "q(X) :- member(X, student).");
  std::vector<ConjunctiveQuery> disjuncts = {
      Q(world, "q(X) :- member(X, professor)."),
      Q(world, "q(X) :- member(X, C)."),
  };
  Result<std::optional<size_t>> hit = CheckUcqContainment(world, q, disjuncts);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->has_value());
  EXPECT_EQ(hit->value(), 1u);
}

TEST(UcqContainmentTest, NoDisjunctMatches) {
  World world;
  ConjunctiveQuery q = Q(world, "q(X) :- member(X, student).");
  std::vector<ConjunctiveQuery> disjuncts = {
      Q(world, "q(X) :- member(X, professor)."),
      Q(world, "q(X) :- data(X, A, V)."),
  };
  Result<std::optional<size_t>> hit = CheckUcqContainment(world, q, disjuncts);
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(hit->has_value());
}

TEST(UcqContainmentTest, UsesConstraints) {
  World world;
  ConjunctiveQuery q = Q(world, "q(X) :- member(X, C), sub(C, person).");
  std::vector<ConjunctiveQuery> disjuncts = {
      Q(world, "q(X) :- member(X, person)."),
  };
  Result<std::optional<size_t>> hit = CheckUcqContainment(world, q, disjuncts);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->has_value());
}

// ---- minimization ---------------------------------------------------------------

TEST(MinimizeTest, RemovesConstraintImpliedAtom) {
  World world;
  ConjunctiveQuery q =
      Q(world, "q(O) :- member(O, C), sub(C, D), member(O, D).");
  MinimizeStats stats;
  Result<ConjunctiveQuery> minimal = MinimizeQuery(world, q, {}, &stats);
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->size(), 2);
  EXPECT_EQ(stats.atoms_removed, 1);
  // Still equivalent to the original.
  EXPECT_TRUE(*CheckEquivalence(world, q, *minimal));
}

TEST(MinimizeTest, KeepsNonRedundantAtoms) {
  World world;
  ConjunctiveQuery q = Q(world, "q(X) :- member(X, C), data(X, A, V).");
  Result<ConjunctiveQuery> minimal = MinimizeQuery(world, q);
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->size(), 2);
}

TEST(MinimizeTest, ClassicalDuplicateAtomsCollapse) {
  World world;
  // Two isomorphic member atoms joined only through the head variable.
  ConjunctiveQuery q = Q(world, "q(X) :- member(X, C), member(X, D).");
  Result<ConjunctiveQuery> minimal = MinimizeQuery(world, q);
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->size(), 1);
}

TEST(MinimizeTest, NonImpliedAtomsStay) {
  World world;
  // member(O, C) is not implied by the data atom: nothing is removable.
  ConjunctiveQuery q = Q(world, "q(V) :- data(O, A, V), member(O, C).");
  Result<ConjunctiveQuery> minimal = MinimizeQuery(world, q);
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->size(), 2);
}

TEST(MinimizeTest, Rho1ImpliedMembershipIsRemoved) {
  World world;
  // member(V, T) follows from type(O, A, T), data(O, A, V) by rho_1.
  ConjunctiveQuery q =
      Q(world, "q(V) :- type(O, A, T), data(O, A, V), member(V, T).");
  Result<ConjunctiveQuery> minimal = MinimizeQuery(world, q);
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->size(), 2);
  EXPECT_EQ(minimal->body()[0].predicate(), pfl::kType);
  EXPECT_EQ(minimal->body()[1].predicate(), pfl::kData);
}

}  // namespace
}  // namespace floq
