// Integration tests: every worked example in the paper, end to end, going
// through the F-logic surface syntax where the paper does.

#include <gtest/gtest.h>

#include <array>
#include <map>

#include "chase/chase.h"
#include "containment/containment.h"
#include "flogic/parser.h"
#include "query/parser.h"
#include "term/world.h"

namespace floq {
namespace {

// ---- Section 2, first example: joinable attribute pairs --------------------
//
//   q(A,B)  :- T1[A*=>T2], T2::T3, T3[B*=>_].
//   qq(A,B) :- T1[A*=>T2], T2[B*=>_].
//   claim: q ⊆ qq.

TEST(PaperSection2Test, JoinableAttributesContainment) {
  World world;
  ConjunctiveQuery q =
      *flogic::ParseQuery(world,
                          "q(A, B) :- T1[A *=> T2], T2 :: T3, T3[B *=> _].");
  ConjunctiveQuery qq =
      *flogic::ParseQuery(world, "qq(A, B) :- T1[A *=> T2], T2[B *=> _].");

  Result<ContainmentResult> forward = CheckContainment(world, q, qq);
  ASSERT_TRUE(forward.ok()) << forward.status().ToString();
  EXPECT_TRUE(forward->contained);

  // The containment is strict.
  Result<ContainmentResult> backward = CheckContainment(world, qq, q);
  ASSERT_TRUE(backward.ok());
  EXPECT_FALSE(backward->contained);
}

TEST(PaperSection2Test, JoinableAttributesNeedsSupertyping) {
  // The containment hinges on rho_8 (supertyping): classical containment
  // misses it.
  World world;
  ConjunctiveQuery q =
      *flogic::ParseQuery(world,
                          "q(A, B) :- T1[A *=> T2], T2 :: T3, T3[B *=> _].");
  ConjunctiveQuery qq =
      *flogic::ParseQuery(world, "qq(A, B) :- T1[A *=> T2], T2[B *=> _].");
  EXPECT_FALSE(CheckClassicalContainment(world, q, qq)->contained);

  // And on the derived conjunct type(T1, A, T3) being at level 0.
  ContainmentOptions level_zero_options;
  level_zero_options.level_override = 0;
  Result<ContainmentResult> level_zero =
      CheckContainment(world, q, qq, level_zero_options);
  ASSERT_TRUE(level_zero.ok());
  EXPECT_TRUE(level_zero->contained);  // rho_8 fires in the Sigma^- chase
}

// ---- Section 2, second example: mandatory attributes of nonempty classes ---
//
//   q(Att,Class,Type) :- Class[Att {1,*} *=> _], Class[Att*=>Type], _:Class.
//
// The paper's second rule listing is garbled in the available text, so we
// reconstruct a natural containing query that exercises the intended
// machinery (rho_5 value invention + rho_1/rho_6/rho_10 inheritance):
// "some object of the class carries a value for Att, of type Type".

TEST(PaperSection2Test, MandatoryAttributeTripleContainment) {
  World world;
  ConjunctiveQuery q =
      *flogic::ParseQuery(world,
                          "q(Att, Class, Type) :- Class[Att {1,*} *=> _], "
                          "Class[Att *=> Type], _ : Class.");
  ConjunctiveQuery qq =
      *flogic::ParseQuery(world,
                          "qq(Att, Class, Type) :- O : Class, "
                          "O[Att -> V], V : Type.");

  Result<ContainmentResult> result = CheckContainment(world, q, qq);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->contained);

  // Neither the classical check nor the level-0 chase can see this:
  // rho_5 must invent the value.
  EXPECT_FALSE(CheckClassicalContainment(world, q, qq)->contained);
  ContainmentOptions level_zero_options;
  level_zero_options.level_override = 0;
  EXPECT_FALSE(
      CheckContainment(world, q, qq, level_zero_options)->contained);
}

// ---- Example 1: chase side effects on the query head ------------------------

TEST(PaperExample1Test, ChaseRewritesHead) {
  World world;
  ConjunctiveQuery q = *ParseQuery(world,
                                   "q(V1, V2) :- data(O, A, V1), "
                                   "data(O, A, V2), funct(A, C), "
                                   "member(O, C).");
  ChaseResult chase = ChaseQuery(world, q);
  ASSERT_EQ(chase.outcome(), ChaseOutcome::kCompleted);

  // "rule rho_12 will add the conjunct funct(A, O)".
  EXPECT_TRUE(chase.conjuncts().Contains(
      Atom::Funct(world.MakeVariable("A"), world.MakeVariable("O"))));

  // "by rule rho_4, we will replace V2 with V1" — the head becomes
  // q(V1, V1).
  Term v1 = world.MakeVariable("V1");
  EXPECT_EQ(chase.head(), (std::vector<Term>{v1, v1}));

  // The remaining conjuncts of the paper's rewritten query body.
  Term o = world.MakeVariable("O");
  Term a = world.MakeVariable("A");
  Term c = world.MakeVariable("C");
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Data(o, a, v1)));
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Funct(a, c)));
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Member(o, c)));
  // data(O, A, V2) collapsed into data(O, A, V1).
  EXPECT_EQ(chase.conjuncts().WithPredicate(pfl::kData).size(), 1u);
}

// ---- Example 2 / Figure 1: the infinite chase chain --------------------------

TEST(PaperExample2Test, Figure1ChasePrefix) {
  World world;
  ConjunctiveQuery q = *ParseQuery(
      world, "q() :- mandatory(A, T), type(T, A, T), sub(T, U).");
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 10});
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kLevelCapped);

  Term a = world.MakeVariable("A");
  Term t = world.MakeVariable("T");
  Term u = world.MakeVariable("U");

  // Figure 1's chain: mandatory(A,T), type(T,A,T) at level 0, then
  // data(T,A,v1), member(v1,T), type(v1,A,T), mandatory(A,v1),
  // data(v1,A,v2), member(v2,T), type(v2,A,T), ...
  std::vector<Term> chain_nulls;
  Term source = t;
  for (int hop = 0; hop < 3; ++hop) {
    Term next;
    for (uint32_t id : chase.conjuncts().WithPredicate(pfl::kData)) {
      const Atom& atom = chase.conjunct(id);
      if (atom.arg(0) == source && atom.arg(1) == a) next = atom.arg(2);
    }
    ASSERT_TRUE(next.valid()) << "chain broke at hop " << hop;
    EXPECT_TRUE(next.IsNull());
    EXPECT_TRUE(chase.conjuncts().Contains(Atom::Member(next, t)));
    EXPECT_TRUE(chase.conjuncts().Contains(Atom::Type(next, a, t)));
    EXPECT_TRUE(chase.conjuncts().Contains(Atom::Mandatory(a, next)));
    chain_nulls.push_back(next);
    source = next;
  }

  // "because of rule rho_3 ... we obtain the conjunct member(v1, U)" — the
  // branch departing from the chain.
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Member(chain_nulls[0], u)));

  // The conjuncts never interact across cycles: all chain nulls distinct.
  EXPECT_NE(chain_nulls[0], chain_nulls[1]);
  EXPECT_NE(chain_nulls[1], chain_nulls[2]);
}

TEST(PaperExample2Test, SelfContainmentDespiteInfiniteChase) {
  World world;
  ConjunctiveQuery q = *ParseQuery(
      world, "q() :- mandatory(A, T), type(T, A, T), sub(T, U).");
  Result<ContainmentResult> result = CheckContainment(world, q, q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->contained);
}

// ---- Section 4: cycles of mandatory attributes -------------------------------

TEST(PaperSection4Test, MandatoryCycleGeneratesPaperSeries) {
  // The k=2 cycle from Section 4: attributes a1, a2 over classes t1, t2.
  World world;
  ConjunctiveQuery q = *ParseQuery(world,
                                   "q() :- mandatory(a1, t1), "
                                   "type(t1, a1, t2), mandatory(a2, t2), "
                                   "type(t2, a2, t1).");
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 8});

  Term a1 = world.MakeConstant("a1");
  Term a2 = world.MakeConstant("a2");
  Term t1 = world.MakeConstant("t1");
  Term t2 = world.MakeConstant("t2");

  // Cycle 1 of the paper's series: data(t1,a1,v1), member(v1,t2),
  // type(v1,a2,t1)... wait — per the paper, type(v1, A2, T3) with T3 = t1
  // for k = 2, and mandatory(a2, v1).
  Term v1;
  for (uint32_t id : chase.conjuncts().WithPredicate(pfl::kData)) {
    const Atom& atom = chase.conjunct(id);
    if (atom.arg(0) == t1 && atom.arg(1) == a1) v1 = atom.arg(2);
  }
  ASSERT_TRUE(v1.valid());
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Member(v1, t2)));
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Type(v1, a2, t1)));
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Mandatory(a2, v1)));

  // Cycle 2: data(v1, a2, v2), member(v2, t1), ...
  Term v2;
  for (uint32_t id : chase.conjuncts().WithPredicate(pfl::kData)) {
    const Atom& atom = chase.conjunct(id);
    if (atom.arg(0) == v1 && atom.arg(1) == a2) v2 = atom.arg(2);
  }
  ASSERT_TRUE(v2.valid());
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Member(v2, t1)));
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Type(v2, a1, t2)));
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Mandatory(a1, v2)));
}

TEST(PaperSection4Test, DataAtomStopsTheCycle) {
  // "if there is no atom in q of the form data(T1, A1, v)" — with one, the
  // restricted rho_5 never fires for (t1, a1).
  World world;
  ConjunctiveQuery q = *ParseQuery(world,
                                   "q() :- mandatory(a1, t1), "
                                   "type(t1, a1, t1), data(t1, a1, w).");
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 40});
  // The chain proceeds through w (member(w, t1), mandatory(a1, w), then
  // data(w, a1, v)...) — but the *first* step reuses w instead of a null.
  Term t1 = world.MakeConstant("t1");
  Term a1 = world.MakeConstant("a1");
  Term w = world.MakeConstant("w");
  for (uint32_t id : chase.conjuncts().WithPredicate(pfl::kData)) {
    const Atom& atom = chase.conjunct(id);
    if (atom.arg(0) == t1 && atom.arg(1) == a1) {
      EXPECT_EQ(atom.arg(2), w);  // no invented value for (t1, a1)
    }
  }
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Member(w, t1)));
}

// ---- Theorem 12: the level bound is what makes the decision finite -----------

TEST(PaperTheorem12Test, BoundIsQ2TimesTwiceQ1) {
  World world;
  ConjunctiveQuery q1 = *ParseQuery(
      world, "q() :- mandatory(A, T), type(T, A, T), sub(T, U).");
  ConjunctiveQuery q2 = *ParseQuery(world, "q() :- data(O, A, V).");
  Result<ContainmentResult> result = CheckContainment(world, q1, q2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->level_bound, q2.size() * 2 * q1.size());  // 1 * 2 * 3
  EXPECT_TRUE(result->contained);
}

TEST(PaperTheorem13Test, DecisionIsDeterministicallyFeasibleOnPaperExamples) {
  // Smoke check that the two §2 examples decide instantly with small
  // chases — the NP guess is replaced by indexed backtracking.
  World world;
  ConjunctiveQuery q =
      *flogic::ParseQuery(world,
                          "q(A, B) :- T1[A *=> T2], T2 :: T3, T3[B *=> _].");
  ConjunctiveQuery qq =
      *flogic::ParseQuery(world, "qq(A, B) :- T1[A *=> T2], T2[B *=> _].");
  Result<ContainmentResult> result = CheckContainment(world, q, qq);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->contained);
  EXPECT_LT(result->chase.size(), 100u);
  EXPECT_LT(result->hom_stats.nodes_visited, 1000u);
}

}  // namespace
}  // namespace floq

namespace floq {
namespace {

// Golden test: the per-level conjunct counts of Example 2's chase are
// pinned exactly. The prefix (levels 0..3) establishes the pattern; the
// chain is then periodic with period 3: data(1) -> member(2) ->
// type(2)+mandatory(1). Any engine change that alters derivation order,
// levels, or the restricted-rho_5 semantics trips this test.
TEST(PaperExample2Test, GoldenPerLevelCounts) {
  World world;
  ConjunctiveQuery q = *ParseQuery(
      world, "q() :- mandatory(A, T), type(T, A, T), sub(T, U).");
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 19});

  // counts[level] = {data, member, type, mandatory, sub}
  std::map<int, std::array<int, 5>> counts;
  for (uint32_t id = 0; id < chase.size(); ++id) {
    std::array<int, 5>& row = counts[chase.LevelOf(id)];
    switch (chase.conjunct(id).predicate()) {
      case pfl::kData: ++row[0]; break;
      case pfl::kMember: ++row[1]; break;
      case pfl::kType: ++row[2]; break;
      case pfl::kMandatory: ++row[3]; break;
      case pfl::kSub: ++row[4]; break;
      default: FAIL() << "unexpected predicate";
    }
  }

  EXPECT_EQ(counts[0], (std::array<int, 5>{0, 0, 2, 1, 1}));
  for (int level = 1; level <= 19; ++level) {
    switch ((level - 1) % 3) {
      case 0:  // rho_5 step
        EXPECT_EQ(counts[level], (std::array<int, 5>{1, 0, 0, 0, 0}))
            << "level " << level;
        break;
      case 1:  // rho_1 (+ rho_3 branch): member(v,T), member(v,U)
        EXPECT_EQ(counts[level], (std::array<int, 5>{0, 2, 0, 0, 0}))
            << "level " << level;
        break;
      case 2:  // rho_6 twice + rho_10
        EXPECT_EQ(counts[level], (std::array<int, 5>{0, 0, 2, 1, 0}))
            << "level " << level;
        break;
    }
  }
}

}  // namespace
}  // namespace floq
