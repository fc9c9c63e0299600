#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "chase/sigma_fl.h"
#include "chase/term_union_find.h"
#include "query/parser.h"
#include "term/world.h"

namespace floq {
namespace {

ConjunctiveQuery Q(World& world, const char* text) {
  Result<ConjunctiveQuery> q = ParseQuery(world, text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

// ---- Sigma_FL catalog -----------------------------------------------------

TEST(SigmaFLTest, CatalogShape) {
  World world;
  DependencySet sigma = MakeSigmaFLDependencies(world);
  ASSERT_EQ(sigma.tgds.size(), 11u);
  ASSERT_EQ(sigma.egds.size(), 1u);
  EXPECT_EQ(sigma.egds[0].name, "rho4");
  EXPECT_EQ(sigma.egds[0].body.size(), 3u);
  // The TGDs are named after their paper numbers, in rho order. Every one
  // but rho_5 is range-restricted (a full TGD); rho_5 invents the value of
  // a mandatory attribute.
  std::vector<std::string> names;
  for (const Tgd& tgd : sigma.tgds) {
    names.push_back(tgd.name);
    const bool existential = !tgd.ExistentialVariables().empty();
    EXPECT_EQ(existential, tgd.name == "rho5") << tgd.name;
    if (existential) {
      EXPECT_EQ(tgd.body[0].predicate(), pfl::kMandatory);
      EXPECT_EQ(tgd.head.predicate(), pfl::kData);
    }
  }
  EXPECT_EQ(names, (std::vector<std::string>{"rho1", "rho2", "rho3", "rho5",
                                             "rho6", "rho7", "rho8", "rho9",
                                             "rho10", "rho11", "rho12"}));
}

TEST(SigmaFLTest, DatalogFragmentHasTenRules) {
  World world;
  EXPECT_EQ(SigmaFLDatalogRules(world).size(), 10u);
  // The rule variables have fixed names: building Sigma_FL again in the
  // same World interns nothing.
  const uint32_t variables = world.variable_count();
  MakeSigmaFLDependencies(world);
  EXPECT_EQ(world.variable_count(), variables);
}

// ---- TermUnionFind ---------------------------------------------------------

TEST(TermUnionFindTest, ConstantBeatsNullBeatsVariable) {
  World world;
  Term c = world.MakeConstant("c");
  Term n = world.MakeFreshNull();
  Term v = world.MakeVariable("V");
  TermUnionFind uf;
  ASSERT_TRUE(uf.Merge(v, n, world).ok());
  EXPECT_EQ(uf.Find(v), n);
  ASSERT_TRUE(uf.Merge(n, c, world).ok());
  EXPECT_EQ(uf.Find(v), c);
  EXPECT_EQ(uf.Find(n), c);
  EXPECT_EQ(uf.merge_count(), 2u);
}

TEST(TermUnionFindTest, DistinctConstantsFail) {
  World world;
  TermUnionFind uf;
  Status status =
      uf.Merge(world.MakeConstant("a"), world.MakeConstant("b"), world);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(TermUnionFindTest, LexicographicWithinVariables) {
  World world;
  Term v1 = world.MakeVariable("V1");
  Term v2 = world.MakeVariable("V2");
  TermUnionFind uf;
  ASSERT_TRUE(uf.Merge(v2, v1, world).ok());
  EXPECT_EQ(uf.Find(v2), v1);  // V1 lexicographically precedes V2
}

// ---- Phase A: the terminating Sigma_FL^- chase -----------------------------

TEST(ChaseLevelZeroTest, SubclassTransitivity) {
  World world;
  ConjunctiveQuery q = Q(world, "q() :- sub(A, B), sub(B, C).");
  ChaseResult chase = ChaseLevelZero(world, q);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  Term a = world.MakeVariable("A");
  Term c = world.MakeVariable("C");
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Sub(a, c)));
  EXPECT_EQ(chase.max_level(), 0);
  // Provenance: the derived conjunct cites rho_2.
  uint32_t id = chase.conjuncts().IdOf(Atom::Sub(a, c));
  EXPECT_EQ(chase.meta(id).rule, kRho2);
  EXPECT_EQ(chase.meta(id).parents.size(), 2u);
}

TEST(ChaseLevelZeroTest, TypeInheritanceToMembers) {
  World world;
  ConjunctiveQuery q =
      Q(world, "q() :- member(O, C), type(C, A, T).");
  ChaseResult chase = ChaseLevelZero(world, q);
  EXPECT_TRUE(chase.conjuncts().Contains(
      Atom::Type(world.MakeVariable("O"), world.MakeVariable("A"),
                 world.MakeVariable("T"))));
}

TEST(ChaseLevelZeroTest, TypeCorrectnessRho1) {
  World world;
  ConjunctiveQuery q = Q(world, "q() :- type(O, A, T), data(O, A, V).");
  ChaseResult chase = ChaseLevelZero(world, q);
  EXPECT_TRUE(chase.conjuncts().Contains(
      Atom::Member(world.MakeVariable("V"), world.MakeVariable("T"))));
}

TEST(ChaseLevelZeroTest, SupertypingRho8) {
  World world;
  ConjunctiveQuery q = Q(world, "q() :- type(C, A, T1), sub(T1, T).");
  ChaseResult chase = ChaseLevelZero(world, q);
  EXPECT_TRUE(chase.conjuncts().Contains(
      Atom::Type(world.MakeVariable("C"), world.MakeVariable("A"),
                 world.MakeVariable("T"))));
}

TEST(ChaseLevelZeroTest, InheritanceOfConstraintsToSubclassesAndMembers) {
  World world;
  ConjunctiveQuery q = Q(world,
                         "q() :- sub(C, D), mandatory(A, D), funct(B, D), "
                         "member(O, C).");
  ChaseResult chase = ChaseLevelZero(world, q);
  Term a = world.MakeVariable("A");
  Term b = world.MakeVariable("B");
  Term c = world.MakeVariable("C");
  Term o = world.MakeVariable("O");
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Mandatory(a, c)));  // rho_9
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Funct(b, c)));      // rho_11
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Mandatory(a, o)));  // rho_10
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Funct(b, o)));      // rho_12
  EXPECT_EQ(chase.max_level(), 0);
}

TEST(ChaseLevelZeroTest, LevelZeroDoesNotFireRho5) {
  World world;
  ConjunctiveQuery q = Q(world, "q() :- mandatory(A, O).");
  ChaseResult chase = ChaseLevelZero(world, q);
  // rho_5 is beyond the cap: outcome is level-capped and no data conjunct.
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kLevelCapped);
  EXPECT_TRUE(chase.conjuncts().WithPredicate(pfl::kData).empty());
  EXPECT_EQ(chase.size(), 1u);
}

// ---- EGD (rho_4) ------------------------------------------------------------

TEST(ChaseEgdTest, MergesValuesOfFunctionalAttribute) {
  World world;
  ConjunctiveQuery q = Q(world,
                         "q(V, W) :- data(O, A, V), data(O, A, W), "
                         "funct(A, O).");
  ChaseResult chase = ChaseQuery(world, q);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  // V and W merged; V precedes W lexicographically, so V survives.
  Term v = world.MakeVariable("V");
  ASSERT_EQ(chase.head().size(), 2u);
  EXPECT_EQ(chase.head()[0], v);
  EXPECT_EQ(chase.head()[1], v);
  // The two data conjuncts collapsed into one.
  EXPECT_EQ(chase.conjuncts().WithPredicate(pfl::kData).size(), 1u);
  EXPECT_GE(chase.stats().egd_merges, 1u);
}

TEST(ChaseEgdTest, ConstantWinsOverVariable) {
  World world;
  ConjunctiveQuery q = Q(world,
                         "q(V) :- data(O, A, V), data(O, A, thirty), "
                         "funct(A, O).");
  ChaseResult chase = ChaseQuery(world, q);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  EXPECT_EQ(chase.head()[0], world.MakeConstant("thirty"));
}

TEST(ChaseEgdTest, TwoDistinctConstantsFailTheChase) {
  World world;
  ConjunctiveQuery q = Q(world,
                         "q() :- data(O, A, one), data(O, A, two), "
                         "funct(A, O).");
  ChaseResult chase = ChaseQuery(world, q);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kFailed);
  EXPECT_TRUE(chase.failed());
}

TEST(ChaseEgdTest, EgdTriggeredThroughInheritance) {
  // Example 1 of the paper: funct is declared on the class; rho_12 carries
  // it to the member, then rho_4 merges.
  World world;
  ConjunctiveQuery q = Q(world,
                         "q(V1, V2) :- data(O, A, V1), data(O, A, V2), "
                         "funct(A, C), member(O, C).");
  ChaseResult chase = ChaseQuery(world, q);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  Term v1 = world.MakeVariable("V1");
  EXPECT_EQ(chase.head()[0], v1);
  EXPECT_EQ(chase.head()[1], v1);
  EXPECT_TRUE(chase.conjuncts().Contains(
      Atom::Funct(world.MakeVariable("A"), world.MakeVariable("O"))));
}

TEST(ChaseEgdTest, CascadingMergesAcrossAttributes) {
  // Merging V with W makes data(V, B, X) and data(W, B, Y) collide under
  // funct(B, V): X and Y must merge too.
  World world;
  ConjunctiveQuery q = Q(world,
                         "q(X, Y) :- data(O, A, V), data(O, A, W), "
                         "funct(A, O), data(V, B, X), data(W, B, Y), "
                         "funct(B, V).");
  ChaseResult chase = ChaseQuery(world, q);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  EXPECT_EQ(chase.head()[0], chase.head()[1]);
}

// ---- Phase B: rho_5 chains ---------------------------------------------------

TEST(ChaseRho5Test, MandatoryInventsValue) {
  World world;
  ConjunctiveQuery q = Q(world, "q() :- mandatory(A, O).");
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 5});
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  const std::span<const uint32_t> data =
      chase.conjuncts().WithPredicate(pfl::kData);
  ASSERT_EQ(data.size(), 1u);
  const Atom& atom = chase.conjunct(data[0]);
  EXPECT_EQ(atom.arg(0), world.MakeVariable("O"));
  EXPECT_EQ(atom.arg(1), world.MakeVariable("A"));
  EXPECT_TRUE(atom.arg(2).IsNull());
  EXPECT_EQ(chase.LevelOf(data[0]), 1);
  EXPECT_EQ(chase.stats().fresh_nulls, 1u);
}

TEST(ChaseRho5Test, ExistingDataBlocksRho5) {
  World world;
  ConjunctiveQuery q = Q(world, "q() :- mandatory(A, O), data(O, A, V).");
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 5});
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  EXPECT_EQ(chase.conjuncts().WithPredicate(pfl::kData).size(), 1u);
  EXPECT_EQ(chase.stats().fresh_nulls, 0u);
}

TEST(ChaseRho5Test, FiniteCascadeTerminates) {
  // mandatory(a, o) with type t that has no further mandatory attributes:
  // one null, then member/type propagation, then fixpoint.
  World world;
  ConjunctiveQuery q =
      Q(world, "q() :- mandatory(A, O), type(O, A, T).");
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 50});
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  // data(O,A,n0) at level 1, member(n0,T) at level 2.
  Term t = world.MakeVariable("T");
  bool found_member_null = false;
  for (uint32_t id : chase.conjuncts().WithPredicate(pfl::kMember)) {
    const Atom& atom = chase.conjunct(id);
    if (atom.arg(0).IsNull() && atom.arg(1) == t) {
      found_member_null = true;
      EXPECT_EQ(chase.LevelOf(id), 2);
    }
  }
  EXPECT_TRUE(found_member_null);
}

TEST(ChaseRho5Test, InfiniteChainIsLevelCapped) {
  // Example 2 shape: a self-loop type with a mandatory attribute produces
  // an infinite chain; the cap must stop it.
  World world;
  ConjunctiveQuery q = Q(world, "q() :- mandatory(A, T), type(T, A, T).");
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 12});
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kLevelCapped);
  EXPECT_EQ(chase.max_level(), 12);
  // The cycle rho_5 -> rho_1 -> {rho_6, rho_10} advances three levels per
  // fresh null under Definition 3's level rule (rho_6 and rho_10 both hang
  // off the member conjunct), so nulls appear at levels 1, 4, 7, 10.
  EXPECT_EQ(chase.stats().fresh_nulls, 4u);
}

TEST(ChaseRho5Test, CycleConjunctsMatchPaperExample2) {
  World world;
  ConjunctiveQuery q =
      Q(world, "q() :- mandatory(A, T), type(T, A, T), sub(T, U).");
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 8});
  Term a = world.MakeVariable("A");
  Term t = world.MakeVariable("T");
  Term u = world.MakeVariable("U");

  // Locate the first fresh null v1 = value of data(T, A, v1).
  Term v1, v2;
  for (uint32_t id : chase.conjuncts().WithPredicate(pfl::kData)) {
    const Atom& atom = chase.conjunct(id);
    if (atom.arg(0) == t && atom.arg(1) == a && atom.arg(2).IsNull()) {
      v1 = atom.arg(2);
      EXPECT_EQ(chase.LevelOf(id), 1);
    }
  }
  ASSERT_TRUE(v1.valid());

  // The paper's chain (Example 2): member(v1,T), type(v1,A,T),
  // mandatory(A,v1), then data(v1,A,v2).
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Member(v1, t)));
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Type(v1, a, t)));
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Mandatory(a, v1)));
  EXPECT_EQ(chase.LevelOf(chase.conjuncts().IdOf(Atom::Member(v1, t))), 2);
  EXPECT_EQ(chase.LevelOf(chase.conjuncts().IdOf(Atom::Type(v1, a, t))), 3);
  EXPECT_EQ(chase.LevelOf(chase.conjuncts().IdOf(Atom::Mandatory(a, v1))), 3);

  for (uint32_t id : chase.conjuncts().WithPredicate(pfl::kData)) {
    const Atom& atom = chase.conjunct(id);
    if (atom.arg(0) == v1) {
      v2 = atom.arg(2);
      EXPECT_EQ(chase.LevelOf(id), 4);
    }
  }
  ASSERT_TRUE(v2.valid());
  EXPECT_TRUE(v2.IsNull());

  // The rho_3 branch from the paper's Figure 1: member(v1, U).
  EXPECT_TRUE(chase.conjuncts().Contains(Atom::Member(v1, u)));
}

TEST(ChaseRho5Test, MergedChainStillRestricted) {
  // funct + mandatory on the same attribute: the invented value merges
  // with the present one, chain does not grow.
  World world;
  ConjunctiveQuery q = Q(world,
                         "q(V) :- mandatory(A, O), funct(A, O), "
                         "data(O, A, V).");
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 10});
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  EXPECT_EQ(chase.conjuncts().WithPredicate(pfl::kData).size(), 1u);
}

// ---- budgets and caps ---------------------------------------------------------

TEST(ChaseBudgetTest, AtomBudgetStopsTheChase) {
  World world;
  ConjunctiveQuery q = Q(world, "q() :- mandatory(A, T), type(T, A, T).");
  ChaseOptions options;
  options.max_level = 1000000;
  options.max_atoms = 20;
  ChaseResult chase = ChaseQuery(world, q, options);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kBudgetExceeded);
  EXPECT_LE(chase.size(), 21u);
}

TEST(ChaseBudgetTest, CountUpToLevel) {
  World world;
  ConjunctiveQuery q = Q(world, "q() :- mandatory(A, T), type(T, A, T).");
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 8});
  EXPECT_EQ(chase.CountUpToLevel(0), 2u);
  EXPECT_GT(chase.CountUpToLevel(4), chase.CountUpToLevel(1));
  EXPECT_EQ(chase.CountUpToLevel(chase.max_level()), chase.size());
}

// ---- chase graph ---------------------------------------------------------------

TEST(ChaseGraphTest, ArcsFollowProvenance) {
  World world;
  ConjunctiveQuery q = Q(world, "q() :- sub(A, B), sub(B, C).");
  ChaseResult chase = ChaseLevelZero(world, q);
  std::vector<ChaseArc> arcs = chase.Arcs();
  ASSERT_EQ(arcs.size(), 2u);
  uint32_t derived = chase.conjuncts().IdOf(
      Atom::Sub(world.MakeVariable("A"), world.MakeVariable("C")));
  for (const ChaseArc& arc : arcs) {
    EXPECT_EQ(arc.to, derived);
    EXPECT_EQ(arc.rule, kRho2);
    EXPECT_FALSE(arc.cross);
  }
}

TEST(ChaseGraphTest, PrimaryArcClassification) {
  World world;
  ConjunctiveQuery q = Q(world, "q() :- mandatory(A, T), type(T, A, T).");
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 6});
  int primary = 0, secondary = 0;
  for (const ChaseArc& arc : chase.Arcs()) {
    if (chase.IsPrimary(arc)) {
      ++primary;
    } else {
      ++secondary;
    }
  }
  EXPECT_GT(primary, 0);
  EXPECT_GT(secondary, 0);  // e.g. level-0 type conjunct into level-2 member
}

TEST(ChaseGraphTest, LocalityLemma5) {
  // Every secondary (non-primary) generation arc into a conjunct at level
  // >= 1 starts at level 0 or exactly two levels back.
  World world;
  ConjunctiveQuery q =
      Q(world, "q() :- mandatory(A, T), type(T, A, T), sub(T, U).");
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 16});
  for (const ChaseArc& arc : chase.Arcs()) {
    if (arc.cross) continue;
    int to_level = chase.LevelOf(arc.to);
    if (to_level < 1) continue;
    if (chase.IsPrimary(arc)) continue;
    int from_level = chase.LevelOf(arc.from);
    EXPECT_TRUE(from_level == 0 || from_level == to_level - 2)
        << "secondary arc from level " << from_level << " to " << to_level;
  }
}

TEST(ChaseGraphTest, CrossArcsRecordedWhenRequested) {
  World world;
  // sub(A,B), sub(B,C), sub(A,C): rho_2 can re-derive the present sub(A,C).
  ConjunctiveQuery q = Q(world, "q() :- sub(A, B), sub(B, C), sub(A, C).");
  ChaseOptions options;
  options.record_cross_arcs = true;
  ChaseResult chase = ChaseQuery(world, q, options);
  bool found_cross = false;
  for (const ChaseArc& arc : chase.Arcs()) found_cross |= arc.cross;
  EXPECT_TRUE(found_cross);
}

TEST(ChaseGraphTest, DebugStringMentionsRules) {
  World world;
  ConjunctiveQuery q = Q(world, "q() :- sub(A, B), sub(B, C).");
  ChaseResult chase = ChaseLevelZero(world, q);
  std::string dump = chase.DebugString(world);
  EXPECT_NE(dump.find("rho_2"), std::string::npos);
  EXPECT_NE(dump.find("sub(A, C)"), std::string::npos);
}

// ---- head transformation ---------------------------------------------------------

TEST(ChaseHeadTest, HeadSurvivesWhenNoEgd) {
  World world;
  ConjunctiveQuery q = Q(world, "q(A, B) :- sub(A, B).");
  ChaseResult chase = ChaseQuery(world, q);
  EXPECT_EQ(chase.head(),
            (std::vector<Term>{world.MakeVariable("A"),
                               world.MakeVariable("B")}));
}

TEST(ChaseHeadTest, EmptyBodyQueryYieldsEmptyCompletedChase) {
  World world;
  ConjunctiveQuery q(std::string("q"), {}, {});
  ChaseResult chase = ChaseQuery(world, q);
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kCompleted);
  EXPECT_EQ(chase.size(), 0u);
}

}  // namespace
}  // namespace floq
