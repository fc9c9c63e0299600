// Tests for the extension layer: query classification, explanations, DOT
// export, certain answers, union containment, and the delta-window chase
// against the full-rescan reference chase.

#include <gtest/gtest.h>

#include <algorithm>

#include "chase/graph_dot.h"
#include "containment/classifier.h"
#include "containment/containment.h"
#include "containment/explain.h"
#include "containment/views.h"
#include "kb/knowledge_base.h"
#include "query/parser.h"
#include "reference_chase.h"
#include "term/world.h"

namespace floq {
namespace {

ConjunctiveQuery Q(World& world, const char* text) {
  Result<ConjunctiveQuery> q = ParseQuery(world, text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

// ---- classifier -----------------------------------------------------------

TEST(ClassifierTest, EquivalentQueriesCollapse) {
  World world;
  std::vector<ConjunctiveQuery> queries = {
      Q(world, "a(O) :- member(O, C), sub(C, D), member(O, D)."),
      Q(world, "b(O) :- member(O, C), sub(C, D)."),
      Q(world, "c(O) :- member(O, C)."),
  };
  Result<QueryTaxonomy> taxonomy = ClassifyQueries(world, queries);
  ASSERT_TRUE(taxonomy.ok()) << taxonomy.status().ToString();
  // a ≡ b (the member(O, D) atom is implied), both ⊂ c.
  EXPECT_EQ(taxonomy->classes.size(), 2u);
  EXPECT_EQ(taxonomy->class_of[0], taxonomy->class_of[1]);
  EXPECT_NE(taxonomy->class_of[0], taxonomy->class_of[2]);
  ASSERT_EQ(taxonomy->hasse_edges.size(), 1u);
  EXPECT_EQ(taxonomy->hasse_edges[0].first, taxonomy->class_of[0]);
  EXPECT_EQ(taxonomy->hasse_edges[0].second, taxonomy->class_of[2]);
}

TEST(ClassifierTest, HasseSkipsTransitiveEdges) {
  World world;
  std::vector<ConjunctiveQuery> queries = {
      Q(world, "small(X) :- member(X, c0), member(X, c1), member(X, c2)."),
      Q(world, "mid(X) :- member(X, c0), member(X, c1)."),
      Q(world, "big(X) :- member(X, c0)."),
  };
  Result<QueryTaxonomy> taxonomy = ClassifyQueries(world, queries);
  ASSERT_TRUE(taxonomy.ok());
  EXPECT_EQ(taxonomy->classes.size(), 3u);
  // Chain small ⊂ mid ⊂ big: exactly two Hasse edges (no small->big).
  EXPECT_EQ(taxonomy->hasse_edges.size(), 2u);
}

TEST(ClassifierTest, EmptyAndSingleton) {
  World world;
  Result<QueryTaxonomy> empty = ClassifyQueries(world, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->classes.empty());

  std::vector<ConjunctiveQuery> one = {Q(world, "q(X) :- member(X, c).")};
  Result<QueryTaxonomy> single = ClassifyQueries(world, one);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->classes.size(), 1u);
  EXPECT_TRUE(single->hasse_edges.empty());
}

TEST(ClassifierTest, TaxonomyRendering) {
  World world;
  std::vector<ConjunctiveQuery> queries = {
      Q(world, "narrow(X) :- member(X, c0), data(X, a0, V)."),
      Q(world, "wide(X) :- member(X, c0)."),
  };
  Result<QueryTaxonomy> taxonomy = ClassifyQueries(world, queries);
  ASSERT_TRUE(taxonomy.ok());
  std::string rendered = TaxonomyToString(*taxonomy, queries, world);
  // wide is the root, narrow indented below.
  EXPECT_NE(rendered.find("wide\n  narrow"), std::string::npos) << rendered;
}

// Renamed copies share their original's verdicts, so they add pairs to
// the classification but no checks: checks + pruned + shared still counts
// every ordered pair.
TEST(ClassifierTest, CountersCoverEveryPairWithSharedShapes) {
  World world;
  std::vector<ConjunctiveQuery> queries = {
      Q(world, "a(O) :- member(O, C), sub(C, D)."),
      Q(world, "b(O) :- member(O, C)."),
      Q(world, "a2(P) :- sub(E, F), member(P, E)."),
      Q(world, "b2(P) :- member(P, E)."),
  };
  for (bool prune : {true, false}) {
    BatchContainmentOptions options;
    options.containment.use_signature_index = prune;
    Result<QueryTaxonomy> taxonomy = ClassifyQueries(world, queries, options);
    ASSERT_TRUE(taxonomy.ok()) << taxonomy.status().ToString();
    // a ≡ a2 ⊂ b ≡ b2.
    EXPECT_EQ(taxonomy->classes.size(), 2u);
    EXPECT_EQ(taxonomy->checks + taxonomy->pruned_checks +
                  taxonomy->shared_pairs,
              12);
    // Only a ⊆ b and b ⊆ a are decided; stage 0 prunes b ⊆ a (b's
    // closure has no sub), and its three copies count as pruned too.
    EXPECT_EQ(taxonomy->checks, prune ? 1 : 2);
    EXPECT_EQ(taxonomy->pruned_checks, prune ? 4 : 0);
    EXPECT_EQ(taxonomy->shared_pairs, prune ? 7 : 10);
  }
}

TEST(ClassifierTest, ArityMismatchIsError) {
  World world;
  std::vector<ConjunctiveQuery> queries = {
      Q(world, "a(X) :- member(X, c0)."),
      Q(world, "b(X, Y) :- data(X, a0, Y)."),
  };
  Result<QueryTaxonomy> taxonomy = ClassifyQueries(world, queries);
  EXPECT_FALSE(taxonomy.ok());
}

// ---- explanations ------------------------------------------------------------

TEST(ExplainTest, PositiveVerdictShowsDerivations) {
  World world;
  ConjunctiveQuery q1 = Q(world, "q(X) :- member(X, C), sub(C, person).");
  ConjunctiveQuery q2 = Q(world, "q(X) :- member(X, person).");
  Result<ContainmentResult> result = CheckContainment(world, q1, q2);
  ASSERT_TRUE(result.ok());
  std::string text = ExplainContainment(world, q1, q2, *result);
  EXPECT_NE(text.find("q1 ⊆ q2"), std::string::npos) << text;
  EXPECT_NE(text.find("rho_3"), std::string::npos) << text;
  EXPECT_NE(text.find("[in body(q1)]"), std::string::npos) << text;
}

TEST(ExplainTest, NegativeVerdictMentionsCounterexample) {
  World world;
  ConjunctiveQuery q1 = Q(world, "q(X) :- member(X, student).");
  ConjunctiveQuery q2 = Q(world, "q(X) :- member(X, professor).");
  Result<ContainmentResult> result = CheckContainment(world, q1, q2);
  ASSERT_TRUE(result.ok());
  std::string text = ExplainContainment(world, q1, q2, *result);
  EXPECT_NE(text.find("⊄"), std::string::npos) << text;
  EXPECT_NE(text.find("counterexample"), std::string::npos) << text;
}

TEST(ExplainTest, UnsatisfiableVerdict) {
  World world;
  ConjunctiveQuery q1 = Q(world,
                          "q() :- data(O, A, one), data(O, A, two), "
                          "funct(A, O).");
  ConjunctiveQuery q2 = Q(world, "q() :- sub(X, Y).");
  Result<ContainmentResult> result = CheckContainment(world, q1, q2);
  ASSERT_TRUE(result.ok());
  std::string text = ExplainContainment(world, q1, q2, *result);
  EXPECT_NE(text.find("vacuously"), std::string::npos) << text;
}

TEST(ExplainTest, DeepDerivationThroughRho5) {
  World world;
  ConjunctiveQuery q1 = Q(world, "q() :- mandatory(A, T), type(T, A, T).");
  ConjunctiveQuery q2 = Q(world, "q() :- data(O, X, V), member(V, T2).");
  Result<ContainmentResult> result = CheckContainment(world, q1, q2);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->contained);
  std::string text = ExplainContainment(world, q1, q2, *result);
  EXPECT_NE(text.find("rho_5"), std::string::npos) << text;
  EXPECT_NE(text.find("rho_1"), std::string::npos) << text;
}

// ---- DOT export -----------------------------------------------------------------

TEST(GraphDotTest, ContainsNodesArcsAndRanks) {
  World world;
  ConjunctiveQuery q = Q(world, "q() :- mandatory(A, T), type(T, A, T).");
  ChaseOptions options;
  options.max_level = 6;
  options.record_cross_arcs = true;
  ChaseResult chase = ChaseQuery(world, q, options);
  std::string dot = ChaseGraphToDot(chase, world, {.max_level = 6});
  EXPECT_NE(dot.find("digraph chase"), std::string::npos);
  EXPECT_NE(dot.find("rank=same"), std::string::npos);
  EXPECT_NE(dot.find("mandatory(A, T)"), std::string::npos);
  EXPECT_NE(dot.find("label=\"r5\""), std::string::npos);  // rho_5 arc
  EXPECT_NE(dot.find("penwidth=2.0"), std::string::npos);  // primary arc
  EXPECT_EQ(dot.find("label=\"q"), std::string::npos);     // no stray quotes
}

TEST(GraphDotTest, LevelCapFiltersNodes) {
  World world;
  ConjunctiveQuery q = Q(world, "q() :- mandatory(A, T), type(T, A, T).");
  ChaseResult chase = ChaseQuery(world, q, {.max_level = 12});
  std::string shallow = ChaseGraphToDot(chase, world, {.max_level = 2});
  std::string deep = ChaseGraphToDot(chase, world, {.max_level = 12});
  EXPECT_LT(shallow.size(), deep.size());
}

// ---- certain answers ---------------------------------------------------------------

TEST(CertainAnswersTest, NullsAreFilteredButJoinsThroughNullsCount) {
  World world;
  KnowledgeBase kb(world);
  ASSERT_TRUE(kb.Load("person[boss {1:*} *=> person]. ann : person. "
                      "bea : person. ann[boss -> bea].").ok());
  // Who has a boss? ann certainly (bea); bea certainly too — by rho_5 a
  // boss exists in *every* model even though its identity is unknown; and
  // the class `person` itself, because classes are objects in F-logic and
  // mandatory(boss, person) applies to it literally.
  ConjunctiveQuery who = *ParseQuery(world, "q(X) :- data(X, boss, B).");
  Result<std::vector<std::vector<Term>>> certain = kb.CertainAnswers(who);
  ASSERT_TRUE(certain.ok()) << certain.status().ToString();
  EXPECT_EQ(certain->size(), 3u);

  // Whose boss is bea? Only ann — the invented boss of bea is a null and
  // must not leak into certain answers.
  ConjunctiveQuery whose =
      *ParseQuery(world, "q(X, B) :- data(X, boss, B).");
  certain = kb.CertainAnswers(whose);
  ASSERT_TRUE(certain.ok());
  ASSERT_EQ(certain->size(), 1u);
  EXPECT_EQ(world.NameOf((*certain)[0][0]), "ann");
  EXPECT_EQ(world.NameOf((*certain)[0][1]), "bea");
}

TEST(CertainAnswersTest, InconsistentKbIsAnError) {
  World world;
  KnowledgeBase kb(world);
  ASSERT_TRUE(kb.Load("o[a {0:1} *=> t]. o : o2. o[a -> v1]. o[a -> v2]. "
                      "funct(a, o).").ok());
  ConjunctiveQuery q = *ParseQuery(world, "q(X) :- data(o, a, X).");
  Result<std::vector<std::vector<Term>>> certain = kb.CertainAnswers(q);
  EXPECT_FALSE(certain.ok());
  EXPECT_EQ(certain.status().code(), StatusCode::kFailedPrecondition);
}

// ---- union containment -----------------------------------------------------------

TEST(UnionContainmentTest, EveryDisjunctMustBeCovered) {
  World world;
  std::vector<ConjunctiveQuery> lhs = {
      Q(world, "l1(X) :- member(X, student)."),
      Q(world, "l2(X) :- member(X, professor)."),
  };
  std::vector<ConjunctiveQuery> rhs = {
      Q(world, "r1(X) :- member(X, C)."),
  };
  Result<std::optional<size_t>> violation =
      CheckUnionContainment(world, lhs, rhs);
  ASSERT_TRUE(violation.ok());
  EXPECT_FALSE(violation->has_value());  // holds

  std::vector<ConjunctiveQuery> narrow_rhs = {
      Q(world, "r1(X) :- member(X, student)."),
  };
  violation = CheckUnionContainment(world, lhs, narrow_rhs);
  ASSERT_TRUE(violation.ok());
  ASSERT_TRUE(violation->has_value());
  EXPECT_EQ(violation->value(), 1u);  // l2 is the violator
}

TEST(UnionContainmentTest, EmptyLhsIsContainedInAnything) {
  World world;
  std::vector<ConjunctiveQuery> rhs = {Q(world, "r(X) :- member(X, C).")};
  Result<std::optional<size_t>> violation =
      CheckUnionContainment(world, {}, rhs);
  ASSERT_TRUE(violation.ok());
  EXPECT_FALSE(violation->has_value());
}

// ---- delta-window chase vs full rescan -------------------------------------

TEST(AblationTest, FullRecheckChaseMatchesDeltaChase) {
  // The engine collects rule applications through semi-naive delta
  // windows; the reference chase rescans the whole instance every round.
  // In two worlds, so both draw the same fresh nulls, Example 2 chased to
  // level 10 must come out conjunct for conjunct and level for level.
  const char* text = "q() :- mandatory(A, T), type(T, A, T), sub(T, U).";
  World world_a, world_b;
  ConjunctiveQuery qa = *ParseQuery(world_a, text);
  ConjunctiveQuery qb = *ParseQuery(world_b, text);
  ChaseOptions delta;
  delta.max_level = 10;
  ChaseResult with_delta = ChaseQuery(world_a, qa, delta);
  reference::ReferenceChaseResult full = reference::RunReferenceChase(
      world_b, qb.body(), qb.head(), MakeSigmaFLDependencies(world_b),
      delta.max_level);
  ASSERT_EQ(with_delta.size(), full.atoms.size());
  for (uint32_t id = 0; id < with_delta.size(); ++id) {
    const Atom& atom = with_delta.conjunct(id);
    auto it = std::find(full.atoms.begin(), full.atoms.end(), atom);
    ASSERT_NE(it, full.atoms.end()) << atom.ToString(world_a);
    EXPECT_EQ(with_delta.LevelOf(id), full.levels[it - full.atoms.begin()])
        << atom.ToString(world_a);
  }
}

}  // namespace
}  // namespace floq

namespace floq {
namespace {

// ---- view usability analysis ----------------------------------------------

TEST(ViewAnalysisTest, ClassifiesViewsAgainstAQuery) {
  World world;
  ConjunctiveQuery query =
      *ParseQuery(world, "q(X) :- member(X, C), sub(C, person).");
  std::vector<ConjunctiveQuery> views = {
      // Complete: query answers are all persons (rho_3).
      *ParseQuery(world, "v0(X) :- member(X, person)."),
      // Sound: members of subclasses of subclasses of person qualify.
      *ParseQuery(world,
                  "v1(X) :- member(X, D), sub(D, C), sub(C, person)."),
      // Exact: same query up to renaming.
      *ParseQuery(world, "v2(Y) :- member(Y, K), sub(K, person)."),
      // Irrelevant.
      *ParseQuery(world, "v3(X) :- data(X, age, V)."),
      // Irrelevant by arity.
      *ParseQuery(world, "v4(X, C) :- member(X, C)."),
  };
  Result<ViewAnalysis> analysis = AnalyzeViews(world, query, views);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_EQ(analysis->usability[0], ViewUsability::kComplete);
  EXPECT_EQ(analysis->usability[1], ViewUsability::kSound);
  EXPECT_EQ(analysis->usability[2], ViewUsability::kExact);
  EXPECT_EQ(analysis->usability[3], ViewUsability::kIrrelevant);
  EXPECT_EQ(analysis->usability[4], ViewUsability::kIrrelevant);
  ASSERT_TRUE(analysis->exact_view.has_value());
  EXPECT_EQ(*analysis->exact_view, 2u);
  // EXACT views appear in both candidate lists.
  EXPECT_EQ(analysis->complete_views, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(analysis->sound_views, (std::vector<size_t>{1, 2}));
}

TEST(ViewAnalysisTest, ConstraintDrivenCompleteness) {
  // The view over the superclass is complete for the subclass query only
  // because of rho_3 — classically it is irrelevant.
  World world;
  ConjunctiveQuery query = *ParseQuery(
      world, "q(X) :- member(X, grad), sub(grad, person).");
  std::vector<ConjunctiveQuery> views = {
      *ParseQuery(world, "v(X) :- member(X, person)."),
  };
  Result<ViewAnalysis> analysis = AnalyzeViews(world, query, views);
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->usability[0], ViewUsability::kComplete);
  EXPECT_FALSE(
      CheckClassicalContainment(world, query, views[0])->contained);
}

TEST(ViewAnalysisTest, RenderedTableMentionsVerdicts) {
  World world;
  ConjunctiveQuery query = *ParseQuery(world, "q(X) :- member(X, c).");
  std::vector<ConjunctiveQuery> views = {
      *ParseQuery(world, "v(X) :- member(X, C)."),
  };
  Result<ViewAnalysis> analysis = AnalyzeViews(world, query, views);
  ASSERT_TRUE(analysis.ok());
  std::string table = ViewAnalysisToString(*analysis, query, views, world);
  EXPECT_NE(table.find("COMPLETE"), std::string::npos) << table;
}

}  // namespace
}  // namespace floq
