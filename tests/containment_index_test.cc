#include "containment/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "containment/classifier.h"
#include "containment/engine.h"
#include "containment/signature.h"
#include "gen/generators.h"
#include "query/parser.h"
#include "term/world.h"

namespace floq {
namespace {

ConjunctiveQuery Q(World& world, const char* text) {
  Result<ConjunctiveQuery> q = ParseQuery(world, text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

// ---- signature lattice units ---------------------------------------------

TEST(SignatureTest, PredicateBitsSubsetToleratesDifferentWidths) {
  PredicateBits narrow, wide;
  narrow.Set(pfl::kMember);
  wide.Set(pfl::kMember);
  wide.Set(200);  // forces a second word
  EXPECT_TRUE(narrow.IsSubsetOf(wide));
  EXPECT_FALSE(wide.IsSubsetOf(narrow));  // bit 200 reads as absent
  narrow.Set(130);
  EXPECT_FALSE(narrow.IsSubsetOf(wide));
  EXPECT_EQ(wide.Count(), 2);
}

TEST(SignatureTest, SigmaClosureAddsOnlyRho1AndRho5Heads) {
  auto closure_of = [](const std::vector<PredicateId>& preds, bool with_rho5) {
    PredicateBits bits;
    for (PredicateId p : preds) bits.Set(p);
    return SigmaClosurePredicates(bits, with_rho5);
  };

  // {mandatory} |-> + data (rho_5), and nothing else.
  PredicateBits c = closure_of({pfl::kMandatory}, true);
  EXPECT_TRUE(c.Test(pfl::kData));
  EXPECT_FALSE(c.Test(pfl::kMember));
  EXPECT_EQ(c.Count(), 2);

  // Same start without rho_5 (the Sigma_FL^- chase): inert.
  EXPECT_EQ(closure_of({pfl::kMandatory}, false).Count(), 1);

  // {type, data} |-> + member (rho_1).
  c = closure_of({pfl::kType, pfl::kData}, true);
  EXPECT_TRUE(c.Test(pfl::kMember));
  EXPECT_EQ(c.Count(), 3);

  // {mandatory, type} |-> + data (rho_5), then + member (rho_1): the
  // fixpoint chains.
  c = closure_of({pfl::kMandatory, pfl::kType}, true);
  EXPECT_TRUE(c.Test(pfl::kData));
  EXPECT_TRUE(c.Test(pfl::kMember));
  EXPECT_EQ(c.Count(), 4);

  // sub and funct are preserved but never invented.
  c = closure_of({pfl::kSub, pfl::kFunct}, true);
  EXPECT_EQ(c.Count(), 2);
}

TEST(SignatureTest, ConstantMultiplicityIsNotADischargeCondition) {
  World world;
  // rhs mentions constant c twice, lhs only once: a homomorphism may map
  // both occurrences onto the one chase conjunct, so only the *distinct*
  // constant set participates in the subset test.
  ConjunctiveQuery lhs_q = Q(world, "l(X) :- member(X, c).");
  ConjunctiveQuery rhs_q = Q(world, "r(X) :- member(X, c), member(c, c).");
  ClosureSignature lhs =
      ComputeClosureSignature(lhs_q, /*level_cap=*/-1, nullptr);
  QuerySignature rhs = ComputeQuerySignature(rhs_q);
  EXPECT_EQ(rhs.constant_counts[0], 3u);  // the multiset is still recorded
  EXPECT_TRUE(MayContain(lhs, rhs));
}

// ---- adversarial near-misses ---------------------------------------------

// The naive predicate-subset test would discharge this pair: member
// occurs nowhere in the lhs body. But rho_1 derives member(V, T) — the
// attribute's value belongs to its declared type — in the chase, and the
// containment genuinely holds — the closure fingerprint must keep the
// pair alive.
TEST(SignatureTest, ClosureKeepsRho1DerivablePairs) {
  World world;
  ConjunctiveQuery lhs = Q(world, "l(V) :- type(o, a, T), data(o, a, V).");
  ConjunctiveQuery rhs = Q(world, "r(V) :- member(V, T).");

  ContainmentEngine engine(world);
  ASSERT_TRUE(engine.AddQuery(lhs).ok());
  ASSERT_TRUE(engine.AddQuery(rhs).ok());
  std::vector<std::pair<size_t, size_t>> pairs = {{0, 1}};
  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  EXPECT_FALSE((*verdicts)[0].pruned);
  EXPECT_EQ((*verdicts)[0].resolution, Resolution::kContained);
}

// A failed chase makes the lhs vacuously contained in *everything* —
// including queries whose predicates and constants it never mentions. The
// filter must never touch such a pair.
TEST(SignatureTest, FailedChaseLhsIsNeverPruned) {
  World world;
  ConjunctiveQuery bad =
      Q(world, "l() :- funct(a, o), data(o, a, one), data(o, a, two).");
  ConjunctiveQuery foreign = Q(world, "r() :- sub(c9, c10).");

  ContainmentEngine engine(world);
  ASSERT_TRUE(engine.AddQuery(bad).ok());
  ASSERT_TRUE(engine.AddQuery(foreign).ok());
  const ClosureSignature* sig = engine.signature_of(0);
  ASSERT_NE(sig, nullptr);
  EXPECT_TRUE(sig->chase_failed);
  EXPECT_FALSE(sig->prunable);

  std::vector<std::pair<size_t, size_t>> pairs = {{0, 1}};
  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  EXPECT_FALSE((*verdicts)[0].pruned);
  EXPECT_EQ((*verdicts)[0].resolution, Resolution::kContained);
  EXPECT_TRUE((*verdicts)[0].lhs_unsatisfiable);
}

// ---- differential soundness over generated workloads ---------------------

// Same-arity workloads mixing the structured generator families, random
// queries over a shared constant pool, and hand-written near-miss pairs
// (same predicates, one constant off; rho_1/rho_5-derivable rhs
// predicates).
std::vector<ConjunctiveQuery> BooleanWorkload(World& world) {
  std::vector<ConjunctiveQuery> queries;
  queries.push_back(gen::MakeMandatoryCycleQuery(world, 1, "cycle1"));
  queries.push_back(gen::MakeDataChainProbe(world, 2, "probe2"));
  queries.push_back(gen::MakeDataChainProbe(world, 3, "probe3"));
  queries.push_back(Q(world, "b0() :- member(X, c1)."));
  queries.push_back(Q(world, "b1() :- member(X, c2)."));  // near-miss: c2
  queries.push_back(Q(world, "b2() :- member(X, C), sub(C, D)."));
  queries.push_back(Q(world, "b3() :- type(o, a, T), data(o, a, V)."));
  queries.push_back(Q(world, "b4() :- member(V, T)."));
  queries.push_back(Q(world, "b5() :- mandatory(a, o)."));
  queries.push_back(Q(world, "b6() :- data(o, a, V)."));
  queries.push_back(
      Q(world, "b7() :- funct(a, o), data(o, a, one), data(o, a, two)."));
  queries.push_back(Q(world, "b8() :- sub(c9, c10)."));
  return queries;
}

std::vector<ConjunctiveQuery> UnaryWorkload(World& world) {
  std::vector<ConjunctiveQuery> queries;
  for (int seed = 1; seed <= 8; ++seed) {
    gen::RandomQuerySpec spec;
    spec.seed = uint64_t(seed);
    spec.atoms = 4;
    spec.variable_pool = 3;
    spec.constant_pool = 3;         // shared pool: forces overlaps
    spec.constant_probability = 0.35;
    spec.arity = 1;
    queries.push_back(
        gen::MakeRandomQuery(world, spec, "r" + std::to_string(seed)));
  }
  queries.push_back(Q(world, "u0(X) :- member(X, c1)."));
  queries.push_back(Q(world, "u1(X) :- member(X, c1), member(X, c2)."));
  queries.push_back(Q(world, "u2(X) :- data(X, a, V)."));
  queries.push_back(Q(world, "u3(X) :- data(X, a, c1)."));
  return queries;
}

void ExpectDifferentialParity(World& world,
                              const std::vector<ConjunctiveQuery>& queries) {
  BatchContainmentOptions with_index;
  with_index.jobs = 1;
  ContainmentEngine pruned_engine(world, with_index);

  BatchContainmentOptions no_index;
  no_index.jobs = 1;
  no_index.containment.use_signature_index = false;
  ContainmentEngine full_engine(world, no_index);

  for (const ConjunctiveQuery& q : queries) {
    ASSERT_TRUE(pruned_engine.AddQuery(q).ok());
    ASSERT_TRUE(full_engine.AddQuery(q).ok());
  }
  Result<std::vector<std::vector<PairVerdict>>> fast = pruned_engine.CheckAll();
  Result<std::vector<std::vector<PairVerdict>>> slow = full_engine.CheckAll();
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();

  uint64_t pruned = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = 0; j < queries.size(); ++j) {
      if (i == j) continue;
      const PairVerdict& f = (*fast)[i][j];
      const PairVerdict& s = (*slow)[i][j];
      // Soundness: the filter must never discharge a pair the full
      // procedure proves contained (a violation here is the gated-at-zero
      // condition of the bench suite).
      if (f.pruned) {
        ++pruned;
        EXPECT_EQ(s.resolution, Resolution::kNotContained)
            << "soundness violation: pruned pair " << queries[i].name()
            << " ⊆ " << queries[j].name() << " is actually "
            << ResolutionName(s.resolution);
      }
      // Parity: identical verdicts pair-for-pair (the --no-prune
      // contract).
      EXPECT_EQ(f.resolution, s.resolution)
          << queries[i].name() << " ⊆ " << queries[j].name();
      EXPECT_EQ(f.contained, s.contained);
      EXPECT_EQ(f.lhs_unsatisfiable, s.lhs_unsatisfiable);
    }
  }
  EXPECT_EQ(pruned, pruned_engine.stats().pruned_pairs);
  EXPECT_GT(pruned_engine.stats().pruned_pairs, 0u);
  EXPECT_EQ(full_engine.stats().pruned_pairs, 0u);
}

TEST(ContainmentIndexTest, DifferentialSoundnessBooleanWorkload) {
  World world;
  ExpectDifferentialParity(world, BooleanWorkload(world));
}

TEST(ContainmentIndexTest, DifferentialSoundnessUnaryWorkload) {
  World world;
  ExpectDifferentialParity(world, UnaryWorkload(world));
}

// The engine decides under Sigma_FL only (classical containment is
// CheckClassicalContainment alone), so its level-0 mode is compared.
TEST(ContainmentIndexTest, DifferentialSoundnessLevelZeroAndClassical) {
  World world;
  std::vector<ConjunctiveQuery> queries = BooleanWorkload(world);
  BatchContainmentOptions with_index;
  with_index.jobs = 1;
  with_index.containment.level_override = 0;
  BatchContainmentOptions no_index = with_index;
  no_index.containment.use_signature_index = false;

  ContainmentEngine fast(world, with_index);
  ContainmentEngine slow(world, no_index);
  for (const ConjunctiveQuery& q : queries) {
    ASSERT_TRUE(fast.AddQuery(q).ok());
    ASSERT_TRUE(slow.AddQuery(q).ok());
  }
  Result<std::vector<std::vector<PairVerdict>>> f = fast.CheckAll();
  Result<std::vector<std::vector<PairVerdict>>> s = slow.CheckAll();
  ASSERT_TRUE(f.ok() && s.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = 0; j < queries.size(); ++j) {
      if (i == j) continue;
      EXPECT_EQ((*f)[i][j].resolution, (*s)[i][j].resolution)
          << "level 0: " << queries[i].name() << " ⊆ " << queries[j].name();
    }
  }
}

// ---- the incremental index -----------------------------------------------

// The maintained taxonomy with every member id replaced by its position in
// `ids` (ascending), as TaxonomyFromRelation numbers them over `ids`.
QueryTaxonomy Positional(const TaxonomyView& view,
                         std::span<const size_t> ids) {
  QueryTaxonomy taxonomy;
  taxonomy.class_of.assign(ids.size(), -1);
  for (const std::vector<size_t>& members : view.classes) {
    std::vector<size_t> positions;
    for (size_t id : members) {
      auto it = std::lower_bound(ids.begin(), ids.end(), id);
      EXPECT_TRUE(it != ids.end() && *it == id) << id;
      const size_t position = size_t(it - ids.begin());
      taxonomy.class_of[position] = int(taxonomy.classes.size());
      positions.push_back(position);
    }
    taxonomy.classes.push_back(std::move(positions));
  }
  taxonomy.hasse_edges = view.hasse_edges;
  return taxonomy;
}

TEST(ContainmentIndexTest, IncrementalInsertMatchesBatchClassifier) {
  World world;
  std::vector<ConjunctiveQuery> queries = UnaryWorkload(world);

  BatchContainmentOptions options;
  options.jobs = 1;
  ContainmentIndex index(world, options);
  for (const ConjunctiveQuery& q : queries) {
    Result<size_t> id = index.Insert(q);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
  QueryTaxonomy incremental =
      Positional(index.taxonomy().View(), index.live_ids());

  Result<QueryTaxonomy> batch = ClassifyQueries(world, queries, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  EXPECT_EQ(incremental.class_of, batch->class_of);
  EXPECT_EQ(incremental.classes, batch->classes);
  EXPECT_EQ(incremental.hasse_edges, batch->hasse_edges);
}

TEST(ContainmentIndexTest, InsertChecksOnlySurvivingCandidates) {
  World world;
  std::vector<ConjunctiveQuery> queries = BooleanWorkload(world);
  BatchContainmentOptions options;
  options.jobs = 1;
  ContainmentIndex index(world, options);
  for (const ConjunctiveQuery& q : queries) {
    ASSERT_TRUE(index.Insert(q).ok());
  }
  const IndexStats& stats = index.index_stats();
  const size_t n = queries.size();
  EXPECT_EQ(stats.inserts, n);
  EXPECT_EQ(stats.candidate_pairs, n * (n - 1));
  EXPECT_EQ(stats.pruned_pairs + stats.checked_pairs, stats.candidate_pairs);
  // The point of the index: most candidates never reach the engine.
  EXPECT_GT(stats.pruned_pairs, 0u);
  // The engine saw only survivors, so its own stage 0 found nothing left
  // to prune (the prefilter and stage 0 run the identical test).
  EXPECT_EQ(index.engine_stats().pruned_pairs, 0u);
}

TEST(ContainmentIndexTest, CrossArityPairsAreIncomparable) {
  World world;
  BatchContainmentOptions options;
  options.jobs = 1;
  ContainmentIndex index(world, options);
  ASSERT_TRUE(index.Insert(Q(world, "a(X) :- member(X, C).")).ok());
  ASSERT_TRUE(index.Insert(Q(world, "b() :- member(X, C).")).ok());
  EXPECT_EQ(index.index_stats().candidate_pairs, 0u);
  EXPECT_FALSE(index.Contains(0, 1));
  EXPECT_FALSE(index.Contains(1, 0));
  EXPECT_TRUE(index.Contains(0, 0));  // reflexive diagonal
}

// Removing queries leaves exactly the relation a fresh batch computes
// over the survivors, frees their engine entries, and keeps later inserts
// off the removed ids.
TEST(ContainmentIndexTest, RemoveLeavesTheBatchRelationOfTheLiveQueries) {
  World world;
  std::vector<ConjunctiveQuery> queries = UnaryWorkload(world);
  std::vector<ConjunctiveQuery> boolean = BooleanWorkload(world);
  queries.insert(queries.end(), boolean.begin(), boolean.end());
  BatchContainmentOptions options;
  options.jobs = 1;
  ContainmentIndex index(world, options);
  for (const ConjunctiveQuery& q : queries) {
    ASSERT_TRUE(index.Insert(q).ok());
  }
  std::vector<size_t> removed;
  for (size_t id = 1; id < queries.size(); id += 3) {
    ASSERT_TRUE(index.Remove(id).ok());
    removed.push_back(id);
  }
  // Re-inserting a removed query gives it a fresh id, decided against the
  // live queries only: two candidate pairs per live same-arity query.
  const size_t unary_live = size_t(std::count_if(
      index.live_ids().begin(), index.live_ids().end(),
      [&](size_t id) { return index.query(id).arity() == 1; }));
  const uint64_t candidates_before = index.index_stats().candidate_pairs;
  Result<size_t> again = index.Insert(queries[removed[0]]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, queries.size());
  EXPECT_EQ(index.index_stats().candidate_pairs - candidates_before,
            2 * unary_live);

  std::vector<ConjunctiveQuery> live;
  for (size_t id : index.live_ids()) live.push_back(index.query(id));
  const IndexStats& stats = index.index_stats();
  EXPECT_EQ(stats.removed, removed.size());
  EXPECT_EQ(stats.inserts - stats.removed, live.size());
  EXPECT_EQ(index.engine().live_query_count(), live.size());
  for (size_t id : removed) {
    EXPECT_FALSE(index.live(id));
    EXPECT_FALSE(index.engine().has_query(id)) << id;
  }

  // Pair for pair against a fresh engine over the live queries, and the
  // taxonomy against ClassifyQueries. Cross-arity pairs read
  // kNotContained in the index; the batch engine only checks same-arity
  // pairs, so those are compared per arity.
  std::span<const size_t> ids = index.live_ids();
  for (int arity : {0, 1}) {
    std::vector<size_t> group;
    std::vector<ConjunctiveQuery> group_queries;
    for (size_t id : ids) {
      if (index.query(id).arity() != arity) continue;
      group.push_back(id);
      group_queries.push_back(index.query(id));
    }
    ContainmentEngine fresh(world, options);
    for (const ConjunctiveQuery& q : group_queries) {
      ASSERT_TRUE(fresh.AddQuery(q).ok());
    }
    Result<std::vector<std::vector<PairVerdict>>> matrix = fresh.CheckAll();
    ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
    ContainmentRelation relation = index.RelationOf(group);
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = 0; j < group.size(); ++j) {
        const Resolution expected =
            i == j ? Resolution::kContained : (*matrix)[i][j].resolution;
        EXPECT_EQ(index.ResolutionOf(group[i], group[j]), expected);
        EXPECT_EQ(relation[i][j], expected);
      }
    }
    Result<QueryTaxonomy> batch =
        ClassifyQueries(world, group_queries, options);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    QueryTaxonomy incremental = index.TaxonomyOf(group);
    EXPECT_EQ(incremental.class_of, batch->class_of);
    EXPECT_EQ(incremental.classes, batch->classes);
    EXPECT_EQ(incremental.hasse_edges, batch->hasse_edges);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = 0; j < ids.size(); ++j) {
      if (index.query(ids[i]).arity() != index.query(ids[j]).arity()) {
        EXPECT_EQ(index.ResolutionOf(ids[i], ids[j]),
                  Resolution::kNotContained);
      }
    }
  }
  // Remove dropped the removed ids' pairs in both directions: every pair
  // still stored is between live ids.
  EXPECT_EQ(index.edge_count(), index.RelationOf(ids).edge_count());
  // The maintained taxonomy and the id-keyed view agree with the batch
  // pass over every live id.
  const QueryTaxonomy all = index.TaxonomyOf(ids);
  const QueryTaxonomy maintained = Positional(index.taxonomy().View(), ids);
  EXPECT_EQ(maintained.class_of, all.class_of);
  EXPECT_EQ(maintained.classes, all.classes);
  EXPECT_EQ(maintained.hasse_edges, all.hasse_edges);
  const RelationView view = index.Relation();
  EXPECT_EQ(view.size(), ids.size());
  for (size_t lhs : ids) {
    for (size_t rhs : ids) {
      EXPECT_EQ(view[lhs][rhs], index.ResolutionOf(lhs, rhs));
    }
  }

  // A removed or unknown id is a typed error, in the index and the engine.
  EXPECT_EQ(index.Remove(removed[0]).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.Remove(10'000).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.engine().RemoveQuery(removed[0]).code(),
            StatusCode::kNotFound);
  const std::pair<size_t, size_t> dead_pair[1] = {{ids[0], removed[0]}};
  Result<std::vector<PairVerdict>> dead = index.engine().CheckPairs(dead_pair);
  EXPECT_EQ(dead.status().code(), StatusCode::kInvalidArgument);
}

// A relation or taxonomy view taken before later mutations keeps
// answering its own moment: the rows and member lists those mutations
// replace are retired, not freed, while the view holds them (the
// AddressSanitizer job sees any use of a freed one).
TEST(ContainmentIndexTest, ViewsKeepTheirMomentAcrossMutations) {
  World world;
  std::vector<ConjunctiveQuery> queries = UnaryWorkload(world);
  BatchContainmentOptions options;
  options.jobs = 1;
  ContainmentIndex index(world, options);
  for (const ConjunctiveQuery& q : queries) {
    ASSERT_TRUE(index.Insert(q).ok());
  }
  const std::vector<size_t> ids(index.live_ids().begin(),
                                index.live_ids().end());
  const RelationView relation = index.Relation();
  const TaxonomyView taxonomy = index.taxonomy().View();
  std::vector<Resolution> verdicts;
  for (size_t lhs : ids) {
    for (size_t rhs : ids) verdicts.push_back(index.ResolutionOf(lhs, rhs));
  }
  const QueryTaxonomy classes = Positional(taxonomy, ids);

  for (size_t id = 0; id < ids.size(); id += 2) ASSERT_TRUE(index.Remove(id).ok());
  for (size_t k = 0; k < queries.size(); k += 3) {
    ASSERT_TRUE(index.Insert(queries[k]).ok());
  }

  size_t k = 0;
  for (size_t lhs : ids) {
    for (size_t rhs : ids) EXPECT_EQ(relation[lhs][rhs], verdicts[k++]);
  }
  const QueryTaxonomy kept = Positional(taxonomy, ids);
  EXPECT_EQ(kept.classes, classes.classes);
  EXPECT_EQ(kept.hasse_edges, classes.hasse_edges);
}

// Positions follow the order of the ids asked for, ascending or not.
TEST(ContainmentIndexTest, RelationOfIsPositionalInAnyIdOrder) {
  World world;
  // A chain: query k is contained in every query j < k, so rows hold
  // several pairs and a reversed id order reverses each of them.
  std::vector<ConjunctiveQuery> queries;
  std::string body;
  for (int k = 1; k <= 7; ++k) {
    body += std::string(k == 1 ? "" : ", ") + "member(X, c" +
            std::to_string(k) + ")";
    queries.push_back(
        Q(world, ("k" + std::to_string(k) + "(X) :- " + body + ".").c_str()));
  }
  BatchContainmentOptions options;
  options.jobs = 1;
  ContainmentIndex index(world, options);
  for (const ConjunctiveQuery& q : queries) {
    ASSERT_TRUE(index.Insert(q).ok());
  }
  ASSERT_TRUE(index.Remove(2).ok());
  std::vector<size_t> ids = {6, 5, 4, 3, 1, 0};
  ContainmentRelation relation = index.RelationOf(ids);
  ASSERT_EQ(relation.size(), ids.size());
  size_t edges = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ(relation[i][j], index.ResolutionOf(ids[i], ids[j]));
      EXPECT_EQ(relation[i][j], i <= j ? Resolution::kContained
                                       : Resolution::kNotContained);
      edges += i != j && relation[i][j] != Resolution::kNotContained;
    }
  }
  EXPECT_EQ(relation.edge_count(), edges);

  std::vector<ConjunctiveQuery> in_order;
  for (size_t id : ids) in_order.push_back(queries[id]);
  Result<QueryTaxonomy> batch = ClassifyQueries(world, in_order, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  QueryTaxonomy positional = index.TaxonomyOf(ids);
  EXPECT_EQ(positional.classes, batch->classes);
  EXPECT_EQ(positional.hasse_edges, batch->hasse_edges);
}

}  // namespace
}  // namespace floq
