#include "containment/engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "chase/dependencies.h"
#include "containment/containment.h"
#include "gen/generators.h"
#include "query/parser.h"
#include "term/atom.h"
#include "term/term.h"
#include "term/world.h"
#include "util/request_context.h"
#include "util/rng.h"
#include "util/trace.h"

namespace floq {
namespace {

ConjunctiveQuery Q(World& world, const char* text) {
  Result<ConjunctiveQuery> q = ParseQuery(world, text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

// A small mixed workload: chains that exercise rho_8 containments plus
// parsed queries with mutual containments and incomparable pairs.
std::vector<ConjunctiveQuery> Workload(World& world) {
  std::vector<ConjunctiveQuery> queries;
  queries.push_back(Q(world, "q0(X) :- member(X, C)."));
  queries.push_back(Q(world, "q1(X) :- member(X, C), sub(C, D)."));
  queries.push_back(Q(world, "q2(X) :- member(X, C), member(X, D)."));
  queries.push_back(Q(world, "q3(X) :- data(X, A, V)."));
  queries.push_back(Q(world, "q4(X) :- data(X, A, V), funct(A, O)."));
  queries.push_back(
      Q(world, "q5(X) :- member(X, C), mandatory(A, C), type(C, A, T)."));
  return queries;
}

// ---- equivalence with the pairwise checker ------------------------------

TEST(ContainmentEngineTest, MatchesPairwiseCheckContainment) {
  World world;
  std::vector<ConjunctiveQuery> queries = Workload(world);

  ContainmentEngine engine(world);
  for (const ConjunctiveQuery& q : queries) {
    Result<size_t> id = engine.AddQuery(q);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
  Result<std::vector<std::vector<PairVerdict>>> matrix = engine.CheckAll();
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();

  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = 0; j < queries.size(); ++j) {
      if (i == j) continue;
      Result<ContainmentResult> direct =
          CheckContainment(world, queries[i], queries[j]);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      EXPECT_EQ((*matrix)[i][j].contained, direct->contained)
          << queries[i].name() << " ⊆ " << queries[j].name();
    }
  }
}

// Classical containment is CheckClassicalContainment alone: the engine
// always decides under Sigma_FL, so only its level-0 mode is compared.
TEST(ContainmentEngineTest, MatchesPairwiseInLevelZeroAndClassicalModes) {
  World world;
  std::vector<ConjunctiveQuery> queries = Workload(world);
  BatchContainmentOptions options;
  options.containment.level_override = 0;

  ContainmentEngine engine(world, options);
  for (const ConjunctiveQuery& q : queries) {
    ASSERT_TRUE(engine.AddQuery(q).ok());
  }
  Result<std::vector<std::vector<PairVerdict>>> matrix = engine.CheckAll();
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();

  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = 0; j < queries.size(); ++j) {
      if (i == j) continue;
      Result<ContainmentResult> direct = CheckContainment(
          world, queries[i], queries[j], options.containment);
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ((*matrix)[i][j].contained, direct->contained)
          << "level 0: " << queries[i].name() << " ⊆ " << queries[j].name();
    }
  }
}

// The registration probe is the pair's cached chase handle, so it must not
// run deeper than the cap the engine searches: member(V, T) first appears
// at level 2 of this lhs chase (rho_5 at level 1, then rho_1), and at caps
// 0 and 1 a level-2 probe would let the index-on engine report CONTAINED
// where the one-shot check and the index-off engine do not.
TEST(ContainmentEngineTest, SignatureProbeStaysWithinTheLevelCap) {
  for (int cap : {0, 1, 2}) {
    World world;
    ConjunctiveQuery lhs = Q(world, "q() :- mandatory(A, O), type(O, A, T).");
    ConjunctiveQuery rhs = Q(world, "q() :- member(V, T).");
    ContainmentOptions copts;
    copts.level_override = cap;
    Result<ContainmentResult> direct = CheckContainment(world, lhs, rhs, copts);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(direct->resolution,
              cap < 2 ? Resolution::kNotContained : Resolution::kContained)
        << "cap " << cap;
    for (bool index : {true, false}) {
      BatchContainmentOptions options;
      options.jobs = 1;
      options.containment = copts;
      options.containment.use_signature_index = index;
      ContainmentEngine engine(world, options);
      ASSERT_TRUE(engine.AddQuery(lhs).ok());
      ASSERT_TRUE(engine.AddQuery(rhs).ok());
      std::vector<std::pair<size_t, size_t>> pairs = {{0, 1}};
      Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
      ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
      EXPECT_EQ((*verdicts)[0].resolution, direct->resolution)
          << "cap " << cap << ", index " << (index ? "on" : "off");
      // A pruned pair never reached the chase stage.
      if (!(*verdicts)[0].pruned) {
        EXPECT_EQ((*verdicts)[0].level_bound, cap);
      }
    }
  }
}

// ---- chase memoization ---------------------------------------------------

TEST(ContainmentEngineTest, EachQueryChasedExactlyOnce) {
  World world;
  std::vector<ConjunctiveQuery> queries = Workload(world);
  const size_t n = queries.size();

  ContainmentEngine engine(world);
  for (const ConjunctiveQuery& q : queries) {
    ASSERT_TRUE(engine.AddQuery(q).ok());
  }
  ASSERT_TRUE(engine.CheckAll().ok());

  // With the signature index on (the default), registration probes each
  // query once, stage 0 discharges the signature-incompatible pairs (e.g.
  // q3 = {data} can never contain q0 = {member}), and every surviving
  // pair's chase request hits the probe's cached handle.
  const BatchStats& stats = engine.stats();
  EXPECT_EQ(stats.pairs_checked, n * (n - 1));
  EXPECT_GT(stats.pruned_pairs, 0u);
  // No two of the six queries have one shape: nothing is shared.
  EXPECT_EQ(stats.shared_pairs, 0u);
  EXPECT_EQ(stats.pruned_pairs + stats.chase_requests + stats.shared_pairs,
            n * (n - 1));
  EXPECT_EQ(stats.chases_run, n);  // one chase per query, not per pair
  EXPECT_EQ(stats.chase_cache_hits, stats.chase_requests);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NE(engine.chase_of(i), nullptr) << "query " << i;
  }
}

TEST(ContainmentEngineTest, EachQueryChasedExactlyOnceWithoutIndex) {
  World world;
  std::vector<ConjunctiveQuery> queries = Workload(world);
  const size_t n = queries.size();

  BatchContainmentOptions options;
  options.containment.use_signature_index = false;
  ContainmentEngine engine(world, options);
  for (const ConjunctiveQuery& q : queries) {
    ASSERT_TRUE(engine.AddQuery(q).ok());
  }
  ASSERT_TRUE(engine.CheckAll().ok());

  // Legacy path: no probes, no pruning — the first pair per lhs chases,
  // the rest hit the cache.
  const BatchStats& stats = engine.stats();
  EXPECT_EQ(stats.pairs_checked, n * (n - 1));
  EXPECT_EQ(stats.pruned_pairs, 0u);
  EXPECT_EQ(stats.shared_pairs, 0u);
  EXPECT_EQ(stats.chase_requests, n * (n - 1));
  EXPECT_EQ(stats.chases_run, n);
  EXPECT_EQ(stats.chase_cache_hits, n * (n - 1) - n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NE(engine.chase_of(i), nullptr) << "query " << i;
  }
}

TEST(ContainmentEngineTest, SecondCheckReusesAndDeepensHandles) {
  World world;
  // The 1-cycle's chase is an infinite data chain along one attribute, so
  // every EnsureLevel with a higher bound genuinely deepens, and data-chain
  // probes of any length embed into it.
  std::vector<ConjunctiveQuery> queries;
  queries.push_back(gen::MakeMandatoryCycleQuery(world, 1, "cycle"));
  queries.push_back(gen::MakeDataChainProbe(world, 2, "short_probe"));
  queries.push_back(gen::MakeDataChainProbe(world, 4, "long_probe"));

  ContainmentEngine engine(world);
  for (const ConjunctiveQuery& q : queries) {
    ASSERT_TRUE(engine.AddQuery(q).ok());
  }

  // Registration already probed each query once for its signature (the
  // probe handle IS the pair pipeline's cache entry).
  EXPECT_EQ(engine.stats().chases_run, 3u);

  // First round: cycle ⊆ short_probe.
  std::vector<std::pair<size_t, size_t>> first = {{0, 1}};
  Result<std::vector<PairVerdict>> r1 = engine.CheckPairs(first);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE((*r1)[0].contained);
  EXPECT_EQ(engine.stats().chases_run, 3u);      // served from the probe
  EXPECT_EQ(engine.stats().chase_cache_hits, 1u);
  int first_level = (*r1)[0].level_bound;

  // Second round needs a deeper chase of the same lhs (longer probe =>
  // larger Theorem 12 bound). The handle must be reused and deepened, not
  // rebuilt.
  std::vector<std::pair<size_t, size_t>> second = {{0, 2}};
  Result<std::vector<PairVerdict>> r2 = engine.CheckPairs(second);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE((*r2)[0].contained);
  EXPECT_GT((*r2)[0].level_bound, first_level);
  EXPECT_EQ(engine.stats().chases_run, 3u);      // still no rebuild
  EXPECT_EQ(engine.stats().chase_cache_hits, 2u);
  EXPECT_GE(engine.stats().chase_deepenings, 1u);
  ASSERT_NE(engine.chase_of(0), nullptr);
  EXPECT_GE(engine.chase_of(0)->max_level(), first_level);
}

// ---- parallel == sequential ---------------------------------------------

TEST(ContainmentEngineTest, ParallelVerdictsEqualSequential) {
  for (bool use_index : {true, false}) {
    SCOPED_TRACE(use_index ? "signature index on" : "signature index off");
    World world;
    std::vector<ConjunctiveQuery> queries = Workload(world);
    for (int seed = 1; seed <= 6; ++seed) {
      gen::RandomQuerySpec spec;
      spec.seed = uint64_t(seed);
      spec.atoms = 4;
      spec.variable_pool = 3;
      spec.arity = 1;
      queries.push_back(
          gen::MakeRandomQuery(world, spec, "r" + std::to_string(seed)));
    }

    BatchContainmentOptions sequential;
    sequential.jobs = 1;
    sequential.containment.use_signature_index = use_index;
    ContainmentEngine seq_engine(world, sequential);
    BatchContainmentOptions parallel = sequential;
    parallel.jobs = 4;
    ContainmentEngine par_engine(world, parallel);
    for (const ConjunctiveQuery& q : queries) {
      ASSERT_TRUE(seq_engine.AddQuery(q).ok());
      ASSERT_TRUE(par_engine.AddQuery(q).ok());
    }

    Result<std::vector<std::vector<PairVerdict>>> seq = seq_engine.CheckAll();
    Result<std::vector<std::vector<PairVerdict>>> par = par_engine.CheckAll();
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    ASSERT_TRUE(par.ok()) << par.status().ToString();

    for (size_t i = 0; i < queries.size(); ++i) {
      for (size_t j = 0; j < queries.size(); ++j) {
        if (i == j) continue;
        const PairVerdict& s = (*seq)[i][j];
        const PairVerdict& p = (*par)[i][j];
        EXPECT_EQ(s.contained, p.contained) << i << " ⊆ " << j;
        EXPECT_EQ(s.resolution, p.resolution) << i << " ⊆ " << j;
        EXPECT_EQ(s.unknown_reason, p.unknown_reason) << i << " ⊆ " << j;
        EXPECT_EQ(s.pruned, p.pruned) << i << " ⊆ " << j;
        EXPECT_EQ(s.lhs_unsatisfiable, p.lhs_unsatisfiable)
            << i << " ⊆ " << j;
        EXPECT_EQ(s.level_bound, p.level_bound) << i << " ⊆ " << j;
      }
    }

    const BatchStats& s = seq_engine.stats();
    const BatchStats& p = par_engine.stats();
    EXPECT_EQ(s.chases_run, p.chases_run);
    EXPECT_EQ(s.pairs_checked, p.pairs_checked);
    EXPECT_EQ(s.pruned_pairs, p.pruned_pairs);
    EXPECT_EQ(s.chase_requests, p.chase_requests);
    EXPECT_EQ(s.chase_deepenings, p.chase_deepenings);
    EXPECT_EQ(s.unknown_pairs, p.unknown_pairs);
    EXPECT_EQ(s.hom.nodes_visited, p.hom.nodes_visited);
    EXPECT_EQ(s.chase_stage.samples, p.chase_stage.samples);
    EXPECT_EQ(s.hom_stage.samples, p.hom_stage.samples);
    EXPECT_EQ(s.queue_wait.samples, p.queue_wait.samples);
    EXPECT_GT(s.hom.nodes_visited, 0u);
    EXPECT_EQ(s.pruned_pairs > 0, use_index);
  }
}

// A seeded arity-0 corpus with the four kinds of a classify workload:
// families (a base query and variants contained in it, each family with a
// private constant), narrow random queries over a small shared vocabulary,
// mandatory cycles and data-chain probes. The last two are the rows whose
// chases deepen pair after pair.
std::vector<ConjunctiveQuery> MixedCorpus(World& world, uint64_t seed) {
  std::vector<ConjunctiveQuery> queries;
  for (int f = 0; f < 3; ++f) {
    const std::string c = "fam" + std::to_string(seed) + "_" +
                          std::to_string(f);
    const std::string tag = std::to_string(f);
    const std::string base = "member(X, " + c + "), data(X, a, V)";
    queries.push_back(Q(world, ("b" + tag + "() :- " + base + ".").c_str()));
    queries.push_back(Q(world, ("e" + tag + "() :- " + base + ", type(" + c +
                                ", a, t).")
                                   .c_str()));
    queries.push_back(Q(world, ("s" + tag + "() :- member(X, " + c +
                                "_sub), sub(" + c + "_sub, " + c +
                                "), data(X, a, V).")
                                   .c_str()));
    queries.push_back(Q(world, ("r" + tag + "() :- member(Y, " + c +
                                "), data(Y, a, W).")
                                   .c_str()));
  }
  for (int k = 0; k < 8; ++k) {
    gen::RandomQuerySpec spec;
    spec.seed = seed * 100 + uint64_t(k);
    spec.atoms = 2 + k % 3;
    spec.variable_pool = 3;
    spec.constant_pool = 2;
    spec.arity = 0;
    queries.push_back(
        gen::MakeRandomQuery(world, spec, "n" + std::to_string(k)));
  }
  for (int k = 1; k <= 3; ++k) {
    queries.push_back(gen::MakeMandatoryCycleQuery(
        world, k, "cycle" + std::to_string(k)));
    queries.push_back(
        gen::MakeDataChainProbe(world, k, "probe" + std::to_string(k)));
  }
  return queries;
}

// Rows run on any worker in any order: the matrix and every counter must
// not depend on `jobs`.
TEST(ContainmentEngineTest, CheckAllIsIndependentOfJobs) {
  for (bool use_index : {true, false}) {
    for (int level_override : {0, 1, -1}) {
      SCOPED_TRACE(std::string(use_index ? "index on" : "index off") +
                   ", level_override " + std::to_string(level_override));
      World world;
      std::vector<ConjunctiveQuery> queries = MixedCorpus(world, 7);
      const size_t n = queries.size();
      std::vector<std::vector<std::vector<PairVerdict>>> matrices;
      std::vector<BatchStats> stats;
      for (int jobs : {1, 2, 4}) {
        BatchContainmentOptions options;
        options.jobs = jobs;
        options.containment.use_signature_index = use_index;
        options.containment.level_override = level_override;
        ContainmentEngine engine(world, options);
        for (const ConjunctiveQuery& q : queries) {
          ASSERT_TRUE(engine.AddQuery(q).ok());
        }
        Result<std::vector<std::vector<PairVerdict>>> matrix =
            engine.CheckAll();
        ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
        matrices.push_back(*std::move(matrix));
        stats.push_back(engine.stats());
      }

      for (size_t run = 1; run < matrices.size(); ++run) {
        for (size_t i = 0; i < n; ++i) {
          for (size_t j = 0; j < n; ++j) {
            const PairVerdict& s = matrices[0][i][j];
            const PairVerdict& p = matrices[run][i][j];
            const std::string cell = queries[i].name() + " ⊆ " +
                                     queries[j].name() + ", run " +
                                     std::to_string(run);
            EXPECT_EQ(s.contained, p.contained) << cell;
            EXPECT_EQ(s.resolution, p.resolution) << cell;
            EXPECT_EQ(s.unknown_reason, p.unknown_reason) << cell;
            EXPECT_EQ(s.pruned, p.pruned) << cell;
            EXPECT_EQ(s.lhs_unsatisfiable, p.lhs_unsatisfiable) << cell;
            EXPECT_EQ(s.level_bound, p.level_bound) << cell;
          }
        }
        const BatchStats& s = stats[0];
        const BatchStats& p = stats[run];
        EXPECT_EQ(s.pairs_checked, p.pairs_checked);
        EXPECT_EQ(s.pruned_pairs, p.pruned_pairs);
        EXPECT_EQ(s.shared_pairs, p.shared_pairs);
        EXPECT_EQ(s.chase_requests, p.chase_requests);
        EXPECT_EQ(s.chase_cache_hits, p.chase_cache_hits);
        EXPECT_EQ(s.chases_run, p.chases_run);
        EXPECT_EQ(s.chase_deepenings, p.chase_deepenings);
        EXPECT_EQ(s.unknown_pairs, p.unknown_pairs);
        EXPECT_EQ(s.hom.nodes_visited, p.hom.nodes_visited);
      }
      size_t contained = 0;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          if (i != j && matrices[0][i][j].contained) ++contained;
        }
      }
      EXPECT_GT(contained, n);
      const BatchStats& s = stats[0];
      EXPECT_EQ(s.pairs_checked, n * (n - 1));
      EXPECT_EQ(s.pruned_pairs > 0, use_index);
      EXPECT_EQ(s.pruned_pairs + s.chase_requests + s.shared_pairs,
                s.pairs_checked);
      // Each family's r query is its b query renamed: where verdicts are
      // exact, their rows and columns are copied, not searched.
      EXPECT_EQ(s.shared_pairs > 0, level_override <= 0);
      EXPECT_EQ(s.unknown_pairs, 0u);
      EXPECT_GT(s.hom.nodes_visited, 0u);
      // Without a fixed cap, the cycles' rows deepen their chases.
      if (level_override < 0) {
        EXPECT_GT(s.chase_deepenings, 0u);
      }
    }
  }
}

// ---- one decision per query shape ----------------------------------------

// `q` with fresh variables and its body atoms shuffled by `seed`: the same
// shape (query/shape_key.h) under another name.
ConjunctiveQuery ShuffledCopy(World& world, const ConjunctiveQuery& q,
                              uint64_t seed) {
  ConjunctiveQuery copy = q.RenameApart(world);
  std::vector<Atom>& body = copy.mutable_body();
  Rng rng(seed);
  for (size_t i = body.size(); i > 1; --i) {
    std::swap(body[i - 1], body[rng.Below(i)]);
  }
  return copy;
}

TEST(ContainmentEngineTest, CheckAllDecidesEachShapeOnce) {
  World world;
  std::vector<ConjunctiveQuery> queries;
  queries.push_back(Q(world, "a() :- member(X, c), data(X, p, Y), sub(c, d)."));
  queries.push_back(Q(world, "b() :- member(X, d)."));
  queries.push_back(ShuffledCopy(world, queries[0], 1));
  queries.push_back(ShuffledCopy(world, queries[1], 2));
  queries.push_back(ShuffledCopy(world, queries[0], 3));
  const size_t n = queries.size();
  for (bool use_index : {true, false}) {
    SCOPED_TRACE(use_index ? "index on" : "index off");
    BatchContainmentOptions options;
    options.jobs = 1;
    options.containment.use_signature_index = use_index;
    ContainmentEngine engine(world, options);
    for (const ConjunctiveQuery& q : queries) {
      ASSERT_TRUE(engine.AddQuery(q).ok());
    }
    Result<std::vector<std::vector<PairVerdict>>> matrix = engine.CheckAll();
    ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
    // Classes {0, 2, 4} and {1, 3}: a ⊆ b through rho_3, b ⊄ a.
    const int shape[] = {0, 1, 0, 1, 0};
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const PairVerdict& cell = (*matrix)[i][j];
        const Resolution expected = shape[i] == 0 || shape[j] == 1
                                        ? Resolution::kContained
                                        : Resolution::kNotContained;
        EXPECT_EQ(cell.resolution, expected) << i << " ⊆ " << j;
        EXPECT_EQ(cell.contained, expected == Resolution::kContained);
        if (!cell.pruned) {
          EXPECT_EQ(cell.level_bound,
                    PaperLevelBound(queries[i], queries[j]))
              << i << " ⊆ " << j;
        }
      }
    }
    // Only (0, 1) and (1, 0) run the pipeline; the other 18 cells are
    // copies or pairs within a class.
    const BatchStats& stats = engine.stats();
    EXPECT_EQ(stats.pairs_checked, n * (n - 1));
    EXPECT_EQ(stats.pruned_pairs + stats.chase_requests + stats.shared_pairs,
              stats.pairs_checked);
    if (use_index) {
      // Stage 0 prunes (1, 0): b's closure lacks a's constants c and p.
      // Its six copies keep the flag and count as pruned.
      EXPECT_EQ(stats.chase_requests, 1u);
      EXPECT_EQ(stats.pruned_pairs, 6u);
      EXPECT_TRUE((*matrix)[3][4].pruned);
    } else {
      // Nothing is pruned, and the members' chases never run.
      EXPECT_EQ(stats.chase_requests, 2u);
      EXPECT_EQ(stats.shared_pairs, n * (n - 1) - 2);
      EXPECT_EQ(stats.chases_run, 2u);
      EXPECT_EQ(engine.chase_of(2), nullptr);
    }
  }
}

// MixedCorpus with a renamed, atom-shuffled copy of every third query
// appended, so that a class's members sit far from its representative.
std::vector<ConjunctiveQuery> PlantedCorpus(World& world, uint64_t seed) {
  std::vector<ConjunctiveQuery> queries = MixedCorpus(world, seed);
  const size_t n = queries.size();
  for (size_t i = seed % 3; i < n; i += 3) {
    queries.push_back(ShuffledCopy(world, queries[i], seed * 1000 + i));
  }
  return queries;
}

// k3: the triangle; w7: a hub joined to every node of a 7-cycle, which no
// 3-colouring admits. So k3 ⊆ w7 fails, but only after a search over the
// colourings of the rim, which a small hom step budget cuts off.
std::vector<ConjunctiveQuery> ColouringQueries(World& world) {
  auto edges = [](const std::vector<std::pair<std::string, std::string>>&
                      pairs) {
    std::string body;
    for (const auto& [u, v] : pairs) {
      if (!body.empty()) body += ", ";
      body += "data(" + u + ", e, " + v + "), data(" + v + ", e, " + u + ")";
    }
    return body;
  };
  std::vector<std::pair<std::string, std::string>> wheel;
  for (int i = 0; i < 7; ++i) {
    const std::string rim = "R" + std::to_string(i);
    wheel.emplace_back("H", rim);
    wheel.emplace_back(rim, "R" + std::to_string((i + 1) % 7));
  }
  const std::string k3 =
      "k3() :- " + edges({{"A", "B"}, {"B", "C"}, {"C", "A"}}) + ".";
  const std::string w7 = "w7() :- " + edges(wheel) + ".";
  std::vector<ConjunctiveQuery> queries;
  queries.push_back(Q(world, k3.c_str()));
  queries.push_back(Q(world, w7.c_str()));
  return queries;
}

// The differential property of the shared matrix: every cell CheckAll
// settles by a copy, inside a class, or one by one after an UNKNOWN
// representative cell reads what CheckPairs reads for that pair when it
// is asked for every ordered pair. At caps -1 and 0 the matrix shares; at
// cap 1 it does not. The counters must not depend on `jobs`.
TEST(ContainmentEngineTest, SharedMatrixMatchesCheckPairs) {
  struct Case {
    uint64_t seed;
    bool coloured;  // adds k3, w7 and their copies under a step budget
  };
  for (const Case& c : {Case{2, false}, Case{5, false}, Case{7, true}}) {
    for (int level_override : {-1, 0, 1}) {
      SCOPED_TRACE("seed " + std::to_string(c.seed) + ", level_override " +
                   std::to_string(level_override));
      World world;
      std::vector<ConjunctiveQuery> queries = PlantedCorpus(world, c.seed);
      BatchContainmentOptions options;
      options.containment.level_override = level_override;
      if (c.coloured) {
        for (const ConjunctiveQuery& q : ColouringQueries(world)) {
          queries.push_back(q);
          queries.push_back(ShuffledCopy(world, q, queries.size()));
        }
        options.containment.budget.hom_step_budget = 200;
      }
      const size_t n = queries.size();

      options.jobs = 1;
      ContainmentEngine reference(world, options);
      for (const ConjunctiveQuery& q : queries) {
        ASSERT_TRUE(reference.AddQuery(q).ok());
      }
      std::vector<std::pair<size_t, size_t>> pairs;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          if (i != j) pairs.emplace_back(i, j);
        }
      }
      Result<std::vector<PairVerdict>> expected = reference.CheckPairs(pairs);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      size_t unknown = 0;
      for (const PairVerdict& v : *expected) {
        unknown += v.resolution == Resolution::kUnknown ? 1 : 0;
      }
      // k3 and its copy against w7 and its copy, at every cap: their
      // chases are complete at level 0.
      EXPECT_EQ(unknown, c.coloured ? 4u : 0u);

      std::vector<BatchStats> stats;
      for (int jobs : {1, 2, 4}) {
        options.jobs = jobs;
        ContainmentEngine engine(world, options);
        for (const ConjunctiveQuery& q : queries) {
          ASSERT_TRUE(engine.AddQuery(q).ok());
        }
        Result<std::vector<std::vector<PairVerdict>>> matrix =
            engine.CheckAll();
        ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
        for (size_t k = 0; k < pairs.size(); ++k) {
          const auto [i, j] = pairs[k];
          const PairVerdict& got = (*matrix)[i][j];
          const std::string cell = queries[i].name() + " ⊆ " +
                                   queries[j].name() + ", jobs " +
                                   std::to_string(jobs);
          EXPECT_EQ(got.resolution, (*expected)[k].resolution) << cell;
          EXPECT_EQ(got.level_bound, (*expected)[k].level_bound) << cell;
        }
        stats.push_back(engine.stats());
      }
      const BatchStats& s = stats[0];
      EXPECT_EQ(s.pairs_checked, n * (n - 1));
      EXPECT_EQ(s.pruned_pairs + s.chase_requests + s.shared_pairs,
                s.pairs_checked);
      EXPECT_EQ(s.shared_pairs > 0, level_override <= 0);
      for (const BatchStats& p : stats) {
        EXPECT_EQ(s.pairs_checked, p.pairs_checked);
        EXPECT_EQ(s.pruned_pairs, p.pruned_pairs);
        EXPECT_EQ(s.shared_pairs, p.shared_pairs);
        EXPECT_EQ(s.chase_requests, p.chase_requests);
        EXPECT_EQ(s.chase_deepenings, p.chase_deepenings);
        EXPECT_EQ(s.unknown_pairs, p.unknown_pairs);
        EXPECT_EQ(s.hom.nodes_visited, p.hom.nodes_visited);
      }
    }
  }
}

// ---- fan-out workers run in the caller's request scope -------------------

// The request context and trace suppression are thread-local: the threads
// a jobs > 1 batch starts must take both over from the calling thread.
TEST(ContainmentEngineTest, FanOutWorkersInheritRequestContextAndSuppression) {
  World world;
  BatchContainmentOptions options;
  options.jobs = 2;
  // Every pair reaches the hom stage.
  options.containment.use_signature_index = false;
  ContainmentEngine engine(world, options);
  std::vector<ConjunctiveQuery> queries = Workload(world);
  for (const ConjunctiveQuery& q : queries) {
    ASSERT_TRUE(engine.AddQuery(q).ok());
  }
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = 0; j < queries.size(); ++j) {
      if (i != j) pairs.emplace_back(i, j);
    }
  }

  TraceSession session;
  {
    RequestContext request;
    request.id = 4242;
    ScopedRequestContext scope(&request);
    ASSERT_TRUE(engine.CheckPairs(pairs).ok());
  }
  // ToJson renders one event per line.
  std::istringstream lines(session.ToJson());
  size_t hom_spans = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"name\": \"engine.hom_stage\"") == std::string::npos) {
      continue;
    }
    ++hom_spans;
    EXPECT_NE(line.find("\"request_id\": 4242"), std::string::npos) << line;
  }
  EXPECT_EQ(hom_spans, pairs.size());

  const uint64_t recorded = session.size();
  {
    TraceSuppress quiet;
    ASSERT_TRUE(engine.CheckPairs(pairs).ok());
  }
  EXPECT_EQ(session.size(), recorded);
}

// ---- edge cases ----------------------------------------------------------

TEST(ContainmentEngineTest, UnsatisfiableLhsIsVacuouslyContained) {
  World world;
  // rho_4 equates the two distinct constants 1 and 2: the chase fails.
  ConjunctiveQuery bad = Q(
      world, "q() :- funct(a, o), data(o, a, one), data(o, a, two).");
  ConjunctiveQuery probe = Q(world, "p() :- member(X, C).");

  ContainmentEngine engine(world);
  ASSERT_TRUE(engine.AddQuery(bad).ok());
  ASSERT_TRUE(engine.AddQuery(probe).ok());
  std::vector<std::pair<size_t, size_t>> pairs = {{0, 1}, {1, 0}};
  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();

  EXPECT_TRUE((*verdicts)[0].contained);
  EXPECT_TRUE((*verdicts)[0].lhs_unsatisfiable);
  EXPECT_FALSE((*verdicts)[1].contained);
  EXPECT_FALSE((*verdicts)[1].lhs_unsatisfiable);
}

TEST(ContainmentEngineTest, RejectsUnknownIdsAndArityMismatches) {
  World world;
  ContainmentEngine engine(world);
  ASSERT_TRUE(engine.AddQuery(Q(world, "q(X) :- member(X, C).")).ok());
  ASSERT_TRUE(engine.AddQuery(Q(world, "p() :- member(X, C).")).ok());

  std::vector<std::pair<size_t, size_t>> bad_id = {{0, 7}};
  EXPECT_FALSE(engine.CheckPairs(bad_id).ok());

  std::vector<std::pair<size_t, size_t>> bad_arity = {{0, 1}};
  Result<std::vector<PairVerdict>> mismatch = engine.CheckPairs(bad_arity);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
}

TEST(ContainmentEngineTest, EmptyPairListAndEmptyEngine) {
  World world;
  ContainmentEngine engine(world);
  EXPECT_EQ(engine.query_count(), 0u);
  Result<std::vector<std::vector<PairVerdict>>> matrix = engine.CheckAll();
  ASSERT_TRUE(matrix.ok());
  EXPECT_TRUE(matrix->empty());
  std::vector<std::pair<size_t, size_t>> none;
  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(none);
  ASSERT_TRUE(verdicts.ok());
  EXPECT_TRUE(verdicts->empty());
}

TEST(ContainmentEngineTest, CheckAllOfOneQueryIsOneByOne) {
  World world;
  ContainmentEngine engine(world);
  ASSERT_TRUE(engine.AddQuery(Q(world, "q(X) :- member(X, C).")).ok());
  Result<std::vector<std::vector<PairVerdict>>> matrix = engine.CheckAll();
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
  ASSERT_EQ(matrix->size(), 1u);
  EXPECT_EQ((*matrix)[0].size(), 1u);
  EXPECT_EQ(engine.stats().pairs_checked, 0u);
}

TEST(ContainmentEngineTest, CheckAllRejectsMixedArities) {
  World world;
  ContainmentEngine engine(world);
  ASSERT_TRUE(engine.AddQuery(Q(world, "q(X) :- member(X, C).")).ok());
  ASSERT_TRUE(engine.AddQuery(Q(world, "r(X) :- sub(X, C).")).ok());
  ASSERT_TRUE(engine.AddQuery(Q(world, "p(X, C) :- member(X, C).")).ok());
  Result<std::vector<std::vector<PairVerdict>>> matrix = engine.CheckAll();
  ASSERT_FALSE(matrix.ok());
  EXPECT_EQ(matrix.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(matrix.status().message().find("got 1 and 2"), std::string::npos)
      << matrix.status().ToString();
}

TEST(ContainmentEngineTest, CheckAllFailsAfterRemoveQuery) {
  World world;
  ContainmentEngine engine(world);
  ASSERT_TRUE(engine.AddQuery(Q(world, "q(X) :- member(X, C).")).ok());
  ASSERT_TRUE(engine.AddQuery(Q(world, "r(X) :- sub(X, C).")).ok());
  ASSERT_TRUE(engine.AddQuery(Q(world, "s(X) :- data(X, A, V).")).ok());
  ASSERT_TRUE(engine.RemoveQuery(1).ok());
  Result<std::vector<std::vector<PairVerdict>>> matrix = engine.CheckAll();
  ASSERT_FALSE(matrix.ok());
  EXPECT_EQ(matrix.status().code(), StatusCode::kInvalidArgument);
}

TEST(ContainmentEngineTest, RejectsMalformedQuery) {
  World world;
  // Unsafe: head variable X does not occur in the body.
  ConjunctiveQuery unsafe("bad", {world.MakeVariable("X")},
                          {Atom::Member(world.MakeVariable("Y"),
                                        world.MakeVariable("C"))});
  ContainmentEngine engine(world);
  EXPECT_FALSE(engine.AddQuery(unsafe).ok());
}

// ---- resumption property: deepened == fresh ------------------------------
//
// The chase materialized by EnsureLevel(k1), ..., EnsureLevel(kn) must be
// the same instance a fresh single-shot chase at level kn produces. Null
// names are execution-order artifacts (the two runs draw different fresh
// nulls from the World), so equality is up to a bijection over nulls.
// Per-conjunct levels are NOT compared: level assignment depends on which
// derivation reached a conjunct first, which is order-dependent.

// Tries to extend the null bijection so that a == b position-wise.
// Returns the newly added (null of a, null of b) pairs for backtracking.
bool MapAtom(const Atom& a, const Atom& b, std::map<Term, Term>& fwd,
             std::map<Term, Term>& rev,
             std::vector<std::pair<Term, Term>>& added) {
  if (a.predicate() != b.predicate() || a.arity() != b.arity()) return false;
  auto undo = [&] {
    for (const auto& [x, y] : added) {
      fwd.erase(x);
      rev.erase(y);
    }
    added.clear();
  };
  for (int i = 0; i < a.arity(); ++i) {
    Term x = a.arg(i);
    Term y = b.arg(i);
    if (!x.IsNull() && !y.IsNull()) {
      if (x != y) return undo(), false;
      continue;
    }
    if (!x.IsNull() || !y.IsNull()) return undo(), false;
    auto f = fwd.find(x);
    if (f != fwd.end()) {
      if (f->second != y) return undo(), false;
      continue;
    }
    if (rev.count(y) > 0) return undo(), false;
    fwd.emplace(x, y);
    rev.emplace(y, x);
    added.emplace_back(x, y);
  }
  return true;
}

bool MatchAtoms(size_t i, const std::vector<Atom>& as,
                const std::vector<std::vector<size_t>>& candidates,
                const std::vector<Atom>& bs, std::vector<bool>& used,
                std::map<Term, Term>& fwd, std::map<Term, Term>& rev) {
  if (i == as.size()) return true;
  for (size_t j : candidates[i]) {
    if (used[j]) continue;
    std::vector<std::pair<Term, Term>> added;
    if (!MapAtom(as[i], bs[j], fwd, rev, added)) continue;
    used[j] = true;
    if (MatchAtoms(i + 1, as, candidates, bs, used, fwd, rev)) return true;
    used[j] = false;
    for (const auto& [x, y] : added) {
      fwd.erase(x);
      rev.erase(y);
    }
  }
  return false;
}

// Whether a null-renaming bijection maps chase `a` (atoms + head) onto
// chase `b` exactly.
bool ChasesIsomorphic(const ChaseResult& a, const ChaseResult& b) {
  if (a.outcome() != b.outcome()) return false;
  if (a.size() != b.size()) return false;
  if (a.head().size() != b.head().size()) return false;

  std::map<Term, Term> fwd, rev;
  // Seed the bijection with the head correspondence.
  for (size_t i = 0; i < a.head().size(); ++i) {
    Term x = a.head()[i];
    Term y = b.head()[i];
    if (!x.IsNull() && !y.IsNull()) {
      if (x != y) return false;
      continue;
    }
    if (!x.IsNull() || !y.IsNull()) return false;
    auto f = fwd.find(x);
    if (f != fwd.end()) {
      if (f->second != y) return false;
      continue;
    }
    if (rev.count(y) > 0) return false;
    fwd.emplace(x, y);
    rev.emplace(y, x);
  }

  const std::vector<Atom> as(a.conjuncts().atoms().begin(),
                             a.conjuncts().atoms().end());
  const std::vector<Atom> bs(b.conjuncts().atoms().begin(),
                             b.conjuncts().atoms().end());
  std::vector<std::vector<size_t>> candidates(as.size());
  for (size_t i = 0; i < as.size(); ++i) {
    for (size_t j = 0; j < bs.size(); ++j) {
      if (as[i].predicate() == bs[j].predicate()) candidates[i].push_back(j);
    }
    if (candidates[i].empty()) return false;
  }
  std::vector<bool> used(bs.size(), false);
  return MatchAtoms(0, as, candidates, bs, used, fwd, rev);
}

TEST(ResumableChaseTest, DeepeningMatchesFreshChaseAcrossCorpus) {
  // Structured queries with infinite chases plus random constrained
  // queries: deepen in three steps and compare against one-shot chases at
  // every intermediate level.
  const int kSteps[] = {2, 5, 9};
  World world;
  std::vector<ConjunctiveQuery> corpus;
  corpus.push_back(gen::MakeMandatoryCycleQuery(world, 2, "cycle2"));
  corpus.push_back(gen::MakeMandatoryCycleQuery(world, 3, "cycle3"));
  corpus.push_back(gen::MakeAttributeChainQuery(world, 3, true, "chain"));
  corpus.push_back(gen::MakeFunctFanQuery(world, 3, "fan"));
  for (int seed = 1; seed <= 10; ++seed) {
    gen::RandomQuerySpec spec;
    spec.seed = uint64_t(seed);
    spec.atoms = 4;
    spec.variable_pool = 3;
    spec.constant_pool = 2;
    spec.arity = 1;
    spec.with_constraints = true;
    corpus.push_back(
        gen::MakeRandomQuery(world, spec, "rand" + std::to_string(seed)));
  }

  const DependencySet sigma = MakeSigmaFLDependencies(world);
  for (const ConjunctiveQuery& query : corpus) {
    ResumableChase resumable(world, query, sigma);
    for (int level : kSteps) {
      const ChaseResult& resumed = resumable.EnsureLevel(level);
      ChaseOptions fresh_options;
      fresh_options.max_level = level;
      ChaseResult fresh = ChaseQuery(world, query, fresh_options);
      EXPECT_TRUE(ChasesIsomorphic(resumed, fresh))
          << query.name() << " at level " << level << ": resumed "
          << resumed.size() << " conjuncts ("
          << ChaseOutcomeName(resumed.outcome()) << "), fresh "
          << fresh.size() << " conjuncts ("
          << ChaseOutcomeName(fresh.outcome()) << ")";
    }
    EXPECT_TRUE(resumable.started());
  }
}

TEST(ResumableChaseTest, EnsureLevelIsMonotoneAndIdempotent) {
  World world;
  ConjunctiveQuery cycle = gen::MakeMandatoryCycleQuery(world, 2, "cycle");
  const DependencySet sigma = MakeSigmaFLDependencies(world);
  ResumableChase resumable(world, cycle, sigma);

  const ChaseResult& at4 = resumable.EnsureLevel(4);
  EXPECT_EQ(at4.outcome(), ChaseOutcome::kLevelCapped);
  uint32_t size_at4 = at4.size();
  EXPECT_EQ(resumable.deepen_count(), 0u);

  // Same or lower level: a const no-op.
  resumable.EnsureLevel(4);
  resumable.EnsureLevel(2);
  EXPECT_EQ(resumable.deepen_count(), 0u);
  EXPECT_EQ(resumable.result().size(), size_at4);

  const ChaseResult& at8 = resumable.EnsureLevel(8);
  EXPECT_EQ(resumable.deepen_count(), 1u);
  EXPECT_GT(at8.size(), size_at4);
  EXPECT_GE(at8.max_level(), 5);
}

// Handles of different queries deepen concurrently over one borrowed
// Sigma_FL and the World's shared null supply (TSan runs this suite): each
// still equals its one-shot chase, and no null is drawn twice.
TEST(ResumableChaseTest, ConcurrentHandlesShareSigmaAndTheNullSupply) {
  World world;
  std::vector<ConjunctiveQuery> queries;
  for (int k = 1; k <= 4; ++k) {
    queries.push_back(gen::MakeMandatoryCycleQuery(
        world, k, "cycle" + std::to_string(k)));
  }
  const DependencySet sigma = MakeSigmaFLDependencies(world);
  std::vector<ResumableChase> handles;
  for (const ConjunctiveQuery& query : queries) {
    handles.emplace_back(world, query, sigma);
  }
  std::vector<std::thread> threads;
  for (ResumableChase& handle : handles) {
    threads.emplace_back([&handle] {
      for (int level : {3, 8, 14}) handle.EnsureLevel(level);
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::map<Term, size_t> owner;
  for (size_t i = 0; i < handles.size(); ++i) {
    const ChaseResult& resumed = handles[i].result();
    ChaseOptions fresh_options;
    fresh_options.max_level = 14;
    EXPECT_TRUE(ChasesIsomorphic(
        resumed, ChaseQuery(world, queries[i], fresh_options)))
        << queries[i].name();
    EXPECT_EQ(handles[i].deepen_count(), 2u) << queries[i].name();
    for (const Atom& atom : resumed.conjuncts().atoms()) {
      for (Term t : atom) {
        if (!t.IsNull()) continue;
        auto [it, inserted] = owner.emplace(t, i);
        EXPECT_EQ(it->second, i) << "null shared by two chases";
      }
    }
  }
  EXPECT_GT(owner.size(), handles.size());
}

TEST(ResumableChaseTest, CompletedChaseNeverDeepens) {
  World world;
  // No mandatory atoms: the chase completes at level 0.
  ConjunctiveQuery q = Q(world, "q(X) :- member(X, C), sub(C, D).");
  const DependencySet sigma = MakeSigmaFLDependencies(world);
  ResumableChase resumable(world, q, sigma);
  const ChaseResult& result = resumable.EnsureLevel(3);
  EXPECT_EQ(result.outcome(), ChaseOutcome::kCompleted);
  resumable.EnsureLevel(100);
  EXPECT_EQ(resumable.deepen_count(), 0u);
}

// ---- resource governance (DESIGN.md §11) --------------------------------

// q() :- sub(c1,c2), sub(c2,c3), ..., sub(cn,c_{n+1}). The rho_2
// transitivity closure materializes ~n^2/2 level-0 conjuncts, so a long
// chain makes the chase stage deliberately expensive while staying
// completely free of member/data/type atoms.
ConjunctiveQuery MakeSubChainQuery(World& world, int n,
                                   const std::string& name) {
  std::vector<Atom> body;
  Term prev = world.MakeConstant(name + "_c1");
  for (int i = 1; i <= n; ++i) {
    Term next = world.MakeConstant(name + "_c" + std::to_string(i + 1));
    body.push_back(Atom::Sub(prev, next));
    prev = next;
  }
  return ConjunctiveQuery(name, {}, std::move(body));
}

TEST(GovernedEngineTest, ChaseAtomBudgetYieldsUnknownOnlyWhereInconclusive) {
  World world;
  BatchContainmentOptions options;
  options.jobs = 1;
  // Far below what the cycle's Theorem 12 bound materializes, but enough
  // for the small member queries to chase to completion.
  options.containment.max_chase_atoms = 10;
  // The signature filter would discharge (cycle, sub_probe) outright (sub
  // is never derivable from the cycle's predicates) — sound, but this
  // test is specifically about inconclusive truncated prefixes, so keep
  // the pair on the chase path. Stage-0/governor interplay has its own
  // tests below.
  options.containment.use_signature_index = false;
  ContainmentEngine engine(world, options);

  Result<size_t> cycle =
      engine.AddQuery(gen::MakeMandatoryCycleQuery(world, 2, "cycle"));
  Result<size_t> sub_probe = engine.AddQuery(Q(world, "p() :- sub(X, Y)."));
  Result<size_t> mandatory_probe =
      engine.AddQuery(Q(world, "p0() :- mandatory(A, B)."));
  Result<size_t> member_sub =
      engine.AddQuery(Q(world, "s1() :- member(X, C), sub(C, D)."));
  Result<size_t> member_only =
      engine.AddQuery(Q(world, "s0() :- member(X, C)."));
  ASSERT_TRUE(cycle.ok() && sub_probe.ok() && mandatory_probe.ok() &&
              member_sub.ok() && member_only.ok());

  std::vector<std::pair<size_t, size_t>> pairs = {
      {*cycle, *sub_probe},        // truncated prefix, no hom -> UNKNOWN
      {*cycle, *mandatory_probe},  // hom into the truncated prefix
      {*member_sub, *member_only},  // untripped definite positive
      {*member_only, *member_sub},  // untripped definite negative
  };
  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();

  // The cycle's chase tripped the atom budget and sub(X, Y) never embeds
  // in the prefix (no chase rule invents sub facts), so "not contained"
  // would be unsound: the verdict degrades to UNKNOWN(chase-atoms).
  EXPECT_EQ((*verdicts)[0].resolution, Resolution::kUnknown);
  EXPECT_EQ((*verdicts)[0].unknown_reason, TripReason::kChaseAtomBudget);
  EXPECT_FALSE((*verdicts)[0].contained);

  // Same truncated prefix, but mandatory(A, B) maps into the retained
  // body atoms: a homomorphism into any prefix is a sound positive.
  EXPECT_EQ((*verdicts)[1].resolution, Resolution::kContained);
  EXPECT_TRUE((*verdicts)[1].contained);

  // Pairs whose chases completed keep their definite verdicts.
  EXPECT_EQ((*verdicts)[2].resolution, Resolution::kContained);
  EXPECT_EQ((*verdicts)[3].resolution, Resolution::kNotContained);

  EXPECT_EQ(engine.stats().unknown_pairs, 1u);
  EXPECT_EQ(engine.stats().timed_out_pairs, 0u);
  EXPECT_EQ(engine.stats().cancelled_pairs, 0u);
}

// The fixed random graph behind testdata/hard_3col.fl, regenerated with
// the same Park–Miller LCG: finding a homomorphism into the K3 query's
// canonical database means 3-coloring a 40-vertex graph at the chromatic
// phase transition — minutes of backtracking, far beyond any test-scale
// budget, yet fully deterministic.
std::string HardGraphQuery(uint64_t seed) {
  constexpr int kVertices = 40;
  constexpr int kEdges = 95;
  auto next = [&seed] {
    seed = seed * 16807 % 2147483647;
    return uint32_t(seed);
  };
  std::map<std::pair<int, int>, bool> used;
  std::string text = "g(V0) :- ";
  int count = 0;
  while (count < kEdges) {
    int u = int(next() % kVertices);
    int v = int(next() % kVertices);
    if (u == v) continue;
    std::pair<int, int> key = u < v ? std::pair{u, v} : std::pair{v, u};
    if (used[key]) continue;
    used[key] = true;
    if (count > 0) text += ", ";
    text += "e(V" + std::to_string(u) + ", V" + std::to_string(v) +
            "), e(V" + std::to_string(v) + ", V" + std::to_string(u) + ")";
    ++count;
  }
  text += ".";
  return text;
}

// Governor promptness: a pair whose budget trips must free its worker
// slot for the rest of the batch — two runaway pairs on a two-worker
// fan-out degrade to typed UNKNOWNs within their own slices while every
// cheap pair still gets decided, and the cheap pairs' queue wait stays
// bounded by the runaway pairs' budget, not their true (minutes-scale)
// cost.
TEST(GovernedEngineTest, TimedOutPairsFreeWorkersPromptly) {
  World world;
  BatchContainmentOptions options;
  options.jobs = 2;
  // No signature filter to discharge anything before the governed stages
  // (it would also skew the queue_wait sample count below).
  options.containment.use_signature_index = false;
  options.containment.budget.timeout_ms = 500;
  ContainmentEngine engine(world, options);

  Result<size_t> k3 = engine.AddQuery(
      Q(world,
        "h(A) :- e(A, B), e(B, A), e(B, C), e(C, B), e(C, A), e(A, C)."));
  Result<size_t> g1 = engine.AddQuery(Q(world, HardGraphQuery(7).c_str()));
  Result<size_t> g2 = engine.AddQuery(Q(world, HardGraphQuery(11).c_str()));
  ASSERT_TRUE(k3.ok() && g1.ok() && g2.ok());
  std::vector<ConjunctiveQuery> cheap = Workload(world);
  std::vector<size_t> ids;
  for (const ConjunctiveQuery& query : cheap) {
    Result<size_t> id = engine.AddQuery(query);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  // Both runaway pairs first, so they grab both workers before any cheap
  // pair is picked up.
  std::vector<std::pair<size_t, size_t>> pairs = {{*k3, *g1}, {*k3, *g2}};
  const size_t n_hard = pairs.size();
  for (size_t i = 0; i < ids.size(); ++i) {
    pairs.push_back({ids[i], ids[(i + 1) % ids.size()]});
  }
  const size_t n_cheap = pairs.size() - n_hard;

  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();

  for (size_t i = 0; i < n_hard; ++i) {
    EXPECT_EQ((*verdicts)[i].resolution, Resolution::kUnknown) << i;
    EXPECT_EQ((*verdicts)[i].unknown_reason, TripReason::kDeadlineExceeded)
        << i;
  }
  for (size_t i = n_hard; i < pairs.size(); ++i) {
    EXPECT_NE((*verdicts)[i].resolution, Resolution::kUnknown) << i;
  }

  const BatchStats& stats = engine.stats();
  EXPECT_EQ(stats.timed_out_pairs, n_hard);
  EXPECT_EQ(stats.cancelled_pairs, 0u);
  EXPECT_EQ(stats.unknown_pairs, n_hard);
  // Decided pairs only: exactly the cheap ones.
  EXPECT_EQ(stats.queue_wait.samples, n_cheap);
  // Each runaway pair holds a worker for at most ~2x timeout_ms (the
  // budget re-anchors per stage); behind that the queue drains in
  // microseconds. 2500 ms of headroom keeps this robust on loaded CI
  // machines while still proving the slot was freed by the governor, not
  // by the search finishing.
  EXPECT_LT(stats.queue_wait.max_ms, 2500.0);
}

TEST(GovernedEngineTest, CancelLatchesAcrossBatchesUntilReset) {
  World world;
  BatchContainmentOptions options;
  options.jobs = 1;
  ContainmentEngine engine(world, options);
  ASSERT_TRUE(
      engine.AddQuery(Q(world, "s1() :- member(X, C), sub(C, D).")).ok());
  ASSERT_TRUE(engine.AddQuery(Q(world, "s0() :- member(X, C).")).ok());

  engine.Cancel();
  EXPECT_TRUE(engine.cancel_requested());
  Result<std::vector<std::vector<PairVerdict>>> cancelled = engine.CheckAll();
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_EQ((*cancelled)[0][1].resolution, Resolution::kUnknown);
  EXPECT_EQ((*cancelled)[0][1].unknown_reason, TripReason::kCancelled);
  EXPECT_EQ((*cancelled)[1][0].resolution, Resolution::kUnknown);
  EXPECT_EQ((*cancelled)[1][0].unknown_reason, TripReason::kCancelled);
  EXPECT_EQ(engine.stats().cancelled_pairs, 2u);

  engine.ResetCancel();
  EXPECT_FALSE(engine.cancel_requested());
  Result<std::vector<std::vector<PairVerdict>>> verdicts = engine.CheckAll();
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  EXPECT_EQ((*verdicts)[0][1].resolution, Resolution::kContained);
  EXPECT_EQ((*verdicts)[1][0].resolution, Resolution::kNotContained);
  EXPECT_EQ(engine.stats().cancelled_pairs, 2u);
}

// TSan-runnable: Cancel() flips an atomic observed by the chase governor
// on the checking thread; no other state is shared.
TEST(GovernedEngineTest, CancelFromAnotherThreadStopsTheBatchPromptly) {
  World world;
  BatchContainmentOptions options;
  options.jobs = 1;
  // Make the atom budget a non-factor: only cancellation may stop this.
  options.containment.max_chase_atoms = 10'000'000;
  // No signature filter: it would discharge the pair before the chase
  // starts (and its registration probe would front-load the ~2M-atom
  // closure before the canceller thread exists).
  options.containment.use_signature_index = false;
  ContainmentEngine engine(world, options);
  Result<size_t> chain = engine.AddQuery(MakeSubChainQuery(world, 2000, "cn"));
  Result<size_t> probe = engine.AddQuery(Q(world, "p() :- member(X, C)."));
  ASSERT_TRUE(chain.ok() && probe.ok());
  std::vector<std::pair<size_t, size_t>> pairs = {{*chain, *probe}};

  auto start = std::chrono::steady_clock::now();
  std::thread canceller([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    engine.Cancel();
  });
  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
  canceller.join();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  EXPECT_EQ((*verdicts)[0].resolution, Resolution::kUnknown);
  EXPECT_EQ((*verdicts)[0].unknown_reason, TripReason::kCancelled);
  EXPECT_EQ(engine.stats().cancelled_pairs, 1u);
  // The ~2M-atom transitivity closure is abandoned within a governor
  // stride of the Cancel(); the generous bound keeps slow CI green while
  // still ruling out "ran to completion anyway".
  EXPECT_LT(elapsed.count(), 10'000);
}

// The ISSUE's acceptance scenario: one deliberately pathological pair
// under a 200ms budget degrades to UNKNOWN(deadline) in bounded time
// while every other pair in the same batch keeps its definite verdict.
TEST(GovernedEngineTest, DeadlineTripIsolatedToPathologicalPair) {
  World world;
  BatchContainmentOptions options;
  options.jobs = 1;
  options.containment.max_chase_atoms = 10'000'000;
  options.containment.budget.timeout_ms = 200;
  // The signature filter would settle (chain, probe) definitively from
  // the static closure (member is never derivable from sub atoms); this
  // test needs the pair to actually hit its deadline.
  options.containment.use_signature_index = false;
  ContainmentEngine engine(world, options);

  Result<size_t> chain = engine.AddQuery(MakeSubChainQuery(world, 2000, "cn"));
  Result<size_t> probe = engine.AddQuery(Q(world, "p() :- member(X, C)."));
  Result<size_t> member_sub =
      engine.AddQuery(Q(world, "s1() :- member(X, C), sub(C, D)."));
  Result<size_t> member_only =
      engine.AddQuery(Q(world, "s0() :- member(X, C)."));
  ASSERT_TRUE(chain.ok() && probe.ok() && member_sub.ok() &&
              member_only.ok());

  // Pathological pair in the middle: isolation, not ordering, must save
  // the definite pairs. Each pair re-anchors its own 200ms slices.
  std::vector<std::pair<size_t, size_t>> pairs = {
      {*member_sub, *member_only},
      {*chain, *probe},
      {*member_only, *member_sub},
  };
  auto start = std::chrono::steady_clock::now();
  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();

  // The chain's ~2M-atom closure cannot finish inside 200ms; its prefix
  // holds no member facts, so the probe finds no sound positive either.
  EXPECT_EQ((*verdicts)[1].resolution, Resolution::kUnknown);
  EXPECT_EQ((*verdicts)[1].unknown_reason, TripReason::kDeadlineExceeded);

  EXPECT_EQ((*verdicts)[0].resolution, Resolution::kContained);
  EXPECT_EQ((*verdicts)[2].resolution, Resolution::kNotContained);

  EXPECT_EQ(engine.stats().unknown_pairs, 1u);
  EXPECT_EQ(engine.stats().timed_out_pairs, 1u);
  // Bounded: the pathological pair consumes at most ~2x its 200ms budget
  // (chase slice + hom slice); the rest of the batch is trivial.
  EXPECT_LT(elapsed.count(), 10'000);
}

// ---- signature stage / governor interplay --------------------------------

TEST(GovernedEngineTest, PrunedPairConsumesNoHomStepBudget) {
  World world;
  BatchContainmentOptions options;
  options.jobs = 1;
  // A budget so small that ANY homomorphism search would trip it into
  // kUnknown at its first stride check.
  options.containment.budget.hom_step_budget = 1;
  ContainmentEngine engine(world, options);

  // funct is never derivable from member atoms, so the signature filter
  // discharges (lhs, rhs) before either stage.
  Result<size_t> lhs = engine.AddQuery(Q(world, "a() :- member(X, C)."));
  Result<size_t> rhs = engine.AddQuery(Q(world, "b() :- funct(A, O)."));
  ASSERT_TRUE(lhs.ok() && rhs.ok());

  std::vector<std::pair<size_t, size_t>> pairs = {{*lhs, *rhs}};
  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();

  // Definite kNotContained — not kUnknown(hom-steps) — with zero search
  // effort: the pair never reached the hom stage, so the one-step budget
  // was never consumed.
  EXPECT_TRUE((*verdicts)[0].pruned);
  EXPECT_EQ((*verdicts)[0].resolution, Resolution::kNotContained);
  EXPECT_EQ((*verdicts)[0].unknown_reason, TripReason::kNone);
  EXPECT_EQ(engine.stats().hom.nodes_visited +
                engine.stats().hom_degraded.nodes_visited,
            0u);
  EXPECT_EQ(engine.stats().pruned_pairs, 1u);
  EXPECT_EQ(engine.stats().chase_requests, 0u);
  EXPECT_EQ(engine.stats().unknown_pairs, 0u);
}

TEST(GovernedEngineTest, SignatureStageDeadlineDegradesToUnknown) {
  World world;
  BatchContainmentOptions options;
  options.jobs = 1;
  // An already-expired deadline: every stage's governor trips on its
  // first CheckNow.
  options.containment.budget.deadline = Deadline::AfterMillis(0);
  ContainmentEngine engine(world, options);

  // Absent the trip this pair WOULD be discharged (funct never derivable
  // from member): a tripped stage-0 governor must degrade it to kUnknown,
  // never cash in the (still sound, but unattempted) definite verdict.
  Result<size_t> lhs = engine.AddQuery(Q(world, "a() :- member(X, C)."));
  Result<size_t> rhs = engine.AddQuery(Q(world, "b() :- funct(A, O)."));
  ASSERT_TRUE(lhs.ok() && rhs.ok());

  std::vector<std::pair<size_t, size_t>> pairs = {{*lhs, *rhs}};
  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();

  EXPECT_FALSE((*verdicts)[0].pruned);
  EXPECT_EQ((*verdicts)[0].resolution, Resolution::kUnknown);
  EXPECT_EQ((*verdicts)[0].unknown_reason, TripReason::kDeadlineExceeded);
  EXPECT_EQ(engine.stats().pruned_pairs, 0u);
  EXPECT_EQ(engine.stats().unknown_pairs, 1u);
  EXPECT_EQ(engine.stats().timed_out_pairs, 1u);
}

// ---- a deeper pair's atom-budget trip stays with that pair ------------------

// One row, a 2-cycle's, at 60 chase atoms: (cycle, shallow) needs level 8,
// which fits the budget, and (cycle, deep) needs level 48, which does not.
// The row's chase keeps its complete level-8 prefix after the deep pair's
// deepening runs out of atoms, so the shallow pair is a definite
// NOT_CONTAINED in either order, as a one-shot CheckContainment says.
constexpr uint64_t kRowAtomBudget = 60;
constexpr const char* kShallowCycleProbe = "s() :- type(X, q_a2, X).";

void ExpectShallowPairStaysDefinite(bool signature_index, bool deep_first) {
  World world;
  const ConjunctiveQuery cycle = gen::MakeMandatoryCycleQuery(world, 2, "q");
  const ConjunctiveQuery shallow = Q(world, kShallowCycleProbe);
  const ConjunctiveQuery deep = gen::MakeDataChainProbe(world, 6);
  ContainmentOptions one_shot;
  one_shot.max_chase_atoms = kRowAtomBudget;
  Result<ContainmentResult> alone =
      CheckContainment(world, cycle, shallow, one_shot);
  ASSERT_TRUE(alone.ok()) << alone.status().ToString();
  ASSERT_EQ(alone->resolution, Resolution::kNotContained);

  BatchContainmentOptions options;
  options.jobs = 1;
  options.containment.max_chase_atoms = kRowAtomBudget;
  options.containment.use_signature_index = signature_index;
  ContainmentEngine engine(world, options);
  Result<size_t> cycle_id = engine.AddQuery(cycle);
  Result<size_t> shallow_id = engine.AddQuery(shallow);
  Result<size_t> deep_id = engine.AddQuery(deep);
  ASSERT_TRUE(cycle_id.ok() && shallow_id.ok() && deep_id.ok());
  std::vector<std::pair<size_t, size_t>> pairs = {{*cycle_id, *shallow_id},
                                                  {*cycle_id, *deep_id}};
  if (deep_first) std::swap(pairs[0], pairs[1]);
  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  const PairVerdict& to_shallow = (*verdicts)[deep_first ? 1 : 0];
  const PairVerdict& to_deep = (*verdicts)[deep_first ? 0 : 1];

  EXPECT_EQ(to_deep.level_bound, 48);
  EXPECT_EQ(to_deep.resolution, Resolution::kUnknown);
  EXPECT_EQ(to_deep.unknown_reason, TripReason::kChaseAtomBudget);
  EXPECT_EQ(to_shallow.level_bound, 8);
  EXPECT_EQ(to_shallow.resolution, Resolution::kNotContained)
      << "unknown_reason " << TripReasonName(to_shallow.unknown_reason);
  // The signature index probes all three queries. Deep first, the shallow
  // pair's chase from scratch is one more run.
  EXPECT_EQ(engine.stats().chases_run,
            (signature_index ? 3u : 1u) + (deep_first ? 1u : 0u));
}

TEST(RowBudgetTest, ShallowPairBeforeDeepPairIsDefinite) {
  ExpectShallowPairStaysDefinite(/*signature_index=*/false,
                                 /*deep_first=*/false);
  ExpectShallowPairStaysDefinite(/*signature_index=*/true,
                                 /*deep_first=*/false);
}

TEST(RowBudgetTest, ShallowPairAfterDeepPairIsDefinite) {
  ExpectShallowPairStaysDefinite(/*signature_index=*/false,
                                 /*deep_first=*/true);
  ExpectShallowPairStaysDefinite(/*signature_index=*/true,
                                 /*deep_first=*/true);
}

// The handle itself: a deepening that runs out of atoms keeps the level
// its last capped run completed.
TEST(ResumableChaseTest, CompleteLevelSurvivesABudgetTrip) {
  World world;
  DependencySet sigma = MakeSigmaFLDependencies(world);
  ChaseOptions options;
  options.max_atoms = kRowAtomBudget;
  ResumableChase resumable(
      world, gen::MakeMandatoryCycleQuery(world, 2, "q"), sigma, options);
  resumable.EnsureLevel(8);
  ASSERT_EQ(resumable.result().outcome(), ChaseOutcome::kLevelCapped);
  EXPECT_EQ(resumable.complete_level(), 8);
  resumable.EnsureLevel(48);
  ASSERT_EQ(resumable.result().outcome(), ChaseOutcome::kBudgetExceeded);
  EXPECT_EQ(resumable.complete_level(), 8);
}

// A handle whose first run ran out of atoms chases a shallower level
// again from scratch, and keeps that chase when it completes the level.
TEST(ResumableChaseTest, ShallowerLevelAfterABudgetTripIsChasedAgain) {
  World world;
  DependencySet sigma = MakeSigmaFLDependencies(world);
  ChaseOptions options;
  options.max_atoms = kRowAtomBudget;
  ResumableChase resumable(
      world, gen::MakeMandatoryCycleQuery(world, 2, "q"), sigma, options);
  resumable.EnsureLevel(48);
  ASSERT_EQ(resumable.result().outcome(), ChaseOutcome::kBudgetExceeded);
  EXPECT_EQ(resumable.complete_level(), -1);
  resumable.EnsureLevel(8);
  EXPECT_EQ(resumable.result().outcome(), ChaseOutcome::kLevelCapped);
  EXPECT_EQ(resumable.complete_level(), 8);
  EXPECT_EQ(resumable.run_count(), 2u);
  EXPECT_EQ(resumable.deepen_count(), 0u);
  // At or past the cap of the run that ran out, a chase would run out too:
  // the level-8 chase is marked out of atoms without running.
  resumable.EnsureLevel(48);
  resumable.EnsureLevel(60);
  EXPECT_EQ(resumable.result().outcome(), ChaseOutcome::kBudgetExceeded);
  EXPECT_EQ(resumable.complete_level(), 8);
  EXPECT_EQ(resumable.run_count(), 2u);
  EXPECT_EQ(resumable.deepen_count(), 0u);
}

// At 60 atoms the 2-cycle's chase fits up to level 21 and runs out from
// level 22 on. A run that runs out is remembered: no later level at or
// above its cap runs anything, and each chase narrows the levels between
// the complete prefix and the lowest exhausted one.
TEST(ResumableChaseTest, ExhaustedLevelIsNeverChasedAgain) {
  World world;
  DependencySet sigma = MakeSigmaFLDependencies(world);
  ChaseOptions options;
  options.max_atoms = kRowAtomBudget;
  ResumableChase resumable(
      world, gen::MakeMandatoryCycleQuery(world, 2, "q"), sigma, options);
  resumable.EnsureLevel(48);
  resumable.EnsureLevel(30);  // a re-chase that runs out too
  EXPECT_EQ(resumable.run_count(), 2u);
  for (int level : {30, 40, 48}) resumable.EnsureLevel(level);
  EXPECT_EQ(resumable.run_count(), 2u);
  EXPECT_EQ(resumable.deepen_count(), 0u);
  EXPECT_EQ(resumable.complete_level(), -1);
  EXPECT_EQ(resumable.result().outcome(), ChaseOutcome::kBudgetExceeded);

  resumable.EnsureLevel(12);  // fits: replaces the exhausted chase
  EXPECT_EQ(resumable.run_count(), 3u);
  EXPECT_EQ(resumable.complete_level(), 12);
  resumable.EnsureLevel(40);  // above 30: marked, not run
  EXPECT_EQ(resumable.result().outcome(), ChaseOutcome::kBudgetExceeded);
  EXPECT_EQ(resumable.run_count(), 3u);
  EXPECT_EQ(resumable.deepen_count(), 0u);
  resumable.EnsureLevel(20);  // chased again from scratch within the budget
  EXPECT_EQ(resumable.run_count(), 4u);
  EXPECT_EQ(resumable.complete_level(), 20);
  resumable.EnsureLevel(25);  // deepens and runs out
  EXPECT_EQ(resumable.result().outcome(), ChaseOutcome::kBudgetExceeded);
  EXPECT_EQ(resumable.deepen_count(), 1u);
  resumable.EnsureLevel(22);  // a re-chase between 20 and 25 runs out
  EXPECT_EQ(resumable.run_count(), 5u);
  for (int level : {8, 20, 22, 24, 25, 48}) resumable.EnsureLevel(level);
  EXPECT_EQ(resumable.run_count(), 5u);
  EXPECT_EQ(resumable.deepen_count(), 1u);
  EXPECT_EQ(resumable.complete_level(), 20);
}

// ---- a chase stopped while it seeds q1's body ------------------------------

// With max_chase_atoms = 1 the chase of q1 stops while it inserts q1's two
// body atoms. The prefix must still carry q1's head, which the hom search
// seeds from: no abort, and never a definite NOT_CONTAINED.
constexpr const char* kSeedingQ1 = "q(X) :- member(X, C), sub(C, D).";
constexpr const char* kSeedingQ2 = "q(X) :- member(X, C).";

TEST(SeedingBudgetTest, CheckContainmentKeepsTheHead) {
  World world;
  ContainmentOptions options;
  options.max_chase_atoms = 1;
  Result<ContainmentResult> result = CheckContainment(
      world, Q(world, kSeedingQ1), Q(world, kSeedingQ2), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->chase.head().size(), 1u);
  EXPECT_NE(result->resolution, Resolution::kNotContained);
}

TEST(SeedingBudgetTest, CheckUnderDependenciesKeepsTheHead) {
  World world;
  Result<DependencySet> deps = ParseDependencies(
      world, "member(O, D) :- member(O, C), sub(C, D).");
  ASSERT_TRUE(deps.ok());
  ContainmentOptions options;
  options.max_chase_atoms = 1;
  Result<ContainmentResult> result = CheckContainmentUnderDependencies(
      world, Q(world, kSeedingQ1), Q(world, kSeedingQ2), *deps, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->chase.head().size(), 1u);
  EXPECT_NE(result->resolution, Resolution::kNotContained);
}

TEST(SeedingBudgetTest, CheckPairsKeepsTheHead) {
  World world;
  BatchContainmentOptions options;
  options.jobs = 1;
  options.containment.max_chase_atoms = 1;
  ContainmentEngine engine(world, options);
  Result<size_t> q1 = engine.AddQuery(Q(world, kSeedingQ1));
  Result<size_t> q2 = engine.AddQuery(Q(world, kSeedingQ2));
  ASSERT_TRUE(q1.ok() && q2.ok());
  std::vector<std::pair<size_t, size_t>> pairs = {{*q1, *q2}, {*q2, *q1}};
  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  EXPECT_NE((*verdicts)[0].resolution, Resolution::kNotContained);
}

// ---- the World does not grow per chase ---------------------------------------

TEST(WorldGrowthTest, ChasesAndRegistrationsInternOnlyRenamedVariables) {
  World world;
  ConjunctiveQuery q =
      Q(world, "q(X) :- member(X, C), mandatory(A, C), type(C, A, T).");
  ChaseQuery(world, q);
  const uint32_t after_first = world.variable_count();
  for (int i = 0; i < 100; ++i) ChaseQuery(world, q);
  EXPECT_EQ(world.variable_count(), after_first);

  // A registration renames the query's four variables apart and chases it.
  ContainmentEngine engine(world);
  for (int i = 0; i < 100; ++i) {
    const uint32_t before = world.variable_count();
    ASSERT_TRUE(engine.AddQuery(q).ok());
    ASSERT_EQ(world.variable_count(), before + 4) << "registration " << i;
  }
}

}  // namespace
}  // namespace floq
