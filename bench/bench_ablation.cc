// Ablation of most-constrained-first dynamic atom ordering in the
// homomorphism search (vs naive left-to-right); tests assert identical
// results. The chase arms time the chase's semi-naive delta windows on
// Example-2 chains and on a wide level-0 saturation.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "chase/chase.h"
#include "containment/homomorphism.h"
#include "gen/generators.h"
#include "util/rng.h"
#include "query/parser.h"
#include "term/world.h"
#include "util/strings.h"

namespace {

using namespace floq;

// Adversarial workload for the ordering ablation: the target is the
// level-0 chase of several disjoint attribute chains (lots of
// similar-looking distractor conjuncts) and the probe's atoms are
// deterministically shuffled, so a left-to-right strategy starts from an
// unselective atom while the dynamic strategy follows the join structure.
ConjunctiveQuery MakeShuffledProbe(World& world, const ConjunctiveQuery& q,
                                   uint64_t seed) {
  // Boolean probe (empty head): with no head seed the search is
  // unanchored, which is where the ordering strategy matters.
  ConjunctiveQuery probe = q.RenameApart(world);
  std::vector<Atom> body = probe.body();
  Rng rng(seed);
  for (size_t i = body.size(); i > 1; --i) {
    std::swap(body[i - 1], body[rng.Below(i)]);
  }
  return ConjunctiveQuery(probe.name(), {}, std::move(body));
}

ConjunctiveQuery MakeChainWithDistractors(World& world, int hops) {
  ConjunctiveQuery main_chain =
      gen::MakeAttributeChainQuery(world, hops, true, "main");
  std::vector<Atom> body = main_chain.body();
  for (int d = 0; d < 3; ++d) {
    ConjunctiveQuery distractor = gen::MakeAttributeChainQuery(
        world, hops, true, StrCat("d", d));
    body.insert(body.end(), distractor.body().begin(),
                distractor.body().end());
  }
  return ConjunctiveQuery("main", main_chain.head(), std::move(body));
}

void PrintOrderingTable() {
  std::printf("== ablation (a): homomorphism search atom ordering "
              "(shuffled boolean probes, 4 chains in target; avg/max over "
              "20 shuffles) ==\n");
  std::printf("%-8s %-12s %-12s %-12s %s\n", "hops", "smart avg",
              "smart max", "naive avg", "naive max");
  for (int hops : {2, 3, 4, 5, 6}) {
    World world;
    ConjunctiveQuery q = MakeChainWithDistractors(world, hops);
    ChaseResult chase = ChaseLevelZero(world, q);

    uint64_t smart_total = 0, naive_total = 0;
    uint64_t smart_max = 0, naive_max = 0;
    const int kShuffles = 20;
    for (int t = 0; t < kShuffles; ++t) {
      ConjunctiveQuery probe = MakeShuffledProbe(
          world, gen::MakeAttributeChainQuery(world, hops, true, "probe"),
          uint64_t(hops * 100 + t));
      MatchStats smart, naive;
      MatchOptions naive_options;
      naive_options.most_constrained_first = false;
      bool found_smart =
          FindQueryHomomorphism(probe, chase.conjuncts(), {}, &smart)
              .has_value();
      bool found_naive =
          FindQueryHomomorphism(probe, chase.conjuncts(), {}, &naive,
                                naive_options)
              .has_value();
      if (found_smart != found_naive) std::printf("VERDICT MISMATCH!\n");
      smart_total += smart.nodes_visited;
      naive_total += naive.nodes_visited;
      smart_max = std::max(smart_max, smart.nodes_visited);
      naive_max = std::max(naive_max, naive.nodes_visited);
    }
    std::printf("%-8d %-12.1f %-12llu %-12.1f %llu\n", hops,
                double(smart_total) / kShuffles,
                (unsigned long long)smart_max,
                double(naive_total) / kShuffles,
                (unsigned long long)naive_max);
  }
  std::printf("\n");
}

void BM_HomOrdering(benchmark::State& state) {
  const bool smart = state.range(1) != 0;
  const int hops = int(state.range(0));
  World world;
  ConjunctiveQuery q = MakeChainWithDistractors(world, hops);
  ChaseResult chase = ChaseLevelZero(world, q);
  ConjunctiveQuery probe = MakeShuffledProbe(
      world, gen::MakeAttributeChainQuery(world, hops, true, "probe"),
      uint64_t(hops));
  MatchOptions options;
  options.most_constrained_first = smart;
  for (auto _ : state) {
    MatchStats stats;
    auto hom = FindQueryHomomorphism(probe, chase.conjuncts(), {},
                                     &stats, options);
    benchmark::DoNotOptimize(hom.has_value());
    state.counters["nodes"] = double(stats.nodes_visited);
  }
}
BENCHMARK(BM_HomOrdering)
    ->ArgNames({"hops", "smart"})
    ->Args({3, 1})->Args({3, 0})->Args({4, 1})->Args({4, 0})
    ->Args({5, 1})->Args({5, 0});

void BM_ChaseDeltaWindows(benchmark::State& state) {
  const int level = int(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    World world;
    ConjunctiveQuery q =
        *ParseQuery(world, "q() :- mandatory(A, T), type(T, A, T), "
                           "sub(T, U).");
    state.ResumeTiming();
    ChaseOptions options;
    options.max_level = level;
    ChaseResult chase = ChaseQuery(world, q, options);
    benchmark::DoNotOptimize(chase.size());
    state.counters["conjuncts"] = chase.size();
  }
}
BENCHMARK(BM_ChaseDeltaWindows)->ArgName("level")->Arg(16)->Arg(64)->Arg(128);

void BM_KbChaseDeltaWindows(benchmark::State& state) {
  // Delta windows on a wide level-0 saturation (subclass tower).
  const int height = int(state.range(0));
  World world;
  std::string text = "q() :- ";
  for (int i = 0; i < height; ++i) {
    if (i > 0) text += ", ";
    text += StrCat("sub(C", i, ", C", i + 1, ")");
  }
  text += ".";
  ConjunctiveQuery q = *ParseQuery(world, text);
  for (auto _ : state) {
    ChaseOptions options;
    options.max_level = 0;
    ChaseResult chase = ChaseQuery(world, q, options);
    benchmark::DoNotOptimize(chase.size());
  }
}
BENCHMARK(BM_KbChaseDeltaWindows)->ArgName("tower")->Arg(16)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  PrintOrderingTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
