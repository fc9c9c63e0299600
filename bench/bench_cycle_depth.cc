// Experiment E2 — the §4 mandatory-attribute cycles and Theorem 12's
// level bound. chase(cycle_k) is infinite; deciding cycle_k ⊆ probe_m
// (an m-hop data chain) requires materializing only |probe| · 2|cycle|
// levels. The table shows where the verdict crosses over as the level
// override shrinks below the depth the probe actually needs, validating
// that the paper bound is sufficient (and that shallow prefixes are not).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "containment/containment.h"
#include "gen/generators.h"
#include "term/world.h"

namespace {

void PrintCrossoverTable() {
  using namespace floq;
  std::printf("== E2: level bound vs verdict (cycle k=1, probe m hops) ==\n");
  std::printf("%-8s %-12s %-14s %-12s %s\n", "probe m", "paper bound",
              "needed level", "verdict@bound", "shallowest level that works");
  for (int m : {1, 2, 3, 4, 6, 8}) {
    World world;
    ConjunctiveQuery cycle = gen::MakeMandatoryCycleQuery(world, 1);
    ConjunctiveQuery probe = gen::MakeDataChainProbe(world, m);
    int paper_bound = PaperLevelBound(cycle, probe);

    Result<ContainmentResult> at_bound = CheckContainment(world, cycle, probe);
    bool verdict = at_bound.ok() && at_bound->contained;

    int shallowest = -1;
    for (int level = 0; level <= paper_bound; ++level) {
      ContainmentOptions options;
      options.level_override = level;
      Result<ContainmentResult> result =
          CheckContainment(world, cycle, probe, options);
      if (result.ok() && result->contained) {
        shallowest = level;
        break;
      }
    }
    std::printf("%-8d %-12d %-14d %-12s %d\n", m, paper_bound, shallowest,
                verdict ? "CONTAINED" : "no", shallowest);
  }
  std::printf("\n== E2b: chase growth per cycle length k (to paper bound of a "
              "1-hop probe) ==\n");
  std::printf("%-6s %-8s %-12s %-12s %s\n", "k", "bound", "conjuncts",
              "nulls", "outcome");
  for (int k : {1, 2, 4, 8, 16, 32}) {
    World world;
    ConjunctiveQuery cycle = gen::MakeMandatoryCycleQuery(world, k);
    ConjunctiveQuery probe = gen::MakeDataChainProbe(world, 1);
    Result<ContainmentResult> result = CheckContainment(world, cycle, probe);
    if (!result.ok()) {
      std::printf("%-6d error: %s\n", k, result.status().ToString().c_str());
      continue;
    }
    std::printf("%-6d %-8d %-12u %-12llu %s\n", k, result->level_bound,
                result->chase.size(),
                (unsigned long long)result->chase.stats().fresh_nulls,
                ChaseOutcomeName(result->chase.outcome()));
  }
  std::printf("\n");
}

void BM_CycleContainment(benchmark::State& state) {
  using namespace floq;
  const int k = int(state.range(0));
  World world;
  ConjunctiveQuery cycle = gen::MakeMandatoryCycleQuery(world, k);
  ConjunctiveQuery probe = gen::MakeDataChainProbe(world, 2);
  for (auto _ : state) {
    Result<ContainmentResult> result = CheckContainment(world, cycle, probe);
    benchmark::DoNotOptimize(result.ok());
    if (result.ok()) state.counters["chase_atoms"] = result->chase.size();
  }
}
BENCHMARK(BM_CycleContainment)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_CycleChaseToLevel(benchmark::State& state) {
  using namespace floq;
  const int k = int(state.range(0));
  const int level = int(state.range(1));
  World world;
  ConjunctiveQuery cycle = gen::MakeMandatoryCycleQuery(world, k);
  for (auto _ : state) {
    ChaseOptions options;
    options.max_level = level;
    ChaseResult chase = ChaseQuery(world, cycle, options);
    benchmark::DoNotOptimize(chase.size());
    state.counters["conjuncts"] = chase.size();
  }
}
BENCHMARK(BM_CycleChaseToLevel)
    ->Args({2, 16})->Args({2, 64})->Args({8, 16})->Args({8, 64})
    ->Args({32, 16})->Args({32, 64});

}  // namespace

int main(int argc, char** argv) {
  PrintCrossoverTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
