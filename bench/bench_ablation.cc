// The chase's semi-naive delta windows, timed on Example-2 chains and on a
// wide level-0 saturation. EXPERIMENTS.md ("Ablations") keeps the last
// numbers of the arms whose toggles were removed.

#include <benchmark/benchmark.h>

#include <string>

#include "chase/chase.h"
#include "query/parser.h"
#include "term/world.h"
#include "util/strings.h"

namespace {

using namespace floq;

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
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
