// Extension experiment GX: the one chase engine on Sigma_FL's mandatory
// cycles and on a weakly acyclic user schema, the regime where the chase
// is a complete decision procedure for containment.

#include <benchmark/benchmark.h>

#include "chase/chase.h"
#include "chase/dependencies.h"
#include "containment/containment.h"
#include "gen/generators.h"
#include "query/parser.h"
#include "term/world.h"
#include "util/strings.h"

namespace {

using namespace floq;

void BM_SigmaFL(benchmark::State& state) {
  const int k = int(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    World world;
    ConjunctiveQuery q = gen::MakeMandatoryCycleQuery(world, k);
    state.ResumeTiming();
    ChaseOptions options;
    options.max_level = 12;
    ChaseResult chase = ChaseQuery(world, q, options);
    benchmark::DoNotOptimize(chase.size());
    state.counters["conjuncts"] = chase.size();
  }
}
BENCHMARK(BM_SigmaFL)->Arg(1)->Arg(4)->Arg(16);

// A weakly acyclic user schema: employee/department/project layers.
void BM_WeaklyAcyclicUserSet(benchmark::State& state) {
  const int employees = int(state.range(0));
  World world;
  Result<DependencySet> deps = ParseDependencies(world, R"(
    person(X) :- employee(X).
    works_in(X, D) :- employee(X).
    dept(D) :- works_in(X, D).
    led_by(D, M) :- dept(D).
    person(M) :- led_by(D, M).
    M1 = M2 :- led_by(D, M1), led_by(D, M2).
  )");
  if (!deps.ok()) return;
  std::vector<Atom> facts;
  PredicateId employee = world.predicates().Intern("employee", 1);
  for (int i = 0; i < employees; ++i) {
    facts.push_back(Atom(employee, {world.MakeConstant(StrCat("e", i))}));
  }
  for (auto _ : state) {
    ChaseResult chase = ChaseFacts(world, facts, *deps);
    benchmark::DoNotOptimize(chase.size());
    state.counters["conjuncts"] = chase.size();
  }
}
BENCHMARK(BM_WeaklyAcyclicUserSet)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_UserDependencyContainment(benchmark::State& state) {
  World world;
  Result<DependencySet> deps = ParseDependencies(world, R"(
    person(X) :- employee(X).
    works_in(X, D) :- employee(X).
    dept(D) :- works_in(X, D).
  )");
  if (!deps.ok()) return;
  ConjunctiveQuery q1 = *ParseQuery(world, "q(X) :- employee(X).");
  ConjunctiveQuery q2 = *ParseQuery(
      world, "q(X) :- person(X), works_in(X, D), dept(D).");
  for (auto _ : state) {
    Result<ContainmentResult> result =
        CheckContainmentUnderDependencies(world, q1, q2, *deps);
    benchmark::DoNotOptimize(result.ok() && result->contained);
  }
}
BENCHMARK(BM_UserDependencyContainment);

}  // namespace

BENCHMARK_MAIN();
