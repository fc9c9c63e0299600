// Experiment E10 — the batch-containment engine. An n-query containment
// matrix asks n(n-1) questions over the same n queries; the engine chases
// each query once (memoized, resumable) and fans the homomorphism
// searches out over `jobs` workers. This benchmark times the same
// 16-query matrices three ways and emits the wall times plus the
// chase-cache statistics as JSON, so the speedups and the
// chases-per-query invariant are machine-checkable:
//
//   * pairwise_baseline — the pre-engine path: CheckContainment per pair,
//     re-chasing the lhs from scratch every time (n(n-1) chases).
//   * engine_jobs1      — the engine, fan-out on the calling thread:
//     isolates the memoization win (n chases).
//   * engine_jobs4      — the engine at --jobs 4: adds the parallel
//     fan-out win. Wall-clock gain requires actual cores, so the report
//     includes hardware_concurrency; on a single-core host this run
//     degenerates to jobs1 plus pool overhead.
//
// Two workloads separate the effects: a chase-heavy matrix (mandatory
// cycles probed at Theorem 12 depths, where the baseline's repeated
// chases dominate) and a search-heavy matrix (dense boolean queries with
// level-0 chases, where the parallelizable homomorphism searches
// dominate).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "containment/containment.h"
#include "containment/engine.h"
#include "gen/generators.h"
#include "term/world.h"
#include "util/check.h"
#include "util/parallel_for.h"

namespace {

using namespace floq;

constexpr int kQueries = 16;

enum class Workload { kChaseHeavy, kSearchHeavy };

// Chase-heavy: mandatory cycles (infinite chases, deepened to the
// Theorem 12 bound of each pair) and data-chain probes (finite level-0
// chases). All boolean, so every pair is checkable.
std::vector<ConjunctiveQuery> MakeChaseHeavy(World& world) {
  std::vector<ConjunctiveQuery> queries;
  queries.reserve(kQueries);
  for (int k = 1; k <= 4; ++k) {
    queries.push_back(
        gen::MakeMandatoryCycleQuery(world, k, "cycle" + std::to_string(k)));
  }
  for (int m = 1; m <= kQueries - 4; ++m) {
    queries.push_back(
        gen::MakeDataChainProbe(world, m, "probe" + std::to_string(m)));
  }
  return queries;
}

// Search-heavy: boolean queries with many atoms over a small variable
// pool (dense joins => deep backtracking), no constraint atoms (the chase
// stays finite and level-0, so the sequential chase phase is negligible
// and the searches dominate).
std::vector<ConjunctiveQuery> MakeSearchHeavy(World& world) {
  std::vector<ConjunctiveQuery> queries;
  queries.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    gen::RandomQuerySpec spec;
    spec.seed = uint64_t(1000 + i);
    spec.atoms = 18;
    spec.variable_pool = 4;
    spec.constant_pool = 0;
    spec.constant_probability = 0.0;
    spec.arity = 0;
    spec.with_constraints = false;
    queries.push_back(
        gen::MakeRandomQuery(world, spec, "m" + std::to_string(i)));
  }
  return queries;
}

std::vector<ConjunctiveQuery> MakeWorkload(World& world, Workload workload) {
  return workload == Workload::kChaseHeavy ? MakeChaseHeavy(world)
                                           : MakeSearchHeavy(world);
}

struct MatrixRun {
  double wall_ms = 0;
  BatchStats stats;
  std::vector<std::vector<bool>> contained;
};

// The engine path in a fresh World (identical interning order makes the
// workloads of different runs identical). jobs == 0 selects the baseline:
// per-pair CheckContainment with no chase reuse.
MatrixRun RunMatrix(Workload workload, int jobs) {
  World world;
  std::vector<ConjunctiveQuery> queries = MakeWorkload(world, workload);
  const size_t n = queries.size();
  MatrixRun run;
  run.contained.assign(n, std::vector<bool>(n, true));

  if (jobs == 0) {
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        Result<ContainmentResult> verdict =
            CheckContainment(world, queries[i], queries[j]);
        FLOQ_CHECK(verdict.ok());
        run.contained[i][j] = verdict->contained;
        ++run.stats.chases_run;  // the baseline chases every pair's lhs
        ++run.stats.chase_requests;
        ++run.stats.pairs_checked;
        run.stats.hom.nodes_visited += verdict->hom_stats.nodes_visited;
      }
    }
    auto stop = std::chrono::steady_clock::now();
    run.wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    return run;
  }

  BatchContainmentOptions options;
  options.jobs = jobs;
  ContainmentEngine engine(world, options);
  for (const ConjunctiveQuery& q : queries) {
    auto id = engine.AddQuery(q);
    FLOQ_CHECK(id.ok());
  }
  auto start = std::chrono::steady_clock::now();
  auto matrix = engine.CheckAll();
  auto stop = std::chrono::steady_clock::now();
  FLOQ_CHECK(matrix.ok());

  run.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  run.stats = engine.stats();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) run.contained[i][j] = (*matrix)[i][j].contained;
    }
  }
  return run;
}

void PrintRunJson(const char* key, const MatrixRun& run, int jobs) {
  const BatchStats& s = run.stats;
  double hit_rate =
      s.chase_requests == 0
          ? 0.0
          : double(s.chase_cache_hits) / double(s.chase_requests);
  double pairs_per_sec =
      run.wall_ms <= 0.0
          ? 0.0
          : double(s.pairs_checked) / (run.wall_ms / 1000.0);
  std::printf(
      "    \"%s\": {\"jobs\": %d, \"wall_ms\": %.3f, \"pairs\": %llu, "
      "\"pairs_per_sec\": %.1f, \"pruned_pairs\": %llu, "
      "\"chase_requests\": %llu, \"chases_run\": %llu, "
      "\"chase_cache_hits\": %llu, \"chase_cache_hit_rate\": %.4f, "
      "\"chase_deepenings\": %llu, \"hom_nodes_visited\": %llu}",
      key, jobs, run.wall_ms, (unsigned long long)s.pairs_checked,
      pairs_per_sec, (unsigned long long)s.pruned_pairs,
      (unsigned long long)s.chase_requests, (unsigned long long)s.chases_run,
      (unsigned long long)s.chase_cache_hits, hit_rate,
      (unsigned long long)s.chase_deepenings,
      (unsigned long long)s.hom.nodes_visited);
}

bool SameVerdicts(const MatrixRun& a, const MatrixRun& b) {
  return a.contained == b.contained;
}

void PrintWorkloadReport(const char* name, Workload workload) {
  // Warm-up: touch every code path once so no timed run pays first-call
  // costs (page faults, lazy allocations).
  RunMatrix(workload, 2);

  MatrixRun baseline = RunMatrix(workload, 0);
  MatrixRun jobs1 = RunMatrix(workload, 1);
  MatrixRun jobs4 = RunMatrix(workload, 4);

  bool agree = SameVerdicts(baseline, jobs1) && SameVerdicts(jobs1, jobs4);

  std::printf("  \"%s\": {\n", name);
  std::printf("    \"queries\": %d,\n", kQueries);
  PrintRunJson("pairwise_baseline", baseline, 0);
  std::printf(",\n");
  PrintRunJson("engine_jobs1", jobs1, 1);
  std::printf(",\n");
  PrintRunJson("engine_jobs4", jobs4, 4);
  std::printf(",\n");
  std::printf("    \"memoization_speedup\": %.3f,\n",
              jobs1.wall_ms > 0 ? baseline.wall_ms / jobs1.wall_ms : 0.0);
  std::printf("    \"parallel_speedup\": %.3f,\n",
              jobs4.wall_ms > 0 ? jobs1.wall_ms / jobs4.wall_ms : 0.0);
  std::printf("    \"verdicts_agree\": %s\n", agree ? "true" : "false");
  std::printf("  }");
}

void PrintReport() {
  std::printf("{\n");
  std::printf("  \"experiment\": \"batch_matrix\",\n");
  std::printf("  \"hardware_concurrency\": %zu,\n",
              DefaultThreads());
  PrintWorkloadReport("chase_heavy", Workload::kChaseHeavy);
  std::printf(",\n");
  PrintWorkloadReport("search_heavy", Workload::kSearchHeavy);
  std::printf("\n}\n");
}

// Wall time of the full matrix at a given fan-out width, for
// --benchmark_filter runs and perf work. Arg 0 is the pairwise baseline.
void BM_BatchMatrixChaseHeavy(benchmark::State& state) {
  int jobs = int(state.range(0));
  uint64_t chases = 0;
  for (auto _ : state) {
    MatrixRun run = RunMatrix(Workload::kChaseHeavy, jobs);
    benchmark::DoNotOptimize(run.contained.size());
    chases += run.stats.chases_run;
  }
  state.counters["chases/op"] =
      benchmark::Counter(double(chases), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BatchMatrixChaseHeavy)
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_BatchMatrixSearchHeavy(benchmark::State& state) {
  int jobs = int(state.range(0));
  for (auto _ : state) {
    MatrixRun run = RunMatrix(Workload::kSearchHeavy, jobs);
    benchmark::DoNotOptimize(run.contained.size());
  }
}
BENCHMARK(BM_BatchMatrixSearchHeavy)
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
