// Experiment E7 — the NP guess in Theorem 13 is realized as indexed
// backtracking. This benchmark probes the search frontier: embedding
// random q2 bodies of growing size and join density into the chase of a
// fixed q1, reporting visited search nodes alongside wall time.
//
// Experiment E11 — the compiled homomorphism kernel (DESIGN.md §9) over a
// generator-corpus grid. Per configuration the report records wall time
// (best of several passes), backtracking nodes, index probes, probes per
// node and matches found. Node and match counts are deterministic, so a
// change to the search shows up in them, not only in the timings.
// Everything is written to BENCH_hom_search.json (and echoed to stdout)
// so the bench trajectory is machine-checkable.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "containment/homomorphism.h"
#include "datalog/match.h"
#include "gen/generators.h"
#include "term/world.h"
#include "util/check.h"
#include "util/rng.h"

namespace {

using namespace floq;

// A q1 whose chase has many interchangeable conjuncts: a wide schema with
// several classes, attributes, members.
ConjunctiveQuery MakeWideTarget(World& world) {
  gen::RandomQuerySpec spec;
  spec.seed = 12345;
  spec.atoms = 24;
  spec.variable_pool = 10;
  spec.constant_pool = 0;
  spec.constant_probability = 0.0;
  spec.arity = 0;
  spec.with_constraints = false;  // keep the chase finite and level-0
  return gen::MakeRandomQuery(world, spec, "target");
}

void PrintSearchTable() {
  World world;
  ConjunctiveQuery q1 = MakeWideTarget(world);
  ChaseResult chase = ChaseLevelZero(world, q1);
  std::printf("== E7: homomorphism search effort into a %u-conjunct chase ==\n",
              chase.size());
  std::printf("%-10s %-10s %-14s %-12s %s\n", "q2 atoms", "pool", "found",
              "avg nodes", "max nodes");
  for (int atoms : {2, 4, 8, 12, 16}) {
    for (int pool : {3, 6}) {
      uint64_t total_nodes = 0, max_nodes = 0;
      int found = 0, trials = 50;
      for (int t = 0; t < trials; ++t) {
        gen::RandomQuerySpec spec;
        spec.seed = uint64_t(atoms * 1000 + pool * 100 + t);
        spec.atoms = atoms;
        spec.variable_pool = pool;
        spec.constant_pool = 0;
        spec.constant_probability = 0.0;
        spec.arity = 0;
        spec.with_constraints = false;
        ConjunctiveQuery q2 =
            gen::MakeRandomQuery(world, spec, "probe").RenameApart(world);
        MatchStats stats;
        if (FindQueryHomomorphism(q2, chase.conjuncts(), {}, &stats)) {
          ++found;
        }
        total_nodes += stats.nodes_visited;
        max_nodes = std::max(max_nodes, stats.nodes_visited);
      }
      std::printf("%-10d %-10d %3d/%-10d %-12.1f %llu\n", atoms, pool, found,
                  trials, double(total_nodes) / trials,
                  (unsigned long long)max_nodes);
    }
  }
  std::printf("\n");
}

// ---- E11: the kernel over a corpus grid -------------------------------------

struct CorpusConfig {
  const char* name;
  int target_atoms;      // size of the random q1 whose chase is the target
  int target_pool;       // q1 variable pool (smaller => denser target)
  int probe_atoms;       // size of each probe body
  int probe_pool;        // probe variable pool (random probes only)
  double constant_probability;  // of both target and probes
  // Probes sampled from the target's own body (renamed apart): always
  // embeddable, so the search enumerates real match sets instead of dying
  // on the first unmatchable atom — the regime Theorem 13's NP guess is
  // about, and the representative containment workload (q2 related to q1).
  bool subquery_probes;
  bool enumerate_all;    // count every match instead of stopping at one
  int probes;            // probes per pass
};

// The grid spans the axes that matter to the kernel: target size
// (candidate-list length per node), probe size (nodes per search), join
// density (how often several positions are bound), constants (compile-time list resolution), related vs
// unrelated probes, and first-match vs full enumeration.
constexpr CorpusConfig kCorpus[] = {
    {"random_sparse_first", 24, 10, 8, 5, 0.0, false, false, 64},
    {"random_dense_first", 24, 6, 12, 4, 0.0, false, false, 64},
    {"random_constants_first", 24, 8, 10, 5, 0.25, false, false, 64},
    {"subquery_small_all", 24, 8, 5, 0, 0.0, true, true, 24},
    {"subquery_mid_all", 48, 10, 7, 0, 0.0, true, true, 16},
    {"subquery_wide_all", 96, 14, 7, 0, 0.0, true, true, 12},
    {"subquery_wide_first", 96, 14, 10, 0, 0.0, true, false, 24},
    {"subquery_deep_all", 64, 8, 9, 0, 0.0, true, true, 8},
    // Wide-KB regime: a large chase with a small variable pool and
    // constants, so most pattern atoms have several bound positions and
    // the kernel scans long posting lists.
    {"wide_kb_all", 192, 10, 8, 0, 0.25, true, true, 8},
};

struct RunMetrics {
  double wall_ms = 0;  // best pass
  MatchStats stats;    // of one pass
  uint64_t found = 0;  // probes embedded (first_match) or matches counted
};

struct Workload {
  World world;
  ChaseResult chase;
  std::vector<ConjunctiveQuery> probes;
};

// Fills a caller-owned Workload (World is neither copyable nor movable).
void MakeWorkload(const CorpusConfig& config, Workload& w) {
  gen::RandomQuerySpec target_spec;
  target_spec.seed = 977;
  target_spec.atoms = config.target_atoms;
  target_spec.variable_pool = config.target_pool;
  target_spec.constant_pool = 3;
  target_spec.constant_probability = config.constant_probability;
  target_spec.arity = 0;
  target_spec.with_constraints = false;
  ConjunctiveQuery q1 = gen::MakeRandomQuery(w.world, target_spec, "target");
  w.chase = ChaseLevelZero(w.world, q1);

  Rng rng(4242);
  for (int t = 0; t < config.probes; ++t) {
    if (config.subquery_probes) {
      // A random sample of the target's own body atoms, renamed apart.
      std::vector<Atom> body = q1.body();
      for (size_t i = body.size(); i > 1; --i) {
        std::swap(body[i - 1], body[rng.Below(i)]);
      }
      body.resize(size_t(config.probe_atoms));
      ConjunctiveQuery probe("probe", {}, std::move(body));
      w.probes.push_back(probe.RenameApart(w.world));
    } else {
      gen::RandomQuerySpec spec;
      spec.seed = uint64_t(t) * 131 + 17;
      spec.atoms = config.probe_atoms;
      spec.variable_pool = config.probe_pool;
      spec.constant_pool = 3;
      spec.constant_probability = config.constant_probability;
      spec.arity = 0;
      spec.with_constraints = false;
      w.probes.push_back(
          gen::MakeRandomQuery(w.world, spec, "probe").RenameApart(w.world));
    }
  }
}

// One pass over every probe of the workload; returns per-pass stats and a
// bitset-as-counter of verdicts (enumerate_all: total match count).
RunMetrics OnePass(const Workload& workload, const CorpusConfig& config) {
  RunMetrics metrics;
  for (const ConjunctiveQuery& probe : workload.probes) {
    if (config.enumerate_all) {
      // Cap per-probe enumeration: embeddings of a subquery into a wide
      // chase can be combinatorial.
      constexpr uint64_t kMatchCap = 20000;
      uint64_t matches = 0;
      MatchConjunction(
          probe.body(), workload.chase.conjuncts(), Substitution(),
          [&](const Substitution&) {
            return ++matches < kMatchCap;
          },
          &metrics.stats);
      metrics.found += matches;
    } else {
      if (FindQueryHomomorphism(probe, workload.chase.conjuncts(), {},
                                &metrics.stats)) {
        ++metrics.found;
      }
    }
  }
  return metrics;
}

RunMetrics TimedRun(const Workload& workload, const CorpusConfig& config) {
  OnePass(workload, config);  // warm-up
  RunMetrics best;
  constexpr int kPasses = 5;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto start = std::chrono::steady_clock::now();
    RunMetrics metrics = OnePass(workload, config);
    auto stop = std::chrono::steady_clock::now();
    metrics.wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (pass == 0 || metrics.wall_ms < best.wall_ms) best = metrics;
  }
  return best;
}

void WriteKernelReport() {
  std::string json;
  json += "{\n  \"experiment\": \"hom_search_kernel\",\n";
  json += "  \"passes\": 5,\n  \"configs\": [\n";

  for (const CorpusConfig& config : kCorpus) {
    Workload workload;
    MakeWorkload(config, workload);
    const RunMetrics run = TimedRun(workload, config);
    const double probes_per_node =
        run.stats.nodes_visited == 0
            ? 0.0
            : double(run.stats.index_probes) / double(run.stats.nodes_visited);

    char buffer[768];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"name\": \"%s\", \"target_conjuncts\": %u, "
                  "\"probe_atoms\": %d, \"probe_pool\": %d, "
                  "\"constant_probability\": %.2f, \"mode\": \"%s\", "
                  "\"probes\": %d,\n"
                  "      \"kernel\": {\"wall_ms\": %.3f, \"nodes\": %llu, "
                  "\"index_probes\": %llu, \"probes_per_node\": %.2f, "
                  "\"found\": %llu}}",
                  config.name, workload.chase.size(), config.probe_atoms,
                  config.probe_pool, config.constant_probability,
                  config.enumerate_all ? "all_matches" : "first_match",
                  config.probes, run.wall_ms,
                  (unsigned long long)run.stats.nodes_visited,
                  (unsigned long long)run.stats.index_probes, probes_per_node,
                  (unsigned long long)run.found);
    json += buffer;
    json += (&config == &kCorpus[std::size(kCorpus) - 1]) ? "\n" : ",\n";
  }
  json += "  ]\n}\n";

  std::printf("== E11: the compiled kernel over the corpus grid ==\n%s\n",
              json.c_str());
  std::FILE* file = std::fopen("BENCH_hom_search.json", "w");
  FLOQ_CHECK(file != nullptr);
  std::fputs(json.c_str(), file);
  std::fclose(file);
  std::printf("(report written to BENCH_hom_search.json)\n\n");
}

// ---- google-benchmark timers ------------------------------------------------

void BM_HomSearch(benchmark::State& state) {
  const int atoms = int(state.range(0));
  World world;
  ConjunctiveQuery q1 = MakeWideTarget(world);
  ChaseResult chase = ChaseLevelZero(world, q1);

  std::vector<ConjunctiveQuery> probes;
  for (int t = 0; t < 32; ++t) {
    gen::RandomQuerySpec spec;
    spec.seed = uint64_t(atoms * 777 + t);
    spec.atoms = atoms;
    spec.variable_pool = 5;
    spec.constant_pool = 0;
    spec.constant_probability = 0.0;
    spec.arity = 0;
    spec.with_constraints = false;
    probes.push_back(
        gen::MakeRandomQuery(world, spec, "probe").RenameApart(world));
  }

  size_t i = 0;
  uint64_t nodes = 0;
  for (auto _ : state) {
    MatchStats stats;
    auto hom = FindQueryHomomorphism(probes[i++ % probes.size()],
                                     chase.conjuncts(), {}, &stats);
    benchmark::DoNotOptimize(hom.has_value());
    nodes += stats.nodes_visited;
  }
  state.counters["nodes/op"] =
      benchmark::Counter(double(nodes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_HomSearch)->ArgName("atoms")->Arg(2)->Arg(8)->Arg(16)->Arg(24);

}  // namespace

int main(int argc, char** argv) {
  PrintSearchTable();
  WriteKernelReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
