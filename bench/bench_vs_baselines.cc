// Experiment E3 — recall of the three checkers on constructed containments.
//
// For each random q1 we build q2 by sampling conjuncts of chase_Sigma(q1)
// and generalizing their terms to fresh variables, so q1 ⊆ q2 holds by
// construction. The sampling depth controls which machinery is needed to
// *prove* it:
//   bucket "body"  — conjuncts from body(q1) itself: classical suffices;
//   bucket "level0"— conjuncts derived by the Sigma_FL^- chase: the
//                    level-0 chase suffices, classical may fail;
//   bucket "deep"  — conjuncts invented by rho_5 chains (level >= 1):
//                    only the paper's bounded chase can see them.
// All three methods are sound; recall per bucket quantifies completeness.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <unordered_map>

#include "chase/chase.h"
#include "containment/containment.h"
#include "gen/generators.h"
#include "term/world.h"
#include "util/rng.h"

namespace {

using namespace floq;

enum Bucket { kBody = 0, kLevelZero = 1, kDeep = 2, kBucketCount = 3 };

const char* BucketName(int b) {
  switch (b) {
    case kBody: return "body";
    case kLevelZero: return "level0-derived";
    case kDeep: return "deep (rho_5)";
  }
  return "?";
}

struct LabeledPair {
  ConjunctiveQuery q1;
  ConjunctiveQuery q2;
  int bucket;
};

// Generalizes sampled chase conjuncts into a fresh-variable query.
// Distinct terms map consistently: variables and nulls of the chase become
// fresh q2 variables; constants are kept (with a small chance of being
// generalized too).
ConjunctiveQuery GeneralizeConjuncts(World& world,
                                     const std::vector<Atom>& sampled,
                                     Rng& rng) {
  std::unordered_map<uint32_t, Term> mapping;
  std::vector<Atom> body;
  for (const Atom& atom : sampled) {
    Atom out = atom;
    for (int i = 0; i < atom.arity(); ++i) {
      Term t = atom.arg(i);
      bool generalize = !t.IsConstant() || rng.Chance(0.2);
      if (!generalize) continue;
      auto it = mapping.find(t.raw());
      if (it == mapping.end()) {
        it = mapping.emplace(t.raw(), world.MakeFreshVariable()).first;
      }
      out.set_arg(i, it->second);
    }
    body.push_back(out);
  }
  return ConjunctiveQuery("q2", {}, std::move(body));
}

std::vector<LabeledPair> MakeCorpus(World& world, int per_bucket) {
  std::vector<LabeledPair> corpus;
  int counts[kBucketCount] = {0, 0, 0};
  for (uint64_t seed = 0; seed < 100000; ++seed) {
    bool done = true;
    for (int b = 0; b < kBucketCount; ++b) done &= counts[b] >= per_bucket;
    if (done) break;

    gen::RandomQuerySpec spec;
    spec.seed = seed + 1;
    spec.atoms = 4;
    spec.arity = 0;
    spec.variable_pool = 4;
    spec.constant_pool = 3;
    spec.constant_probability = 0.25;
    ConjunctiveQuery q1 = gen::MakeRandomQuery(world, spec, "q1");

    ChaseOptions chase_options;
    chase_options.max_level = 8;
    chase_options.max_atoms = 50'000;
    ChaseResult chase = ChaseQuery(world, q1, chase_options);
    if (chase.failed() || chase.outcome() == ChaseOutcome::kBudgetExceeded) {
      continue;
    }

    // Partition conjunct ids by bucket.
    std::vector<uint32_t> ids[kBucketCount];
    for (uint32_t id = 0; id < chase.size(); ++id) {
      if (chase.meta(id).rule == kRho0) {
        ids[kBody].push_back(id);
      } else if (chase.LevelOf(id) == 0) {
        ids[kLevelZero].push_back(id);
      } else {
        ids[kDeep].push_back(id);
      }
    }

    Rng rng(seed ^ 0xf10c);
    for (int b = 0; b < kBucketCount; ++b) {
      if (counts[b] >= per_bucket || ids[b].empty()) continue;
      std::vector<Atom> sampled;
      int n = 1 + int(rng.Below(2));
      for (int i = 0; i < n; ++i) {
        sampled.push_back(chase.conjunct(
            ids[b][rng.Below(ids[b].size())]));
      }
      ConjunctiveQuery q2 = GeneralizeConjuncts(world, sampled, rng);
      corpus.push_back(LabeledPair{q1, q2, b});
      ++counts[b];
    }
  }
  return corpus;
}

void PrintRecallTable() {
  World world;
  std::vector<LabeledPair> corpus = MakeCorpus(world, 120);

  int total[kBucketCount] = {0, 0, 0};
  int classical_hits[kBucketCount] = {0, 0, 0};
  int level0_hits[kBucketCount] = {0, 0, 0};
  int paper_hits[kBucketCount] = {0, 0, 0};

  for (const LabeledPair& pair : corpus) {
    ++total[pair.bucket];
    Result<ContainmentResult> classical =
        CheckClassicalContainment(world, pair.q1, pair.q2);
    if (classical.ok() && classical->contained) {
      ++classical_hits[pair.bucket];
    }
    ContainmentOptions level0;
    level0.level_override = 0;
    Result<ContainmentResult> shallow =
        CheckContainment(world, pair.q1, pair.q2, level0);
    if (shallow.ok() && shallow->contained) ++level0_hits[pair.bucket];
    Result<ContainmentResult> paper = CheckContainment(world, pair.q1, pair.q2);
    if (paper.ok() && paper->contained) ++paper_hits[pair.bucket];
  }

  std::printf("== E3: recall per conjunct-depth bucket (all pairs contained "
              "by construction) ==\n");
  std::printf("%-18s %-8s %-18s %-18s %s\n", "bucket", "pairs", "classical",
              "level-0 chase", "bounded chase (paper)");
  for (int b = 0; b < kBucketCount; ++b) {
    auto pct = [&](int hits) {
      return total[b] == 0 ? 0.0 : 100.0 * hits / total[b];
    };
    std::printf("%-18s %-8d %6.1f%%            %6.1f%%            %6.1f%%\n",
                BucketName(b), total[b], pct(classical_hits[b]),
                pct(level0_hits[b]), pct(paper_hits[b]));
  }
  std::printf("expected shape: classical complete only on 'body'; level-0\n"
              "adds the Sigma^- consequences; the paper bound is 100%% "
              "everywhere (Theorem 12).\n\n");
}

void BM_ConstructedPair(benchmark::State& state) {
  World world;
  std::vector<LabeledPair> corpus = MakeCorpus(world, 40);
  const int bucket = int(state.range(0));
  std::vector<const LabeledPair*> mine;
  for (const LabeledPair& pair : corpus) {
    if (pair.bucket == bucket) mine.push_back(&pair);
  }
  if (mine.empty()) return;
  size_t i = 0;
  for (auto _ : state) {
    const LabeledPair& pair = *mine[i++ % mine.size()];
    Result<ContainmentResult> result =
        CheckContainment(world, pair.q1, pair.q2);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_ConstructedPair)->Arg(kBody)->Arg(kLevelZero)->Arg(kDeep);

void BM_IndependentRandomPair(benchmark::State& state) {
  World world;
  std::vector<std::pair<ConjunctiveQuery, ConjunctiveQuery>> pairs;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    gen::RandomQuerySpec spec1;
    spec1.seed = seed * 2 + 1;
    spec1.atoms = 4;
    spec1.arity = 0;
    gen::RandomQuerySpec spec2;
    spec2.seed = seed * 2 + 2;
    spec2.atoms = 2;
    spec2.arity = 0;
    pairs.emplace_back(gen::MakeRandomQuery(world, spec1, "q1"),
                       gen::MakeRandomQuery(world, spec2, "q2"));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [q1, q2] = pairs[i++ % pairs.size()];
    Result<ContainmentResult> result = CheckContainment(world, q1, q2);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_IndependentRandomPair);

}  // namespace

int main(int argc, char** argv) {
  PrintRecallTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
