// Experiment E15 — the block-compressed posting storage (DESIGN.md §14).
//
// Measured:
//
//   1. Speed: on join-heavy homomorphism workloads (wide chases, dense
//      joins, constants — the regime where pattern atoms have several
//      bound positions over long posting lists), the kernel's wall time
//      streaming the frozen tier against the same kernel on plain posting
//      vectors (the unfrozen index). Reported, not gated.
//   2. Space: the frozen tier spends <= 2.0 bytes per posting — at most
//      half of the 4-byte plain-vector representation.
//   3. Correctness: zero differential mismatches across every seam —
//      codec roundtrip (compressed vs plain), SIMD vs scalar decode,
//      snapshot-loaded vs in-memory posting lists, and per-config
//      search-verdict agreement between plain and frozen postings.
//
// Everything is written to BENCH_posting_codec.json (and echoed) so the
// gates are machine-checkable. FLOQ_BENCH_SMALL=1 shrinks the workloads
// ~8x for CI smoke runs; the correctness gates are size-independent, the
// space gate is checked on the full checked-in run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "containment/homomorphism.h"
#include "datalog/match.h"
#include "datalog/posting_block.h"
#include "datalog/snapshot.h"
#include "gen/generators.h"
#include "term/world.h"
#include "util/check.h"
#include "util/rng.h"

namespace {

using namespace floq;

bool SmallMode() {
  const char* env = std::getenv("FLOQ_BENCH_SMALL");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// ---- differential sweeps (claim 3) ------------------------------------------

std::vector<uint32_t> RandomIds(Rng& rng, size_t n, uint32_t max_gap) {
  std::vector<uint32_t> ids;
  ids.reserve(n);
  uint32_t cur = 0;
  for (size_t i = 0; i < n; ++i) {
    cur += 1 + uint32_t(rng.Below(max_gap));
    ids.push_back(cur);
  }
  return ids;
}

// Encode -> decode (scalar and dispatched) -> compare against the plain
// vector. Returns the number of mismatching lists.
uint64_t CodecRoundTripMismatches(int lists) {
  Rng rng(101);
  uint64_t mismatches = 0;
  for (int i = 0; i < lists; ++i) {
    const size_t n = 1 + rng.Below(3000);
    const uint32_t max_gap = 1u << rng.Below(18);  // widths 1, 2 and 4
    std::vector<uint32_t> ids = RandomIds(rng, n, max_gap);
    PostingArena arena;
    const uint32_t offset = arena.EncodeList(ids);
    FrozenListView list = ResolveFrozenList(arena.data(), offset);
    std::array<uint32_t, kPostingBlockSize> scalar, dispatched;
    std::vector<uint32_t> decoded;
    bool simd_agrees = true;
    for (uint32_t b = 0; b < list.num_blocks; ++b) {
      const uint32_t ns = DecodeBlockScalar(list, b, scalar.data());
      const uint32_t nd = DecodeBlock(list, b, dispatched.data());
      simd_agrees = simd_agrees && ns == nd &&
                    std::equal(scalar.begin(), scalar.begin() + ns,
                               dispatched.begin());
      decoded.insert(decoded.end(), scalar.begin(), scalar.begin() + ns);
    }
    if (decoded != ids || !simd_agrees) ++mismatches;
  }
  return mismatches;
}

// Build an index of ground facts, read its argument lists in memory,
// snapshot it, mmap it back, read them again: the lists must be identical.
uint64_t SnapshotParityMismatches(int objects) {
  World world;
  FactIndex index;
  Rng rng(107);
  std::vector<Term> attrs, values;
  for (int i = 0; i < 12; ++i) {
    attrs.push_back(world.MakeConstant("attr" + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    values.push_back(world.MakeConstant("val" + std::to_string(i)));
  }
  for (int o = 0; o < objects; ++o) {
    Term obj = world.MakeConstant("obj" + std::to_string(o));
    for (int j = 0; j < 4; ++j) {
      index.Insert(Atom::Data(obj, attrs[rng.Below(attrs.size())],
                              values[rng.Below(values.size())]));
    }
  }

  auto argument_lists = [&](const FactIndex& idx) {
    std::vector<std::vector<uint32_t>> results;
    for (Term a : attrs) {
      results.push_back(idx.WithArgument(pfl::kData, 1, a).ToVector());
    }
    for (Term v : values) {
      results.push_back(idx.WithArgument(pfl::kData, 2, v).ToVector());
    }
    return results;
  };

  const std::vector<std::vector<uint32_t>> in_memory = argument_lists(index);

  const std::string path = "bench_posting_codec.snap";
  FLOQ_CHECK(WriteFactIndexSnapshot(index, world, path).ok());
  World world2;
  FactIndex loaded;
  FLOQ_CHECK(LoadFactIndexSnapshot(path, world2, loaded).ok());
  const std::vector<std::vector<uint32_t>> mapped = argument_lists(loaded);
  std::remove(path.c_str());

  if (in_memory.size() != mapped.size()) return 1;
  uint64_t mismatches = 0;
  for (size_t i = 0; i < in_memory.size(); ++i) {
    if (in_memory[i] != mapped[i]) ++mismatches;
  }
  return mismatches;
}

// ---- join-heavy search configs (claims 1 and 2) -----------------------------

struct CodecConfig {
  const char* name;
  int target_atoms;  // size of the random q1 whose level-0 chase is scanned
  int target_pool;   // small pool => dense joins => long shared lists
  int probe_atoms;
  double constant_probability;
  int probes;
};

// All-matches subquery probes over dense targets: every search node has
// several bound positions over long shared lists — the regime the frozen
// tier is built for.
constexpr CodecConfig kConfigs[] = {
    {"intersect_mid", 48, 8, 7, 0.0, 16},
    {"intersect_constants", 64, 8, 8, 0.25, 12},
    {"intersect_wide", 96, 10, 8, 0.0, 12},
    {"intersect_wide_kb", 192, 10, 8, 0.25, 8},
};

struct Workload {
  World world;
  ChaseResult chase;
  std::vector<ConjunctiveQuery> probes;
};

void MakeWorkload(const CodecConfig& config, int scale, Workload& w) {
  gen::RandomQuerySpec spec;
  spec.seed = 977;
  spec.atoms = config.target_atoms / scale;
  spec.variable_pool = config.target_pool;
  spec.constant_pool = 3;
  spec.constant_probability = config.constant_probability;
  spec.arity = 0;
  spec.with_constraints = false;
  ConjunctiveQuery q1 = gen::MakeRandomQuery(w.world, spec, "target");
  w.chase = ChaseLevelZero(w.world, q1);

  Rng rng(4242);
  const int probes = std::max(2, config.probes / scale);
  for (int t = 0; t < probes; ++t) {
    std::vector<Atom> body = q1.body();
    for (size_t i = body.size(); i > 1; --i) {
      std::swap(body[i - 1], body[rng.Below(i)]);
    }
    body.resize(std::min(body.size(), size_t(config.probe_atoms)));
    ConjunctiveQuery probe("probe", {}, std::move(body));
    w.probes.push_back(probe.RenameApart(w.world));
  }
}

struct RunMetrics {
  double wall_ms = 0;
  uint64_t found = 0;
};

RunMetrics OnePass(const Workload& w) {
  RunMetrics metrics;
  constexpr uint64_t kMatchCap = 20000;
  for (const ConjunctiveQuery& probe : w.probes) {
    uint64_t matches = 0;
    MatchConjunction(
        probe.body(), w.chase.conjuncts(), Substitution(),
        [&](const Substitution&) { return ++matches < kMatchCap; });
    metrics.found += matches;
  }
  return metrics;
}

RunMetrics TimedRun(const Workload& w) {
  OnePass(w);  // warm-up
  RunMetrics best;
  constexpr int kPasses = 5;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto start = std::chrono::steady_clock::now();
    RunMetrics metrics = OnePass(w);
    auto stop = std::chrono::steady_clock::now();
    metrics.wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (pass == 0 || metrics.wall_ms < best.wall_ms) best = metrics;
  }
  return best;
}

void WriteReport() {
  const bool small = SmallMode();
  const int scale = small ? 8 : 1;

  const uint64_t roundtrip_mismatches =
      CodecRoundTripMismatches(small ? 40 : 400);
  const uint64_t snapshot_mismatches =
      SnapshotParityMismatches(small ? 200 : 2000);

  std::string json;
  json += "{\n  \"experiment\": \"posting_codec\",\n";
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "  \"small_mode\": %s,\n  \"simd_enabled\": %s,\n"
                "  \"configs\": [\n",
                small ? "true" : "false",
                SimdPostingsEnabled() ? "true" : "false");
  json += buffer;

  double log_speedup_sum = 0, bytes_sum = 0;
  uint64_t postings_sum = 0;
  int config_count = 0;
  bool all_agree = true;

  for (const CodecConfig& config : kConfigs) {
    Workload workload;
    MakeWorkload(config, scale, workload);

    // The kernel times against the unfrozen plain-vector storage, then
    // the index is frozen (as the engine does between chase and search)
    // and the same searches stream the compressed tier.
    RunMetrics plain_run = TimedRun(workload);
    workload.chase.FreezeConjuncts();
    RunMetrics frozen_run = TimedRun(workload);

    FactIndex::StorageStats storage = workload.chase.conjuncts().Stats();
    const double bytes_per_posting =
        storage.frozen_postings == 0
            ? 0.0
            : double(storage.arena_bytes) / double(storage.frozen_postings);
    bytes_sum += double(storage.arena_bytes);
    postings_sum += storage.frozen_postings;

    const bool agree = plain_run.found == frozen_run.found;
    all_agree = all_agree && agree;
    const double speedup = frozen_run.wall_ms > 0
                               ? plain_run.wall_ms / frozen_run.wall_ms
                               : 0.0;
    log_speedup_sum += std::log(speedup);
    ++config_count;

    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"name\": \"%s\", \"target_conjuncts\": %u, \"probes\": %zu,\n"
        "      \"plain_wall_ms\": %.3f, \"frozen_wall_ms\": %.3f,\n"
        "      \"speedup_frozen_vs_plain\": %.3f,\n"
        "      \"frozen_postings\": %llu, \"bytes_per_posting_frozen\": "
        "%.3f, \"verdicts_agree\": %s}%s\n",
        config.name, workload.chase.size(), workload.probes.size(),
        plain_run.wall_ms, frozen_run.wall_ms, speedup,
        (unsigned long long)storage.frozen_postings, bytes_per_posting,
        agree ? "true" : "false",
        (&config == &kConfigs[std::size(kConfigs) - 1]) ? "" : ",");
    json += buffer;
  }

  const double geomean = std::exp(log_speedup_sum / config_count);
  const double bytes_per_posting =
      postings_sum == 0 ? 0.0 : bytes_sum / double(postings_sum);
  std::snprintf(
      buffer, sizeof(buffer),
      "  ],\n"
      "  \"geomean_speedup_frozen_vs_plain\": %.3f,\n"
      "  \"bytes_per_posting_frozen\": %.3f,\n"
      "  \"bytes_per_posting_plain\": 4.0,\n"
      "  \"codec_roundtrip_mismatches\": %llu,\n"
      "  \"snapshot_parity_mismatches\": %llu,\n"
      "  \"all_verdicts_agree\": %s\n}\n",
      geomean, bytes_per_posting,
      (unsigned long long)roundtrip_mismatches,
      (unsigned long long)snapshot_mismatches, all_agree ? "true" : "false");
  json += buffer;

  std::printf("== E15: block-compressed posting storage ==\n%s\n",
              json.c_str());
  std::FILE* file = std::fopen("BENCH_posting_codec.json", "w");
  FLOQ_CHECK(file != nullptr);
  std::fputs(json.c_str(), file);
  std::fclose(file);
  std::printf("(report written to BENCH_posting_codec.json)\n\n");
}

// ---- google-benchmark timers ------------------------------------------------

// Decode throughput of one frozen block, scalar vs dispatched.
void BM_DecodeBlock(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  Rng rng(11);
  std::vector<uint32_t> ids = RandomIds(rng, 4096, 3);
  PostingArena arena;
  const uint32_t offset = arena.EncodeList(ids);
  FrozenListView list = ResolveFrozenList(arena.data(), offset);
  std::array<uint32_t, kPostingBlockSize> buf;
  uint32_t b = 0;
  for (auto _ : state) {
    uint32_t n = dispatched ? DecodeBlock(list, b, buf.data())
                            : DecodeBlockScalar(list, b, buf.data());
    benchmark::DoNotOptimize(buf[n - 1]);
    b = (b + 1) % list.num_blocks;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * kPostingBlockSize);
}
BENCHMARK(BM_DecodeBlock)->ArgNames({"simd"})->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  WriteReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
