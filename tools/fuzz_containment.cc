// libFuzzer target for the decision procedure (FLOQ_FUZZ=ON, Clang only).
// Arbitrary bytes go through flogic::ParseProgram; the first two rules
// (goals after rules, as `floq check` takes them) form the pair q1 ⊆ q2.
// Parse errors and arity mismatches return early. The pair is decided by
// CheckContainment and by a two-query ContainmentEngine, both under a
// tight budget (100 ms, 10 000 hom steps, 5 000 chase atoms). A third
// decider runs the sharing path: q1, q2 and a renamed, atom-shuffled copy
// of each go through one ContainmentEngine::CheckAll, which decides each
// query shape once and copies its verdicts. Findings: a CONTAINED verdict
// that is not vacuous without a witness that IsQueryHomomorphism accepts
// against the returned chase, a NOT_CONTAINED verdict for which the
// brute-force matcher of tests/reference_matcher.h (no code shared with
// the kernel) finds a homomorphism from q2 into the same chase, two
// deciders giving opposite definite verdicts (a CheckAll cell against
// CheckContainment on the pair of originals it stands for), a query and
// its copy read anything but CONTAINED once both have a ShapeKey, or
// different keys, any assertion failure, sanitizer report, or hang. The
// brute-force search runs under a step cap; a pair that reaches it is
// skipped. The counts of cross-checked and skipped negatives, and of the
// CheckAll cells the sharing path copied, are printed at exit.
//
//   clang++ -fsanitize=fuzzer,address ...   (via -DFLOQ_FUZZ=ON)
//   mkdir corpus
//   cp testdata/pair.fl testdata/views.fl testdata/hard_3col.fl corpus/
//   ./fuzz_containment corpus/ -max_total_time=60

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "containment/containment.h"
#include "containment/engine.h"
#include "containment/homomorphism.h"
#include "flogic/parser.h"
#include "query/shape_key.h"
#include "reference_matcher.h"
#include "term/world.h"
#include "util/check.h"
#include "util/rng.h"

namespace {

bool Opposite(floq::Resolution a, floq::Resolution b) {
  return a != floq::Resolution::kUnknown &&
         b != floq::Resolution::kUnknown && a != b;
}

// Bindings the brute-force cross-check may try per negative verdict.
constexpr uint64_t kOracleSteps = 100'000;

struct Counts {
  uint64_t cross_checked = 0;
  uint64_t skipped = 0;
  uint64_t shared = 0;
  ~Counts() {
    std::fprintf(stderr,
                 "fuzz_containment: %llu NOT_CONTAINED verdicts cross-checked "
                 "by brute force, %llu skipped at the step cap; %llu CheckAll "
                 "cells shared\n",
                 (unsigned long long)cross_checked,
                 (unsigned long long)skipped, (unsigned long long)shared);
  }
} counts;

// `q` with fresh variables and its body atoms shuffled by `seed`.
floq::ConjunctiveQuery ShuffledCopy(floq::World& world,
                                    const floq::ConjunctiveQuery& q,
                                    uint64_t seed) {
  floq::ConjunctiveQuery copy = q.RenameApart(world);
  std::vector<floq::Atom>& body = copy.mutable_body();
  floq::Rng rng(seed);
  for (size_t i = body.size(); i > 1; --i) {
    std::swap(body[i - 1], body[rng.Below(i)]);
  }
  return copy;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  floq::World world;
  floq::Result<floq::flogic::Program> program =
      floq::flogic::ParseProgram(world, text);
  if (!program.ok()) return 0;
  std::vector<floq::ConjunctiveQuery> rules = std::move(program->rules);
  for (floq::ConjunctiveQuery& goal : program->goals) {
    rules.push_back(std::move(goal));
  }
  if (rules.size() < 2 || rules[0].arity() != rules[1].arity()) return 0;
  const floq::ConjunctiveQuery& q1 = rules[0];
  const floq::ConjunctiveQuery& q2 = rules[1];

  floq::ContainmentOptions options;
  options.max_chase_atoms = 5'000;
  options.budget.timeout_ms = 100;
  options.budget.hom_step_budget = 10'000;

  floq::Result<floq::ContainmentResult> result =
      floq::CheckContainment(world, q1, q2, options);
  if (!result.ok()) return 0;  // a malformed rule
  if (result->resolution == floq::Resolution::kContained &&
      !result->q1_unsatisfiable) {
    FLOQ_CHECK(result->witness.has_value());
    FLOQ_CHECK(floq::IsQueryHomomorphism(q2, result->chase.conjuncts(),
                                         result->chase.head(),
                                         *result->witness));
  }
  // A NOT_CONTAINED means nothing tripped and the search found no
  // homomorphism from q2 into the chase: the brute-force matcher must
  // find none either.
  if (result->resolution == floq::Resolution::kNotContained) {
    std::vector<floq::Atom> chase;
    chase.reserve(result->chase.size());
    for (const floq::Atom& atom : result->chase.conjuncts().atoms()) {
      chase.push_back(atom);
    }
    std::optional<bool> found = floq::reference::HasQueryHomomorphism(
        q2.RenameApart(world), chase, result->chase.head(), kOracleSteps);
    if (found.has_value()) {
      ++counts.cross_checked;
      FLOQ_CHECK(!*found) << "NOT_CONTAINED, but q2 maps into the chase";
    } else {
      ++counts.skipped;
    }
  }

  floq::BatchContainmentOptions batch;
  batch.jobs = 1;
  batch.containment = options;
  floq::ContainmentEngine engine(world, batch);
  floq::Result<size_t> lhs = engine.AddQuery(q1);
  floq::Result<size_t> rhs = engine.AddQuery(q2);
  FLOQ_CHECK(lhs.ok() && rhs.ok());
  std::vector<std::pair<size_t, size_t>> pairs = {{*lhs, *rhs}};
  floq::Result<std::vector<floq::PairVerdict>> verdicts =
      engine.CheckPairs(pairs);
  FLOQ_CHECK(verdicts.ok()) << verdicts.status().ToString();
  FLOQ_CHECK(!Opposite(result->resolution, (*verdicts)[0].resolution))
      << "CheckContainment said " << floq::ResolutionName(result->resolution)
      << ", the engine "
      << floq::ResolutionName((*verdicts)[0].resolution);

  // The sharing path. Ids 0..3 hold q1, q2, q1' and q2': id k stands for
  // original k % 2.
  floq::Result<floq::ContainmentResult> reverse =
      floq::CheckContainment(world, q2, q1, options);
  FLOQ_CHECK(reverse.ok()) << reverse.status().ToString();
  const floq::Resolution original[2][2] = {
      {floq::Resolution::kContained, result->resolution},
      {reverse->resolution, floq::Resolution::kContained}};
  const std::vector<floq::ConjunctiveQuery> queries = {
      q1, q2, ShuffledCopy(world, q1, size), ShuffledCopy(world, q2, size + 1)};
  floq::ContainmentEngine shared(world, batch);
  for (const floq::ConjunctiveQuery& q : queries) {
    FLOQ_CHECK(shared.AddQuery(q).ok());
  }
  floq::Result<std::vector<std::vector<floq::PairVerdict>>> matrix =
      shared.CheckAll();
  FLOQ_CHECK(matrix.ok()) << matrix.status().ToString();
  counts.shared += shared.stats().shared_pairs;
  for (size_t k = 0; k < 2; ++k) {
    // Both keys found: a query and its copy are one shape.
    std::optional<std::vector<uint32_t>> key = floq::ShapeKey(queries[k]);
    std::optional<std::vector<uint32_t>> copy = floq::ShapeKey(queries[k + 2]);
    FLOQ_CHECK(!key.has_value() || !copy.has_value() || *key == *copy)
        << "a renamed, shuffled copy got another shape key";
    FLOQ_CHECK(floq::ShapeDigest(queries[k]) ==
               floq::ShapeDigest(queries[k + 2]))
        << "a renamed, shuffled copy got another shape digest";
    if (key.has_value() && copy.has_value()) {
      FLOQ_CHECK((*matrix)[k][k + 2].resolution ==
                     floq::Resolution::kContained &&
                 (*matrix)[k + 2][k].resolution ==
                     floq::Resolution::kContained)
          << "a query and its copy are not CONTAINED in each other";
    }
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = 0; j < queries.size(); ++j) {
      if (i == j) continue;
      const floq::Resolution got = (*matrix)[i][j].resolution;
      const floq::Resolution expected = original[i % 2][j % 2];
      FLOQ_CHECK(!Opposite(expected, got))
          << "CheckAll cell (" << i << ", " << j << ") said "
          << floq::ResolutionName(got) << ", its original pair "
          << floq::ResolutionName(expected);
    }
  }
  return 0;
}
