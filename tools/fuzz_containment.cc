// libFuzzer target for the decision procedure (FLOQ_FUZZ=ON, Clang only).
// Arbitrary bytes go through flogic::ParseProgram; the first two rules
// (goals after rules, as `floq check` takes them) form the pair q1 ⊆ q2.
// Parse errors and arity mismatches return early. The pair is decided by
// CheckContainment and by a two-query ContainmentEngine, both under a
// tight budget (100 ms, 10 000 hom steps, 5 000 chase atoms). Findings:
// a CONTAINED verdict that is not vacuous without a witness that
// IsQueryHomomorphism accepts against the returned chase, a NOT_CONTAINED
// verdict for which the brute-force matcher of tests/reference_matcher.h
// (no code shared with the kernel) finds a homomorphism from q2 into the
// same chase, the two deciders giving opposite definite verdicts, any
// assertion failure, sanitizer report, or hang. The brute-force search
// runs under a step cap; a pair that reaches it is skipped, and the
// counts of cross-checked and skipped negatives are printed at exit.
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
#include "reference_matcher.h"
#include "term/world.h"
#include "util/check.h"

namespace {

bool Opposite(floq::Resolution a, floq::Resolution b) {
  return a != floq::Resolution::kUnknown &&
         b != floq::Resolution::kUnknown && a != b;
}

// Bindings the brute-force cross-check may try per negative verdict.
constexpr uint64_t kOracleSteps = 100'000;

struct NegativeCounts {
  uint64_t cross_checked = 0;
  uint64_t skipped = 0;
  ~NegativeCounts() {
    std::fprintf(stderr,
                 "fuzz_containment: %llu NOT_CONTAINED verdicts cross-checked "
                 "by brute force, %llu skipped at the step cap\n",
                 (unsigned long long)cross_checked,
                 (unsigned long long)skipped);
  }
} negatives;

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
      ++negatives.cross_checked;
      FLOQ_CHECK(!*found) << "NOT_CONTAINED, but q2 maps into the chase";
    } else {
      ++negatives.skipped;
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
  return 0;
}
