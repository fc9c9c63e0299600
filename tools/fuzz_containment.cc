// libFuzzer target for the decision procedure (FLOQ_FUZZ=ON, Clang only).
// Arbitrary bytes go through flogic::ParseProgram; the first two rules
// (goals after rules, as `floq check` takes them) form the pair q1 ⊆ q2.
// Parse errors and arity mismatches return early. The pair is decided by
// CheckContainment and by a two-query ContainmentEngine, both under a
// tight budget (100 ms, 10 000 hom steps, 5 000 chase atoms). Findings:
// a CONTAINED verdict that is not vacuous without a witness that
// IsQueryHomomorphism accepts against the returned chase, the two
// deciders giving opposite definite verdicts, any assertion failure,
// sanitizer report, or hang.
//
//   clang++ -fsanitize=fuzzer,address ...   (via -DFLOQ_FUZZ=ON)
//   mkdir corpus
//   cp testdata/pair.fl testdata/views.fl testdata/hard_3col.fl corpus/
//   ./fuzz_containment corpus/ -max_total_time=60

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "containment/containment.h"
#include "containment/engine.h"
#include "containment/homomorphism.h"
#include "flogic/parser.h"
#include "term/world.h"
#include "util/check.h"

namespace {

bool Opposite(floq::Resolution a, floq::Resolution b) {
  return a != floq::Resolution::kUnknown &&
         b != floq::Resolution::kUnknown && a != b;
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
