// libFuzzer target for dependency files (FLOQ_FUZZ=ON, Clang only): the
// `--deps` input of check-under, lint and analyze. Arbitrary bytes go
// through ParseDependencies; a parsed set goes through the weak-acyclicity
// analysis and then chases a fixed three-atom query under a small budget
// (level 4, 2000 atoms, 100 ms). Parse errors must come back as a clean
// Status, the chase must stop within its budget, and the chased head must
// keep the query's arity — any assertion failure, sanitizer report, or
// hang is a finding.
//
//   clang++ -fsanitize=fuzzer,address ...   (via -DFLOQ_FUZZ=ON)
//   mkdir corpus && cp testdata/company_deps.fl corpus/
//   ./fuzz_dependencies corpus/ -max_total_time=60

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "chase/chase.h"
#include "chase/dependencies.h"
#include "query/parser.h"
#include "term/world.h"
#include "util/check.h"
#include "util/deadline.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  floq::World world;
  // Parsed first, so a dependency file that redeclares one of its
  // predicates with another arity is rejected by ParseDependencies.
  floq::Result<floq::ConjunctiveQuery> query = floq::ParseQuery(
      world, "q(X, D) :- employee(X), works_in(X, D), led_by(D, M).");
  FLOQ_CHECK(query.ok()) << query.status().ToString();

  floq::Result<floq::DependencySet> dependencies =
      floq::ParseDependencies(world, text);
  if (!dependencies.ok()) return 0;
  (void)floq::AnalyzeWeakAcyclicity(*dependencies, world);

  floq::ExecGovernor governor(floq::Deadline::AfterMillis(100));
  floq::ChaseOptions options;
  options.max_level = 4;
  options.max_atoms = 2000;
  options.governor = &governor;
  floq::ChaseResult chase =
      floq::ChaseQuery(world, *query, *dependencies, options);
  FLOQ_CHECK_EQ(chase.head().size(), query->head().size());
  return 0;
}
