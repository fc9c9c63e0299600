// Beyond F-logic Lite: containment under *user-supplied* dependency sets,
// the generalization the paper's conclusion asks for. A company schema is
// written as TGDs/EGDs; weak acyclicity certifies chase termination, so
// the Theorem-4 containment test is a complete decision procedure here.
//
//   build/examples/custom_constraints

#include <cstdio>

#include "chase/chase.h"
#include "chase/dependencies.h"
#include "containment/containment.h"
#include "query/parser.h"
#include "term/world.h"

int main() {
  using namespace floq;
  World world;

  const char* kConstraints = R"(
    % every employee is a person and works in some department
    person(X) :- employee(X).
    works_in(X, D) :- employee(X).
    dept(D) :- works_in(X, D).
    % every department is led by some person
    led_by(D, M) :- dept(D).
    person(M) :- led_by(D, M).
    % a department has at most one lead (key EGD)
    M1 = M2 :- led_by(D, M1), led_by(D, M2).
  )";

  Result<DependencySet> deps = ParseDependencies(world, kConstraints);
  if (!deps.ok()) {
    std::printf("parse error: %s\n", deps.status().ToString().c_str());
    return 1;
  }
  std::printf("dependency set: %zu TGDs, %zu EGDs\n", deps->tgds.size(),
              deps->egds.size());
  std::printf("weakly acyclic: %s  (chase termination certified)\n\n",
              IsWeaklyAcyclic(*deps, world) ? "YES" : "no");

  struct Case {
    const char* what;
    const char* q1;
    const char* q2;
  };
  const Case cases[] = {
      {"employees ⊆ people-working-under-a-lead",
       "q(X) :- employee(X).",
       "q(X) :- works_in(X, D), led_by(D, M), person(M)."},
      {"the reverse (must fail, conclusively)",
       "q(X) :- works_in(X, D), led_by(D, M), person(M).",
       "q(X) :- employee(X)."},
      {"two leads of one department coincide",
       "q(M1, M2) :- led_by(d0, M1), led_by(d0, M2).",
       "q(M, M) :- led_by(d0, M)."},
  };

  for (const Case& c : cases) {
    ConjunctiveQuery q1 = *ParseQuery(world, c.q1);
    ConjunctiveQuery q2 = *ParseQuery(world, c.q2);
    Result<ContainmentResult> result =
        CheckContainmentUnderDependencies(world, q1, q2, *deps);
    if (!result.ok()) {
      std::printf("%-45s error: %s\n", c.what,
                  result.status().ToString().c_str());
      continue;
    }
    std::printf("%-45s %s%s\n", c.what,
                result->contained ? "CONTAINED" : "not contained",
                result->conclusive ? "" : " (inconclusive)");
  }

  // Show the chase itself for the first query.
  ConjunctiveQuery q = *ParseQuery(world, "q(X) :- employee(X).");
  ChaseResult chase = ChaseQuery(world, q, *deps);
  std::printf("\nchase of q(X) :- employee(X) under the constraints:\n%s",
              chase.DebugString(world).c_str());
  return 0;
}
