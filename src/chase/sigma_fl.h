#ifndef FLOQ_CHASE_SIGMA_FL_H_
#define FLOQ_CHASE_SIGMA_FL_H_

#include <vector>

#include "chase/dependencies.h"
#include "datalog/rule.h"
#include "term/world.h"

// The rule set Sigma_FL of Section 2: the low-level encoding of F-logic
// Lite semantics. Ten rules are plain Datalog TGDs; rho_4 is an
// equality-generating dependency; rho_5 is an existential TGD (it invents
// fresh values for mandatory attributes).
//
//   rho_1  member(V,T)      :- type(O,A,T), data(O,A,V).
//   rho_2  sub(C1,C2)       :- sub(C1,C3), sub(C3,C2).
//   rho_3  member(O,C1)     :- member(O,C), sub(C,C1).
//   rho_4  V = W            :- data(O,A,V), data(O,A,W), funct(A,O).
//   rho_5  exists V data(O,A,V) :- mandatory(A,O).
//   rho_6  type(O,A,T)      :- member(O,C), type(C,A,T).
//   rho_7  type(C,A,T)      :- sub(C,C1), type(C1,A,T).
//   rho_8  type(C,A,T)      :- type(C,A,T1), sub(T1,T).
//   rho_9  mandatory(A,C)   :- sub(C,C1), mandatory(A,C1).
//   rho_10 mandatory(A,O)   :- member(O,C), mandatory(A,C).
//   rho_11 funct(A,C)       :- sub(C,C1), funct(A,C1).
//   rho_12 funct(A,O)       :- member(O,C), funct(A,C).

namespace floq {

/// Rule identifiers; kRho0 marks initial conjuncts (body of the query).
/// The chase tags conjuncts derived by a user TGD tgds[i] with 1000 + i.
enum RuleId : int {
  kRho0 = 0,
  kRho1 = 1,
  kRho2 = 2,
  kRho3 = 3,
  kRho4 = 4,
  kRho5 = 5,
  kRho6 = 6,
  kRho7 = 7,
  kRho8 = 8,
  kRho9 = 9,
  kRho10 = 10,
  kRho11 = 11,
  kRho12 = 12,
};

/// Sigma_FL as a dependency set, the one definition every chase, the KB
/// and the analyses share: `tgds` holds rho_1..rho_3 and rho_5..rho_12 in
/// rho order, `egds` holds rho_4, and each rule is named "rho<k>" after
/// its paper number. The rule variables carry fixed reserved names
/// ("$O", "$A", ...) that no parser produces, so they never collide with
/// query variables, and building the set again in the same World interns
/// nothing new.
DependencySet MakeSigmaFLDependencies(World& world);

/// The Datalog fragment Sigma_FL minus {rho_4, rho_5} as plain rules, for
/// saturating ground databases with the Datalog engine.
std::vector<Rule> SigmaFLDatalogRules(World& world);

}  // namespace floq

#endif  // FLOQ_CHASE_SIGMA_FL_H_
