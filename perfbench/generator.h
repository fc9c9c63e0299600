#ifndef FLOQ_PERFBENCH_GENERATOR_H_
#define FLOQ_PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "containment/governor.h"
#include "term/world.h"
#include "util/status.h"

// The one seeded generator behind all three workloads. Queries are built as
// a small intermediate form (GenQuery), rendered to F-logic surface text
// with upper-case variables, and parsed by the program like any client
// text. Every rendered text is checked to parse back to the generated
// query up to variable renaming (RoundTripCheck).
//
// Corpus (the classify input and the serve registry) mixes three kinds:
//   * families: a base query plus variants whose verdicts hold by
//     construction (extra atoms => contained in the base, renamed
//     variables => equivalent, `X : c` replaced by `X : d, d :: c` =>
//     contained only under Sigma_FL via rho_3). Each family carries a
//     private constant, so no query outside the family is contained in a
//     family member. Families use no funct atoms: an unsatisfiable left
//     side would be contained in everything.
//   * narrow: a fifth of the corpus over a small shared vocabulary, so
//     pairs survive the signature prefilter and chase and hom do real work;
//   * spine: mandatory cycles (infinite chase, paper §4) and data-chain
//     probes.
//
// Ad-hoc pool (serve_read's text-only `contain` requests), five classes:
//   a) mandatory cycle k<=4 against data-chain probe m<=6,
//   b) attribute chains h<=8 (long form against short form and back),
//   c) funct fans,
//   d) random pairs over the narrow vocabulary,
//   e) the subquery a ~96-atom target induces on 8-10 of its nodes
//      (hom-bound).

namespace floqbench {

enum class Pred { kMember, kSub, kData, kType, kMandatory, kFunct };

struct GenTerm {
  std::string name;  // variables start upper-case, constants lower-case
  bool variable = false;
};

struct GenAtom {
  Pred pred = Pred::kMember;
  std::vector<GenTerm> args;
};

struct GenQuery {
  std::string name;
  std::vector<GenTerm> head;
  std::vector<GenAtom> body;
};

/// Surface syntax: `name(X) :- X : c, X[a -> Y], mandatory(a, Y).`
std::string Render(const GenQuery& query);

/// Parses Render(query) and checks that the result equals `query` up to a
/// bijective renaming of variables (same predicates, constants and head).
floq::Status RoundTripCheck(const GenQuery& query);

/// A by-construction verdict: kUnknown when construction says nothing.
enum class Known { kUnknown, kContained, kNotContained };

struct CorpusEntry {
  std::string name;
  std::string text;
  // family >= 0: family id; -1 narrow; -2 mandatory cycle; -3 chain probe.
  int family = -1;
  // Private extra constants of a family member: bit 0 = rho_3 variant,
  // bits 1.. = extra-atom levels. q1 ⊆ q2 within a family iff
  // features(q2) ⊆ features(q1).
  uint32_t features = 0;
};

struct Corpus {
  std::vector<CorpusEntry> entries;
  /// Verdict of entries[lhs] ⊆ entries[rhs] known by construction.
  Known KnownVerdict(size_t lhs, size_t rhs) const;
};

/// `count` corpus queries from `seed`: families of five, a fifth narrow,
/// one in twenty on the spine. Every text passes RoundTripCheck (a failure
/// is returned as an error).
floq::Result<Corpus> MakeCorpus(uint64_t seed, size_t count);

struct AdhocPair {
  char cls = 'a';  // 'a'..'e' as above
  std::string lhs;
  std::string rhs;
  Known known = Known::kUnknown;
};

/// `light` ad-hoc pairs spread evenly over classes (a)-(d), then `heavy`
/// class (e) pairs.
floq::Result<std::vector<AdhocPair>> MakeAdhocPool(uint64_t seed, size_t light,
                                                   size_t heavy);

/// One-shot reference verdict: parse both texts into a fresh World and
/// run CheckContainment (no signature index, no memoized chase, no
/// incremental index) under `budget`. A CONTAINED verdict must carry a
/// witness that passes IsQueryHomomorphism; otherwise an error is
/// returned.
floq::Result<floq::Resolution> OneShotVerdict(
    const std::string& lhs, const std::string& rhs,
    const floq::ResourceBudget& budget);

/// True when `resolution` agrees with a by-construction verdict.
bool Agrees(Known known, floq::Resolution resolution);

}  // namespace floqbench

#endif  // FLOQ_PERFBENCH_GENERATOR_H_
