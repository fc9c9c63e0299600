// Tests for the compiled homomorphism kernel (DESIGN.md §9): the
// BindingTrail, pattern compilation, and — the load-bearing part —
// properties asserting that the kernel enumerates exactly the match sets
// of the brute-force oracle in tests/reference_matcher.h over the src/gen
// corpus (including wide targets whose posting lists hold hundreds of
// ids), and that CheckContainment's verdicts agree with the oracle's
// search of the same chase.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "containment/containment.h"
#include "datalog/binding_trail.h"
#include "datalog/compiled_pattern.h"
#include "datalog/match.h"
#include "gen/generators.h"
#include "query/parser.h"
#include "reference_matcher.h"
#include "term/world.h"
#include "util/rng.h"

namespace floq {
namespace {

// ---- BindingTrail ----------------------------------------------------------

TEST(BindingTrailTest, BindMarkUndo) {
  BindingTrail trail(4);
  EXPECT_FALSE(trail.Bound(0));
  trail.Bind(0, Term::Constant(7));
  size_t mark = trail.Mark();
  trail.Bind(2, Term::Variable(1));
  trail.Bind(3, Term::Null(5));
  EXPECT_TRUE(trail.Bound(2));
  EXPECT_EQ(trail.Get(3), Term::Null(5));
  EXPECT_EQ(trail.trail().size(), 3u);

  trail.UndoTo(mark);
  EXPECT_TRUE(trail.Bound(0));
  EXPECT_EQ(trail.Get(0), Term::Constant(7));
  EXPECT_FALSE(trail.Bound(2));
  EXPECT_FALSE(trail.Bound(3));

  // Slots freed by the undo are bindable again.
  trail.Bind(2, Term::Constant(9));
  EXPECT_EQ(trail.Get(2), Term::Constant(9));
  trail.UndoTo(0);
  EXPECT_FALSE(trail.Bound(0));
  EXPECT_EQ(trail.Mark(), 0u);
}

// ---- pattern compilation ----------------------------------------------------

TEST(CompiledPatternTest, ClassifiesArgumentPositions) {
  World world;
  FactIndex index;
  auto facts = ParseAtoms(world, "data(john, age, v33), member(john, person)");
  ASSERT_TRUE(facts.ok());
  for (const Atom& atom : *facts) index.Insert(atom);

  // X is a first occurrence in atom 0 then a join in atom 1; Y repeats
  // within atom 0; `person` is a constant with a nonempty posting list.
  auto pattern = ParseAtoms(world, "data(X, Y, Y), member(X, person)");
  ASSERT_TRUE(pattern.ok());
  MatchStats stats;
  CompiledPattern compiled(*pattern, index, Substitution(), &stats);

  ASSERT_EQ(compiled.atoms().size(), 2u);
  EXPECT_EQ(compiled.num_slots(), 2);  // X, Y
  const CompiledAtom& data = compiled.atoms()[0];
  EXPECT_EQ(data.args[0].kind, CompiledArg::Kind::kSlot);
  EXPECT_FALSE(data.args[0].repeated_in_atom);
  EXPECT_EQ(data.args[1].kind, CompiledArg::Kind::kSlot);
  EXPECT_FALSE(data.args[1].repeated_in_atom);
  EXPECT_EQ(data.args[2].kind, CompiledArg::Kind::kSlot);
  EXPECT_TRUE(data.args[2].repeated_in_atom);
  EXPECT_EQ(data.args[1].slot, data.args[2].slot);
  EXPECT_EQ(data.num_slot_positions, 3);

  const CompiledAtom& member = compiled.atoms()[1];
  EXPECT_EQ(member.args[0].kind, CompiledArg::Kind::kSlot);
  EXPECT_EQ(member.args[0].slot, data.args[0].slot);  // same X
  EXPECT_EQ(member.args[1].kind, CompiledArg::Kind::kConstant);
  EXPECT_EQ(member.args[1].value, world.MakeConstant("person"));
  // The constant position's posting list was resolved at compile time
  // and, being no longer than the predicate bucket, is static_best.
  EXPECT_EQ(member.static_best.size(), 1u);
  EXPECT_FALSE(compiled.impossible());
  EXPECT_EQ(stats.index_probes, 1u);
}

TEST(CompiledPatternTest, EmptyConstantListShortCircuitsCompilation) {
  World world;
  FactIndex index;
  auto facts = ParseAtoms(world, "data(john, age, v33), member(john, person)");
  ASSERT_TRUE(facts.ok());
  for (const Atom& atom : *facts) index.Insert(atom);

  // Nobody is a member of class `john`: the empty posting list proves the
  // conjunction unmatchable and compilation stops there.
  auto pattern = ParseAtoms(world, "member(X, john), data(X, Y, Z)");
  ASSERT_TRUE(pattern.ok());
  MatchStats stats;
  CompiledPattern compiled(*pattern, index, Substitution(), &stats);
  EXPECT_TRUE(compiled.impossible());
  EXPECT_EQ(compiled.atoms().size(), 0u);  // stopped inside the first atom
  EXPECT_EQ(stats.index_probes, 1u);

  // And the kernel reports no matches without expanding a node.
  MatchStats search_stats;
  size_t matches = 0;
  MatchConjunction(
      *pattern, index, Substitution(),
      [&](const Substitution&) {
        ++matches;
        return true;
      },
      &search_stats);
  EXPECT_EQ(matches, 0u);
  EXPECT_EQ(search_stats.nodes_visited, 0u);
}

TEST(CompiledPatternTest, InitialBindingsBecomeConstants) {
  World world;
  FactIndex index;
  auto facts = ParseAtoms(world, "sub(a, b), sub(b, c)");
  ASSERT_TRUE(facts.ok());
  for (const Atom& atom : *facts) index.Insert(atom);

  auto pattern = ParseAtoms(world, "sub(X, Y)");
  ASSERT_TRUE(pattern.ok());
  Substitution initial;
  initial.Bind(world.MakeVariable("X"), world.MakeConstant("b"));
  CompiledPattern compiled(*pattern, index, initial, nullptr);

  EXPECT_EQ(compiled.num_slots(), 1);  // only Y remains free
  const CompiledAtom& sub = compiled.atoms()[0];
  EXPECT_EQ(sub.args[0].kind, CompiledArg::Kind::kConstant);
  EXPECT_EQ(sub.args[0].value, world.MakeConstant("b"));
  EXPECT_EQ(sub.args[1].kind, CompiledArg::Kind::kSlot);
  EXPECT_FALSE(compiled.impossible());
  // static_best is the resolved sub(b, _) list: exactly one fact.
  EXPECT_EQ(sub.static_best.size(), 1u);
}

// ---- the kernel against the brute-force oracle ------------------------------

// Canonical rendering of a match for set comparison: its (raw, raw)
// pairs, sorted. Takes a Substitution's entries or an oracle Assignment.
template <typename Entries>
std::string CanonicalMatch(const Entries& entries) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (const auto& [from, to] : entries) {
    pairs.emplace_back(from.raw(), to.raw());
  }
  std::sort(pairs.begin(), pairs.end());
  std::string out;
  for (const auto& [from, to] : pairs) {
    out += std::to_string(from) + "->" + std::to_string(to) + ";";
  }
  return out;
}

std::set<std::string> KernelMatches(std::span<const Atom> pattern,
                                    const FactIndex& index) {
  std::set<std::string> matches;
  MatchConjunction(pattern, index, Substitution(),
                   [&](const Substitution& match) {
                     matches.insert(CanonicalMatch(match.entries()));
                     return true;
                   });
  return matches;
}

// The oracle reads the target as a flat atom list, not through postings.
std::vector<Atom> AtomList(const FactIndex& index) {
  std::vector<Atom> atoms;
  atoms.reserve(index.size());
  for (const Atom& atom : index.atoms()) atoms.push_back(atom);
  return atoms;
}

std::set<std::string> OracleMatches(std::span<const Atom> pattern,
                                    const FactIndex& index) {
  std::set<std::string> matches;
  reference::ForEachMatch(pattern, AtomList(index), {},
                          [&](const reference::Assignment& match) {
                            matches.insert(CanonicalMatch(match));
                            return true;
                          });
  return matches;
}

// Seeds below kNarrowSeeds search the level-0 chase of a small random
// query, whose posting lists are all short. Later seeds use a wide target
// instead: the body of a large random query over a 13-term universe, dense
// enough that predicate buckets hold at least 4 x 128 ids and the data
// list of one constant more than 128, so candidate scans run long. The
// small universe keeps every probe's match set enumerable (at most 13^4
// assignments).
constexpr uint64_t kNarrowSeeds = 25;
constexpr uint64_t kWideSeeds = 8;

class KernelEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelEquivalenceProperty, SameMatchSetsOnGenCorpus) {
  const uint64_t seed = GetParam();
  World world;

  ChaseResult chase;
  FactIndex wide;
  if (seed < kNarrowSeeds) {
    // Target: the level-0 chase of a random query (dense, join-heavy).
    gen::RandomQuerySpec target_spec;
    target_spec.seed = seed;
    target_spec.atoms = 10 + int(seed % 6);
    target_spec.variable_pool = 5 + int(seed % 3);
    target_spec.constant_pool = 3;
    target_spec.constant_probability = 0.25;
    target_spec.arity = 0;
    ConjunctiveQuery q1 =
        gen::MakeRandomQuery(world, target_spec, "target");
    chase = ChaseLevelZero(world, q1);
  } else {
    gen::RandomQuerySpec target_spec;
    target_spec.seed = seed;
    target_spec.atoms = 24000;
    target_spec.variable_pool = 10;
    target_spec.constant_pool = 3;
    target_spec.constant_probability = 0.25;
    target_spec.arity = 0;
    target_spec.with_constraints = false;
    ConjunctiveQuery q1 =
        gen::MakeRandomQuery(world, target_spec, "target");
    for (const Atom& atom : q1.body()) wide.Insert(atom);
    ASSERT_GE(wide.WithPredicate(pfl::kData).size(), 4 * 128u);
    ASSERT_GT(
        wide.WithArgument(pfl::kData, 1, world.MakeConstant("c0")).size(),
        128u);
  }
  const FactIndex& target = seed < kNarrowSeeds ? chase.conjuncts() : wide;
  ASSERT_TRUE(target.PostingListsSorted());

  for (int probe_index = 0; probe_index < 4; ++probe_index) {
    gen::RandomQuerySpec probe_spec;
    probe_spec.seed = seed * 97 + uint64_t(probe_index);
    probe_spec.atoms = 3 + int((seed + uint64_t(probe_index)) % 4);
    probe_spec.variable_pool = 4;
    probe_spec.constant_pool = 3;
    probe_spec.constant_probability = 0.25;
    probe_spec.arity = 0;
    probe_spec.with_constraints = false;
    ConjunctiveQuery probe =
        gen::MakeRandomQuery(world, probe_spec, "probe").RenameApart(world);

    EXPECT_EQ(KernelMatches(probe.body(), target),
              OracleMatches(probe.body(), target))
        << "kernel vs oracle, probe " << probe.ToString(world);
  }

  // Random probes rarely embed in a narrow target. Three of its own
  // atoms, renamed apart, always do, so some compared sets are not empty.
  if (seed < kNarrowSeeds) {
    const std::vector<Atom> atoms = AtomList(target);
    Rng rng(seed);
    std::vector<Atom> sample;
    sample.reserve(3);
    for (int i = 0; i < 3; ++i) {
      sample.push_back(atoms[rng.Below(atoms.size())]);
    }
    ConjunctiveQuery probe =
        ConjunctiveQuery("sample", {}, std::move(sample)).RenameApart(world);
    const std::set<std::string> matches = KernelMatches(probe.body(), target);
    EXPECT_FALSE(matches.empty());
    EXPECT_EQ(matches, OracleMatches(probe.body(), target))
        << "kernel vs oracle, probe " << probe.ToString(world);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalenceProperty,
                         ::testing::Range(uint64_t(0),
                                          kNarrowSeeds + kWideSeeds));

// The head-seeded search path (initial substitution non-empty) must agree
// too: CheckContainment's verdict against the oracle's search of the same
// chase.
class KernelContainmentProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelContainmentProperty, SameVerdictsThroughCheckContainment) {
  const uint64_t seed = GetParam();
  World world;
  gen::RandomQuerySpec spec;
  spec.seed = seed;
  spec.atoms = 3 + int(seed % 4);
  spec.variable_pool = 4;
  spec.arity = 1;
  ConjunctiveQuery q1 = gen::MakeRandomQuery(world, spec, "q1");
  spec.seed = seed + 1000;
  spec.atoms = 3 + int((seed + 1) % 4);
  ConjunctiveQuery q2 = gen::MakeRandomQuery(world, spec, "q2");

  // Random pairs are rarely contained; each query in itself always is.
  for (const auto& [lhs, rhs] : {std::pair{&q1, &q2}, std::pair{&q2, &q1},
                                 std::pair{&q1, &q1}, std::pair{&q2, &q2}}) {
    Result<ContainmentResult> result = CheckContainment(world, *lhs, *rhs);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_NE(result->resolution, Resolution::kUnknown);
    if (result->q1_unsatisfiable) continue;  // settled without a search
    const std::optional<bool> oracle = reference::HasQueryHomomorphism(
        rhs->RenameApart(world), AtomList(result->chase.conjuncts()),
        result->chase.head());
    ASSERT_TRUE(oracle.has_value());
    EXPECT_EQ(result->contained, *oracle)
        << lhs->ToString(world) << " vs " << rhs->ToString(world);
    EXPECT_EQ(result->hom_stats.matches_found > 0, *oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelContainmentProperty,
                         ::testing::Range(uint64_t(0), uint64_t(30)));

// ---- posting lists are sorted, as the kernel's candidate order relies on ----

TEST(FactIndexInvariant, PostingListsSortedOnChasedCorpus) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    World world;
    gen::RandomQuerySpec spec;
    spec.seed = seed;
    spec.atoms = 8;
    spec.variable_pool = 5;
    spec.arity = 0;
    ConjunctiveQuery q = gen::MakeRandomQuery(world, spec, "q");
    ChaseResult chase = ChaseLevelZero(world, q);
    EXPECT_TRUE(chase.conjuncts().PostingListsSorted()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace floq
