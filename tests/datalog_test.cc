#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/fact_index.h"
#include "datalog/match.h"
#include "datalog/rule.h"
#include "query/parser.h"
#include "term/world.h"

namespace floq {
namespace {

// ---- FactIndex -----------------------------------------------------------

TEST(FactIndexTest, InsertDeduplicates) {
  World world;
  FactIndex index;
  Atom atom = Atom::Sub(world.MakeConstant("a"), world.MakeConstant("b"));
  auto [id1, fresh1] = index.Insert(atom);
  auto [id2, fresh2] = index.Insert(atom);
  EXPECT_TRUE(fresh1);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.Contains(atom));
}

TEST(FactIndexTest, PostingListsAreStrictlyIncreasing) {
  // The kernel's candidate order and the snapshot's posting runs rely on
  // every posting list being strictly increasing in fact id — which holds
  // by construction (ids are assigned in insertion order, each Insert
  // appends) and is FLOQ_DCHECKed per append in debug builds.
  World world;
  FactIndex index;
  Term a = world.MakeConstant("a");
  Term b = world.MakeConstant("b");
  Term c = world.MakeConstant("c");
  index.Insert(Atom::Sub(a, b));
  index.Insert(Atom::Sub(b, c));
  index.Insert(Atom::Sub(a, c));
  index.Insert(Atom::Member(a, b));
  index.Insert(Atom::Sub(b, c));  // duplicate: must not re-append
  EXPECT_TRUE(index.PostingListsSorted());

  EXPECT_TRUE(std::ranges::equal(index.WithPredicate(pfl::kSub),
                                  std::vector<uint32_t>{0, 1, 2}));
  EXPECT_TRUE(std::ranges::equal(index.WithArgument(pfl::kSub, 0, a),
                                  std::vector<uint32_t>{0, 2}));
}

TEST(FactIndexTest, PredicateBuckets) {
  World world;
  FactIndex index;
  Term a = world.MakeConstant("a");
  Term b = world.MakeConstant("b");
  index.Insert(Atom::Sub(a, b));
  index.Insert(Atom::Member(a, b));
  index.Insert(Atom::Sub(b, a));
  EXPECT_EQ(index.WithPredicate(pfl::kSub).size(), 2u);
  EXPECT_EQ(index.WithPredicate(pfl::kMember).size(), 1u);
  EXPECT_TRUE(index.WithPredicate(pfl::kData).empty());
}

TEST(FactIndexTest, ArgumentIndex) {
  World world;
  FactIndex index;
  Term a = world.MakeConstant("a");
  Term b = world.MakeConstant("b");
  Term c = world.MakeConstant("c");
  index.Insert(Atom::Sub(a, b));
  index.Insert(Atom::Sub(a, c));
  index.Insert(Atom::Sub(b, c));
  EXPECT_EQ(index.WithArgument(pfl::kSub, 0, a).size(), 2u);
  EXPECT_EQ(index.WithArgument(pfl::kSub, 1, c).size(), 2u);
  EXPECT_TRUE(index.WithArgument(pfl::kSub, 0, c).empty());
}

// Regression test for the argument-index packing: the key used to give
// the position only 2 bits, so position 4 of a 6-ary predicate computed
// the same bucket key as position 0 of the next predicate id (and
// position 5 as its position 1), and lookups returned ids of foreign
// atoms.
TEST(FactIndexTest, WideArityPositionsDoNotCollide) {
  World world;
  PredicateId wide_a = world.predicates().Intern("wide_a", 6);
  PredicateId wide_b = world.predicates().Intern("wide_b", 6);
  ASSERT_NE(wide_a, kInvalidPredicate);
  ASSERT_EQ(wide_b, wide_a + 1);  // consecutive ids: the aliasing setup

  Term v = world.MakeConstant("v");
  Term w = world.MakeConstant("w");
  std::vector<Term> filler;
  for (int i = 0; i < 6; ++i) {
    filler.push_back(world.MakeConstant("c" + std::to_string(i)));
  }

  FactIndex index;
  Atom a(wide_a, filler);
  a.set_arg(4, v);
  a.set_arg(5, w);
  Atom b(wide_b, filler);
  b.set_arg(0, v);
  b.set_arg(1, w);
  index.Insert(a);
  index.Insert(b);

  // Old packing: key(wide_a, 4, v) == key(wide_b, 0, v), so both lookups
  // saw a two-element bucket.
  ASSERT_EQ(index.WithArgument(wide_a, 4, v).size(), 1u);
  EXPECT_EQ(index.at(index.WithArgument(wide_a, 4, v)[0]), a);
  ASSERT_EQ(index.WithArgument(wide_b, 0, v).size(), 1u);
  EXPECT_EQ(index.at(index.WithArgument(wide_b, 0, v)[0]), b);

  // And key(wide_a, 5, w) == key(wide_b, 1, w).
  ASSERT_EQ(index.WithArgument(wide_a, 5, w).size(), 1u);
  EXPECT_EQ(index.at(index.WithArgument(wide_a, 5, w)[0]), a);
  ASSERT_EQ(index.WithArgument(wide_b, 1, w).size(), 1u);
  EXPECT_EQ(index.at(index.WithArgument(wide_b, 1, w)[0]), b);

  EXPECT_TRUE(index.WithArgument(wide_a, 0, v).empty());
  EXPECT_TRUE(index.WithArgument(wide_b, 4, v).empty());
}

TEST(FactIndexTest, IdOfMissingAtom) {
  World world;
  FactIndex index;
  EXPECT_EQ(index.IdOf(Atom::Sub(world.MakeConstant("x"),
                                 world.MakeConstant("y"))),
            kInvalidFactId);
}

// ---- MatchConjunction -------------------------------------------------------

class MatchTest : public ::testing::Test {
 protected:
  World world_;
  FactIndex index_;

  void Load(const char* text) {
    Result<std::vector<Atom>> atoms = ParseAtoms(world_, text);
    ASSERT_TRUE(atoms.ok()) << atoms.status().ToString();
    for (const Atom& atom : *atoms) index_.Insert(atom);
  }

  std::vector<Atom> Pattern(const char* text) {
    Result<std::vector<Atom>> atoms = ParseAtoms(world_, text);
    EXPECT_TRUE(atoms.ok()) << atoms.status().ToString();
    return *atoms;
  }

  size_t CountMatches(const char* pattern_text) {
    size_t count = 0;
    MatchConjunction(Pattern(pattern_text), index_, Substitution(),
                     [&](const Substitution&) {
                       ++count;
                       return true;
                     });
    return count;
  }
};

TEST_F(MatchTest, SingleAtomAllBindings) {
  Load("sub(a, b), sub(b, c), sub(a, c).");
  EXPECT_EQ(CountMatches("sub(X, Y)."), 3u);
  EXPECT_EQ(CountMatches("sub(a, Y)."), 2u);
  EXPECT_EQ(CountMatches("sub(a, b)."), 1u);
  EXPECT_EQ(CountMatches("sub(c, Y)."), 0u);
}

TEST_F(MatchTest, RepeatedVariableWithinAtom) {
  Load("sub(a, a), sub(a, b).");
  EXPECT_EQ(CountMatches("sub(X, X)."), 1u);
}

TEST_F(MatchTest, JoinAcrossAtoms) {
  Load("sub(a, b), sub(b, c), sub(c, d).");
  // Chains of length 2: (a,b,c), (b,c,d).
  EXPECT_EQ(CountMatches("sub(X, Y), sub(Y, Z)."), 2u);
}

TEST_F(MatchTest, ConstantsMapToThemselves) {
  Load("member(john, student), member(mary, student).");
  EXPECT_EQ(CountMatches("member(john, C)."), 1u);
}

TEST_F(MatchTest, InitialSubstitutionIsRespected) {
  Load("sub(a, b), sub(b, c).");
  std::vector<Atom> pattern = Pattern("sub(X, Y).");
  Substitution initial;
  initial.Bind(world_.MakeVariable("X"), world_.MakeConstant("b"));
  size_t count = 0;
  MatchConjunction(pattern, index_, initial, [&](const Substitution& match) {
    EXPECT_EQ(match.Apply(world_.MakeVariable("Y")), world_.MakeConstant("c"));
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1u);
}

TEST_F(MatchTest, EarlyStopReturnsFalse) {
  Load("sub(a, b), sub(b, c), sub(c, d).");
  std::vector<Atom> pattern = Pattern("sub(X, Y).");
  bool completed = MatchConjunction(pattern, index_, Substitution(),
                                    [](const Substitution&) { return false; });
  EXPECT_FALSE(completed);
}

// A pattern far past any 16-bit index and any call-stack depth: 10,923
// atoms of a 6-ary predicate with all-distinct variables (65,538 slots)
// against a one-fact index. The search places one atom per level, so it
// runs 10,923 levels deep; on the explicit frame stack that costs heap,
// not thread stack. Its one match binds every variable.
TEST_F(MatchTest, PatternDeeperThanTheCallStackFindsItsMatch) {
  constexpr int kAtoms = 10'923;
  PredicateId wide = world_.predicates().Intern("wide", 6);
  ASSERT_NE(wide, kInvalidPredicate);
  std::vector<Term> fact_args;
  fact_args.reserve(6);
  for (int i = 0; i < 6; ++i) {
    fact_args.push_back(world_.MakeConstant("c" + std::to_string(i)));
  }
  index_.Insert(Atom(wide, fact_args));

  std::vector<Atom> pattern;
  std::vector<Term> vars;
  pattern.reserve(kAtoms);
  vars.reserve(6 * kAtoms);
  for (int a = 0; a < kAtoms; ++a) {
    std::vector<Term> args;
    args.reserve(6);
    for (int i = 0; i < 6; ++i) {
      vars.push_back(world_.MakeVariable("V" + std::to_string(6 * a + i)));
      args.push_back(vars.back());
    }
    pattern.emplace_back(wide, args);
  }
  ASSERT_EQ(vars.size(), 65'538u);

  MatchStats stats;
  size_t matches = 0;
  EXPECT_TRUE(MatchConjunction(
      pattern, index_, Substitution(),
      [&](const Substitution& match) {
        ++matches;
        EXPECT_EQ(match.Apply(vars.front()), fact_args.front());
        EXPECT_EQ(match.Apply(vars.back()), fact_args.back());
        return true;
      },
      &stats));
  EXPECT_EQ(matches, 1u);
  EXPECT_EQ(stats.nodes_visited, uint64_t(kAtoms) + 1);
}

TEST_F(MatchTest, EmptyPatternMatchesOnce) {
  Load("sub(a, b).");
  EXPECT_EQ(CountMatches(""), 1u);
}

TEST_F(MatchTest, StatsCountNodes) {
  Load("sub(a, b), sub(b, c).");
  MatchStats stats;
  MatchConjunction(Pattern("sub(X, Y), sub(Y, Z)."), index_, Substitution(),
                   [](const Substitution&) { return true; }, &stats);
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_EQ(stats.matches_found, 1u);
}

// ---- TryUnifyAtom -----------------------------------------------------------

TEST(TryUnifyAtomTest, BindsAndChecks) {
  World world;
  Term x = world.MakeVariable("X");
  Term a = world.MakeConstant("a");
  Term b = world.MakeConstant("b");
  Substitution subst;
  EXPECT_TRUE(TryUnifyAtom(Atom::Sub(x, x), Atom::Sub(a, a), subst));
  EXPECT_EQ(subst.Apply(x), a);
  Substitution subst2;
  EXPECT_FALSE(TryUnifyAtom(Atom::Sub(x, x), Atom::Sub(a, b), subst2));
  EXPECT_TRUE(subst2.empty());  // failed unification leaves no bindings
}

TEST(TryUnifyAtomTest, PredicateMismatch) {
  World world;
  Term a = world.MakeConstant("a");
  Substitution subst;
  EXPECT_FALSE(TryUnifyAtom(Atom::Sub(a, a), Atom::Member(a, a), subst));
}

// ---- SemiNaiveFixpoint ------------------------------------------------------

class FixpointTest : public ::testing::Test {
 protected:
  World world_;
  Database db_;

  void LoadFacts(const char* text) {
    Result<std::vector<Atom>> atoms = ParseAtoms(world_, text);
    ASSERT_TRUE(atoms.ok()) << atoms.status().ToString();
    db_.InsertAll(*atoms);
  }

  Rule MakeRule(const char* text) {
    Result<ConjunctiveQuery> q = ParseQuery(world_, text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    // Reuse the CQ parser: head predicate = rule name.
    PredicateId pred =
        world_.predicates().Intern(q->name(), int(q->head().size()));
    return Rule{Atom(pred, q->head()), q->body()};
  }
};

TEST_F(FixpointTest, TransitiveClosure) {
  LoadFacts("sub(a, b), sub(b, c), sub(c, d).");
  std::vector<Rule> rules = {MakeRule("sub(X, Z) :- sub(X, Y), sub(Y, Z).")};
  Result<uint64_t> derived = SemiNaiveFixpoint(db_, rules);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(*derived, 3u);  // (a,c), (b,d), (a,d)
  EXPECT_TRUE(db_.Contains(Atom::Sub(world_.MakeConstant("a"),
                                     world_.MakeConstant("d"))));
}

TEST_F(FixpointTest, MembershipInheritance) {
  LoadFacts("member(john, freshman), sub(freshman, student), "
            "sub(student, person).");
  std::vector<Rule> rules = {
      MakeRule("sub(X, Z) :- sub(X, Y), sub(Y, Z)."),
      MakeRule("member(O, D) :- member(O, C), sub(C, D)."),
  };
  ASSERT_TRUE(SemiNaiveFixpoint(db_, rules).ok());
  EXPECT_TRUE(db_.Contains(Atom::Member(world_.MakeConstant("john"),
                                        world_.MakeConstant("person"))));
  EXPECT_EQ(db_.FactsWith(pfl::kMember).size(), 3u);
}

TEST_F(FixpointTest, EmptyRulesDeriveNothing) {
  LoadFacts("sub(a, b).");
  Result<uint64_t> derived = SemiNaiveFixpoint(db_, {});
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(*derived, 0u);
}

TEST_F(FixpointTest, BudgetIsEnforced) {
  // succ-cycle free growth: f(X,Y) over a chain squared would stay finite;
  // instead use a rule that keeps inventing pairs over a 20-element domain:
  // reach(X, Z) :- edge(X, Y), reach(Y, Z) on a cycle saturates quickly, so
  // budget must be tiny to trigger.
  LoadFacts("edge(a, b), edge(b, c), edge(c, a), reach(a, a).");
  std::vector<Rule> rules = {
      MakeRule("reach(X, Z) :- edge(X, Y), reach(Y, Z).")};
  EvalOptions options;
  options.max_facts = 5;
  Result<uint64_t> derived = SemiNaiveFixpoint(db_, rules, options);
  EXPECT_FALSE(derived.ok());
  EXPECT_EQ(derived.status().code(), StatusCode::kResourceExhausted);
}

// ---- EvaluateQuery ----------------------------------------------------------

TEST_F(FixpointTest, EvaluateQueryReturnsDistinctTuples) {
  LoadFacts("member(john, student), member(mary, student), "
            "member(john, club).");
  ConjunctiveQuery q = *ParseQuery(world_, "q(X) :- member(X, C).");
  std::vector<std::vector<Term>> answers = EvaluateQuery(db_, q);
  EXPECT_EQ(answers.size(), 2u);  // john, mary — deduplicated
}

TEST_F(FixpointTest, EvaluateQueryWithJoin) {
  LoadFacts("type(person, age, number), data(john, age, 33), "
            "data(john, name, js).");
  ConjunctiveQuery q =
      *ParseQuery(world_, "q(A, V) :- type(person, A, number), "
                          "data(john, A, V).");
  std::vector<std::vector<Term>> answers = EvaluateQuery(db_, q);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(world_.NameOf(answers[0][0]), "age");
  EXPECT_EQ(world_.NameOf(answers[0][1]), "33");
}

TEST_F(FixpointTest, BooleanQueryOnEmptyDatabase) {
  ConjunctiveQuery q = *ParseQuery(world_, "q() :- member(X, student).");
  EXPECT_TRUE(EvaluateQuery(db_, q).empty());
}

}  // namespace
}  // namespace floq
