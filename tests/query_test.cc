#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "query/conjunctive_query.h"
#include "query/parser.h"
#include "query/shape_key.h"
#include "term/world.h"
#include "util/rng.h"

namespace floq {
namespace {

// ---- parsing ------------------------------------------------------------

TEST(QueryParserTest, ParsesPaperJoinableQuery) {
  World world;
  Result<ConjunctiveQuery> q = ParseQuery(
      world, "q(A, B) :- type(T1, A, T2), sub(T2, T3), type(T3, B, _).");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->name(), "q");
  EXPECT_EQ(q->arity(), 2);
  EXPECT_EQ(q->size(), 3);
  EXPECT_EQ(q->body()[0].predicate(), pfl::kType);
  EXPECT_EQ(q->body()[1].predicate(), pfl::kSub);
}

TEST(QueryParserTest, VariablesVsConstantsByCase) {
  World world;
  Result<ConjunctiveQuery> q =
      ParseQuery(world, "q(X) :- member(X, student).");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->body()[0].arg(0).IsVariable());
  EXPECT_TRUE(q->body()[0].arg(1).IsConstant());
  EXPECT_EQ(world.NameOf(q->body()[0].arg(1)), "student");
}

TEST(QueryParserTest, AnonymousVariablesAreFreshEachTime) {
  World world;
  Result<ConjunctiveQuery> q =
      ParseQuery(world, "q() :- data(_, _, _), data(_, _, _).");
  ASSERT_TRUE(q.ok());
  std::vector<Term> vars = q->Variables();
  EXPECT_EQ(vars.size(), 6u);  // all distinct
}

TEST(QueryParserTest, QuotedAndNumericConstants) {
  World world;
  Result<ConjunctiveQuery> q =
      ParseQuery(world, "q(V) :- data(john, age, V), data(john, name, 'J S').");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(world.NameOf(q->body()[1].arg(2)), "J S");
  Result<ConjunctiveQuery> q2 = ParseQuery(world, "q() :- data(j, age, 33).");
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(world.NameOf(q2->body()[0].arg(2)), "33");
  EXPECT_TRUE(q2->body()[0].arg(2).IsConstant());
}

TEST(QueryParserTest, CommentsAreSkipped) {
  World world;
  Result<ConjunctiveQuery> q = ParseQuery(world,
                                          "% a comment\n"
                                          "q(X) :- % mid-rule comment\n"
                                          "  member(X, c).");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
}

TEST(QueryParserTest, ZeroAryHeadAllowed) {
  World world;
  Result<ConjunctiveQuery> q = ParseQuery(world, "q() :- sub(a, b).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->arity(), 0);
  // Headless form also allowed.
  Result<ConjunctiveQuery> q2 = ParseQuery(world, "q :- sub(a, b).");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->arity(), 0);
}

TEST(QueryParserTest, UserPredicatesRegisterOnFirstUse) {
  World world;
  Result<ConjunctiveQuery> q = ParseQuery(world, "q(X, Y) :- edge(X, Y).");
  ASSERT_TRUE(q.ok());
  EXPECT_NE(world.predicates().Lookup("edge"), kInvalidPredicate);
}

TEST(QueryParserTest, ArityConflictIsError) {
  World world;
  ASSERT_TRUE(ParseQuery(world, "q(X) :- edge(X, X).").ok());
  Result<ConjunctiveQuery> bad = ParseQuery(world, "q(X) :- edge(X, X, X).");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryParserTest, WrongPflArityIsError) {
  World world;
  EXPECT_FALSE(ParseQuery(world, "q(X) :- member(X).").ok());
  EXPECT_FALSE(ParseQuery(world, "q(X) :- data(X, X).").ok());
}

TEST(QueryParserTest, UnsafeHeadIsError) {
  World world;
  Result<ConjunctiveQuery> bad = ParseQuery(world, "q(Y) :- member(X, c).");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("unsafe"), std::string::npos);
}

TEST(QueryParserTest, SyntaxErrorsReportPosition) {
  World world;
  Result<ConjunctiveQuery> bad = ParseQuery(world, "q(X) :- member(X c).");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("parse error at 1:"),
            std::string::npos);
}

TEST(QueryParserTest, MultipleRules) {
  World world;
  Result<std::vector<ConjunctiveQuery>> queries = ParseQueries(world,
                                                               "q(X) :- member(X, c).\n"
                                                               "r(Y) :- sub(Y, d).\n");
  ASSERT_TRUE(queries.ok());
  ASSERT_EQ(queries->size(), 2u);
  EXPECT_EQ((*queries)[0].name(), "q");
  EXPECT_EQ((*queries)[1].name(), "r");
}

TEST(QueryParserTest, ParseAtomsList) {
  World world;
  Result<std::vector<Atom>> atoms =
      ParseAtoms(world, "member(john, student), sub(student, person).");
  ASSERT_TRUE(atoms.ok());
  EXPECT_EQ(atoms->size(), 2u);
  Result<std::vector<Atom>> empty = ParseAtoms(world, "  % nothing\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

// ---- ConjunctiveQuery utilities -------------------------------------------

TEST(ConjunctiveQueryTest, SizeIsBodyAtomCount) {
  World world;
  ConjunctiveQuery q = *ParseQuery(world, "q(X) :- member(X, c), sub(c, d).");
  EXPECT_EQ(q.size(), 2);
}

TEST(ConjunctiveQueryTest, VariablesInFirstOccurrenceOrder) {
  World world;
  ConjunctiveQuery q =
      *ParseQuery(world, "q(B) :- data(A, B, C), member(A, D).");
  std::vector<Term> vars = q.Variables();
  ASSERT_EQ(vars.size(), 4u);
  EXPECT_EQ(world.NameOf(vars[0]), "B");  // head first
  EXPECT_EQ(world.NameOf(vars[1]), "A");
  EXPECT_EQ(world.NameOf(vars[2]), "C");
  EXPECT_EQ(world.NameOf(vars[3]), "D");
}

TEST(ConjunctiveQueryTest, RenameApartSharesNoVariables) {
  World world;
  ConjunctiveQuery q = *ParseQuery(world, "q(X) :- member(X, Y).");
  Substitution renaming;
  ConjunctiveQuery renamed = q.RenameApart(world, &renaming);
  EXPECT_EQ(renamed.size(), q.size());
  for (Term v : renamed.Variables()) {
    for (Term original : q.Variables()) EXPECT_NE(v, original);
  }
  // The renaming maps old to new consistently.
  EXPECT_EQ(renaming.Apply(q.head()[0]), renamed.head()[0]);
}

TEST(ConjunctiveQueryTest, FreezeProducesGroundAtomsAndHead) {
  World world;
  ConjunctiveQuery q = *ParseQuery(world, "q(X) :- data(X, age, V).");
  std::vector<Term> frozen_head;
  std::vector<Atom> frozen = q.Freeze(world, &frozen_head);
  ASSERT_EQ(frozen.size(), 1u);
  EXPECT_TRUE(frozen[0].IsGround());
  ASSERT_EQ(frozen_head.size(), 1u);
  EXPECT_TRUE(frozen_head[0].IsNull());
  EXPECT_EQ(frozen[0].arg(0), frozen_head[0]);
}

TEST(ConjunctiveQueryTest, SubstituteRewritesHeadAndBody) {
  World world;
  ConjunctiveQuery q = *ParseQuery(world, "q(X) :- member(X, c).");
  Substitution subst;
  subst.Bind(q.head()[0], world.MakeConstant("john"));
  ConjunctiveQuery grounded = q.Substitute(subst);
  EXPECT_EQ(world.NameOf(grounded.head()[0]), "john");
  EXPECT_EQ(world.NameOf(grounded.body()[0].arg(0)), "john");
}

TEST(ConjunctiveQueryTest, ToStringRoundTripsThroughParser) {
  World world;
  ConjunctiveQuery q = *ParseQuery(
      world, "q(A, B) :- type(T1, A, T2), sub(T2, T3), type(T3, B, T4).");
  std::string text = q.ToString(world);
  Result<ConjunctiveQuery> reparsed = ParseQuery(world, text);
  ASSERT_TRUE(reparsed.ok()) << text;
  EXPECT_EQ(*reparsed, q);
}

TEST(ConjunctiveQueryTest, HeadConstantsAreAllowed) {
  World world;
  Result<ConjunctiveQuery> q =
      ParseQuery(world, "q(john, X) :- member(X, c).");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->head()[0].IsConstant());
}

// ---- error positions and spans -------------------------------------------

TEST(QueryParserTest, SafetyErrorAnchorsAtRuleStart) {
  World world;
  Result<std::vector<ConjunctiveQuery>> bad = ParseQueries(world,
      "q(X) :- member(X, c).\n"
      "  r(Y) :- member(X, c).\n");
  ASSERT_FALSE(bad.ok());
  // The offending rule starts at line 2, column 3.
  EXPECT_NE(bad.status().message().find("at 2:3:"), std::string::npos);
}

TEST(QueryParserTest, ArityConflictAnchorsAtAtom) {
  World world;
  Result<ConjunctiveQuery> bad =
      ParseQuery(world, "q(X) :- p(X, Y),\n  p(X).");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("at 2:3:"), std::string::npos);
}

TEST(QueryParserTest, MidRuleSyntaxErrorPositionIsExact) {
  World world;
  Result<ConjunctiveQuery> bad =
      ParseQuery(world, "q(X) :-\n member(X c).");
  ASSERT_FALSE(bad.ok());
  // The parser stops where ',' or ')' was expected: line 2, column 11.
  EXPECT_NE(bad.status().message().find("at 2:11:"), std::string::npos);
}

TEST(QueryParserTest, RecordsRuleAndHeadTermSpans) {
  World world;
  Result<ConjunctiveQuery> q =
      ParseQuery(world, "q(X, Y) :- member(X, c), member(Y, d).");
  ASSERT_TRUE(q.ok());
  SourceSpan rule = world.spans().at(q->span());
  EXPECT_EQ(rule.line, 1);
  EXPECT_EQ(rule.column, 1);
  SourceSpan x = world.spans().at(q->head_span(0));
  SourceSpan y = world.spans().at(q->head_span(1));
  EXPECT_EQ(x.column, 3);
  EXPECT_EQ(y.column, 6);
  EXPECT_EQ(y.end_column, 7);
}

TEST(QueryParserTest, AtomsCarryProvenanceSpans) {
  World world;
  Result<ConjunctiveQuery> q =
      ParseQuery(world, "q(X) :- member(X, c),\n  sub(c, d).");
  ASSERT_TRUE(q.ok());
  SourceSpan first = world.spans().at(q->body()[0].provenance());
  SourceSpan second = world.spans().at(q->body()[1].provenance());
  EXPECT_EQ(first.line, 1);
  EXPECT_EQ(first.column, 9);
  EXPECT_EQ(second.line, 2);
  EXPECT_EQ(second.column, 3);
}

// ---- shape keys -------------------------------------------------------------

// `q` with fresh variables and its body atoms shuffled by `seed`.
ConjunctiveQuery ShuffledCopy(World& world, const ConjunctiveQuery& q,
                              uint64_t seed) {
  ConjunctiveQuery copy = q.RenameApart(world);
  std::vector<Atom>& body = copy.mutable_body();
  Rng rng(seed);
  for (size_t i = body.size(); i > 1; --i) {
    std::swap(body[i - 1], body[rng.Below(i)]);
  }
  return copy;
}

// Brute force: a bijection between the variables of a and b mapping a's
// head onto b's term by term and a's body onto b's as a multiset.
bool IsRenaming(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
  const std::vector<Term> from = a.Variables();
  const std::vector<Term> to = b.Variables();
  if (from.size() != to.size() || a.head().size() != b.head().size() ||
      a.body().size() != b.body().size()) {
    return false;
  }
  std::vector<Atom> target = b.body();
  auto raw_less = [](const Atom& x, const Atom& y) {
    return std::lexicographical_compare(
        x.begin(), x.end(), y.begin(), y.end(),
        [](Term s, Term t) { return s.raw() < t.raw(); });
  };
  auto atom_less = [&](const Atom& x, const Atom& y) {
    return x.predicate() != y.predicate() ? x.predicate() < y.predicate()
                                          : raw_less(x, y);
  };
  std::sort(target.begin(), target.end(), atom_less);
  std::vector<size_t> image(from.size());
  std::vector<bool> used(to.size(), false);
  auto map = [&](Term t) {
    auto it = std::find(from.begin(), from.end(), t);
    return it == from.end() ? t : to[image[it - from.begin()]];
  };
  auto matches = [&] {
    for (size_t i = 0; i < a.head().size(); ++i) {
      if (map(a.head()[i]) != b.head()[i]) return false;
    }
    std::vector<Atom> mapped;
    for (const Atom& atom : a.body()) {
      Atom m = atom;
      for (int i = 0; i < m.arity(); ++i) m.set_arg(i, map(m.arg(i)));
      mapped.push_back(m);
    }
    std::sort(mapped.begin(), mapped.end(), atom_less);
    return mapped == target;
  };
  auto search = [&](auto& self, size_t k) -> bool {
    if (k == from.size()) return matches();
    for (size_t j = 0; j < to.size(); ++j) {
      if (used[j]) continue;
      used[j] = true;
      image[k] = j;
      if (self(self, k + 1)) return true;
      used[j] = false;
    }
    return false;
  };
  return search(search, 0);
}

// Family and narrow shapes as the classify corpora build them: a base
// over a private class constant with data/member/type/sub extensions,
// and short queries over a small shared vocabulary.
std::vector<ConjunctiveQuery> FamilyAndNarrowQueries(World& world) {
  const char* texts[] = {
      "f0b(X) :- member(X, fam0), data(X, at1, Y), data(Y, at3, Z), "
      "member(Z, k2).",
      "f0e(X) :- member(X, fam0), data(X, at1, Y), data(Y, at3, Z), "
      "member(Z, k2), member(Y, fam0e1), data(Z, at1, E1).",
      "f0s(X) :- member(X, fam0s), sub(fam0s, fam0), data(X, at1, Y), "
      "data(Y, at3, Z), member(Z, k2).",
      "f1b(X) :- member(X, fam1), data(X, at2, Y), data(X, at2, Z), "
      "type(Y, at0, k1), sub(k3, k4).",
      "f2b(X) :- member(X, fam2), data(X, at0, X), data(X, at0, Y), "
      "data(Y, at0, X).",
      "n0(X) :- data(X, na0, Y), data(X, na0, Z), member(Y, n1).",
      "n1(X) :- member(X, n0), member(X, n2), type(X, na1, n0).",
      "n2(X) :- data(X, na1, Y), data(Y, na1, X), sub(n0, n1).",
      "n3(X) :- data(X, na0, Y), data(Y, na0, Z), data(Z, na0, X).",
      "s(T) :- mandatory(sa1, T), type(T, sa1, st2), mandatory(sa2, st2), "
      "type(st2, sa2, T).",
      "p(O1) :- data(O1, A, O2), data(O2, A, O3), data(O3, A, O4).",
  };
  std::vector<ConjunctiveQuery> queries;
  for (const char* text : texts) {
    Result<ConjunctiveQuery> q = ParseQuery(world, text);
    EXPECT_TRUE(q.ok()) << text;
    if (q.ok()) queries.push_back(*q);
  }
  return queries;
}

TEST(ShapeKeyTest, RenamedShuffledCopiesShareTheKey) {
  World world;
  std::vector<ConjunctiveQuery> queries = FamilyAndNarrowQueries(world);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    gen::RandomQuerySpec spec;
    spec.seed = seed;
    spec.atoms = 2 + int(seed % 5);
    spec.variable_pool = 3;
    queries.push_back(gen::MakeRandomQuery(world, spec));
  }
  for (const ConjunctiveQuery& q : queries) {
    const std::optional<std::vector<uint32_t>> key = ShapeKey(q);
    ASSERT_TRUE(key.has_value()) << q.ToString(world);
    for (uint64_t seed = 0; seed < 8; ++seed) {
      const ConjunctiveQuery copy = ShuffledCopy(world, q, seed);
      EXPECT_EQ(ShapeKey(copy), key)
          << q.ToString(world) << "\n  vs " << copy.ToString(world);
      EXPECT_EQ(ShapeDigest(copy), ShapeDigest(q));
    }
  }
}

TEST(ShapeKeyTest, ConstantsHeadOrderAndAtomCountChangeTheKey) {
  World world;
  auto key = [&](const char* text) {
    Result<ConjunctiveQuery> q = ParseQuery(world, text);
    EXPECT_TRUE(q.ok()) << text;
    return ShapeKey(*q);
  };
  const auto base = key("q(X, Y) :- member(X, c), data(X, a, Y).");
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(key("r(U, V) :- data(U, a, V), member(U, c)."), base);
  // A changed constant.
  EXPECT_NE(key("q(X, Y) :- member(X, d), data(X, a, Y)."), base);
  EXPECT_NE(key("q(X, Y) :- member(X, c), data(X, b, Y)."), base);
  // A constant where a variable was, and a variable where a constant was.
  EXPECT_NE(key("q(X, Y) :- member(X, c), data(X, Y, Y)."), base);
  EXPECT_NE(key("q(X, Y) :- member(X, C), data(X, a, Y)."), base);
  // The head's order.
  EXPECT_NE(key("q(Y, X) :- member(X, c), data(X, a, Y)."), base);
  // An added atom, a removed atom, and a duplicated one.
  EXPECT_NE(key("q(X, Y) :- member(X, c), data(X, a, Y), sub(c, d)."), base);
  EXPECT_NE(key("q(X, Y) :- data(X, a, Y)."), base);
  EXPECT_NE(key("q(X, Y) :- member(X, c), member(X, c), data(X, a, Y)."),
            base);
  // Two distinct variables are not one shared variable.
  EXPECT_NE(key("q() :- data(X, a, Y), data(Y, a, Z)."),
            key("q() :- data(X, a, Y), data(Z, a, W)."));
}

TEST(ShapeKeyTest, SymmetricQueriesStayWithinTheSearchBudget) {
  World world;
  // Ten interchangeable atoms with private variables: one order, not 10!.
  std::string fan = "q(X) :- ";
  for (int i = 0; i < 10; ++i) {
    if (i > 0) fan += ", ";
    fan += "data(X, a, V" + std::to_string(i) + ")";
  }
  Result<ConjunctiveQuery> q = ParseQuery(world, fan + ".");
  ASSERT_TRUE(q.ok());
  const std::optional<std::vector<uint32_t>> key = ShapeKey(*q);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(ShapeKey(ShuffledCopy(world, *q, 5)), key);
}

// Equal keys must name one shape: over many small random queries, with
// renamed copies planted among them, every pair with equal keys is a
// renaming that brute force finds, and every planted copy matches.
TEST(ShapeKeyTest, EqualKeysImplyARenaming) {
  World world;
  std::vector<ConjunctiveQuery> queries;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    gen::RandomQuerySpec spec;
    spec.seed = seed;
    spec.atoms = 1 + int(seed % 3);
    spec.variable_pool = 3;
    spec.constant_pool = 2;
    spec.constant_probability = 0.3;
    spec.arity = int(seed % 2);
    spec.with_constraints = false;
    queries.push_back(gen::MakeRandomQuery(world, spec));
    if (seed % 10 == 0) {
      queries.push_back(ShuffledCopy(world, queries.back(), seed));
    }
  }
  std::map<std::vector<uint32_t>, std::vector<size_t>> by_key;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::optional<std::vector<uint32_t>> key = ShapeKey(queries[i]);
    ASSERT_TRUE(key.has_value()) << queries[i].ToString(world);
    by_key[*key].push_back(i);
  }
  size_t equal_pairs = 0;
  for (const auto& [key, ids] : by_key) {
    for (size_t a = 0; a < ids.size(); ++a) {
      for (size_t b = a + 1; b < ids.size(); ++b) {
        ++equal_pairs;
        EXPECT_EQ(ShapeDigest(queries[ids[a]]), ShapeDigest(queries[ids[b]]));
        EXPECT_TRUE(IsRenaming(queries[ids[a]], queries[ids[b]]))
            << queries[ids[a]].ToString(world) << "\n  vs "
            << queries[ids[b]].ToString(world);
      }
    }
  }
  // Small pools repeat shapes well beyond the 30 planted copies.
  EXPECT_GT(equal_pairs, 60u);
  // And no two keys name one shape.
  std::vector<size_t> firsts;
  for (const auto& [key, ids] : by_key) firsts.push_back(ids[0]);
  for (size_t a = 0; a < firsts.size(); ++a) {
    for (size_t b = a + 1; b < firsts.size(); ++b) {
      EXPECT_FALSE(IsRenaming(queries[firsts[a]], queries[firsts[b]]))
          << queries[firsts[a]].ToString(world) << "\n  vs "
          << queries[firsts[b]].ToString(world);
    }
  }
}

}  // namespace
}  // namespace floq
