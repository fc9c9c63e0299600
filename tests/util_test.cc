#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/epoch.h"
#include "util/function_ref.h"
#include "util/interner.h"
#include "util/json.h"
#include "util/parallel_for.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace floq {
namespace {

// ---- Status / Result --------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad foo");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad foo");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad foo");
}

TEST(StatusTest, FactoryFunctionsSetCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status(), Status::Ok());
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
  EXPECT_FALSE(InvalidArgumentError("a") == NotFoundError("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result = NotFoundError("missing");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result = std::string("payload");
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

// ---- strings ------------------------------------------------------------

TEST(StringsTest, StrCatMixesTypes) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("_G12", "_G"));
  EXPECT_FALSE(StartsWith("_", "_G"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

// ---- interner -----------------------------------------------------------

TEST(InternerTest, InternIsIdempotent) {
  StringInterner interner;
  uint32_t a = interner.Intern("alpha");
  uint32_t b = interner.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("alpha"), a);
  EXPECT_EQ(interner.NameOf(a), "alpha");
  EXPECT_EQ(interner.NameOf(b), "beta");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(InternerTest, LookupDoesNotInsert) {
  StringInterner interner;
  EXPECT_EQ(interner.Lookup("ghost"), UINT32_MAX);
  EXPECT_EQ(interner.size(), 0u);
  interner.Intern("ghost");
  EXPECT_NE(interner.Lookup("ghost"), UINT32_MAX);
}

TEST(InternerTest, IdsAreDense) {
  StringInterner interner;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(interner.Intern(StrCat("name", i)), uint32_t(i));
  }
}

// ---- JSON strings ---------------------------------------------------------

TEST(JsonStringTest, QuotesAndEscapes) {
  std::string out = "x";
  AppendJsonString("a\"b\\c\nd\re\tf\x01g\xc3\xa9", &out);
  EXPECT_EQ(out, "x\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\xc3\xa9\"");
  out.clear();
  AppendJsonString("", &out);
  EXPECT_EQ(out, "\"\"");
}

// ---- rng ------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t x = rng.Below(10);
    EXPECT_LT(x, 10u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t x = rng.Between(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= x == -3;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

// ---- ParallelFor -------------------------------------------------------

// ---- epochs over immutable objects --------------------------------------

// An object that counts its destruction.
std::shared_ptr<const int> Counted(int value, int* freed) {
  return std::shared_ptr<const int>(new int(value), [freed](const int* p) {
    ++*freed;
    delete p;
  });
}

TEST(RetirerTest, RetiredObjectsLiveExactlyAsLongAsEarlierPins) {
  Retirer retirer;
  int freed = 0;
  // No pin outstanding: a retired object goes at the seal.
  retirer.Retire(Counted(1, &freed));
  retirer.Seal();
  EXPECT_EQ(freed, 1);

  std::shared_ptr<const int> first = Counted(2, &freed);
  Retirer::Pin early = retirer.pin();  // sees `first`
  retirer.Retire(std::move(first));
  retirer.Seal();
  Retirer::Pin late = retirer.pin();  // taken after `first` was replaced
  std::shared_ptr<const int> second = Counted(3, &freed);
  retirer.Retire(std::move(second));
  retirer.Seal();
  EXPECT_EQ(freed, 1);  // both held by the early pin, `second` by the late
  late.reset();
  EXPECT_EQ(freed, 1);  // the early pin still holds everything after it
  early.reset();
  EXPECT_EQ(freed, 3);
}

// A pin held across many mutations holds a long chain; releasing it
// unlinks the chain without recursing once per mutation.
TEST(RetirerTest, LongPinnedChainIsReleasedIteratively) {
  Retirer retirer;
  int freed = 0;
  Retirer::Pin pin = retirer.pin();
  constexpr int kMutations = 200'000;
  for (int i = 0; i < kMutations; ++i) {
    retirer.Retire(Counted(i, &freed));
    retirer.Seal();
  }
  EXPECT_EQ(freed, 0);
  pin.reset();
  EXPECT_EQ(freed, kMutations);
}

TEST(ParallelForTest, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(4, hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroJobsRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  ParallelFor(0, 3, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 3);
}

TEST(ParallelForTest, RethrowsAWorkerExceptionAfterEveryIndexRan) {
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(ParallelFor(4, hits.size(),
                           [&hits](size_t i) {
                             hits[i].fetch_add(1);
                             if (i == 5) throw std::runtime_error("item 5");
                           }),
               std::runtime_error);
  // The failing worker stops claiming; the others drain the rest.
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, DefaultThreadsIsPositive) {
  EXPECT_GE(DefaultThreads(), 1u);
}

// ---- FunctionRef -------------------------------------------------------

int FreeFunctionDouble(int x) { return 2 * x; }

TEST(FunctionRefTest, CallsLambda) {
  int calls = 0;
  // The ref is non-owning: the lambda must be a named object that outlives
  // it (a temporary would dangle, exactly as with C++26 std::function_ref).
  auto increment = [&calls](int x) {
    ++calls;
    return x + 1;
  };
  FunctionRef<int(int)> ref = increment;
  EXPECT_EQ(ref(41), 42);
  EXPECT_EQ(ref(1), 2);
  EXPECT_EQ(calls, 2);
}

TEST(FunctionRefTest, CallsFreeFunction) {
  FunctionRef<int(int)> ref = FreeFunctionDouble;
  EXPECT_EQ(ref(21), 42);
}

TEST(FunctionRefTest, PassesReferenceArguments) {
  auto append = [](std::string& out) { out += "x"; };
  FunctionRef<void(std::string&)> ref = append;
  std::string s;
  ref(s);
  ref(s);
  EXPECT_EQ(s, "xx");
}

}  // namespace
}  // namespace floq
