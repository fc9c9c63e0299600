// Tests for the static diagnostics engine (src/analysis): the lint-code
// registry, every query lint family FLQ001..FLQ007 with exact source
// spans, the dependency-set grades FLD101/FLD102, the Section-4
// mandatory-cycle detector FLD103, and the two output formats.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/boundedness.h"
#include "analysis/cost_model.h"
#include "analysis/dependency_lints.h"
#include "analysis/diagnostic.h"
#include "analysis/query_lints.h"
#include "chase/chase.h"
#include "chase/dependencies.h"
#include "containment/governor.h"
#include "datalog/fact_index.h"
#include "flogic/parser.h"
#include "query/parser.h"
#include "term/world.h"

namespace floq::analysis {
namespace {

std::vector<const Diagnostic*> WithCode(const std::vector<Diagnostic>& all,
                                        std::string_view code) {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : all) {
    if (d.code == code) out.push_back(&d);
  }
  return out;
}

bool HasCode(const std::vector<Diagnostic>& all, std::string_view code) {
  return !WithCode(all, code).empty();
}

// ---- registry and formatting ---------------------------------------------

TEST(DiagnosticTest, RegistryIsSortedAndComplete) {
  const std::vector<LintCodeInfo>& codes = LintCodes();
  ASSERT_FALSE(codes.empty());
  for (size_t i = 1; i < codes.size(); ++i) {
    EXPECT_LT(std::string(codes[i - 1].code), codes[i].code);
  }
  for (const char* code : {"FLQ000", "FLQ001", "FLQ002", "FLQ003", "FLQ004",
                           "FLQ005", "FLQ006", "FLQ007", "FLD101", "FLD102",
                           "FLD103"}) {
    EXPECT_NE(FindLintCode(code), nullptr) << code;
  }
  EXPECT_EQ(FindLintCode("FLQ999"), nullptr);
  EXPECT_EQ(FindLintCode("FLQ001")->severity, Severity::kError);
  EXPECT_EQ(FindLintCode("FLQ007")->severity, Severity::kNote);
}

TEST(DiagnosticTest, FormatIncludesFileSpanSeverityAndCode) {
  Diagnostic d = MakeDiagnostic("FLQ002", "variable X occurs only once",
                                SourceSpan{3, 14, 3, 15});
  d.notes.push_back("a note");
  std::string text = FormatDiagnostic(d, "input.fl");
  EXPECT_EQ(text,
            "input.fl:3:14: warning: variable X occurs only once [FLQ002]\n"
            "    note: a note");
  // Without a span or file the location prefix disappears.
  EXPECT_EQ(FormatDiagnostic(MakeDiagnostic("FLQ006", "bad")),
            "error: bad [FLQ006]");
}

TEST(DiagnosticTest, StatusAnchorBecomesSpan) {
  Diagnostic d = DiagnosticFromStatus(
      InvalidArgumentError("parse error at 7:12: expected ':-'"));
  EXPECT_EQ(d.code, "FLQ000");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.span.line, 7);
  EXPECT_EQ(d.span.column, 12);
}

TEST(DiagnosticTest, SortPutsUnknownSpansLast) {
  std::vector<Diagnostic> all;
  all.push_back(MakeDiagnostic("FLD101", "no span"));
  all.push_back(MakeDiagnostic("FLQ002", "later", SourceSpan{5, 1, 5, 2}));
  all.push_back(MakeDiagnostic("FLQ001", "earlier", SourceSpan{2, 3, 2, 4}));
  SortDiagnostics(all);
  EXPECT_EQ(all[0].code, "FLQ001");
  EXPECT_EQ(all[1].code, "FLQ002");
  EXPECT_EQ(all[2].code, "FLD101");
}

TEST(DiagnosticTest, JsonShape) {
  std::vector<Diagnostic> all;
  Diagnostic d = MakeDiagnostic("FLQ005", "duplicate \"atom\"",
                                SourceSpan{1, 2, 1, 9});
  d.notes.push_back("first occurrence at 1:1");
  all.push_back(std::move(d));
  std::string json = DiagnosticsToJson(all, "in.fl");
  EXPECT_NE(json.find("\"code\": \"FLQ005\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"duplicate-atom\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"warning\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"in.fl\""), std::string::npos);
  EXPECT_NE(json.find("duplicate \\\"atom\\\""), std::string::npos);
  EXPECT_NE(json.find("\"span\": {\"line\": 1, \"column\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("\"notes\": [\"first occurrence at 1:1\"]"),
            std::string::npos);
  EXPECT_EQ(DiagnosticsToJson({}), "[]");
}

// ---- FLQ001 unsafe head variable -----------------------------------------

TEST(QueryLintTest, UnsafeHeadVariableWithExactSpan) {
  World world;
  std::vector<Diagnostic> all = AnalyzeProgramText(world, R"(
q(X, Y) :- X : person.
)");
  auto found = WithCode(all, "FLQ001");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::kError);
  EXPECT_NE(found[0]->message.find("Y"), std::string::npos);
  // "Y" sits at line 2, column 6 of the program text.
  EXPECT_EQ(found[0]->span.line, 2);
  EXPECT_EQ(found[0]->span.column, 6);
  EXPECT_EQ(found[0]->span.end_column, 7);
  EXPECT_TRUE(HasErrors(all));
}

TEST(QueryLintTest, SafeQueryHasNoUnsafeHeadDiagnostic) {
  World world;
  std::vector<Diagnostic> all = AnalyzeProgramText(
      world, "q(X) :- X : person.");
  EXPECT_FALSE(HasCode(all, "FLQ001"));
  EXPECT_FALSE(HasErrors(all));
}

// ---- FLQ002 singleton variables ------------------------------------------

TEST(QueryLintTest, SingletonVariableFlagged) {
  World world;
  std::vector<Diagnostic> all = AnalyzeProgramText(
      world, "q(X) :- X : person, Unused : course.");
  auto found = WithCode(all, "FLQ002");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0]->message.find("Unused"), std::string::npos);
  EXPECT_TRUE(found[0]->span.known());
}

TEST(QueryLintTest, AnonymousAndProjectedVariablesAreSilent) {
  World world;
  // _ is the explicit don't-care; X is projected by the head.
  std::vector<Diagnostic> all = AnalyzeProgramText(
      world, "q(X) :- X[age -> _].");
  EXPECT_FALSE(HasCode(all, "FLQ002"));
}

// ---- FLQ003 cartesian product --------------------------------------------

TEST(QueryLintTest, DisconnectedComponentsFlagged) {
  World world;
  std::vector<Diagnostic> all = AnalyzeProgramText(
      world, "q(X, Y) :- X : person, Y : course.");
  auto found = WithCode(all, "FLQ003");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->notes.size(), 2u);
}

TEST(QueryLintTest, GroundAtomsAreNotProductFactors) {
  World world;
  std::vector<Diagnostic> all = AnalyzeProgramText(
      world, "q(X) :- member(X, c), sub(c, d).");
  EXPECT_FALSE(HasCode(all, "FLQ003"));
}

// ---- FLQ004 P_FL role misuse ---------------------------------------------

TEST(QueryLintTest, AttributeObjectRoleMixFlagged) {
  World world;
  std::vector<Diagnostic> all = AnalyzeProgramText(
      world, "q(X) :- member(X, C), data(X, C, V), data(Y, C, V).");
  auto found = WithCode(all, "FLQ004");
  ASSERT_EQ(found.size(), 1u);  // reported once per term
  EXPECT_NE(found[0]->message.find("C"), std::string::npos);
  EXPECT_EQ(found[0]->notes.size(), 2u);
}

TEST(QueryLintTest, PaperFigureOneQueryIsRoleClean) {
  World world;
  // Figure 1 of the paper: T is object/class throughout, A is attribute
  // throughout — no mix, even though T occurs in type's value position.
  std::vector<Diagnostic> all = AnalyzeProgramText(
      world, "q() :- mandatory(A, T), type(T, A, T), sub(T, U).");
  EXPECT_FALSE(HasCode(all, "FLQ004"));
}

// ---- FLQ005 duplicate atoms ----------------------------------------------

TEST(QueryLintTest, DuplicateAtomFlaggedAtSecondOccurrence) {
  World world;
  std::vector<Diagnostic> all = AnalyzeProgramText(
      world, "q(X) :- member(X, C), member(X, C).");
  auto found = WithCode(all, "FLQ005");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->span.column, 23);  // the second member(X, C)
  ASSERT_EQ(found[0]->notes.size(), 1u);
  EXPECT_NE(found[0]->notes[0].find("1:9"), std::string::npos);
}

// ---- FLQ006 unsatisfiable under Sigma_FL ---------------------------------

TEST(QueryLintTest, FunctViolationMakesQueryUnsatisfiable) {
  World world;
  // rho_4 must equate the distinct constants one and two.
  std::vector<Diagnostic> all = AnalyzeProgramText(world,
      "q(X) :- member(X, c), data(o, a, one), data(o, a, two), "
      "funct(a, o).");
  EXPECT_TRUE(HasCode(all, "FLQ006"));
  EXPECT_TRUE(HasErrors(all));
}

TEST(QueryLintTest, SatisfiableQueryPassesTheProbe) {
  World world;
  std::vector<Diagnostic> all = AnalyzeProgramText(
      world, "q(X, V) :- data(X, a, V), funct(a, X).");
  EXPECT_FALSE(HasCode(all, "FLQ006"));
}

// ---- FLQ007 redundant atoms ----------------------------------------------

TEST(QueryLintTest, SigmaRedundantAtomFlagged) {
  World world;
  // member(X, c) follows from member(X, d) and sub(d, c) under rho_3 —
  // the introduction's motivating example of constraint-aware redundancy.
  std::vector<Diagnostic> all = AnalyzeProgramText(
      world, "q(X) :- member(X, c), member(X, d), sub(d, c).");
  auto found = WithCode(all, "FLQ007");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::kNote);
  EXPECT_NE(found[0]->message.find("member(X, c)"), std::string::npos);
  EXPECT_EQ(found[0]->span.column, 9);
}

TEST(QueryLintTest, MinimalQueryHasNoRedundancyNote) {
  World world;
  std::vector<Diagnostic> all = AnalyzeProgramText(
      world, "q(X) :- member(X, c), member(X, d).");
  EXPECT_FALSE(HasCode(all, "FLQ007"));
}

TEST(QueryLintTest, ProbesCanBeDisabled) {
  World world;
  Result<flogic::Program> program = flogic::ParseProgramLenient(
      world, "q(X) :- member(X, c), member(X, d), sub(d, c).");
  ASSERT_TRUE(program.ok());
  QueryLintOptions options;
  options.chase_probe = false;
  options.redundancy = false;
  std::vector<Diagnostic> all =
      LintQuery(world, program->rules[0], options);
  EXPECT_FALSE(HasCode(all, "FLQ006"));
  EXPECT_FALSE(HasCode(all, "FLQ007"));
}

// ---- FLQ000 parse errors -------------------------------------------------

TEST(AnalyzerTest, ParseErrorBecomesLocatedDiagnostic) {
  World world;
  std::vector<Diagnostic> all =
      AnalyzeProgramText(world, "q(X) :- X : .");
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].code, "FLQ000");
  EXPECT_EQ(all[0].severity, Severity::kError);
  EXPECT_TRUE(all[0].span.known());
}

// ---- FLD101/FLD102 dependency grades -------------------------------------

TEST(DependencyLintTest, WeaklyAcyclicSetIsClean) {
  World world;
  std::vector<Diagnostic> all = AnalyzeDependencyText(world, R"(
    person(X) :- employee(X).
    works_in(X, D) :- employee(X).
  )");
  EXPECT_TRUE(all.empty());
}

TEST(DependencyLintTest, JointlyAcyclicRefinementReported) {
  World world;
  // Not weakly acyclic (p[0] -*-> q[1] -> p[0]) but jointly acyclic:
  // the invented Y can never reach r[1]... there is no rule binding a
  // frontier variable entirely inside Mov(Y) = {q[1]}.
  std::vector<Diagnostic> all = AnalyzeDependencyText(world, R"(
    q(X, Y) :- p(X).
    p(Y) :- q(X, Y), r(Y).
  )");
  auto found = WithCode(all, "FLD102");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::kNote);
  EXPECT_FALSE(HasCode(all, "FLD101"));
  // The witness cycle rides along as notes.
  bool has_special_edge = false;
  for (const std::string& note : found[0]->notes) {
    has_special_edge |= note.find("*-->") != std::string::npos;
  }
  EXPECT_TRUE(has_special_edge);
}

TEST(DependencyLintTest, SigmaFLStyleSetGetsFullWarningWithWitness) {
  World world;
  std::vector<Diagnostic> all = AnalyzeDependencyText(world, R"(
    member(V, T) :- type(O, A, T), data(O, A, V).
    data(O, A, V) :- mandatory(A, O).
    mandatory(A, O) :- member(O, C), mandatory(A, C).
  )");
  auto found = WithCode(all, "FLD101");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  // The witness must pass through the special edge into data[2] and
  // close the cycle back to mandatory[1].
  std::string joined;
  for (const std::string& note : found[0]->notes) joined += note + "\n";
  EXPECT_NE(joined.find("data[2]"), std::string::npos);
  EXPECT_NE(joined.find("mandatory[1]"), std::string::npos);
}

TEST(DependencyLintTest, FullSigmaFLIsNeitherGrade) {
  World world;
  DependencySet sigma = MakeSigmaFLDependencies(world);
  EXPECT_FALSE(IsWeaklyAcyclic(sigma, world));
  EXPECT_FALSE(IsJointlyAcyclic(sigma));
}

TEST(DependencyLintTest, DatalogAndEgdOnlySetsAreJointlyAcyclic) {
  World world;
  Result<DependencySet> deps = ParseDependencies(world, R"(
    p(X) :- q(X, Y).
    X = Y :- r(E, X), r(E, Y).
  )");
  ASSERT_TRUE(deps.ok());
  EXPECT_TRUE(IsJointlyAcyclic(*deps));
}

// ---- FLD103 mandatory cycles ---------------------------------------------

TEST(MandatoryCycleTest, DirectCycleFound) {
  World world;
  Result<flogic::Program> program = flogic::ParseProgram(world, R"(
person[spouse {1:1} *=> person].
john : person.
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  MandatoryCycleReport report = FindMandatoryCycle(world, program->facts);
  ASSERT_TRUE(report.cyclic);
  ASSERT_EQ(report.cycle.size(), 1u);
  EXPECT_EQ(report.cycle[0].ToString(world), "person -[spouse]-> person");
  // cycle[i].target chains into cycle[i+1].cls (wrapping).
  EXPECT_TRUE(report.cycle.front().cls == report.cycle.back().target);
}

TEST(MandatoryCycleTest, CycleThroughSubclassInheritanceFound) {
  World world;
  // employee inherits mandatory boss from person; boss is typed into
  // manager, a subclass of person — the cycle runs through inheritance:
  // manager -[boss]-> manager.
  Result<flogic::Program> program = flogic::ParseProgram(world, R"(
manager :: person.
person[boss {1:*} *=> manager].
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  MandatoryCycleReport report = FindMandatoryCycle(world, program->facts);
  ASSERT_TRUE(report.cyclic);
  for (size_t i = 0; i < report.cycle.size(); ++i) {
    const MandatoryEdge& edge = report.cycle[i];
    const MandatoryEdge& next =
        report.cycle[(i + 1) % report.cycle.size()];
    EXPECT_TRUE(edge.target == next.cls);
  }
}

TEST(MandatoryCycleTest, AcyclicSchemaIsClean) {
  World world;
  Result<flogic::Program> program = flogic::ParseProgram(world, R"(
person[name {1:*} *=> string].
person[age {0:1} *=> number].
john : person.
)");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(FindMandatoryCycle(world, program->facts).cyclic);
}

TEST(MandatoryCycleTest, UntypedMandatoryDoesNotCycle) {
  World world;
  // mandatory without a type target: rho_5 invents one value and stops.
  Result<flogic::Program> program =
      flogic::ParseProgram(world, "person[spouse {1:*} *=> _].");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(FindMandatoryCycle(world, program->facts).cyclic);
}

TEST(AnalyzerTest, CyclicKbYieldsFld103WithSpanAndWitness) {
  World world;
  std::vector<Diagnostic> all = AnalyzeProgramText(world, R"(
person[spouse {1:1} *=> person].
john : person.
)");
  auto found = WithCode(all, "FLD103");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::kError);
  EXPECT_EQ(found[0]->span.line, 2);  // the spouse attribute expression
  ASSERT_FALSE(found[0]->notes.empty());
  EXPECT_NE(found[0]->notes[0].find("person -[spouse]-> person"),
            std::string::npos);
  EXPECT_TRUE(HasErrors(all));
}

// ---- analyzer composition -------------------------------------------------

TEST(AnalyzerTest, DiagnosticsAcrossRulesComeBackSorted) {
  World world;
  std::vector<Diagnostic> all = AnalyzeProgramText(world, R"(
q1(X) :- X : person, Unused : course.
q2(X, Y) :- X : person.
)");
  ASSERT_GE(all.size(), 2u);
  for (size_t i = 1; i < all.size(); ++i) {
    bool prev_known = all[i - 1].span.known();
    bool cur_known = all[i].span.known();
    if (prev_known && cur_known) {
      EXPECT_LE(all[i - 1].span.line, all[i].span.line);
    }
    EXPECT_TRUE(prev_known || !cur_known);  // unknown spans stay last
  }
}

TEST(AnalyzerTest, CleanProgramProducesNoDiagnostics) {
  World world;
  std::vector<Diagnostic> all = AnalyzeProgramText(world, R"(
% the university schema of the README, cycle-free
freshman :: student.
student :: person.
person[name {1:*} *=> string].
john : freshman.
john[name -> 'John Smith'].
q(X) :- X : person, X[name -> N], N : string.
)");
  EXPECT_TRUE(all.empty()) << FormatDiagnostics(all);
}

// ---- null-generation boundedness (DESIGN.md §15) -------------------------

Result<DependencySet> Deps(World& world, const char* text) {
  return ParseDependencies(world, text);
}

TEST(BoundednessTest, DatalogOnlySetGeneratesNoNulls) {
  World world;
  Result<DependencySet> deps = Deps(world, "p(X) :- q(X, Y).");
  ASSERT_TRUE(deps.ok());
  BoundednessReport report = AnalyzeBoundedness(*deps, world);
  EXPECT_EQ(report.degree, NullDegree::kNone);
  EXPECT_EQ(report.witness_degree, 0);
  EXPECT_TRUE(report.positions.empty());
  EXPECT_TRUE(report.bounded());
}

TEST(BoundednessTest, SingleInventionIsLinear) {
  World world;
  Result<DependencySet> deps = Deps(world, "q(X, Y) :- p(X).");
  ASSERT_TRUE(deps.ok());
  BoundednessReport report = AnalyzeBoundedness(*deps, world);
  EXPECT_EQ(report.degree, NullDegree::kLinear);
  EXPECT_EQ(report.witness_degree, 1);
  ASSERT_EQ(report.witness.size(), 1u);
  EXPECT_TRUE(report.witness[0].special);
  // The per-position table carries the graded position q[1].
  ASSERT_FALSE(report.positions.empty());
  EXPECT_EQ(report.positions[0].degree, NullDegree::kLinear);
  EXPECT_EQ(report.positions[0].position.ToString(world), "q[1]");
}

TEST(BoundednessTest, ChainedInventionIsPolynomialWithChainedWitness) {
  World world;
  // p[0] -*-> q[1] (invent Y), then q's frontier feeds r[1] (invent Z):
  // special edges chain to depth 2 without closing a cycle — O(n^2)
  // nulls, FLD201 territory.
  Result<DependencySet> deps = Deps(world, R"(
    q(X, Y) :- p(X).
    r(Y, Z) :- q(X, Y).
  )");
  ASSERT_TRUE(deps.ok());
  BoundednessReport report = AnalyzeBoundedness(*deps, world);
  EXPECT_EQ(report.degree, NullDegree::kPolynomial);
  EXPECT_EQ(report.witness_degree, 2);
  ASSERT_GE(report.witness.size(), 2u);
  for (size_t i = 1; i < report.witness.size(); ++i) {
    EXPECT_TRUE(report.witness[i - 1].to == report.witness[i].from)
        << WitnessPathToString(report.witness, *deps, world);
  }
  // Worst position first, and the whole-set grade is its grade.
  ASSERT_FALSE(report.positions.empty());
  EXPECT_EQ(report.positions[0].degree, NullDegree::kPolynomial);
  EXPECT_EQ(report.positions[0].witness_degree, report.witness_degree);
}

TEST(BoundednessTest, SpecialCycleIsUnbounded) {
  World world;
  Result<DependencySet> deps = Deps(world, R"(
    q(X, Y) :- p(X).
    p(Y) :- q(X, Y).
  )");
  ASSERT_TRUE(deps.ok());
  BoundednessReport report = AnalyzeBoundedness(*deps, world);
  EXPECT_EQ(report.degree, NullDegree::kUnbounded);
  EXPECT_FALSE(report.bounded());
  // Consistent with the weak-acyclicity test by construction.
  EXPECT_FALSE(IsWeaklyAcyclic(*deps, world));
  ASSERT_FALSE(report.witness.empty());
  bool has_special = false;
  for (const DependencyEdge& edge : report.witness) has_special |= edge.special;
  EXPECT_TRUE(has_special);
}

TEST(BoundednessTest, Fld201FiresOnPolynomialSetsOnly) {
  World world;
  Result<DependencySet> poly = Deps(world, R"(
    q(X, Y) :- p(X).
    r(Y, Z) :- q(X, Y).
  )");
  ASSERT_TRUE(poly.ok());
  std::vector<Diagnostic> found = LintDependencyCost(*poly, world);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].code, "FLD201");
  EXPECT_EQ(found[0].severity, Severity::kWarning);
  EXPECT_NE(found[0].message.find("degree 2"), std::string::npos);
  bool witness_note = false;
  for (const std::string& note : found[0].notes) {
    witness_note |= note.find("*-->") != std::string::npos;
  }
  EXPECT_TRUE(witness_note);
  // It folds into the dependency analyzer next to FLD101/102.
  std::vector<Diagnostic> all = AnalyzeDependencySet(*poly, world);
  EXPECT_TRUE(HasCode(all, "FLD201"));

  World world2;
  Result<DependencySet> linear = Deps(world2, "q(X, Y) :- p(X).");
  ASSERT_TRUE(linear.ok());
  EXPECT_TRUE(LintDependencyCost(*linear, world2).empty());
  World world3;
  Result<DependencySet> cyclic = Deps(world3, R"(
    q(X, Y) :- p(X).
    p(Y) :- q(X, Y).
  )");
  ASSERT_TRUE(cyclic.ok());
  // kUnbounded is FLD101's finding, not FLD201's.
  EXPECT_TRUE(LintDependencyCost(*cyclic, world3).empty());
}

TEST(SigmaBoundednessTest, MandatoryChainDepthBoundsTheCascade) {
  World world;
  // a -[f]-> b -[g]-> c: the rho_5 cascade nests two levels deep and
  // stops — linear null generation with mandatory depth 2.
  Result<flogic::Program> program = flogic::ParseProgram(world, R"(
a[f {1:1} *=> b].
b[g {1:1} *=> c].
x : a.
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  SigmaBoundedness grade = AnalyzeSigmaBoundedness(world, program->facts);
  EXPECT_EQ(grade.degree, NullDegree::kLinear);
  EXPECT_EQ(grade.mandatory_depth, 2);
  ASSERT_EQ(grade.witness.size(), 2u);
  EXPECT_TRUE(grade.witness[0].target == grade.witness[1].cls);
}

TEST(SigmaBoundednessTest, CyclicKbIsUnboundedWithWitness) {
  World world;
  // The testdata/cyclic_kb.fl schema: spouse mandatory on person, typed
  // back into person.
  Result<flogic::Program> program = flogic::ParseProgram(world, R"(
person[spouse {1:1} *=> person].
john : person.
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  SigmaBoundedness grade = AnalyzeSigmaBoundedness(world, program->facts);
  EXPECT_EQ(grade.degree, NullDegree::kUnbounded);
  ASSERT_FALSE(grade.witness.empty());
  EXPECT_EQ(grade.witness[0].ToString(world), "person -[spouse]-> person");
  // The witness closes: each edge's target is the next edge's class.
  for (size_t i = 0; i < grade.witness.size(); ++i) {
    const MandatoryEdge& edge = grade.witness[i];
    const MandatoryEdge& next = grade.witness[(i + 1) % grade.witness.size()];
    EXPECT_TRUE(edge.target == next.cls);
  }
}

TEST(SigmaBoundednessTest, QueryVariablesParticipateInTheWalk) {
  World world;
  // The chase treats query variables as values: X's membership in class a
  // starts the same cascade a ground member would.
  Result<ConjunctiveQuery> query = ParseQuery(
      world,
      "q(X) :- member(X, a), mandatory(f, a), type(a, f, b), "
      "mandatory(g, b), type(b, g, c).");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  SigmaBoundedness grade = AnalyzeSigmaBoundedness(world, query->body());
  EXPECT_EQ(grade.degree, NullDegree::kLinear);
  EXPECT_EQ(grade.mandatory_depth, 2);
}

// ---- chase growth model ------------------------------------

TEST(CostModelTest, CompletedProbeIsExactWithFullConfidence) {
  World world;
  Result<ConjunctiveQuery> query = ParseQuery(world, "q(X) :- member(X, c).");
  ASSERT_TRUE(query.ok());
  ChaseOptions options;
  options.max_level = 8;
  ChaseResult probe = ChaseQuery(world, *query, options);
  ASSERT_EQ(probe.outcome(), ChaseOutcome::kCompleted);
  ChaseGrowthModel model = FitChaseGrowth(probe);
  EXPECT_TRUE(model.completed);
  // Exact at every level: the fixpoint adds nothing deeper.
  EXPECT_EQ(model.AtomsAtLevel(100, 1'000'000), probe.size());
  EXPECT_EQ(model.ConfidenceAtLevel(100), 1.0);
}

TEST(CostModelTest, GrowingProbeExtrapolatesAndDecaysConfidence) {
  World world;
  // The mandatory cycle: every level invents a fresh spouse, so a level-2
  // probe is still growing and deeper levels are extrapolated.
  Result<ConjunctiveQuery> query = ParseQuery(
      world,
      "q() :- member(j, person), mandatory(spouse, person), "
      "type(person, spouse, person).");
  ASSERT_TRUE(query.ok());
  ChaseOptions options;
  options.max_level = 2;
  ChaseResult probe = ChaseQuery(world, *query, options);
  ChaseGrowthModel model = FitChaseGrowth(probe);
  EXPECT_FALSE(model.completed);
  EXPECT_GT(model.per_level, 1.0);
  const uint64_t cap = 1u << 20;
  uint64_t prev = model.AtomsAtLevel(2, cap);
  for (int level : {4, 8, 16}) {
    uint64_t at = model.AtomsAtLevel(level, cap);
    EXPECT_GE(at, prev);
    prev = at;
  }
  EXPECT_EQ(model.AtomsAtLevel(1000, cap), cap);  // saturates at the budget
  EXPECT_LT(model.ConfidenceAtLevel(8), 1.0);
  EXPECT_LT(model.ConfidenceAtLevel(16), model.ConfidenceAtLevel(8));
  EXPECT_EQ(model.ConfidenceAtLevel(2), 1.0);  // within the probe: exact
}

TEST(CostModelTest, Fld202FiresOnVariableDisjointBodies) {
  World world;
  Result<ConjunctiveQuery> query =
      ParseQuery(world, "q() :- member(X, c1), member(Y, c2).");
  ASSERT_TRUE(query.ok());
  QueryCostReport report = AnalyzeQueryCost(world, *query);
  EXPECT_TRUE(HasCode(report.diagnostics, "FLD202"));

  World world2;
  Result<ConjunctiveQuery> joined =
      ParseQuery(world2, "q() :- member(X, C), sub(C, D).");
  ASSERT_TRUE(joined.ok());
  QueryCostReport clean = AnalyzeQueryCost(world2, *joined);
  EXPECT_FALSE(HasCode(clean.diagnostics, "FLD202"));
}

TEST(CostModelTest, Fld203FiresWhenTheEstimateExceedsTheBudget) {
  World world;
  Result<ConjunctiveQuery> query = ParseQuery(
      world,
      "q() :- member(j, person), mandatory(spouse, person), "
      "type(person, spouse, person).");
  ASSERT_TRUE(query.ok());
  CostAnalysisOptions options;
  options.chase_atom_budget = 64;  // tiny: the spouse cascade blows past it
  QueryCostReport report = AnalyzeQueryCost(world, *query, options);
  auto found = WithCode(report.diagnostics, "FLD203");
  ASSERT_EQ(found.size(), 1u);
  // The mandatory cycle is named in the supporting notes.
  EXPECT_EQ(report.boundedness.degree, NullDegree::kUnbounded);
  bool cycle_note = false;
  for (const std::string& note : found[0]->notes) {
    cycle_note |= note.find("person -[spouse]-> person") != std::string::npos;
  }
  EXPECT_TRUE(cycle_note);

  // A bounded query under the default budget stays silent.
  World world2;
  Result<ConjunctiveQuery> small =
      ParseQuery(world2, "q(X) :- member(X, c).");
  ASSERT_TRUE(small.ok());
  EXPECT_FALSE(HasCode(AnalyzeQueryCost(world2, *small).diagnostics,
                       "FLD203"));
}

}  // namespace
}  // namespace floq::analysis
