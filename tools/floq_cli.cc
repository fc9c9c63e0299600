// floq — command-line front end to the containment checker.
//
//   floq check <queries.fl>            decide q1 ⊆ q2 for the first two
//                                      rules in the file, with explanation
//   floq explain <queries.fl> [--profile] [--chase-dot FILE]
//                                      like check, plus a per-stage cost
//                                      table and a chase-graph DOT export
//   floq classify <queries.fl>         containment taxonomy of all rules
//   floq chase <queries.fl> [N]        chase the first rule to level N
//                                      (default 12) and dump the graph
//   floq dot <queries.fl> [N]          same, as Graphviz DOT on stdout
//   floq minimize <queries.fl>         minimize every rule under Sigma_FL
//   floq query <kb.fl> <query text>    answer a query over a knowledge base
//   floq consistency <kb.fl>           saturate and report rho_4/rho_5
//   floq lint [--json] [--deps d.fl] [--fail-on SEV] [file.fl]
//                                      static diagnostics: query lints,
//                                      termination analyses (FLD103 finds
//                                      mandatory-attribute cycles);
//                                      --fail-on {error,warn,note} sets
//                                      the severity that exits 2 (default
//                                      error); with --kb-snapshot the
//                                      file is treated as a knowledge
//                                      base and FLD103 runs against the
//                                      (possibly snapshot-restored) store
//   floq analyze [--json] [--deps d.fl] [file.fl]
//                                      static cost & boundedness report
//                                      (DESIGN.md §15): per-query chase
//                                      growth estimates and lints
//                                      (FLD202/FLD203), fact-base
//                                      null-generation grade, and — with
//                                      --deps — the dependency set's
//                                      degree table (FLD101/102/201)
//   floq serve <dir> [--socket PATH] [--workers N] [--queue-limit N]
//                                      crash-safe containment daemon
//                                      (DESIGN.md §16): durable query
//                                      registry in <dir>, length-prefixed
//                                      JSON protocol over an AF_UNIX
//                                      socket; SIGTERM drains gracefully
//   floq client --socket PATH <sub> [args]
//                                      one request against a running
//                                      daemon: register/unregister/
//                                      contain/classify/lint/status/
//                                      metrics/ping/shutdown; prints the
//                                      raw JSON response (`metrics
//                                      --format prometheus` prints text
//                                      exposition instead)
//   floq top --socket PATH [--interval-ms N] [--count N] [--no-clear]
//                                      live metrics console over a running
//                                      daemon: request rates, per-command
//                                      latency quantiles, queue depth, WAL
//                                      lag, refreshed from SnapshotDelta
//                                      (alias: floq client watch)
//
// Exit codes (uniform across commands, DESIGN.md §16.5):
//   0   success: contained / consistent / no lint findings / request ok
//   2   definite negative: NOT_CONTAINED, inconsistent, or a diagnostic
//       at or above --fail-on fired — never an error
//   3   UNKNOWN: a resource budget tripped (or the daemon shed the
//       request as OVERLOADED) before the check was decided
//   4   operational failure: unreadable file, parse error, I/O or
//       protocol error — never a verdict
//   64  usage error
//
// Files use the F-logic surface syntax (see README). Everything runs under
// the F-logic Lite semantics Sigma_FL of Calì & Kifer (VLDB'06).
//
// Global flags (anywhere after the command):
//   --jobs N           worker threads for the batch commands (0 = cores)
//   --no-prune         disable the stage-0 signature prefilter in the
//                      batch commands (classify, views); verdicts are
//                      identical either way, only slower
//   --timeout-ms N     wall-clock budget per containment check; a tripped
//                      budget renders as UNKNOWN (exit 3), never as a
//                      wrong definite verdict
//   --hom-steps N      cap on homomorphism-search steps per check
//   --metrics-out F    enable the metrics registry and write its JSON
//                      snapshot to F when the command finishes
//   --trace-out F      record scoped spans and write Chrome trace_event
//                      JSON to F (loads in chrome://tracing / Perfetto)
//   --kb-snapshot F    for the KB commands (query, consistency, lint):
//                      when F exists, restore the knowledge base from it
//                      (one mmap — parsing is skipped, and saturation
//                      too if the snapshot recorded a saturated store);
//                      otherwise build the KB from <kb.fl> as usual and
//                      write F afterwards. See DESIGN.md §14.2.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/boundedness.h"
#include "analysis/cost_model.h"
#include "analysis/dependency_lints.h"
#include "chase/chase.h"
#include "chase/dependencies.h"
#include "chase/graph_dot.h"
#include "containment/classifier.h"
#include "containment/containment.h"
#include "containment/explain.h"
#include "containment/minimize.h"
#include "containment/views.h"
#include "flogic/parser.h"
#include "flogic/printer.h"
#include "kb/knowledge_base.h"
#include "server/daemon.h"
#include "server/protocol.h"
#include "util/file.h"
#include "util/metrics.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/trace.h"
#include "term/world.h"

#include <optional>

namespace {

using namespace floq;

// Uniform exit codes (documented in README "Exit codes"):
//   0  success / contained / no lint findings
//   2  definite negative: not contained, or a lint diagnostic at or above
//      the --fail-on severity fired
//   3  UNKNOWN: a resource budget tripped before the check was decided
//   4  operational failure: unreadable file, parse error, I/O or
//      protocol error (never a verdict)
//   64 usage error
constexpr int kExitOk = 0;
constexpr int kExitNo = 2;
constexpr int kExitUnknown = 3;
constexpr int kExitIo = 4;

int Fail(const std::string& message) {
  std::fprintf(stderr, "floq: %s\n", message.c_str());
  return kExitIo;
}

Result<std::vector<ConjunctiveQuery>> LoadRules(World& world,
                                                const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  Result<flogic::Program> program = flogic::ParseProgram(world, *text);
  if (!program.ok()) return program.status();
  std::vector<ConjunctiveQuery> rules = std::move(program->rules);
  for (ConjunctiveQuery& goal : program->goals) {
    rules.push_back(std::move(goal));
  }
  if (rules.empty()) {
    return InvalidArgumentError(path + " contains no rules or goals");
  }
  return rules;
}

int CmdCheck(const std::string& path, const ResourceBudget& budget) {
  World world;
  Result<std::vector<ConjunctiveQuery>> rules = LoadRules(world, path);
  if (!rules.ok()) return Fail(rules.status().ToString());
  if (rules->size() < 2) return Fail("check needs at least two rules");
  const ConjunctiveQuery& q1 = (*rules)[0];
  const ConjunctiveQuery& q2 = (*rules)[1];
  ContainmentOptions options;
  options.budget = budget;
  Result<ContainmentResult> result = CheckContainment(world, q1, q2, options);
  if (!result.ok()) return Fail(result.status().ToString());
  std::printf("%s", ExplainContainment(world, q1, q2, *result).c_str());
  if (result->resolution == Resolution::kUnknown) return kExitUnknown;
  return result->contained ? kExitOk : kExitNo;
}

// check, plus introspection: `--profile` appends a per-stage cost table
// (wall time and effort counters for the chase and the hom search) and
// `--chase-dot FILE` writes the chase graph — cross-arcs included — as
// Graphviz DOT. Exit codes mirror `check`.
int CmdExplain(const std::string& path, const ResourceBudget& budget,
               bool profile, const std::string& chase_dot) {
  World world;
  Result<std::vector<ConjunctiveQuery>> rules = LoadRules(world, path);
  if (!rules.ok()) return Fail(rules.status().ToString());
  if (rules->size() < 2) return Fail("explain needs at least two rules");
  const ConjunctiveQuery& q1 = (*rules)[0];
  const ConjunctiveQuery& q2 = (*rules)[1];
  ContainmentOptions options;
  options.budget = budget;
  options.record_cross_arcs = !chase_dot.empty();
  Result<ContainmentResult> result = CheckContainment(world, q1, q2, options);
  if (!result.ok()) return Fail(result.status().ToString());
  std::printf("%s", ExplainContainment(world, q1, q2, *result).c_str());

  if (profile) {
    const ChaseStats& cs = result->chase.stats();
    const MatchStats& hs = result->hom_stats;
    std::printf("\nprofile (per-stage cost):\n");
    std::printf("  %-12s %10s  %s\n", "stage", "wall_ms", "detail");
    std::printf("  %-12s %10.3f  level_bound=%d conjuncts=%u max_level=%d "
                "rounds=%llu fresh_nulls=%llu egd_merges=%llu\n",
                "chase", result->chase_ms, result->level_bound,
                result->chase.size(), result->chase.max_level(),
                static_cast<unsigned long long>(cs.rounds),
                static_cast<unsigned long long>(cs.fresh_nulls),
                static_cast<unsigned long long>(cs.egd_merges));
    std::printf("  %-12s %10.3f  nodes=%llu matches=%llu probes=%llu "
                "prepass_rejects=%llu\n",
                "hom-search", result->hom_ms,
                static_cast<unsigned long long>(hs.nodes_visited),
                static_cast<unsigned long long>(hs.matches_found),
                static_cast<unsigned long long>(hs.index_probes),
                static_cast<unsigned long long>(hs.reject_prepass_hits));
    std::printf("  rule firings:");
    bool any = false;
    for (int k = 1; k <= 12; ++k) {
      if (cs.rule_fired[size_t(k)] == 0) continue;
      std::printf(" rho%d=%llu", k,
                  static_cast<unsigned long long>(cs.rule_fired[size_t(k)]));
      any = true;
    }
    std::printf("%s\n", any ? "" : " (none)");
  }

  if (!chase_dot.empty()) {
    DotOptions dot_options;
    dot_options.max_level = std::max(result->chase.max_level(), 0);
    dot_options.title = "chase of " + q1.ToString(world);
    Status written = WriteFile(
        chase_dot, ChaseGraphToDot(result->chase, world, dot_options));
    if (!written.ok()) return Fail(written.ToString());
    std::printf("chase graph written to %s\n", chase_dot.c_str());
  }

  if (result->resolution == Resolution::kUnknown) return kExitUnknown;
  return result->contained ? kExitOk : kExitNo;
}

int CmdClassify(const std::string& path, int jobs,
                const ResourceBudget& budget, bool no_prune) {
  World world;
  Result<std::vector<ConjunctiveQuery>> rules = LoadRules(world, path);
  if (!rules.ok()) return Fail(rules.status().ToString());
  BatchContainmentOptions options;
  options.jobs = jobs;  // 0 = hardware concurrency
  options.containment.budget = budget;
  options.containment.use_signature_index = !no_prune;
  Result<QueryTaxonomy> taxonomy = ClassifyQueries(world, *rules, options);
  if (!taxonomy.ok()) return Fail(taxonomy.status().ToString());
  std::printf("%zu queries, %zu equivalence classes, %d checks\n",
              rules->size(), taxonomy->classes.size(), taxonomy->checks);
  const int pairs = taxonomy->checks + taxonomy->pruned_checks +
                    taxonomy->shared_pairs;
  if (pairs > 0) {
    std::printf("signature index: %d of %d pairs pruned (ratio %.3f)\n",
                taxonomy->pruned_checks, pairs,
                double(taxonomy->pruned_checks) / double(pairs));
  }
  if (taxonomy->shared_pairs > 0) {
    std::printf("query shapes: %d of %d pairs shared from renamed queries\n",
                taxonomy->shared_pairs, pairs);
  }
  if (taxonomy->unknown_checks > 0) {
    std::printf("%d check(s) returned UNKNOWN (resource budget tripped); "
                "the taxonomy may be coarser than the true preorder\n",
                taxonomy->unknown_checks);
  }
  std::printf("taxonomy (general at the top, ⊂ below):\n%s",
              TaxonomyToString(*taxonomy, *rules, world).c_str());
  return 0;
}

int CmdChase(const std::string& path, int level, bool dot) {
  World world;
  Result<std::vector<ConjunctiveQuery>> rules = LoadRules(world, path);
  if (!rules.ok()) return Fail(rules.status().ToString());
  ChaseOptions options;
  options.max_level = level;
  options.record_cross_arcs = dot;
  ChaseResult chase = ChaseQuery(world, (*rules)[0], options);
  if (dot) {
    DotOptions dot_options;
    dot_options.max_level = level;
    dot_options.title =
        "chase of " + (*rules)[0].ToString(world);
    std::printf("%s", ChaseGraphToDot(chase, world, dot_options).c_str());
  } else {
    std::printf("%s", chase.DebugString(world).c_str());
  }
  return 0;
}

int CmdMinimize(const std::string& path) {
  World world;
  Result<std::vector<ConjunctiveQuery>> rules = LoadRules(world, path);
  if (!rules.ok()) return Fail(rules.status().ToString());
  for (const ConjunctiveQuery& query : *rules) {
    MinimizeStats stats;
    Result<ConjunctiveQuery> minimal = MinimizeQuery(world, query, {}, &stats);
    if (!minimal.ok()) return Fail(minimal.status().ToString());
    std::printf("%s\n", flogic::QueryToSurface(query, world).c_str());
    if (stats.atoms_removed == 0) {
      std::printf("  already minimal under Sigma_FL\n");
    } else {
      std::printf("  => %s   (%d atoms removed)\n",
                  flogic::QueryToSurface(*minimal, world).c_str(),
                  stats.atoms_removed);
    }
  }
  return 0;
}

// Containment under a user dependency file (TGDs/EGDs; see
// docs/LANGUAGE.md). Complete when the set is weakly acyclic.
int CmdCheckUnder(const std::string& deps_path, const std::string& path,
                  const ResourceBudget& budget) {
  World world;
  Result<std::string> deps_text = ReadFile(deps_path);
  if (!deps_text.ok()) return Fail(deps_text.status().ToString());
  Result<DependencySet> deps = ParseDependencies(world, *deps_text);
  if (!deps.ok()) return Fail(deps.status().ToString());

  Result<std::vector<ConjunctiveQuery>> rules = LoadRules(world, path);
  if (!rules.ok()) return Fail(rules.status().ToString());
  if (rules->size() < 2) return Fail("check-under needs at least two rules");

  bool weakly_acyclic = IsWeaklyAcyclic(*deps, world);
  std::printf("dependencies: %zu TGDs, %zu EGDs, weakly acyclic: %s\n",
              deps->tgds.size(), deps->egds.size(),
              weakly_acyclic ? "yes" : "NO");

  ContainmentOptions options;
  options.budget = budget;
  if (!weakly_acyclic) {
    options.level_override = PaperLevelBound((*rules)[0], (*rules)[1]);
    std::printf("using bounded chase to level %d (sound; negatives "
                "inconclusive)\n",
                options.level_override);
  }
  Result<ContainmentResult> result = CheckContainmentUnderDependencies(
      world, (*rules)[0], (*rules)[1], *deps, options);
  if (!result.ok()) return Fail(result.status().ToString());
  if (result->resolution == Resolution::kUnknown) {
    std::printf("q1 ⊆ q2 under the dependencies?  UNKNOWN (%s budget "
                "tripped)\n",
                TripReasonName(result->unknown_reason));
    return kExitUnknown;
  }
  std::printf("q1 ⊆ q2 under the dependencies?  %s%s\n",
              result->contained ? "YES" : "no",
              result->conclusive ? "" : "  (inconclusive)");
  return result->contained ? kExitOk : kExitNo;
}

int CmdCore(const std::string& path) {
  World world;
  Result<std::vector<ConjunctiveQuery>> rules = LoadRules(world, path);
  if (!rules.ok()) return Fail(rules.status().ToString());
  for (const ConjunctiveQuery& query : *rules) {
    CoreStats stats;
    Result<ConjunctiveQuery> core = ComputeCore(world, query, {}, &stats);
    if (!core.ok()) return Fail(core.status().ToString());
    std::printf("%s\n", flogic::QueryToSurface(query, world).c_str());
    if (stats.atoms_removed == 0 && stats.variables_folded == 0) {
      std::printf("  already a Sigma_FL-core\n");
    } else {
      std::printf("  => %s   (%d atoms removed, %d variables folded)\n",
                  flogic::QueryToSurface(*core, world).c_str(),
                  stats.atoms_removed, stats.variables_folded);
    }
  }
  return 0;
}

// View usability: first rule = the query, remaining rules = views.
int CmdViews(const std::string& path, bool no_prune) {
  World world;
  Result<std::vector<ConjunctiveQuery>> rules = LoadRules(world, path);
  if (!rules.ok()) return Fail(rules.status().ToString());
  if (rules->size() < 2) return Fail("views needs a query plus views");
  ConjunctiveQuery query = (*rules)[0];
  std::vector<ConjunctiveQuery> views(rules->begin() + 1, rules->end());
  BatchContainmentOptions options;
  options.containment.use_signature_index = !no_prune;
  Result<ViewAnalysis> analysis = AnalyzeViews(world, query, views, options);
  if (!analysis.ok()) return Fail(analysis.status().ToString());
  std::printf("%s", ViewAnalysisToString(*analysis, query, views,
                                         world).c_str());
  return 0;
}

// Restores `kb` from `snapshot_path` when the file exists (returning true),
// otherwise parses `kb_path` into it (returning false). Fail()s inline on
// errors via the returned optional being empty.
std::optional<bool> LoadKbOrSnapshot(KnowledgeBase& kb,
                                     const std::string& kb_path,
                                     const std::string& snapshot_path) {
  if (!snapshot_path.empty() && ::access(snapshot_path.c_str(), F_OK) == 0) {
    Status loaded = kb.LoadSnapshot(snapshot_path);
    if (!loaded.ok()) {
      Fail(loaded.ToString());
      return std::nullopt;
    }
    std::fprintf(stderr, "floq: restored %u facts from snapshot %s%s\n",
                 kb.size(), snapshot_path.c_str(),
                 kb.saturated() ? " (saturated)" : "");
    return true;
  }
  Result<std::string> text = ReadFile(kb_path);
  Status loaded = text.ok() ? kb.Load(*text) : text.status();
  if (!loaded.ok()) {
    Fail(loaded.ToString());
    return std::nullopt;
  }
  return false;
}

// Writes `snapshot_path` after a fresh build (never after a load — the
// store would be byte-identical anyway).
int SaveKbSnapshot(KnowledgeBase& kb, const std::string& snapshot_path,
                   bool from_snapshot) {
  if (snapshot_path.empty() || from_snapshot) return 0;
  Status saved = kb.SaveSnapshot(snapshot_path);
  if (!saved.ok()) return Fail(saved.ToString());
  std::fprintf(stderr, "floq: snapshot written to %s\n",
               snapshot_path.c_str());
  return 0;
}

int CmdQuery(const std::string& kb_path, const std::string& query_text,
             const std::string& snapshot_path) {
  World world;
  KnowledgeBase kb(world);
  std::optional<bool> from_snapshot =
      LoadKbOrSnapshot(kb, kb_path, snapshot_path);
  if (!from_snapshot.has_value()) return kExitIo;
  Result<std::vector<std::vector<Term>>> answers = kb.Answer(query_text);
  if (!answers.ok()) return Fail(answers.status().ToString());
  for (const auto& tuple : *answers) {
    std::string line;
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) line += ", ";
      line += world.NameOf(tuple[i]);
    }
    std::printf("%s\n", line.empty() ? "true" : line.c_str());
  }
  if (answers->empty()) std::printf("(no answers)\n");
  return SaveKbSnapshot(kb, snapshot_path, *from_snapshot);
}

int CmdConsistency(const std::string& kb_path,
                   const std::string& snapshot_path) {
  World world;
  KnowledgeBase kb(world);
  std::optional<bool> from_snapshot =
      LoadKbOrSnapshot(kb, kb_path, snapshot_path);
  if (!from_snapshot.has_value()) return kExitIo;
  // On a snapshot-restored saturated store the fixpoint converges in one
  // delta-less scan; the report (rho_4 repairs, rho_5 gaps) is recomputed
  // either way — it is the point of the command.
  //
  // The snapshot (fresh builds only) is taken at the plain fixpoint,
  // BEFORE the completion pass below: rho_5 completion invents fresh
  // nulls that `floq query` must never see as answers, so the cached
  // store has to be exactly what CmdQuery's own saturation would build.
  if (!*from_snapshot) {
    Result<ConsistencyReport> base = kb.Saturate();
    if (!base.ok()) return Fail(base.status().ToString());
    int save_failed = SaveKbSnapshot(kb, snapshot_path, *from_snapshot);
    if (save_failed != 0) return save_failed;
  }
  SaturateOptions options;
  options.mandatory_completion_rounds = 8;
  Result<ConsistencyReport> report = kb.Saturate(options);
  if (!report.ok()) return Fail(report.status().ToString());
  std::printf("facts after saturation: %u\n", kb.size());
  std::printf("consistent (rho_4): %s\n", report->consistent ? "yes" : "NO");
  for (const std::string& violation : report->funct_violations) {
    std::printf("  violation: %s\n", violation.c_str());
  }
  for (const std::string& pending : report->unsatisfied_mandatory) {
    std::printf("  unsatisfied mandatory: %s\n", pending.c_str());
  }
  return report->consistent ? kExitOk : kExitNo;
}

// Interactive shell: F-logic statements are asserted, goals are answered,
// ':'-commands control the session. Reads stdin line by line; each line
// must be a complete statement.
int CmdRepl(const std::string& kb_path) {
  World world;
  KnowledgeBase kb(world);
  if (!kb_path.empty()) {
    Result<std::string> text = ReadFile(kb_path);
    Status loaded = text.ok() ? kb.Load(*text) : text.status();
    if (!loaded.ok()) return Fail(loaded.ToString());
    std::printf("loaded %u facts from %s\n", kb.size(), kb_path.c_str());
  }
  std::printf("floq repl — F-logic statements assert, '?- goal.' queries,\n"
              ":consistency, :facts, :help, :quit\n");

  std::string line;
  while (std::printf("floq> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::string_view trimmed = StripWhitespace(line);
    if (trimmed.empty()) continue;
    if (trimmed == ":quit" || trimmed == ":q") break;
    if (trimmed == ":help") {
      std::printf("  john : student.          assert a fact\n"
                  "  ?- X :: person.          run a goal\n"
                  "  q(X) :- X : person.      define + run a rule\n"
                  "  :consistency             saturate and report\n"
                  "  :facts                   dump the store\n"
                  "  :quit                    leave\n");
      continue;
    }
    if (trimmed == ":facts") {
      for (const Atom& fact : kb.database().facts()) {
        std::printf("  %s\n",
                    flogic::AtomToSurface(fact, world).c_str());
      }
      continue;
    }
    if (trimmed == ":consistency") {
      SaturateOptions options;
      options.mandatory_completion_rounds = 8;
      Result<ConsistencyReport> report = kb.Saturate(options);
      if (!report.ok()) {
        std::printf("error: %s\n", report.status().ToString().c_str());
        continue;
      }
      std::printf("facts: %u, consistent: %s\n", kb.size(),
                  report->consistent ? "yes" : "NO");
      for (const std::string& violation : report->funct_violations) {
        std::printf("  %s\n", violation.c_str());
      }
      continue;
    }

    // Goals and rules answer; plain statements assert.
    Result<flogic::Program> program =
        flogic::ParseProgram(world, std::string(trimmed));
    if (!program.ok()) {
      std::printf("error: %s\n", program.status().ToString().c_str());
      continue;
    }
    for (const Atom& fact : program->facts) {
      Status added = kb.AddFact(fact);
      if (!added.ok()) std::printf("error: %s\n", added.ToString().c_str());
    }
    if (!program->facts.empty()) {
      std::printf("asserted %zu fact(s)\n", program->facts.size());
    }
    std::vector<ConjunctiveQuery> to_answer = program->goals;
    for (const ConjunctiveQuery& rule : program->rules) {
      to_answer.push_back(rule);
    }
    for (const ConjunctiveQuery& goal : to_answer) {
      Result<std::vector<std::vector<Term>>> answers = kb.Answer(goal);
      if (!answers.ok()) {
        std::printf("error: %s\n", answers.status().ToString().c_str());
        continue;
      }
      if (answers->empty()) {
        std::printf("no\n");
        continue;
      }
      for (const auto& tuple : *answers) {
        if (tuple.empty()) {
          std::printf("yes\n");
          continue;
        }
        std::string out;
        for (size_t i = 0; i < tuple.size(); ++i) {
          if (i > 0) out += ", ";
          out += world.NameOf(tuple[i]);
        }
        std::printf("%s\n", out.c_str());
      }
    }
  }
  return 0;
}

// True when any diagnostic is at least as severe as `threshold`
// (Severity orders kError < kWarning < kNote).
bool ReachesSeverity(
    const std::vector<std::pair<std::string,
                                std::vector<analysis::Diagnostic>>>& groups,
    analysis::Severity threshold) {
  for (const auto& [file, diagnostics] : groups) {
    for (const analysis::Diagnostic& d : diagnostics) {
      if (d.severity <= threshold) return true;
    }
  }
  return false;
}

// Static diagnostics: program lints (FLQ0xx, FLD103) on `path`,
// dependency-set termination analyses (FLD101/FLD102/FLD201) on
// `deps_path`. With `snapshot_path` set, `path` names a knowledge base:
// the store is restored from the snapshot when it exists (else built from
// the file, writing the snapshot), and FLD103 runs against the loaded
// facts — the store a `floq query` against the same snapshot would see.
// Exits 0 when below `fail_on`, 2 when a diagnostic at or above it fired,
// 1 on operational failure (unreadable file).
int CmdLint(const std::string& path, const std::string& deps_path,
            const std::string& snapshot_path, bool json,
            analysis::Severity fail_on, const ResourceBudget& budget) {
  World world;
  analysis::AnalyzeOptions options;
  // A tripped budget keeps the semantic probes silent (never wrong).
  options.query.budget = budget;
  // (filename, diagnostics) per linted source.
  std::vector<std::pair<std::string, std::vector<analysis::Diagnostic>>>
      groups;
  std::optional<KnowledgeBase> kb;
  if (!path.empty() && !snapshot_path.empty()) {
    kb.emplace(world);
    std::optional<bool> from_snapshot =
        LoadKbOrSnapshot(*kb, path, snapshot_path);
    if (!from_snapshot.has_value()) return kExitIo;
    std::vector<Atom> facts(kb->database().facts().begin(),
                            kb->database().facts().end());
    std::vector<analysis::Diagnostic> diagnostics =
        analysis::LintFacts(world, facts);
    analysis::SortDiagnostics(diagnostics);
    groups.push_back({path, std::move(diagnostics)});
    int save_failed = SaveKbSnapshot(*kb, snapshot_path, *from_snapshot);
    if (save_failed != 0) return save_failed;
  } else if (!path.empty()) {
    Result<std::string> text = ReadFile(path);
    if (!text.ok()) return Fail(text.status().ToString());
    groups.push_back(
        {path, analysis::AnalyzeProgramText(world, *text, options)});
  }
  if (!deps_path.empty()) {
    Result<std::string> text = ReadFile(deps_path);
    if (!text.ok()) return Fail(text.status().ToString());
    groups.push_back(
        {deps_path, analysis::AnalyzeDependencyText(world, *text)});
  }

  size_t total = 0;
  for (const auto& [file, diagnostics] : groups) {
    total += diagnostics.size();
  }

  if (json) {
    // Splice the per-file arrays into one.
    std::string out = "[";
    bool first = true;
    for (const auto& [file, diagnostics] : groups) {
      if (diagnostics.empty()) continue;
      std::string array = analysis::DiagnosticsToJson(diagnostics, file);
      if (!first) out += ",";
      out.append(array, 1, array.size() - 3);  // strip "[" and "\n]"
      first = false;
    }
    out += first ? "]" : "\n]";
    if (MetricsRegistry::enabled()) {
      // With --metrics-out the array is wrapped in an object that also
      // embeds the collected metrics (the semantic probes run chases and
      // hom searches); the bare-array shape is kept otherwise for
      // compatibility. ToJson is canonical — no trailing whitespace — so
      // the snapshot splices in verbatim.
      out = "{\"diagnostics\": " + out + ",\n\"metrics\": " +
            MetricsRegistry::Get().ToJson() + "}";
    }
    std::printf("%s\n", out.c_str());
  } else {
    int error_count = 0, warning_count = 0;
    for (const auto& [file, diagnostics] : groups) {
      for (const analysis::Diagnostic& d : diagnostics) {
        std::printf("%s\n", analysis::FormatDiagnostic(d, file).c_str());
        if (d.severity == analysis::Severity::kError) ++error_count;
        if (d.severity == analysis::Severity::kWarning) ++warning_count;
      }
    }
    if (total > 0) {
      std::printf("%d error(s), %d warning(s)\n", error_count, warning_count);
    } else {
      std::printf("no diagnostics\n");
    }
  }
  return ReachesSeverity(groups, fail_on) ? kExitNo : kExitOk;
}

// "linear(depth 2)" / "unbounded" — a query or fact base's Sigma_FL
// null-generation grade for the analyze table.
std::string SigmaGradeToString(const analysis::SigmaBoundedness& grade) {
  std::string out = analysis::NullDegreeName(grade.degree);
  if (grade.degree == analysis::NullDegree::kLinear &&
      grade.mandatory_depth > 0) {
    out += "(depth " + std::to_string(grade.mandatory_depth) + ")";
  }
  return out;
}

// Static cost & boundedness analysis (DESIGN.md §15). For each rule/goal
// of `path`: the probe-fitted chase growth estimate at the query's own
// Theorem-12 level, its confidence tag, and the instance-level Sigma_FL
// boundedness grade, plus any FLD202 /
// FLD203 diagnostics. The program's fact base gets its own grade (the
// mandatory-attribute chain depth that bounds the rho_5 cascade). With
// --deps, the dependency set is graded over the labeled dependency graph
// (FLD101/102/201) with its per-position degree table. Exit codes mirror
// `lint` with the default threshold: 2 when an error-severity diagnostic
// fired, else 0.
int CmdAnalyze(const std::string& path, const std::string& deps_path,
               bool json) {
  using analysis::NullDegree;
  World world;
  std::vector<std::pair<std::string, std::vector<analysis::Diagnostic>>>
      groups;
  std::vector<ConjunctiveQuery> queries;
  std::vector<analysis::QueryCostReport> reports;
  std::optional<analysis::SigmaBoundedness> facts_grade;
  size_t fact_count = 0;

  if (!path.empty()) {
    Result<std::string> text = ReadFile(path);
    if (!text.ok()) return Fail(text.status().ToString());
    Result<flogic::Program> program = flogic::ParseProgram(world, *text);
    if (!program.ok()) return Fail(program.status().ToString());
    queries = program->rules;
    queries.insert(queries.end(), program->goals.begin(),
                   program->goals.end());
    std::vector<analysis::Diagnostic> diagnostics;
    for (const ConjunctiveQuery& query : queries) {
      analysis::QueryCostReport report =
          analysis::AnalyzeQueryCost(world, query);
      diagnostics.insert(diagnostics.end(), report.diagnostics.begin(),
                         report.diagnostics.end());
      reports.push_back(std::move(report));
    }
    if (!program->facts.empty()) {
      fact_count = program->facts.size();
      facts_grade = analysis::AnalyzeSigmaBoundedness(world, program->facts);
    }
    analysis::SortDiagnostics(diagnostics);
    groups.push_back({path, std::move(diagnostics)});
  }

  std::optional<analysis::BoundednessReport> deps_report;
  std::optional<DependencySet> deps;
  if (!deps_path.empty()) {
    Result<std::string> text = ReadFile(deps_path);
    if (!text.ok()) return Fail(text.status().ToString());
    Result<DependencySet> parsed = ParseDependencies(world, *text);
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    deps = std::move(*parsed);
    deps_report = analysis::AnalyzeBoundedness(*deps, world);
    groups.push_back({deps_path, analysis::AnalyzeDependencySet(*deps, world)});
  }

  if (json) {
    std::string out = "{";
    if (!queries.empty()) {
      out += "\"queries\": [";
      for (size_t i = 0; i < queries.size(); ++i) {
        const analysis::CostEstimate& e = reports[i].estimate;
        char buffer[256];
        std::snprintf(buffer, sizeof buffer,
                      "{\"chase_atoms_bound\": %llu, "
                      "\"chase_levels_bound\": %d, \"confidence\": %.4f, "
                      "\"boundedness\": \"%s\", \"mandatory_depth\": %d}",
                      static_cast<unsigned long long>(e.chase_atoms_bound),
                      e.chase_levels_bound, e.confidence,
                      analysis::NullDegreeName(reports[i].boundedness.degree),
                      reports[i].boundedness.mandatory_depth);
        out += (i > 0 ? ",\n  {\"query\": " : "\n  {\"query\": ");
        AppendJsonString(flogic::QueryToSurface(queries[i], world), &out);
        out += ", \"estimate\": ";
        out += buffer;
        out += "}";
      }
      out += "\n],\n";
    }
    if (facts_grade.has_value()) {
      out += "\"fact_base\": {\"facts\": " + std::to_string(fact_count) +
             ", \"boundedness\": \"";
      out += analysis::NullDegreeName(facts_grade->degree);
      out += "\", \"mandatory_depth\": " +
             std::to_string(facts_grade->mandatory_depth) + "},\n";
    }
    if (deps_report.has_value()) {
      out += "\"dependencies\": {\"degree\": \"";
      out += analysis::NullDegreeName(deps_report->degree);
      out += "\", \"witness_degree\": " +
             std::to_string(deps_report->witness_degree) + "},\n";
    }
    out += "\"diagnostics\": [";
    bool first = true;
    for (const auto& [file, diagnostics] : groups) {
      if (diagnostics.empty()) continue;
      std::string array = analysis::DiagnosticsToJson(diagnostics, file);
      if (!first) out += ",";
      out.append(array, 1, array.size() - 3);  // strip "[" and "\n]"
      first = false;
    }
    out += first ? "]}" : "\n]}";
    std::printf("%s\n", out.c_str());
  } else {
    if (!queries.empty()) {
      std::printf("query cost estimates (%s):\n", path.c_str());
      std::printf("  %12s %7s %6s %-16s %s\n", "chase_atoms", "levels",
                  "conf", "boundedness", "query");
      for (size_t i = 0; i < queries.size(); ++i) {
        const analysis::CostEstimate& e = reports[i].estimate;
        std::printf("  %12llu %7d %6.2f %-16s %s\n",
                    static_cast<unsigned long long>(e.chase_atoms_bound),
                    e.chase_levels_bound, e.confidence,
                    SigmaGradeToString(reports[i].boundedness).c_str(),
                    flogic::QueryToSurface(queries[i], world).c_str());
      }
    }
    if (facts_grade.has_value()) {
      std::printf("fact base: %zu facts, null generation %s\n", fact_count,
                  SigmaGradeToString(*facts_grade).c_str());
      for (const analysis::MandatoryEdge& edge : facts_grade->witness) {
        std::printf("    %s\n", edge.ToString(world).c_str());
      }
    }
    if (deps_report.has_value()) {
      std::printf("dependency set (%s): null generation %s",
                  deps_path.c_str(),
                  analysis::NullDegreeName(deps_report->degree));
      if (deps_report->degree == NullDegree::kPolynomial) {
        std::printf(" (degree %d)", deps_report->witness_degree);
      }
      std::printf("\n");
      for (const analysis::PositionBoundedness& position :
           deps_report->positions) {
        std::printf("  %-12s %-12s %s\n",
                    position.position.ToString(world).c_str(),
                    analysis::NullDegreeName(position.degree),
                    analysis::WitnessPathToString(position.witness, *deps,
                                                  world).c_str());
      }
    }
    bool any = false;
    for (const auto& [file, diagnostics] : groups) {
      for (const analysis::Diagnostic& d : diagnostics) {
        std::printf("%s\n", analysis::FormatDiagnostic(d, file).c_str());
        any = true;
      }
    }
    if (!any) std::printf("no diagnostics\n");
  }
  return ReachesSeverity(groups, analysis::Severity::kError) ? kExitNo : kExitOk;
}

// --- serve / client -------------------------------------------------------

int Usage();  // forward: the daemon commands share the usage epilogue.

// `floq serve <dir>`: run the crash-safe containment daemon (DESIGN.md
// §16) until a drain signal. The global --jobs/--timeout-ms/--hom-steps
// flags become the daemon-wide defaults (requests may lower but never
// raise the budget). Exits 0 after a graceful drain, 4 on startup or
// fatal I/O failure.
int CmdServe(std::vector<std::string>& args, int jobs,
             const ResourceBudget& budget) {
  server::DaemonOptions options;
  bool bad = false;
  for (size_t i = 1; i < args.size(); ++i) {
    auto int_flag = [&](const char* name, auto* slot) -> bool {
      if (args[i] != name) return false;
      if (i + 1 >= args.size()) {
        bad = true;
        return true;
      }
      char* end = nullptr;
      long long value = std::strtoll(args[i + 1].c_str(), &end, 10);
      if (end == args[i + 1].c_str() || *end != '\0' || value < 0) {
        bad = true;
        return true;
      }
      *slot = static_cast<std::remove_reference_t<decltype(*slot)>>(value);
      ++i;
      return true;
    };
    if (args[i] == "--socket" && i + 1 < args.size()) {
      options.socket_path = args[++i];
    } else if (args[i] == "--log-out" && i + 1 < args.size()) {
      options.log_out = args[++i];
    } else if (args[i] == "--log-level" && i + 1 < args.size()) {
      options.log_level = args[++i];
    } else if (args[i] == "--trace-dir" && i + 1 < args.size()) {
      options.trace_dir = args[++i];
    } else if (int_flag("--workers", &options.workers) ||
               int_flag("--queue-limit", &options.queue_limit) ||
               int_flag("--max-connections", &options.max_connections) ||
               int_flag("--idle-timeout-ms", &options.idle_timeout_ms) ||
               int_flag("--io-timeout-ms", &options.io_timeout_ms) ||
               int_flag("--checkpoint-every", &options.checkpoint_every) ||
               int_flag("--slow-request-ms", &options.slow_request_ms) ||
               int_flag("--trace-sample", &options.trace_sample) ||
               int_flag("--http-metrics-port", &options.http_metrics_port)) {
      if (bad) break;
    } else if (!StartsWith(args[i], "--") && options.dir.empty()) {
      options.dir = args[i];
    } else {
      bad = true;
      break;
    }
  }
  if (bad || options.dir.empty()) return Usage();
  options.request_timeout_ms = budget.timeout_ms;
  options.hom_step_budget = budget.hom_step_budget;
  if (jobs > 0) options.jobs = jobs;
  Status status = server::RunDaemon(options);
  if (!status.ok()) return Fail(status.ToString());
  return kExitOk;
}

// Connects to the daemon's AF_UNIX socket; -1 + errno message on failure.
int ConnectUnix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    *error = "connect " + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

// --- floq top -------------------------------------------------------------

// Rebuilds a MetricsSnapshot from the `metrics` reply's embedded JSON
// object (the exact shape MetricsSnapshot::ToJson emits). Values
// round-trip through the protocol's double representation — exact through
// 2^53, far beyond anything a live console renders. Bucket index from the
// serialized lower bound inverts Histogram::BucketLowerBound:
// 0 -> bucket 0, else 2^(b-1) -> b = bit_width.
bool SnapshotFromJson(const server::Json& metrics, MetricsSnapshot* out) {
  const server::Json* counters = metrics.Find("counters");
  const server::Json* gauges = metrics.Find("gauges");
  const server::Json* histograms = metrics.Find("histograms");
  if (counters == nullptr || !counters->is_object() || gauges == nullptr ||
      !gauges->is_object() || histograms == nullptr ||
      !histograms->is_object()) {
    return false;
  }
  for (const auto& [name, value] : counters->members()) {
    out->counters.push_back({name, uint64_t(value.AsNumber())});
  }
  for (const auto& [name, value] : gauges->members()) {
    out->gauges.push_back({name, int64_t(value.AsNumber())});
  }
  for (const auto& [name, value] : histograms->members()) {
    MetricsSnapshot::HistogramValue h;
    h.name = name;
    const server::Json* count = value.Find("count");
    const server::Json* sum = value.Find("sum");
    h.count = count != nullptr ? uint64_t(count->AsNumber()) : 0;
    h.sum = sum != nullptr ? uint64_t(sum->AsNumber()) : 0;
    const server::Json* buckets = value.Find("buckets");
    if (buckets != nullptr && buckets->is_array()) {
      for (const server::Json& entry : buckets->items()) {
        if (!entry.is_array() || entry.items().size() != 2) return false;
        uint64_t lo = uint64_t(entry.items()[0].AsNumber());
        int bucket = lo == 0 ? 0 : std::bit_width(lo);
        if (bucket >= Histogram::kBuckets) bucket = Histogram::kBuckets - 1;
        h.buckets[size_t(bucket)] += uint64_t(entry.items()[1].AsNumber());
      }
    }
    out->histograms.push_back(std::move(h));
  }
  return true;
}

// One `metrics` request against a running daemon, decoded into a snapshot.
bool FetchSnapshot(const std::string& socket_path, MetricsSnapshot* out,
                   std::string* error) {
  int fd = ConnectUnix(socket_path, error);
  if (fd < 0) return false;
  server::Json request = server::Json::Object();
  request.Set("cmd", server::Json::String("metrics"));
  Status sent = server::WriteFrame(fd, request.Serialize(),
                                   Deadline::AfterMillis(10'000));
  if (!sent.ok()) {
    ::close(fd);
    *error = sent.ToString();
    return false;
  }
  server::FrameDecoder decoder;
  Result<std::string> payload =
      server::ReadFrame(fd, decoder, Deadline::AfterMillis(10'000));
  ::close(fd);
  if (!payload.ok()) {
    *error = payload.status().ToString();
    return false;
  }
  Result<server::Json> reply = server::ParseJson(*payload);
  if (!reply.ok()) {
    *error = reply.status().ToString();
    return false;
  }
  const server::Json* metrics = reply->Find("metrics");
  if (metrics == nullptr || !SnapshotFromJson(*metrics, out)) {
    *error = "malformed metrics reply from " + socket_path;
    return false;
  }
  return true;
}

uint64_t CounterValueOf(const MetricsSnapshot& s, std::string_view name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

int64_t GaugeValueOf(const MetricsSnapshot& s, std::string_view name) {
  for (const auto& g : s.gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

const MetricsSnapshot::HistogramValue* HistogramOf(const MetricsSnapshot& s,
                                                   std::string_view name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// `floq top --socket PATH [--interval-ms N] [--count N] [--no-clear]`
// (alias: `floq client watch`): a live console over the daemon's `metrics`
// command. Each refresh fetches a snapshot, diffs it against the previous
// one with MetricsRegistry::SnapshotDelta, and renders rates and latency
// quantiles from the delta; gauges are point-in-time and render as-is.
// The first frame has no baseline, so it shows totals since daemon start
// and no rates.
int CmdTop(const std::string& socket_path, std::vector<std::string>& flags) {
  int64_t interval_ms = 2'000;
  int64_t count = 0;  // 0 = refresh until interrupted
  bool no_clear = false;
  bool bad = false;
  for (size_t i = 0; i < flags.size(); ++i) {
    auto int_flag = [&](const char* name, int64_t* slot) -> bool {
      if (flags[i] != name) return false;
      if (i + 1 >= flags.size()) {
        bad = true;
        return true;
      }
      char* end = nullptr;
      long long value = std::strtoll(flags[i + 1].c_str(), &end, 10);
      if (end == flags[i + 1].c_str() || *end != '\0' || value < 0) {
        bad = true;
        return true;
      }
      *slot = value;
      ++i;
      return true;
    };
    if (flags[i] == "--no-clear") {
      no_clear = true;
    } else if (int_flag("--interval-ms", &interval_ms) ||
               int_flag("--count", &count)) {
      if (bad) break;
    } else {
      bad = true;
      break;
    }
  }
  if (bad || socket_path.empty() || interval_ms <= 0) return Usage();

  MetricsSnapshot previous;
  bool have_previous = false;
  auto last_fetch = std::chrono::steady_clock::now();
  for (int64_t frame = 0; count == 0 || frame < count; ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    MetricsSnapshot current;
    std::string error;
    if (!FetchSnapshot(socket_path, &current, &error)) return Fail(error);
    auto now = std::chrono::steady_clock::now();
    double elapsed_s =
        std::chrono::duration<double>(now - last_fetch).count();
    last_fetch = now;

    const MetricsSnapshot& view =
        have_previous ? MetricsRegistry::SnapshotDelta(previous, current)
                      : current;
    // Rates only have a well-defined window once there is a baseline.
    auto rate = [&](uint64_t delta) -> std::string {
      if (!have_previous || elapsed_s <= 0) return "--";
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.1f", double(delta) / elapsed_s);
      return buffer;
    };

    if (!no_clear) std::printf("\x1b[H\x1b[2J");
    std::printf("floq top — %s — every %lld ms — frame %lld%s\n",
                socket_path.c_str(), static_cast<long long>(interval_ms),
                static_cast<long long>(frame + 1),
                have_previous ? "" : " (totals since daemon start)");
    std::printf(
        "requests %llu (%s/s)   shed %llu   inflight %lld   queued %lld   "
        "connections %lld\n",
        static_cast<unsigned long long>(CounterValueOf(view, "serve.requests")),
        rate(CounterValueOf(view, "serve.requests")).c_str(),
        static_cast<unsigned long long>(
            CounterValueOf(view, "serve.shed.requests")),
        static_cast<long long>(GaugeValueOf(current, "serve.inflight")),
        static_cast<long long>(GaugeValueOf(current, "serve.queue.depth")),
        static_cast<long long>(GaugeValueOf(current, "serve.connections")));
    const MetricsSnapshot::HistogramValue* fsync =
        HistogramOf(view, "serve.wal.fsync_us");
    std::printf(
        "wal      records %llu   bytes %llu   dirty %lld   fsync p50 %.0fus "
        "p99 %.0fus\n",
        static_cast<unsigned long long>(
            CounterValueOf(view, "serve.wal.append.records")),
        static_cast<unsigned long long>(
            CounterValueOf(view, "serve.wal.append.bytes")),
        static_cast<long long>(GaugeValueOf(current, "serve.wal.dirty")),
        fsync != nullptr ? HistogramQuantile(*fsync, 0.5) : 0.0,
        fsync != nullptr ? HistogramQuantile(*fsync, 0.99) : 0.0);
    std::printf(
        "registry queries %lld   epoch %lld   hasse edges %lld   "
        "checkpoints %llu\n",
        static_cast<long long>(GaugeValueOf(current, "serve.registry.queries")),
        static_cast<long long>(GaugeValueOf(current, "serve.registry.epoch")),
        static_cast<long long>(
            GaugeValueOf(current, "serve.registry.hasse_edges")),
        static_cast<unsigned long long>(
            CounterValueOf(view, "serve.checkpoint.count")));
    std::printf("%-12s %10s %8s %10s %10s\n", "command", "count", "rate/s",
                "p50_us", "p99_us");
    for (const auto& h : view.histograms) {
      // serve.cmd.<name>.latency_us
      constexpr std::string_view kPrefix = "serve.cmd.";
      constexpr std::string_view kSuffix = ".latency_us";
      if (h.name.size() <= kPrefix.size() + kSuffix.size() ||
          h.name.compare(0, kPrefix.size(), kPrefix) != 0 ||
          h.name.compare(h.name.size() - kSuffix.size(), kSuffix.size(),
                         kSuffix) != 0) {
        continue;
      }
      std::string cmd = h.name.substr(
          kPrefix.size(), h.name.size() - kPrefix.size() - kSuffix.size());
      if (h.count == 0 && have_previous) continue;  // idle this window
      std::printf("%-12s %10llu %8s %10.0f %10.0f\n", cmd.c_str(),
                  static_cast<unsigned long long>(h.count),
                  rate(h.count).c_str(), HistogramQuantile(h, 0.5),
                  HistogramQuantile(h, 0.99));
    }
    std::fflush(stdout);
    previous = std::move(current);
    have_previous = true;
  }
  return kExitOk;
}

// `floq client --socket PATH <sub> [args]`: one request, one reply. The
// raw JSON response goes to stdout; the exit code maps the reply onto the
// uniform table (CONTAINED 0 / NOT_CONTAINED 2 / UNKNOWN or OVERLOADED 3
// / any other failure 4) so shell scripts branch on verdicts without a
// JSON parser.
int CmdClient(std::vector<std::string>& args, const ResourceBudget& budget) {
  std::string socket_path, lhs_query, rhs_query, format;
  std::vector<std::string> rest;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--socket" && i + 1 < args.size()) {
      socket_path = args[++i];
    } else if (args[i] == "--lhs-query" && i + 1 < args.size()) {
      lhs_query = args[++i];
    } else if (args[i] == "--rhs-query" && i + 1 < args.size()) {
      rhs_query = args[++i];
    } else if (args[i] == "--format" && i + 1 < args.size()) {
      format = args[++i];
    } else {
      rest.push_back(args[i]);
    }
  }
  if (socket_path.empty() || rest.empty()) return Usage();
  const std::string& sub = rest[0];
  if (sub == "watch") {
    // Alias for `floq top` — same loop, same flags (minus --socket, which
    // the client already parsed).
    std::vector<std::string> flags(rest.begin() + 1, rest.end());
    return CmdTop(socket_path, flags);
  }

  using server::Json;
  Json request = Json::Object();
  request.Set("cmd", Json::String(sub));
  if (sub == "register" && rest.size() == 3) {
    request.Set("name", Json::String(rest[1]));
    request.Set("query", Json::String(rest[2]));
  } else if (sub == "unregister" && rest.size() == 2) {
    request.Set("name", Json::String(rest[1]));
  } else if (sub == "contain") {
    // Sides: positional args are registered names; --lhs-query /
    // --rhs-query supply ad-hoc surface text instead.
    size_t positional = 1;
    if (lhs_query.empty()) {
      if (positional >= rest.size()) return Usage();
      request.Set("lhs", Json::String(rest[positional++]));
    } else {
      request.Set("lhs_query", Json::String(lhs_query));
    }
    if (rhs_query.empty()) {
      if (positional >= rest.size()) return Usage();
      request.Set("rhs", Json::String(rest[positional++]));
    } else {
      request.Set("rhs_query", Json::String(rhs_query));
    }
    if (positional != rest.size()) return Usage();
    if (budget.timeout_ms > 0) {
      request.Set("timeout_ms", Json::Number(double(budget.timeout_ms)));
    }
  } else if (sub == "lint" && rest.size() == 2) {
    Result<std::string> text = ReadFile(rest[1]);
    if (!text.ok()) return Fail(text.status().ToString());
    request.Set("program", Json::String(*text));
  } else if (sub == "metrics" && rest.size() == 1) {
    // `--format prometheus` asks the daemon for text exposition instead
    // of the embedded JSON snapshot.
    if (!format.empty()) request.Set("format", Json::String(format));
  } else if ((sub == "classify" || sub == "status" || sub == "ping" ||
              sub == "shutdown") &&
             rest.size() == 1) {
    // No arguments.
  } else {
    return Usage();
  }

  std::string error;
  int fd = ConnectUnix(socket_path, &error);
  if (fd < 0) return Fail(error);
  // Containment may legitimately run long; bound the wait only when the
  // caller bounded the check (plus slack for queueing), else 10 minutes
  // as a hung-daemon backstop.
  Deadline reply_by = budget.timeout_ms > 0
                          ? Deadline::AfterMillis(budget.timeout_ms + 30'000)
                          : Deadline::AfterMillis(600'000);
  Status sent =
      server::WriteFrame(fd, request.Serialize(), Deadline::AfterMillis(10'000));
  if (!sent.ok()) {
    ::close(fd);
    return Fail(sent.ToString());
  }
  server::FrameDecoder decoder;
  Result<std::string> payload = server::ReadFrame(fd, decoder, reply_by);
  ::close(fd);
  if (!payload.ok()) return Fail(payload.status().ToString());
  // Prometheus exposition prints as verbatim text (it IS the payload a
  // scraper wants); every other reply prints as the raw JSON frame.
  const bool prometheus_body = sub == "metrics" && format == "prometheus";
  if (!prometheus_body) std::printf("%s\n", payload->c_str());

  Result<Json> reply = server::ParseJson(*payload);
  if (!reply.ok()) return Fail(reply.status().ToString());
  Result<bool> ok = reply->GetBool("ok");
  if (!ok.ok()) return Fail("malformed reply: no ok field");
  if (prometheus_body) {
    if (*ok) {
      Result<std::string> body = reply->GetString("body");
      if (!body.ok()) return Fail("malformed reply: no exposition body");
      std::fputs(body->c_str(), stdout);  // exposition text ends in \n
    } else {
      std::printf("%s\n", payload->c_str());  // typed error, show the frame
    }
  }
  if (!*ok) {
    // Typed failure: resource shedding is UNKNOWN territory (exit 3),
    // everything else is operational (exit 4).
    const Json* code = reply->Find("code");
    if (code != nullptr && code->is_string() &&
        (code->AsString() == "OVERLOADED" || code->AsString() == "UNKNOWN")) {
      return kExitUnknown;
    }
    return kExitIo;
  }
  if (sub == "contain") {
    const Json* resolution = reply->Find("resolution");
    if (resolution == nullptr || !resolution->is_string()) {
      return Fail("malformed reply: no resolution");
    }
    if (resolution->AsString() == "CONTAINED") return kExitOk;
    if (resolution->AsString() == "NOT_CONTAINED") return kExitNo;
    return kExitUnknown;
  }
  if (sub == "lint") {
    Result<bool> errors = reply->GetBool("errors");
    if (errors.ok() && *errors) return kExitNo;
  }
  return kExitOk;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  floq check <queries.fl>\n"
               "  floq explain <queries.fl> [--profile] [--chase-dot FILE]\n"
               "  floq classify [--jobs N] [--no-prune] <queries.fl>\n"
               "  floq chase <queries.fl> [max_level]\n"
               "  floq dot <queries.fl> [max_level]\n"
               "  floq minimize <queries.fl>\n"
               "  floq core <queries.fl>\n"
               "  floq check-under <deps.fl> <queries.fl>\n"
               "  floq views <query_then_views.fl>\n"
               "  floq query <kb.fl> '<query>'\n"
               "  floq consistency <kb.fl>\n"
               "  floq lint [--json] [--deps <deps.fl>] "
               "[--fail-on error|warn|note] [<file.fl>]\n"
               "  floq analyze [--json] [--deps <deps.fl>] [<file.fl>]\n"
               "  floq repl [kb.fl]\n"
               "  floq serve <dir> [--socket PATH] [--workers N] "
               "[--queue-limit N]\n"
               "             [--max-connections N] [--idle-timeout-ms N] "
               "[--checkpoint-every N]\n"
               "             [--log-out F] [--log-level "
               "debug|info|warn|error|off]\n"
               "             [--slow-request-ms N] [--trace-sample N] "
               "[--trace-dir D]\n"
               "             [--http-metrics-port P]\n"
               "  floq top --socket PATH [--interval-ms N] [--count N] "
               "[--no-clear]\n"
               "  floq client --socket PATH register <name> '<query>' | "
               "unregister <name> |\n"
               "              contain <lhs> <rhs> [--lhs-query Q] "
               "[--rhs-query Q] |\n"
               "              classify | lint <file.fl> | status |\n"
               "              metrics [--format prometheus] | ping | "
               "shutdown | watch\n"
               "global flags: --jobs N, --timeout-ms N, --hom-steps N,\n"
               "              --no-prune (disable the signature prefilter),\n"
               "              --metrics-out <m.json>, --trace-out <t.json>,\n"
               "              --kb-snapshot <kb.snap> (query/consistency/"
               "lint:\n"
               "                load the KB from the snapshot if it exists,\n"
               "                else build it and write the snapshot)\n"
               "(a tripped budget renders as UNKNOWN and exits 3)\n");
  return 64;
}

int RunCommand(const std::string& command, std::vector<std::string>& args,
               int jobs, const ResourceBudget& budget, bool no_prune,
               const std::string& kb_snapshot) {
  if (command == "check" && args.size() == 2) {
    return CmdCheck(args[1], budget);
  }
  if (command == "explain" && args.size() >= 2) {
    bool profile = false;
    std::string chase_dot, file_path;
    bool bad = false;
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--profile") {
        profile = true;
      } else if (args[i] == "--chase-dot" && i + 1 < args.size()) {
        chase_dot = args[++i];
      } else if (!StartsWith(args[i], "--") && file_path.empty()) {
        file_path = args[i];
      } else {
        bad = true;
      }
    }
    if (bad || file_path.empty()) return Usage();
    return CmdExplain(file_path, budget, profile, chase_dot);
  }
  if (command == "classify" && args.size() == 2) {
    return CmdClassify(args[1], jobs, budget, no_prune);
  }
  if ((command == "chase" || command == "dot") &&
      (args.size() == 2 || args.size() == 3)) {
    int level = args.size() == 3 ? std::atoi(args[2].c_str()) : 12;
    return CmdChase(args[1], level, command == "dot");
  }
  if (command == "minimize" && args.size() == 2) return CmdMinimize(args[1]);
  if (command == "core" && args.size() == 2) return CmdCore(args[1]);
  if (command == "check-under" && args.size() == 3) {
    return CmdCheckUnder(args[1], args[2], budget);
  }
  if (command == "views" && args.size() == 2) {
    return CmdViews(args[1], no_prune);
  }
  if (command == "query" && args.size() == 3) {
    return CmdQuery(args[1], args[2], kb_snapshot);
  }
  if (command == "consistency" && args.size() == 2) {
    return CmdConsistency(args[1], kb_snapshot);
  }
  if (command == "lint" || command == "analyze") {
    bool json = false;
    std::string deps_path, file_path;
    analysis::Severity fail_on = analysis::Severity::kError;
    bool bad = false;
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--json") {
        json = true;
      } else if (args[i] == "--deps" && i + 1 < args.size()) {
        deps_path = args[++i];
      } else if (command == "lint" && args[i] == "--fail-on" &&
                 i + 1 < args.size()) {
        const std::string& level = args[++i];
        if (level == "error") {
          fail_on = analysis::Severity::kError;
        } else if (level == "warn" || level == "warning") {
          fail_on = analysis::Severity::kWarning;
        } else if (level == "note") {
          fail_on = analysis::Severity::kNote;
        } else {
          return Fail("--fail-on needs error, warn, or note, got '" + level +
                      "'");
        }
      } else if (!StartsWith(args[i], "--") && file_path.empty()) {
        file_path = args[i];
      } else {
        bad = true;
      }
    }
    if (bad || (file_path.empty() && deps_path.empty())) return Usage();
    if (command == "analyze") return CmdAnalyze(file_path, deps_path, json);
    return CmdLint(file_path, deps_path, kb_snapshot, json, fail_on, budget);
  }
  if (command == "repl" && args.size() <= 2) {
    return CmdRepl(args.size() == 2 ? args[1] : std::string());
  }
  if (command == "serve") return CmdServe(args, jobs, budget);
  if (command == "client") return CmdClient(args, budget);
  if (command == "top") {
    std::string socket_path;
    std::vector<std::string> flags;
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--socket" && i + 1 < args.size()) {
        socket_path = args[++i];
      } else {
        flags.push_back(args[i]);
      }
    }
    return CmdTop(socket_path, flags);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return Usage();
  const std::string& command = args[0];

  // Global value flags (anywhere after the command): `--jobs N` sets the
  // homomorphism fan-out width for the batch commands (0 = hardware
  // concurrency, the default); `--timeout-ms N` and `--hom-steps N` set
  // the resource budget for the governed commands; `--metrics-out F` and
  // `--trace-out F` arm the observability sinks (DESIGN.md §12).
  int64_t jobs64 = 0, timeout_ms = 0, hom_steps = 0;
  std::string metrics_out, trace_out, kb_snapshot;
  // Boolean flags first (the loop below consumes flag+value pairs).
  bool no_prune = false;
  for (size_t i = 1; i < args.size();) {
    if (args[i] == "--no-prune") {
      no_prune = true;
      args.erase(args.begin() + long(i));
      continue;
    }
    ++i;
  }
  for (size_t i = 1; i + 1 < args.size();) {
    std::string* text_slot = args[i] == "--metrics-out"  ? &metrics_out
                             : args[i] == "--trace-out"  ? &trace_out
                             : args[i] == "--kb-snapshot" ? &kb_snapshot
                                                          : nullptr;
    if (text_slot != nullptr) {
      *text_slot = args[i + 1];
      args.erase(args.begin() + long(i), args.begin() + long(i) + 2);
      continue;
    }
    int64_t* slot = args[i] == "--jobs"         ? &jobs64
                    : args[i] == "--timeout-ms" ? &timeout_ms
                    : args[i] == "--hom-steps"  ? &hom_steps
                                                : nullptr;
    if (slot == nullptr) {
      ++i;
      continue;
    }
    char* end = nullptr;
    long long value = std::strtoll(args[i + 1].c_str(), &end, 10);
    if (end == args[i + 1].c_str() || *end != '\0' || value < 0) {
      return Fail(args[i] + " needs a non-negative integer, got '" +
                  args[i + 1] + "'");
    }
    *slot = value;
    args.erase(args.begin() + long(i), args.begin() + long(i) + 2);
  }
  int jobs = int(jobs64);
  ResourceBudget budget;
  budget.timeout_ms = timeout_ms;
  budget.hom_step_budget = uint64_t(hom_steps);

  // Arm the sinks before dispatch; flush them after the command returns
  // (a quiescent point — every command joins its fan-out before exiting).
  if (!metrics_out.empty()) MetricsRegistry::set_enabled(true);
  std::optional<TraceSession> trace_session;
  if (!trace_out.empty()) trace_session.emplace();

  int exit_code = RunCommand(command, args, jobs, budget, no_prune,
                             kb_snapshot);

  if (!metrics_out.empty()) {
    Status written = WriteFile(metrics_out, MetricsRegistry::Get().ToJson());
    if (!written.ok()) return Fail(written.ToString());
  }
  if (trace_session.has_value()) {
    if (trace_session->dropped() > 0) {
      std::fprintf(stderr,
                   "floq: trace ring overflowed; %llu oldest event(s) "
                   "dropped\n",
                   static_cast<unsigned long long>(trace_session->dropped()));
    }
    Status written = WriteFile(trace_out, trace_session->ToJson());
    if (!written.ok()) return Fail(written.ToString());
  }
  return exit_code;
}
