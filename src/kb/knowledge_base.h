#ifndef FLOQ_KB_KNOWLEDGE_BASE_H_
#define FLOQ_KB_KNOWLEDGE_BASE_H_

#include <string>
#include <string_view>
#include <vector>

#include "datalog/database.h"
#include "datalog/rule.h"
#include "query/conjunctive_query.h"
#include "term/world.h"
#include "util/deadline.h"
#include "util/status.h"

// F-logic Lite knowledge bases: a ground fact store over P_FL whose
// semantics is Sigma_FL. Loading accepts the F-logic surface syntax;
// Saturate() materializes the Datalog fragment (rho_1..rho_3,
// rho_6..rho_12), repairs rho_4 (merging labeled nulls, reporting genuine
// functional-attribute violations), and can complete mandatory attributes
// with labeled nulls (rho_5). Queries are answered on the saturated store.
//
// This is the concrete-database side of the paper: the containment checker
// reasons about *all* such databases; the knowledge base materializes one,
// and the property tests use it as an independent oracle.

namespace floq {

struct ConsistencyReport {
  /// False iff rho_4 equates two distinct constants somewhere.
  bool consistent = true;
  /// Human-readable rho_4 violations (empty when consistent).
  std::vector<std::string> funct_violations;
  /// mandatory(A, O) facts with no data(O, A, ·) — unsatisfied rho_5.
  std::vector<std::string> unsatisfied_mandatory;
};

struct SaturateOptions {
  /// Budget on total facts during saturation.
  uint64_t max_facts = 10'000'000;
  /// Rounds of rho_5 completion (each round may cascade new mandatory
  /// facts onto the invented nulls). 0 disables completion.
  int mandatory_completion_rounds = 0;
  /// Wall-clock limit on the whole saturation (fixpoint rounds, funct
  /// repair, mandatory completion). Infinite by default.
  Deadline deadline;
  /// Cooperative cancellation: when the token fires, Saturate returns
  /// kCancelled at the next amortized check.
  CancellationToken cancel;
};

class KnowledgeBase {
 public:
  explicit KnowledgeBase(World& world);

  KnowledgeBase(const KnowledgeBase&) = delete;
  KnowledgeBase& operator=(const KnowledgeBase&) = delete;

  /// Parses an F-logic program; its facts enter the store, its rules and
  /// goals are kept for Rules()/Goals(). Invalidates saturation.
  Status Load(std::string_view flogic_text);

  /// Adds one ground fact. Invalidates saturation.
  Status AddFact(const Atom& fact);

  /// Materializes the Sigma_FL consequences (see class comment). Returns
  /// the consistency report; on rho_4 violations between constants the KB
  /// is flagged inconsistent but remains queryable.
  Result<ConsistencyReport> Saturate(const SaturateOptions& options = {});

  /// Registers a user (IDB) rule: head predicate `rule.name()/arity`,
  /// body over any predicates — recursion through the head predicate is
  /// allowed (the engine evaluates to fixpoint). The rule participates in
  /// every subsequent Saturate(), interleaved with Sigma_FL.
  Status DefineRule(const ConjunctiveQuery& rule);

  /// Registers every rule collected by Load() as an IDB rule.
  Status MaterializeLoadedRules();

  /// Answers a conjunctive query on the saturated store (saturates with
  /// default options first if needed).
  Result<std::vector<std::vector<Term>>> Answer(const ConjunctiveQuery& query);

  /// Parses and answers a query in F-logic surface syntax, e.g.
  /// "q(A) :- student[A *=> string]." or a bare formula "X : person".
  Result<std::vector<std::vector<Term>>> Answer(std::string_view query_text);

  /// Certain answers of `query` over this KB viewed as an *incomplete*
  /// database under Sigma_FL: the store is saturated and completed with
  /// labeled nulls (`completion_rounds` rounds of rho_5), making it a
  /// universal-model prefix (Fagin et al., the paper's Theorem 4 source);
  /// answers containing labeled nulls are then filtered out. Sound always;
  /// complete when completion reaches a fixpoint within the budget.
  Result<std::vector<std::vector<Term>>> CertainAnswers(
      const ConjunctiveQuery& query, int completion_rounds = 8);

  /// Serializes the current store as an F-logic surface program, one fact
  /// per line. Labeled nulls render as fresh constants "null_<k>" so the
  /// dump is loadable (the identities of nulls are preserved within one
  /// dump). Round-trips through Load().
  std::string DumpAsProgram() const;

  /// Writes the fact store plus the World symbols to `path` as a
  /// versioned snapshot (datalog/snapshot.h). The saturation flag is
  /// recorded so LoadSnapshot can skip Saturate().
  Status SaveSnapshot(const std::string& path) const;

  /// Replaces the fact store with the snapshot at `path`, mmap-ing the
  /// atom array and posting runs in place. The World must be fresh or
  /// already hold exactly the snapshot's symbols. Rules/goals collected by
  /// Load() are untouched; saturation state is restored from the file.
  Status LoadSnapshot(const std::string& path);

  const Database& database() const { return database_; }
  World& world() { return world_; }
  bool saturated() const { return saturated_; }
  uint32_t size() const { return database_.size(); }

  /// Rules and goals collected from Load()ed programs.
  const std::vector<ConjunctiveQuery>& rules() const { return rules_; }
  const std::vector<ConjunctiveQuery>& goals() const { return goals_; }

 private:
  Status ApplyFunctRepair(ConsistencyReport& report);
  void CollectUnsatisfiedMandatory(ConsistencyReport& report) const;
  uint64_t CompleteMandatoryOnce();

  World& world_;
  Database database_;
  std::vector<Rule> sigma_rules_;  // the ten Datalog TGDs of Sigma_FL
  std::vector<ConjunctiveQuery> rules_;
  std::vector<ConjunctiveQuery> goals_;
  bool saturated_ = false;
};

}  // namespace floq

#endif  // FLOQ_KB_KNOWLEDGE_BASE_H_
