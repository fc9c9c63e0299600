#include "kb/knowledge_base.h"

#include <unordered_set>

#include "chase/sigma_fl.h"
#include "chase/term_union_find.h"
#include "datalog/evaluator.h"
#include "datalog/snapshot.h"
#include "flogic/parser.h"
#include "flogic/printer.h"
#include "util/strings.h"

namespace floq {

KnowledgeBase::KnowledgeBase(World& world)
    : world_(world), sigma_rules_(SigmaFLDatalogRules(world)) {}

Status KnowledgeBase::Load(std::string_view flogic_text) {
  Result<flogic::Program> program = flogic::ParseProgram(world_, flogic_text);
  if (!program.ok()) return program.status();
  for (const Atom& fact : program->facts) {
    FLOQ_RETURN_IF_ERROR(AddFact(fact));
  }
  for (ConjunctiveQuery& rule : program->rules) {
    rules_.push_back(std::move(rule));
  }
  for (ConjunctiveQuery& goal : program->goals) {
    goals_.push_back(std::move(goal));
  }
  return Status::Ok();
}

Status KnowledgeBase::AddFact(const Atom& fact) {
  if (fact.predicate() == kInvalidPredicate) {
    return InvalidArgumentError("fact with invalid predicate");
  }
  int expected = world_.predicates().ArityOf(fact.predicate());
  if (fact.arity() != expected) {
    return InvalidArgumentError(
        StrCat("arity mismatch for ",
               world_.predicates().NameOf(fact.predicate())));
  }
  if (!fact.IsGround()) {
    return InvalidArgumentError(
        StrCat("facts must be ground: ", fact.ToString(world_)));
  }
  database_.Insert(fact);
  saturated_ = false;
  return Status::Ok();
}

Result<ConsistencyReport> KnowledgeBase::Saturate(
    const SaturateOptions& options) {
  ConsistencyReport report;
  EvalOptions eval_options;
  eval_options.max_facts = options.max_facts;

  // One governor spans the whole saturation: fixpoint ticks and the
  // between-phase checks below all draw on the same deadline and token.
  ExecGovernor governor(options.deadline, options.cancel);
  bool governed = !options.deadline.infinite() || options.cancel.valid();
  if (governed) eval_options.governor = &governor;

  int completion_rounds_left = options.mandatory_completion_rounds;
  for (;;) {
    if (governed && !governor.CheckNow()) {
      return governor.trip() == TripReason::kCancelled
                 ? CancelledError("saturation cancelled")
                 : DeadlineExceededError("saturation deadline exceeded");
    }
    Result<uint64_t> derived =
        SemiNaiveFixpoint(database_, sigma_rules_, eval_options);
    if (!derived.ok()) return derived.status();
    saturated_ = true;

    // ApplyFunctRepair and CompleteMandatoryOnce reset saturated_ when
    // they rewrite or extend the store; the Datalog rules must then run
    // again.
    FLOQ_RETURN_IF_ERROR(ApplyFunctRepair(report));
    if (!saturated_) continue;

    if (completion_rounds_left > 0 && CompleteMandatoryOnce() > 0) {
      --completion_rounds_left;
      continue;
    }
    break;
  }

  CollectUnsatisfiedMandatory(report);
  return report;
}

Status KnowledgeBase::DefineRule(const ConjunctiveQuery& rule) {
  FLOQ_RETURN_IF_ERROR(rule.Validate(world_));
  PredicateId head = world_.predicates().Intern(rule.name(),
                                                int(rule.head().size()));
  if (head == kInvalidPredicate) {
    return InvalidArgumentError(
        StrCat("rule head ", rule.name(), "/", rule.head().size(),
               " conflicts with an existing predicate arity"));
  }
  sigma_rules_.push_back(Rule{Atom(head, rule.head()), rule.body()});
  saturated_ = false;
  return Status::Ok();
}

Status KnowledgeBase::MaterializeLoadedRules() {
  for (const ConjunctiveQuery& rule : rules_) {
    FLOQ_RETURN_IF_ERROR(DefineRule(rule));
  }
  return Status::Ok();
}

Status KnowledgeBase::ApplyFunctRepair(ConsistencyReport& report) {
  TermUnionFind uf;
  bool merged_any = false;

  for (;;) {
    // Violations are recomputed from scratch on every pass (the offending
    // facts persist), so the last pass leaves the accurate report.
    report.consistent = true;
    report.funct_violations.clear();
    uint64_t merges_before = uf.merge_count();
    for (uint32_t fid : database_.FactsWith(pfl::kFunct)) {
      const Atom& funct = database_.facts()[fid];
      Term attr = funct.arg(0);
      Term object = funct.arg(1);
      Term first;
      for (uint32_t id : database_.index().WithArgument(pfl::kData, 0, object)) {
        const Atom& atom = database_.facts()[id];
        if (atom.arg(1) != attr) continue;
        Term value = uf.Find(atom.arg(2));
        if (!first.valid()) {
          first = value;
          continue;
        }
        first = uf.Find(first);
        if (first == value) continue;
        Status merged = uf.Merge(first, value, world_);
        if (!merged.ok()) {
          report.consistent = false;
          report.funct_violations.push_back(
              StrCat(world_.NameOf(object), "[", world_.NameOf(attr),
                     "] has distinct values ", world_.NameOf(first), " and ",
                     world_.NameOf(value)));
        }
      }
    }
    if (uf.merge_count() == merges_before) break;
    merged_any = true;

    // Rewrite the store through the union-find.
    Database rewritten;
    for (const Atom& fact : database_.facts()) {
      Atom canonical = fact;
      for (int i = 0; i < fact.arity(); ++i) {
        canonical.set_arg(i, uf.Find(fact.arg(i)));
      }
      rewritten.Insert(canonical);
    }
    database_ = std::move(rewritten);
  }

  if (merged_any) saturated_ = false;
  return Status::Ok();
}

void KnowledgeBase::CollectUnsatisfiedMandatory(
    ConsistencyReport& report) const {
  for (uint32_t fid : database_.FactsWith(pfl::kMandatory)) {
    const Atom& fact = database_.facts()[fid];
    Term attr = fact.arg(0);
    Term object = fact.arg(1);
    bool satisfied = false;
    for (uint32_t id : database_.index().WithArgument(pfl::kData, 0, object)) {
      if (database_.facts()[id].arg(1) == attr) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) {
      report.unsatisfied_mandatory.push_back(
          StrCat(world_.NameOf(object), "[", world_.NameOf(attr),
                 " {1:*} *=> _] has no value"));
    }
  }
}

uint64_t KnowledgeBase::CompleteMandatoryOnce() {
  std::vector<Atom> additions;
  for (uint32_t fid : database_.FactsWith(pfl::kMandatory)) {
    const Atom& fact = database_.facts()[fid];
    Term attr = fact.arg(0);
    Term object = fact.arg(1);
    bool satisfied = false;
    for (uint32_t id : database_.index().WithArgument(pfl::kData, 0, object)) {
      if (database_.facts()[id].arg(1) == attr) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) {
      additions.push_back(Atom::Data(object, attr, world_.MakeFreshNull()));
    }
  }
  for (const Atom& atom : additions) database_.Insert(atom);
  if (!additions.empty()) saturated_ = false;
  return additions.size();
}

Result<std::vector<std::vector<Term>>> KnowledgeBase::Answer(
    const ConjunctiveQuery& query) {
  FLOQ_RETURN_IF_ERROR(query.Validate(world_));
  if (!saturated_) {
    Result<ConsistencyReport> report = Saturate();
    if (!report.ok()) return report.status();
  }
  return EvaluateQuery(database_, query);
}

std::string KnowledgeBase::DumpAsProgram() const {
  std::string out = "% floq knowledge base dump: ";
  out += std::to_string(database_.size());
  out += " facts\n";
  for (const Atom& fact : database_.facts()) {
    Atom printable = fact;
    for (int i = 0; i < fact.arity(); ++i) {
      Term t = fact.arg(i);
      if (t.IsNull()) {
        // Nulls become loadable fresh constants. (world_ is a reference
        // member, so interning through it is fine in a const method.)
        printable.set_arg(
            i, world_.MakeConstant("null_" + std::to_string(t.index())));
      }
    }
    out += flogic::AtomToSurface(printable, world_);
    out += ".\n";
  }
  return out;
}

Result<std::vector<std::vector<Term>>> KnowledgeBase::CertainAnswers(
    const ConjunctiveQuery& query, int completion_rounds) {
  FLOQ_RETURN_IF_ERROR(query.Validate(world_));
  SaturateOptions options;
  options.mandatory_completion_rounds = completion_rounds;
  Result<ConsistencyReport> report = Saturate(options);
  if (!report.ok()) return report.status();
  if (!report->consistent) {
    return FailedPreconditionError(
        "knowledge base is inconsistent (functional-attribute violation); "
        "certain answers are undefined");
  }

  std::vector<std::vector<Term>> certain;
  for (std::vector<Term>& tuple : EvaluateQuery(database_, query)) {
    bool has_null = false;
    for (Term t : tuple) has_null |= t.IsNull();
    if (!has_null) certain.push_back(std::move(tuple));
  }
  return certain;
}

Result<std::vector<std::vector<Term>>> KnowledgeBase::Answer(
    std::string_view query_text) {
  // Accept both a full rule and a bare formula (goal).
  Result<ConjunctiveQuery> rule = flogic::ParseQuery(world_, query_text);
  if (rule.ok()) return Answer(*rule);

  Result<std::vector<Atom>> atoms = flogic::ParseFormula(world_, query_text);
  if (!atoms.ok()) return atoms.status();
  // Head: named variables of the formula, first-occurrence order.
  std::vector<Term> head;
  std::unordered_set<uint32_t> seen;
  for (const Atom& atom : *atoms) {
    for (Term t : atom) {
      if (!t.IsVariable()) continue;
      if (StartsWith(world_.NameOf(t), "_G")) continue;
      if (seen.insert(t.raw()).second) head.push_back(t);
    }
  }
  return Answer(ConjunctiveQuery("goal", std::move(head), std::move(*atoms)));
}

Status KnowledgeBase::SaveSnapshot(const std::string& path) const {
  return WriteFactIndexSnapshot(database_.index(), world_, path,
                                saturated_ ? kSnapshotFlagSaturated : 0);
}

Status KnowledgeBase::LoadSnapshot(const std::string& path) {
  Result<SnapshotInfo> info =
      LoadFactIndexSnapshot(path, world_, database_.mutable_index());
  if (!info.ok()) return info.status();
  saturated_ = (info->flags & kSnapshotFlagSaturated) != 0;
  return Status::Ok();
}

}  // namespace floq
