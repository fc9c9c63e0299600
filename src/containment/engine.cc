#include "containment/engine.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>

#include "query/shape_key.h"
#include "util/metrics.h"
#include "util/parallel_for.h"
#include "util/request_context.h"
#include "util/strings.h"
#include "util/trace.h"

namespace floq {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

// The stage-0 posting of the queries without constants: no constant's
// Term::raw() is this large.
constexpr uint32_t kConstantFree = UINT32_MAX;

}  // namespace

// Per-query cache slot. `chase` is built at registration (the signature
// probe) or the first time the query appears as a left-hand side, and
// reused — and deepened, never rebuilt — by every later pair.
struct ContainmentEngine::Entry {
  ConjunctiveQuery query;
  // The rhs pattern: variables renamed apart from every chase value (chase
  // conjuncts carry the chased query's variables as values; see the
  // matcher discipline note in DESIGN.md §4). Renamed once at
  // registration, shared read-only by all workers.
  ConjunctiveQuery renamed;
  std::optional<ResumableChase> chase;
  // Stage-0 prefilter signature, computed once at registration from the
  // probe chase (absent when use_signature_index is off).
  std::optional<ClosureSignature> signature;
  // The stage-0 posting holding this entry (with a signature only).
  uint32_t filed_under = kConstantFree;
};

ContainmentEngine::ContainmentEngine(World& world,
                                     const BatchContainmentOptions& options)
    : world_(world),
      options_(options),
      sigma_(MakeSigmaFLDependencies(world)) {}

ContainmentEngine::~ContainmentEngine() = default;

Result<size_t> ContainmentEngine::AddQuery(const ConjunctiveQuery& query) {
  FLOQ_RETURN_IF_ERROR(query.Validate(world_));
  const size_t id = entries_.size();
  auto entry = std::make_unique<Entry>();
  entry->query = query;
  entry->renamed = query.RenameApart(world_);
  const ContainmentOptions& copts = options_.containment;
  if (copts.use_signature_index) {
    // The probe IS the pair pipeline's cached chase handle: whatever it
    // materializes here is reused — and deepened, never rebuilt — by
    // every later pair with this query on the left, so it stops at the
    // engine's level cap (SignatureProbeLevel). It runs under the same
    // governed budget as a pair's chase stage, so a runaway query cannot
    // stall registration; an inconclusive probe just degrades the
    // signature to the static closure.
    ChaseOptions chase_options;
    chase_options.max_atoms = copts.max_chase_atoms;
    ExecGovernor governor = MakeChaseGovernor(copts.budget);
    governor.AddCancellation(cancel_source_.token());
    ++stats_.chases_run;
    entry->chase.emplace(world_, entry->query, sigma_, chase_options);
    const ChaseResult& probe = entry->chase->EnsureLevel(
        SignatureProbeLevel(copts.level_override), &governor);
    FoldGovernorMetrics(governor);
    entry->signature =
        ComputeClosureSignature(entry->query, copts.level_override, &probe);
    // File under the constant with the shortest posting, so the fewest
    // rows enumerate this entry (ids grow, so every list stays ascending).
    size_t shortest = SIZE_MAX;
    for (uint32_t constant : entry->signature->base.constants) {
      auto it = filed_.find(constant);
      const size_t size = it == filed_.end() ? 0 : it->second.size();
      if (size < shortest) {
        shortest = size;
        entry->filed_under = constant;
      }
    }
    filed_[entry->filed_under].push_back(id);
  }
  entries_.push_back(std::move(entry));
  ++live_entries_;
  return id;
}

Status ContainmentEngine::RemoveQuery(size_t id) {
  if (!has_query(id)) {
    return NotFoundError(StrCat("no query with engine id ", id));
  }
  const Entry& entry = *entries_[id];
  if (entry.signature.has_value()) {
    std::vector<size_t>& posting = filed_[entry.filed_under];
    posting.erase(std::lower_bound(posting.begin(), posting.end(), id));
    if (posting.empty()) filed_.erase(entry.filed_under);
  }
  entries_[id].reset();
  --live_entries_;
  return Status::Ok();
}

size_t ContainmentEngine::query_count() const { return entries_.size(); }

bool ContainmentEngine::has_query(size_t id) const {
  return id < entries_.size() && entries_[id] != nullptr;
}

const ConjunctiveQuery& ContainmentEngine::query(size_t id) const {
  FLOQ_CHECK(has_query(id));
  return entries_[id]->query;
}

const ChaseResult* ContainmentEngine::chase_of(size_t id) const {
  FLOQ_CHECK(has_query(id));
  const Entry& entry = *entries_[id];
  return entry.chase.has_value() ? &entry.chase->result() : nullptr;
}

const ClosureSignature* ContainmentEngine::signature_of(size_t id) const {
  FLOQ_CHECK(has_query(id));
  const Entry& entry = *entries_[id];
  return entry.signature.has_value() ? &*entry.signature : nullptr;
}

void BatchStats::Accumulate(const BatchStats& other) {
  chase_requests += other.chase_requests;
  chase_cache_hits += other.chase_cache_hits;
  chases_run += other.chases_run;
  chase_deepenings += other.chase_deepenings;
  pairs_checked += other.pairs_checked;
  pruned_pairs += other.pruned_pairs;
  shared_pairs += other.shared_pairs;
  signature_us += other.signature_us;
  unknown_pairs += other.unknown_pairs;
  timed_out_pairs += other.timed_out_pairs;
  cancelled_pairs += other.cancelled_pairs;
  hom.Accumulate(other.hom);
  hom_degraded.Accumulate(other.hom_degraded);
  chase_stage.Accumulate(other.chase_stage);
  hom_stage.Accumulate(other.hom_stage);
  queue_wait.Accumulate(other.queue_wait);
}

template <class Fn>
void ContainmentEngine::ForEachCandidate(const ClosureSignature& lhs,
                                         Fn&& fn) const {
  // A query filed under a constant outside lhs's closure carries that
  // constant, which MayContain requires among lhs's closure constants:
  // its pair is a sound negative without a test (DESIGN.md §13).
  auto read = [&](uint32_t key) {
    auto it = filed_.find(key);
    if (it == filed_.end()) return;
    for (size_t id : it->second) fn(id);
  };
  read(kConstantFree);
  for (uint32_t constant : lhs.closure_constants) read(constant);
}

std::vector<size_t> ContainmentEngine::CandidatesOf(size_t lhs) const {
  const ClosureSignature* signature = signature_of(lhs);
  FLOQ_CHECK(signature != nullptr);
  std::vector<size_t> ids;
  if (signature->prunable) {
    ForEachCandidate(*signature, [&](size_t id) { ids.push_back(id); });
    std::sort(ids.begin(), ids.end());
    return ids;
  }
  for (size_t id = 0; id < entries_.size(); ++id) {
    if (entries_[id] != nullptr) ids.push_back(id);
  }
  return ids;
}

namespace {

void Record(PairVerdict& verdict, Resolution resolution, TripReason reason) {
  verdict.contained = resolution == Resolution::kContained;
  verdict.resolution = resolution;
  verdict.unknown_reason = reason;
}

// Writes the elapsed milliseconds since construction into *out at scope
// exit — times a per-pair stage across its early exits.
class StageTimer {
 public:
  explicit StageTimer(double* out) : out_(out) {}
  ~StageTimer() { *out_ = MsSince(start_); }

 private:
  double* out_;
  SteadyClock::time_point start_ = SteadyClock::now();
};

// What one surviving pair cost: chase_ms covers the EnsureLevel call (near
// zero when the row's chase needs no deepening), hom_ms the search,
// queue_wait_ms the delay from the fan-out opening to the search. Zero
// for stages the pair never reached.
struct PairCost {
  double chase_ms = 0.0;
  double hom_ms = 0.0;
  double queue_wait_ms = 0.0;
  MatchStats hom;
};

// Folds a settled pair into its row's stats partial. Degraded pairs: their
// search was cut off mid-flight, so their effort and stage times stay out
// of the throughput aggregates (hom / chase_stage / hom_stage /
// queue_wait) and land in their own bucket instead.
void RecordPair(const PairVerdict& verdict, const PairCost& cost,
                bool metrics, BatchStats& stats) {
  if (verdict.resolution == Resolution::kUnknown) {
    stats.hom_degraded.Accumulate(cost.hom);
    ++stats.unknown_pairs;
    if (verdict.unknown_reason == TripReason::kDeadlineExceeded) {
      ++stats.timed_out_pairs;
    } else if (verdict.unknown_reason == TripReason::kCancelled) {
      ++stats.cancelled_pairs;
    }
    return;
  }
  // A decided pair ran both stages: only a pair whose chase stage was
  // skipped goes unsearched, and that pair is UNKNOWN.
  stats.hom.Accumulate(cost.hom);
  stats.chase_stage.Record(cost.chase_ms);
  stats.hom_stage.Record(cost.hom_ms);
  stats.queue_wait.Record(cost.queue_wait_ms);
  if (metrics) {
    MetricsRegistry& registry = MetricsRegistry::Get();
    static Histogram& chase_us = registry.histogram("engine.chase_stage_us");
    static Histogram& hom_us = registry.histogram("engine.hom_stage_us");
    static Histogram& wait_us = registry.histogram("engine.queue_wait_us");
    chase_us.Record(uint64_t(cost.chase_ms * 1000.0));
    hom_us.Record(uint64_t(cost.hom_ms * 1000.0));
    wait_us.Record(uint64_t(cost.queue_wait_ms * 1000.0));
  }
}

// CheckAll's rows: row r is the representative reps[r] of a shape class
// against every other representative, ascending, in the cells of its
// matrix row. Once its searches are done, the row settles the rest of its
// class (Finish): rows of different classes touch disjoint cells, so the
// copies run on the row's worker like its searches.
class MatrixRows {
 public:
  static constexpr bool kComplete = true;

  // rep_of[i] is the representative of i's class; class_level[r] the
  // level bound of a pair within representative r's class.
  MatrixRows(std::vector<std::vector<PairVerdict>>& matrix,
             const std::vector<size_t>& rep_of,
             const std::vector<int>& class_level)
      : matrix_(matrix), rep_of_(rep_of), class_level_(class_level) {
    // A representative is its class's lowest id, so its row exists by the
    // time a member names it.
    std::vector<size_t> row_of(rep_of.size());
    for (size_t i = 0; i < rep_of.size(); ++i) {
      if (rep_of[i] == i) {
        row_of[i] = reps_.size();
        reps_.push_back(i);
        class_members_.emplace_back();
      } else {
        members_.push_back(i);
        class_members_[row_of[rep_of[i]]].push_back(i);
      }
    }
    undecided_.resize(reps_.size());
  }

  size_t size() const { return reps_.size(); }
  size_t lhs(size_t r) const { return reps_[r]; }
  size_t pair_count(size_t) const { return reps_.size() - 1; }
  // Whether row r decides the pair with `rhs`: another representative.
  bool includes(size_t r, size_t rhs) const {
    return rhs != reps_[r] && rep_of_[rhs] == rhs;
  }
  PairVerdict& cell(size_t r, size_t rhs) const {
    return matrix_[reps_[r]][rhs];
  }
  template <class Visit>
  void ForEach(size_t r, Visit&& visit) const {
    std::vector<PairVerdict>& row = matrix_[reps_[r]];
    for (size_t rhs : reps_) {
      if (rhs != reps_[r]) visit(rhs, row[rhs]);
    }
  }

  // Row r's copy pass, after its searches. Each member column of the row
  // takes the cell of its own representative, and a member of the row's
  // class reads kContained (the renaming is the homomorphism). Each
  // member of the class then takes the completed row with the diagonal
  // and the (member, representative) cell swapped. A copied UNKNOWN is
  // set aside for Undecided instead of counted.
  void Finish(size_t r, BatchStats& stats) const {
    const size_t lhs = reps_[r];
    std::vector<PairVerdict>& row = matrix_[lhs];
    std::vector<std::pair<size_t, size_t>>& undecided = undecided_[r];
    auto settle = [&](size_t from, size_t rhs, const PairVerdict& cell) {
      if (cell.resolution == Resolution::kUnknown) {
        undecided.emplace_back(from, rhs);
        return;
      }
      ++stats.pairs_checked;
      ++(cell.pruned ? stats.pruned_pairs : stats.shared_pairs);
    };
    for (size_t j : members_) {
      if (rep_of_[j] == lhs) {
        row[j] = PairVerdict();
        Record(row[j], Resolution::kContained, TripReason::kNone);
        row[j].level_bound = class_level_[lhs];
      } else {
        row[j] = row[rep_of_[j]];
      }
      settle(lhs, j, row[j]);
    }
    for (size_t i : class_members_[r]) {
      std::vector<PairVerdict>& copy = matrix_[i];
      copy = row;
      std::swap(copy[i], copy[lhs]);
      for (size_t j = 0; j < copy.size(); ++j) {
        if (j != i) settle(i, j, copy[j]);
      }
    }
  }

  // The cells whose representative cell is UNKNOWN, by lhs in row order.
  std::vector<std::pair<size_t, size_t>> Undecided() const {
    std::vector<std::pair<size_t, size_t>> all;
    for (const auto& row : undecided_) {
      all.insert(all.end(), row.begin(), row.end());
    }
    return all;
  }

 private:
  std::vector<std::vector<PairVerdict>>& matrix_;
  const std::vector<size_t>& rep_of_;
  const std::vector<int>& class_level_;
  std::vector<size_t> reps_;
  // Ids that are not representatives, ascending.
  std::vector<size_t> members_;
  // Per row: the other members of its class, ascending.
  std::vector<std::vector<size_t>> class_members_;
  // Per row: the pairs its Finish set aside. Each row writes its own.
  mutable std::vector<std::vector<std::pair<size_t, size_t>>> undecided_;
};

// CheckPairs' rows: the requested pairs grouped by lhs, in request order
// within a group.
class PairRows {
 public:
  static constexpr bool kComplete = false;

  PairRows(std::span<const std::pair<size_t, size_t>> pairs,
           std::vector<PairVerdict>& verdicts)
      : pairs_(pairs), verdicts_(verdicts), order_(pairs.size()) {
    std::iota(order_.begin(), order_.end(), size_t{0});
    std::stable_sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
      return pairs_[a].first < pairs_[b].first;
    });
    for (size_t k = 0; k < order_.size(); ++k) {
      if (k == 0 || lhs_of(k) != lhs_of(k - 1)) start_.push_back(k);
    }
    start_.push_back(order_.size());
  }

  size_t size() const { return start_.size() - 1; }
  size_t lhs(size_t r) const { return lhs_of(start_[r]); }
  size_t pair_count(size_t r) const { return start_[r + 1] - start_[r]; }
  template <class Visit>
  void ForEach(size_t r, Visit&& visit) const {
    for (size_t k = start_[r]; k < start_[r + 1]; ++k) {
      visit(pairs_[order_[k]].second, verdicts_[order_[k]]);
    }
  }

 private:
  size_t lhs_of(size_t k) const { return pairs_[order_[k]].first; }

  std::span<const std::pair<size_t, size_t>> pairs_;
  std::vector<PairVerdict>& verdicts_;
  // Pair indices grouped by lhs; row r is order_[start_[r] .. start_[r+1]).
  std::vector<size_t> order_;
  std::vector<size_t> start_;
};

}  // namespace

PairVerdict ContainmentEngine::UncheckedVerdict() const {
  PairVerdict verdict;
  verdict.pruned = options_.containment.use_signature_index;
  return verdict;
}

void ContainmentEngine::Cancel() { cancel_source_.Cancel(); }

void ContainmentEngine::ResetCancel() { cancel_source_.Reset(); }

Status ContainmentEngine::ValidatePair(size_t lhs, size_t rhs) const {
  if (lhs >= entries_.size() || rhs >= entries_.size()) {
    return InvalidArgumentError("pair refers to an unregistered query id");
  }
  if (entries_[lhs] == nullptr || entries_[rhs] == nullptr) {
    return InvalidArgumentError("pair refers to a removed query id");
  }
  const int lhs_arity = entries_[lhs]->query.arity();
  const int rhs_arity = entries_[rhs]->query.arity();
  if (lhs_arity != rhs_arity) {
    return InvalidArgumentError(
        StrCat("containment requires equal arities; got ", lhs_arity,
               " and ", rhs_arity));
  }
  return Status::Ok();
}

template <class Rows>
void ContainmentEngine::CheckPairsCore(size_t pair_count, const Rows& rows) {
  const ContainmentOptions& copts = options_.containment;
  const ResourceBudget& budget = copts.budget;
  // Snapshot the token once: every governor below borrows its flag, and
  // ResetCancel (which swaps the shared flag) is only legal between
  // batches.
  const CancellationToken engine_token = cancel_source_.token();

  TraceSpan batch_span("engine.check_pairs");
  AnnotateWithRequest(batch_span);
  if (batch_span.active()) {
    batch_span.Arg("pairs", int64_t(pair_count));
  }
  const bool metrics = MetricsRegistry::enabled();
  ChaseOptions chase_options;
  chase_options.max_atoms = copts.max_chase_atoms;
  // Each row writes only its own partial; the fold below runs in row
  // order, so the totals do not depend on which worker ran which row.
  std::vector<BatchStats> partials(rows.size());
  const SteadyClock::time_point fanout_start = SteadyClock::now();

  auto run_row = [&](size_t r) {
    const size_t lhs = rows.lhs(r);
    Entry& l = *entries_[lhs];
    BatchStats& stats = partials[r];
    // The pairs stage 0 does not discharge, in visiting order.
    std::vector<std::pair<size_t, PairVerdict*>> survivors;

    // ---- stage 0: signature prefilter ------------------------------------
    //
    // A failed subset test (signature.h) is a sound definite kNotContained:
    // the pair skips both expensive stages entirely. A complete row tests
    // only the ids its postings enumerate; every other pair fails the
    // constant test unseen and keeps the pruned flag it arrived with. A
    // row whose signature cannot prune keeps every pair. One governor
    // covers the row's stage — each test is a few word ops, so per-pair
    // re-anchoring would cost more than the work it guards. It is polled
    // before the first test, so an already-tripped budget prunes nothing,
    // then every 64 tests, which bounds the deadline overshoot to a couple
    // of microseconds. A row whose governor trips prunes nothing at all:
    // its pairs meet their own governed chase/hom stages, which degrade
    // them to kUnknown if the budget is spent — a tripped stage-0 deadline
    // must never manufacture a definite verdict.
    const ClosureSignature* signature =
        l.signature.has_value() && l.signature->prunable ? &*l.signature
                                                         : nullptr;
    bool keep_all = signature == nullptr;
    if (signature != nullptr) {
      TraceSpan span("engine.signature_stage");
      AnnotateWithRequest(span);
      const SteadyClock::time_point start = SteadyClock::now();
      ExecGovernor governor = MakeChaseGovernor(budget);
      governor.AddCancellation(engine_token);
      bool tripped = !governor.CheckNow();
      uint64_t tested = 0;
      auto test = [&](size_t rhs, PairVerdict& verdict) {
        if (tripped) return;
        if ((++tested & 63) == 0 && !governor.CheckNow()) {
          tripped = true;
          return;
        }
        if (MayContain(*signature, entries_[rhs]->signature->base)) {
          survivors.emplace_back(rhs, &verdict);
        }
      };
      if constexpr (Rows::kComplete) {
        ForEachCandidate(*signature, [&](size_t rhs) {
          if (rows.includes(r, rhs)) test(rhs, rows.cell(r, rhs));
        });
        std::sort(survivors.begin(), survivors.end());
      } else {
        rows.ForEach(r, test);
      }
      FoldGovernorMetrics(governor);
      keep_all = tripped;
      stats.signature_us = MsSince(start) * 1000.0;
      if (span.active()) {
        span.Arg("lhs", int64_t(lhs))
            .Arg("pairs", int64_t(rows.pair_count(r)))
            .Arg("pruned", int64_t(keep_all ? 0
                                            : rows.pair_count(r) -
                                                  survivors.size()));
      }
    }
    if (keep_all) {
      survivors.clear();
      rows.ForEach(r, [&](size_t rhs, PairVerdict& verdict) {
        survivors.emplace_back(rhs, &verdict);
      });
    }
    stats.pairs_checked = rows.pair_count(r);
    stats.pruned_pairs = stats.pairs_checked - survivors.size();

    for (const auto& [rhs, verdict_slot] : survivors) {
      PairVerdict& verdict = *verdict_slot;
      verdict.pruned = false;
      PairCost cost;
      ++stats.chase_requests;

      // ---- chase: deepen the row's own chase to this pair's level -------
      //
      // Each pair gets its own governor with a freshly anchored timeout
      // (per-pair isolation): a runaway chase trips its own deadline, and
      // the next pair starts with a full budget again.
      TripReason chase_trip = TripReason::kNone;
      bool started = true;
      {
        TraceSpan span("engine.chase_stage");
        AnnotateWithRequest(span);
        if (span.active()) {
          span.Arg("lhs", int64_t(lhs)).Arg("rhs", int64_t(rhs));
        }
        StageTimer timer(&cost.chase_ms);
        ExecGovernor chase_governor = MakeChaseGovernor(budget);
        chase_governor.AddCancellation(engine_token);
        if (!chase_governor.CheckNow()) {
          // Already cancelled (or the absolute deadline has passed) before
          // this pair started: skip its chase and its search entirely.
          FoldGovernorMetrics(chase_governor);
          Record(verdict, Resolution::kUnknown, chase_governor.trip());
          started = false;
        } else {
          const int level = copts.level_override >= 0
                                ? copts.level_override
                                : PaperLevelBound(l.query,
                                                  entries_[rhs]->query);
          verdict.level_bound = level;
          if (!l.chase.has_value()) {
            l.chase.emplace(world_, l.query, sigma_, chase_options);
          } else {
            ++stats.chase_cache_hits;
          }
          const uint64_t runs_before = l.chase->run_count();
          const uint64_t deepenings_before = l.chase->deepen_count();
          const ChaseResult& chase =
              l.chase->EnsureLevel(level, &chase_governor);
          stats.chases_run += l.chase->run_count() - runs_before;
          stats.chase_deepenings += l.chase->deepen_count() - deepenings_before;
          FoldGovernorMetrics(chase_governor);
          if (span.active()) {
            span.Arg("level", int64_t(level))
                .Arg("outcome", ChaseOutcomeName(chase.outcome()));
          }
          // lhs has no answers on any database satisfying Sigma_FL when
          // its chase failed: SettlePair then settles the pair without a
          // search.
          verdict.lhs_unsatisfiable = chase.failed();
          // A truncated prefix (atom budget, or this pair's chase
          // deadline) is still worth searching: a homomorphism into it is
          // a sound positive, and the hom stage anchors its own fresh
          // timeout slice. A pair within the row's complete prefix has a
          // definite verdict, whatever stopped a later, deeper run.
          chase_trip = level <= l.chase->complete_level()
                           ? TripReason::kNone
                           : ChaseTripReason(chase.outcome(), chase_governor);
        }
      }

      // ---- hom: settle the pair against the prefix ------------------------
      if (started) {
        cost.queue_wait_ms = MsSince(fanout_start);
        TraceSpan span("engine.hom_stage");
        AnnotateWithRequest(span);
        {
          StageTimer timer(&cost.hom_ms);
          ExecGovernor hom_governor = MakeHomGovernor(budget);
          hom_governor.AddCancellation(engine_token);
          MatchOptions match;
          match.governor = &hom_governor;
          Settlement settled =
              SettlePair(entries_[rhs]->renamed, l.chase->result(),
                         chase_trip, match, &cost.hom);
          FoldGovernorMetrics(hom_governor);
          Record(verdict, settled.resolution, settled.unknown_reason);
        }
        if (span.active()) {
          span.Arg("lhs", int64_t(lhs))
              .Arg("rhs", int64_t(rhs))
              .Arg("resolution", ResolutionName(verdict.resolution));
          if (verdict.resolution == Resolution::kUnknown) {
            span.Arg("trip", TripReasonName(verdict.unknown_reason));
          }
        }
      }
      RecordPair(verdict, cost, metrics, stats);
    }
    if constexpr (Rows::kComplete) rows.Finish(r, stats);
  };
  ParallelFor(options_.jobs == 0 ? DefaultThreads() : size_t(options_.jobs),
              rows.size(), run_row);
  BatchStats batch;
  for (const BatchStats& partial : partials) batch.Accumulate(partial);
  stats_.Accumulate(batch);

  if (metrics) {
    MetricsRegistry& registry = MetricsRegistry::Get();
    static Counter& pairs_checked = registry.counter("engine.pairs_checked");
    static Counter& pruned_pairs = registry.counter("engine.pruned_pairs");
    static Counter& shared_pairs = registry.counter("engine.shared_pairs");
    static Counter& unknown = registry.counter("engine.unknown_pairs");
    static Counter& requests = registry.counter("engine.chase_requests");
    static Counter& cache_hits = registry.counter("engine.chase_cache_hits");
    static Counter& chases = registry.counter("engine.chases_run");
    static Counter& deepenings = registry.counter("engine.chase_deepenings");
    pairs_checked.Add(batch.pairs_checked);
    pruned_pairs.Add(batch.pruned_pairs);
    shared_pairs.Add(batch.shared_pairs);
    unknown.Add(batch.unknown_pairs);
    if (copts.use_signature_index && pair_count > 0) {
      static Histogram& sig_us =
          registry.histogram("engine.signature_stage_us");
      sig_us.Record(uint64_t(batch.signature_us));
    }
    requests.Add(batch.chase_requests);
    cache_hits.Add(batch.chase_cache_hits);
    chases.Add(batch.chases_run);
    deepenings.Add(batch.chase_deepenings);
  }
}

Result<std::vector<PairVerdict>> ContainmentEngine::CheckPairs(
    std::span<const std::pair<size_t, size_t>> pairs) {
  for (const auto& [lhs, rhs] : pairs) {
    FLOQ_RETURN_IF_ERROR(ValidatePair(lhs, rhs));
  }
  std::vector<PairVerdict> verdicts(pairs.size(), UncheckedVerdict());
  CheckPairsCore(pairs.size(), PairRows(pairs, verdicts));
  return verdicts;
}

std::vector<size_t> ContainmentEngine::ShapeRepresentatives() const {
  const size_t n = entries_.size();
  std::vector<size_t> rep_of(n);
  std::iota(rep_of.begin(), rep_of.end(), size_t{0});
  // At the Theorem 12 bound a verdict is the true containment answer, and
  // level 0 runs the terminating Sigma_FL^- chase to its end: neither
  // tells two queries of one shape apart. A cap in between cuts the
  // rho_5 chase part way, where the order of a query's atoms may matter.
  if (options_.containment.level_override > 0) return rep_of;
  TraceSpan span("engine.shape_keys");
  AnnotateWithRequest(span);
  // Queries of one shape share their digest: only a run of equal digests
  // needs keys, sorted by key within the run. Ids stay ascending within a
  // run of equal keys, so its first is the lowest and represents the rest.
  std::vector<uint64_t> digests(n);
  for (size_t i = 0; i < n; ++i) digests[i] = ShapeDigest(entries_[i]->query);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return digests[a] < digests[b];
  });
  std::vector<std::optional<std::vector<uint32_t>>> keys(n);
  for (size_t begin = 0, end = 0; begin < n; begin = end) {
    while (end < n && digests[order[end]] == digests[order[begin]]) ++end;
    if (end - begin < 2) continue;
    std::vector<size_t> keyed;
    for (size_t k = begin; k < end; ++k) {
      keys[order[k]] = ShapeKey(entries_[order[k]]->query);
      if (keys[order[k]].has_value()) keyed.push_back(order[k]);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](size_t a, size_t b) { return *keys[a] < *keys[b]; });
    for (size_t k = 1; k < keyed.size(); ++k) {
      if (*keys[keyed[k]] == *keys[keyed[k - 1]]) {
        rep_of[keyed[k]] = rep_of[keyed[k - 1]];
      }
    }
  }
  return rep_of;
}

Result<std::vector<std::vector<PairVerdict>>> ContainmentEngine::CheckAll() {
  const size_t n = entries_.size();
  // Row 0 names every id, and a full scan in pair order would meet its
  // first removed id or arity mismatch in row 0: checking (0, j) for every
  // j reports the same error in O(n).
  for (size_t j = 1; j < n; ++j) FLOQ_RETURN_IF_ERROR(ValidatePair(0, j));
  // Verdicts land directly in their matrix cells: no pair list, no flat
  // intermediate vector. The diagonal stays defaulted.
  std::vector<std::vector<PairVerdict>> matrix(
      n, std::vector<PairVerdict>(n, UncheckedVerdict()));
  for (size_t i = 0; i < n; ++i) matrix[i][i] = PairVerdict();
  const std::vector<size_t> rep_of = ShapeRepresentatives();
  // Queries of one shape have one size, so a pair within a class has the
  // bound of its representative against itself.
  std::vector<int> class_level(n);
  for (size_t i = 0; i < n; ++i) {
    class_level[i] = options_.containment.level_override >= 0
                         ? options_.containment.level_override
                         : PaperLevelBound(query(i), query(i));
  }
  const MatrixRows rows(matrix, rep_of, class_level);
  CheckPairsCore(rows.size() * (rows.size() - 1), rows);
  const std::vector<std::pair<size_t, size_t>> undecided = rows.Undecided();
  if (!undecided.empty()) {
    std::vector<PairVerdict> verdicts(undecided.size(), UncheckedVerdict());
    CheckPairsCore(undecided.size(), PairRows(undecided, verdicts));
    for (size_t k = 0; k < undecided.size(); ++k) {
      matrix[undecided[k].first][undecided[k].second] = verdicts[k];
    }
  }
  return matrix;
}

}  // namespace floq
