#include "containment/engine.h"

#include <chrono>
#include <optional>

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
};

ContainmentEngine::ContainmentEngine(World& world,
                                     const BatchContainmentOptions& options)
    : world_(world), options_(options) {}

ContainmentEngine::~ContainmentEngine() = default;

Result<size_t> ContainmentEngine::AddQuery(const ConjunctiveQuery& query) {
  FLOQ_RETURN_IF_ERROR(query.Validate(world_));
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
    entry->chase.emplace(world_, entry->query, chase_options);
    const ChaseResult& probe = entry->chase->EnsureLevel(
        SignatureProbeLevel(copts.level_override), &governor);
    FoldGovernorMetrics(governor);
    entry->signature =
        ComputeClosureSignature(entry->query, copts.level_override, &probe);
  }
  entries_.push_back(std::move(entry));
  ++live_entries_;
  return entries_.size() - 1;
}

Status ContainmentEngine::RemoveQuery(size_t id) {
  if (!has_query(id)) {
    return NotFoundError(StrCat("no query with engine id ", id));
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

namespace {

void Record(PairVerdict& verdict, Resolution resolution, TripReason reason) {
  verdict.contained = resolution == Resolution::kContained;
  verdict.resolution = resolution;
  verdict.unknown_reason = reason;
}

// Writes the elapsed milliseconds since construction into *out at scope
// exit — times a per-pair stage across its early `continue`s / `return`s.
class StageTimer {
 public:
  explicit StageTimer(double* out) : out_(out) {}
  ~StageTimer() { *out_ = MsSince(start_); }

 private:
  double* out_;
  SteadyClock::time_point start_ = SteadyClock::now();
};

// A pair stage 0 did not discharge, with the scratch its chase and hom
// stages fill and the BatchStats fold reads. Only survivors carry it, so a
// pruned pair costs its verdict cell and nothing else.
struct Survivor {
  Survivor(size_t lhs_in, size_t rhs_in, PairVerdict* verdict_in)
      : lhs(lhs_in), rhs(rhs_in), verdict(verdict_in) {}

  size_t lhs;
  size_t rhs;
  PairVerdict* verdict;
  // Why this pair's chase prefix cannot refute containment (kNone when it
  // can): consumed by the hom stage to settle negatives.
  TripReason chase_trip = TripReason::kNone;
  bool needs_search = false;
  // Wall-clock stage costs: chase_ms covers the EnsureLevel call (near
  // zero on a cache hit that needs no deepening), hom_ms the search,
  // queue_wait_ms the delay before a worker picked the pair up. Zero for
  // stages the pair never reached.
  double chase_ms = 0.0;
  double hom_ms = 0.0;
  double queue_wait_ms = 0.0;
  MatchStats hom_stats;
};

}  // namespace

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

template <class ForEachPair>
void ContainmentEngine::CheckPairsCore(size_t pair_count,
                                       ForEachPair&& for_each_pair) {
  const ContainmentOptions& copts = options_.containment;
  const ResourceBudget& budget = copts.budget;
  // Snapshot the token once: worker threads copy it concurrently below,
  // and ResetCancel (which swaps the shared flag) is only legal between
  // batches.
  const CancellationToken engine_token = cancel_source_.token();

  TraceSpan batch_span("engine.check_pairs");
  AnnotateWithRequest(batch_span);
  if (batch_span.active()) {
    batch_span.Arg("pairs", int64_t(pair_count));
  }
  // Snapshot for the per-batch metrics fold at the end (stats_ is
  // cumulative across batches).
  const BatchStats stats_before = stats_;

  // ---- stage 0: signature prefilter --------------------------------------
  //
  // A failed subset test (signature.h) is a sound definite kNotContained:
  // the pair skips both expensive stages entirely. Every other pair joins
  // `survivors`, the only list the later stages and the stats fold walk.
  // One governor covers the whole stage — each test is a few word ops, so
  // per-pair re-anchoring would cost more than the work it guards. Once
  // the governor trips, pruning STOPS and every remaining pair falls
  // through to the governed chase/hom stages, which degrade it to
  // kUnknown: a tripped stage-0 deadline must never manufacture a definite
  // verdict.
  std::vector<Survivor> survivors;
  if (copts.use_signature_index && pair_count > 0) {
    TraceSpan sig_span("engine.signature_stage");
    AnnotateWithRequest(sig_span);
    const SteadyClock::time_point sig_start = SteadyClock::now();
    ExecGovernor sig_governor = MakeChaseGovernor(budget);
    sig_governor.AddCancellation(engine_token);
    size_t k = 0;
    bool tripped = false;
    for_each_pair([&](size_t lhs, size_t rhs, PairVerdict& verdict) {
      // A subset test is a few word ops; polling the governor every pair
      // would double the stage's cost. A 64-pair stride still bounds the
      // deadline overshoot to a couple of microseconds — and the first
      // pair is polled, so an already-tripped budget prunes nothing.
      if (!tripped && (k++ & 63) == 0) tripped = !sig_governor.CheckNow();
      if (!tripped) {
        const std::optional<ClosureSignature>& l = entries_[lhs]->signature;
        const std::optional<ClosureSignature>& r = entries_[rhs]->signature;
        if (l.has_value() && r.has_value() && !MayContain(*l, r->base)) {
          verdict.pruned = true;
          return;
        }
      }
      survivors.emplace_back(lhs, rhs, &verdict);
    });
    const uint64_t pruned_here = pair_count - survivors.size();
    FoldGovernorMetrics(sig_governor);
    stats_.pruned_pairs += pruned_here;
    stats_.signature_us += MsSince(sig_start) * 1000.0;
    if (sig_span.active()) {
      sig_span.Arg("pairs", int64_t(pair_count))
          .Arg("pruned", int64_t(pruned_here));
    }
  } else {
    survivors.reserve(pair_count);
    for_each_pair([&](size_t lhs, size_t rhs, PairVerdict& verdict) {
      survivors.emplace_back(lhs, rhs, &verdict);
    });
  }

  // ---- sequential phase: build / deepen the shared targets ---------------
  //
  // Everything that mutates the World (fresh nulls for chase steps) or a
  // cache entry happens here, on the calling thread. The workers below
  // only read. Each pair gets its own governor with a freshly anchored
  // timeout (per-pair isolation): a runaway chase trips its own deadline,
  // and the next pair starts with a full budget again.
  ChaseOptions chase_options;
  chase_options.max_atoms = copts.max_chase_atoms;
  for (Survivor& s : survivors) {
    Entry& l = *entries_[s.lhs];
    PairVerdict& verdict = *s.verdict;
    ++stats_.chase_requests;
    TraceSpan span("engine.chase_stage");
    AnnotateWithRequest(span);
    if (span.active()) {
      span.Arg("lhs", int64_t(s.lhs)).Arg("rhs", int64_t(s.rhs));
    }
    StageTimer timer(&s.chase_ms);

    ExecGovernor chase_governor = MakeChaseGovernor(budget);
    chase_governor.AddCancellation(engine_token);
    if (!chase_governor.CheckNow()) {
      // Already cancelled (or the absolute deadline has passed) before
      // this pair started: skip its chase and its search entirely.
      FoldGovernorMetrics(chase_governor);
      Record(verdict, Resolution::kUnknown, chase_governor.trip());
      continue;
    }

    const int level = copts.level_override >= 0
                          ? copts.level_override
                          : PaperLevelBound(l.query, entries_[s.rhs]->query);
    verdict.level_bound = level;

    if (!l.chase.has_value()) {
      ++stats_.chases_run;
      l.chase.emplace(world_, l.query, chase_options);
    } else {
      ++stats_.chase_cache_hits;
    }
    uint64_t deepenings_before = l.chase->deepen_count();
    const ChaseResult& chase = l.chase->EnsureLevel(level, &chase_governor);
    stats_.chase_deepenings += l.chase->deepen_count() - deepenings_before;
    FoldGovernorMetrics(chase_governor);
    if (span.active()) {
      span.Arg("level", int64_t(level))
          .Arg("outcome", ChaseOutcomeName(chase.outcome()));
    }

    // lhs has no answers on any database satisfying Sigma_FL when its
    // chase failed: SettlePair then settles the pair without a search.
    verdict.lhs_unsatisfiable = chase.failed();
    // A truncated prefix (atom budget, or this pair's chase deadline) is
    // still worth searching: a homomorphism into it is a sound positive,
    // and the hom stage anchors its own fresh timeout slice.
    s.chase_trip = ChaseTripReason(chase.outcome(), chase_governor);
    s.needs_search = true;
  }

  // Freeze the handles the workers read — the survivors' left-hand sides:
  // from here on those chase artifacts are immutable and may be shared
  // across threads (asserted by ResumableChase).
  for (const Survivor& s : survivors) {
    Entry& l = *entries_[s.lhs];
    if (l.chase.has_value()) l.chase->Freeze();
  }

  // ---- parallel phase: stateless homomorphism searches -------------------
  //
  // Workers read frozen chase results directly (never EnsureLevel — an
  // interrupted frozen handle must not resume here) and run under a
  // per-pair hom governor with its own anchored timeout. Each writes only
  // its own survivor and verdict cell.
  const SteadyClock::time_point fanout_start = SteadyClock::now();
  auto search = [&](Survivor& s) {
    ExecGovernor hom_governor = MakeHomGovernor(budget);
    hom_governor.AddCancellation(engine_token);
    MatchOptions match = copts.match;
    match.governor = &hom_governor;
    Settlement settled =
        SettlePair(entries_[s.rhs]->renamed, entries_[s.lhs]->chase->result(),
                   s.chase_trip, match, &s.hom_stats);
    FoldGovernorMetrics(hom_governor);
    Record(*s.verdict, settled.resolution, settled.unknown_reason);
  };
  auto run_pair = [&](size_t index) {
    Survivor& s = survivors[index];
    if (!s.needs_search) return;
    s.queue_wait_ms = MsSince(fanout_start);
    TraceSpan span("engine.hom_stage");
    AnnotateWithRequest(span);
    {
      StageTimer timer(&s.hom_ms);
      search(s);
    }
    if (span.active()) {
      const PairVerdict& verdict = *s.verdict;
      span.Arg("lhs", int64_t(s.lhs))
          .Arg("rhs", int64_t(s.rhs))
          .Arg("resolution", ResolutionName(verdict.resolution));
      if (verdict.resolution == Resolution::kUnknown) {
        span.Arg("trip", TripReasonName(verdict.unknown_reason));
      }
    }
  };
  ParallelFor(options_.jobs == 0 ? DefaultThreads() : size_t(options_.jobs),
              survivors.size(), run_pair);

  // The fan-out has joined; a later CheckPairs call on this engine may
  // legally deepen the handles again.
  for (const Survivor& s : survivors) {
    Entry& l = *entries_[s.lhs];
    if (l.chase.has_value()) l.chase->Thaw();
  }

  stats_.pairs_checked += pair_count;
  const bool metrics = MetricsRegistry::enabled();
  // Pruned pairs ran neither stage and are not in `survivors`: nothing to
  // record, and folding their zero times in would deflate every mean.
  for (const Survivor& s : survivors) {
    const PairVerdict& verdict = *s.verdict;
    if (verdict.resolution == Resolution::kUnknown) {
      // Degraded pairs: their search was cut off mid-flight, so their
      // effort and stage times stay out of the throughput aggregates
      // (hom / chase_stage / hom_stage / queue_wait) and land in their
      // own bucket instead.
      stats_.hom_degraded.Accumulate(s.hom_stats);
      ++stats_.unknown_pairs;
      if (verdict.unknown_reason == TripReason::kDeadlineExceeded) {
        ++stats_.timed_out_pairs;
      } else if (verdict.unknown_reason == TripReason::kCancelled) {
        ++stats_.cancelled_pairs;
      }
      continue;
    }
    // A decided pair ran both stages: only a pair whose chase stage was
    // skipped goes unsearched, and that pair is UNKNOWN.
    stats_.hom.Accumulate(s.hom_stats);
    stats_.chase_stage.Record(s.chase_ms);
    stats_.hom_stage.Record(s.hom_ms);
    stats_.queue_wait.Record(s.queue_wait_ms);
    if (metrics) {
      MetricsRegistry& registry = MetricsRegistry::Get();
      static Histogram& chase_us = registry.histogram("engine.chase_stage_us");
      static Histogram& hom_us = registry.histogram("engine.hom_stage_us");
      static Histogram& wait_us = registry.histogram("engine.queue_wait_us");
      chase_us.Record(uint64_t(s.chase_ms * 1000.0));
      hom_us.Record(uint64_t(s.hom_ms * 1000.0));
      wait_us.Record(uint64_t(s.queue_wait_ms * 1000.0));
    }
  }
  if (metrics) {
    MetricsRegistry& registry = MetricsRegistry::Get();
    static Counter& pairs_checked = registry.counter("engine.pairs_checked");
    static Counter& pruned_pairs = registry.counter("engine.pruned_pairs");
    static Counter& unknown = registry.counter("engine.unknown_pairs");
    static Counter& requests = registry.counter("engine.chase_requests");
    static Counter& cache_hits = registry.counter("engine.chase_cache_hits");
    static Counter& chases = registry.counter("engine.chases_run");
    static Counter& deepenings = registry.counter("engine.chase_deepenings");
    auto fold = [](Counter& c, uint64_t before, uint64_t after) {
      if (after > before) c.Add(after - before);
    };
    fold(pairs_checked, stats_before.pairs_checked, stats_.pairs_checked);
    fold(pruned_pairs, stats_before.pruned_pairs, stats_.pruned_pairs);
    fold(unknown, stats_before.unknown_pairs, stats_.unknown_pairs);
    if (copts.use_signature_index && pair_count > 0) {
      static Histogram& sig_us =
          registry.histogram("engine.signature_stage_us");
      sig_us.Record(
          uint64_t(stats_.signature_us - stats_before.signature_us));
    }
    fold(requests, stats_before.chase_requests, stats_.chase_requests);
    fold(cache_hits, stats_before.chase_cache_hits, stats_.chase_cache_hits);
    fold(chases, stats_before.chases_run, stats_.chases_run);
    fold(deepenings, stats_before.chase_deepenings, stats_.chase_deepenings);
  }
}

Result<std::vector<PairVerdict>> ContainmentEngine::CheckPairs(
    std::span<const std::pair<size_t, size_t>> pairs) {
  for (const auto& [lhs, rhs] : pairs) {
    FLOQ_RETURN_IF_ERROR(ValidatePair(lhs, rhs));
  }
  std::vector<PairVerdict> verdicts(pairs.size());
  CheckPairsCore(pairs.size(), [&](auto&& visit) {
    for (size_t k = 0; k < pairs.size(); ++k) {
      visit(pairs[k].first, pairs[k].second, verdicts[k]);
    }
  });
  return verdicts;
}

Result<std::vector<std::vector<PairVerdict>>> ContainmentEngine::CheckAll() {
  const size_t n = entries_.size();
  // Row 0 names every id, and a full scan in pair order would meet its
  // first removed id or arity mismatch in row 0: checking (0, j) for every
  // j reports the same error in O(n).
  for (size_t j = 1; j < n; ++j) FLOQ_RETURN_IF_ERROR(ValidatePair(0, j));
  // Verdicts land directly in their matrix cells (the diagonal stays
  // defaulted): no pair list, no flat intermediate vector, no n^2 copy.
  std::vector<std::vector<PairVerdict>> matrix(n,
                                               std::vector<PairVerdict>(n));
  CheckPairsCore(n * (n - 1), [&](auto&& visit) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (i != j) visit(i, j, matrix[i][j]);
      }
    }
  });
  return matrix;
}

}  // namespace floq
