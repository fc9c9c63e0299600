#include "containment/engine.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "containment/homomorphism.h"
#include "util/metrics.h"
#include "util/request_context.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace floq {

namespace {

using SteadyClock = std::chrono::steady_clock;

// Chase levels the registration-time signature probe materializes
// (ChaseDepth::kPaperBound only; level-0 mode probes level 0). A completed
// probe makes the closure signature exact; an inconclusive one falls back
// to the static Sigma_FL closure.
constexpr int kSignatureProbeLevels = 2;

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

}  // namespace

// Per-query cache slot. `chase` (or `body_index` in kNone mode) is built
// the first time the query appears as a left-hand side and reused — and
// deepened, never rebuilt — by every later pair.
struct ContainmentEngine::Entry {
  ConjunctiveQuery query;
  // The rhs pattern: variables renamed apart from every chase value (chase
  // conjuncts carry the chased query's variables as values; see the
  // matcher discipline note in DESIGN.md §4). Renamed once at
  // registration, shared read-only by all workers.
  ConjunctiveQuery renamed;
  std::optional<ResumableChase> chase;
  // ChaseDepth::kNone target: body(q) as a plain fact index.
  std::optional<FactIndex> body_index;
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
    const ChaseResult* probe = nullptr;
    if (copts.depth != ChaseDepth::kNone) {
      // The probe IS the pair pipeline's cached chase handle: whatever it
      // materializes here is reused — and deepened, never rebuilt — by
      // every later pair with this query on the left. It runs under the
      // same governed budget as a pair's chase stage, so a runaway query
      // cannot stall registration; an inconclusive probe just degrades
      // the signature to the static closure.
      ChaseOptions chase_options;
      chase_options.max_atoms = copts.max_chase_atoms;
      ExecGovernor governor = MakeChaseGovernor(copts.budget);
      governor.AddCancellation(cancel_source_.token());
      const int probe_level =
          copts.depth == ChaseDepth::kLevelZero ? 0 : kSignatureProbeLevels;
      ++stats_.chases_run;
      entry->chase.emplace(world_, entry->query, chase_options);
      probe = &entry->chase->EnsureLevel(probe_level, &governor);
      FoldGovernorMetrics(governor);
    }
    entry->signature =
        ComputeClosureSignature(entry->query, copts.depth, probe);
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

void MarkPairContained(PairVerdict& verdict) {
  verdict.contained = true;
  verdict.resolution = Resolution::kContained;
  verdict.unknown_reason = TripReason::kNone;
}

void MarkPairUnknown(PairVerdict& verdict, TripReason reason) {
  verdict.contained = false;
  verdict.resolution = Resolution::kUnknown;
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

}  // namespace

void ContainmentEngine::Cancel() { cancel_source_.Cancel(); }

void ContainmentEngine::ResetCancel() { cancel_source_.Reset(); }

template <class OutFn>
Status ContainmentEngine::CheckPairsCore(
    std::span<const std::pair<size_t, size_t>> pairs, OutFn&& out) {
  const ContainmentOptions& copts = options_.containment;
  const ResourceBudget& budget = copts.budget;
  // Snapshot the token once: worker threads copy it concurrently below,
  // and ResetCancel (which swaps the shared flag) is only legal between
  // batches.
  const CancellationToken engine_token = cancel_source_.token();

  // Validate against dense per-query arities: chasing pointers through
  // entries_ for every one of n(n-1) pairs costs more than the whole
  // signature stage.
  const size_t num_queries = entries_.size();
  std::vector<int> arities(num_queries, -1);  // -1: removed
  for (size_t i = 0; i < num_queries; ++i) {
    if (entries_[i] != nullptr) arities[i] = entries_[i]->query.arity();
  }
  for (const auto& [lhs, rhs] : pairs) {
    if (lhs >= num_queries || rhs >= num_queries) {
      return InvalidArgumentError("pair refers to an unregistered query id");
    }
    if (arities[lhs] < 0 || arities[rhs] < 0) {
      return InvalidArgumentError("pair refers to a removed query id");
    }
    if (arities[lhs] != arities[rhs]) {
      return InvalidArgumentError(
          StrCat("containment requires equal arities; got ",
                 arities[lhs], " and ", arities[rhs]));
    }
  }

  TraceSpan batch_span("engine.check_pairs");
  AnnotateWithRequest(batch_span);
  if (batch_span.active()) {
    batch_span.Arg("pairs", int64_t(pairs.size()));
  }
  // Snapshot for the per-batch metrics fold at the end (stats_ is
  // cumulative across batches).
  const BatchStats stats_before = stats_;

  std::vector<uint8_t> needs_search(pairs.size(), 0);
  std::vector<uint8_t> pruned(pairs.size(), 0);
  // Why this pair's chase prefix cannot refute containment (kNone when it
  // can): consumed by the hom phase to settle negatives.
  std::vector<TripReason> chase_trips(pairs.size(), TripReason::kNone);

  // ---- stage 0: signature prefilter --------------------------------------
  //
  // A failed subset test (signature.h) is a sound definite kNotContained:
  // the pair skips both expensive stages entirely. One governor covers the
  // whole stage — each test is a few word ops, so per-pair re-anchoring
  // would cost more than the work it guards. Once the governor trips,
  // pruning STOPS and every remaining pair falls through to the governed
  // chase/hom stages, which degrade it to kUnknown: a tripped stage-0
  // deadline must never manufacture a definite verdict.
  if (copts.use_signature_index && !pairs.empty()) {
    TraceSpan sig_span("engine.signature_stage");
    AnnotateWithRequest(sig_span);
    const SteadyClock::time_point sig_start = SteadyClock::now();
    uint64_t pruned_here = 0;
    ExecGovernor sig_governor = MakeChaseGovernor(budget);
    sig_governor.AddCancellation(engine_token);
    // Dense signature pointers: one pointer chase per query instead of
    // two per pair.
    std::vector<const ClosureSignature*> sigs(num_queries, nullptr);
    for (size_t i = 0; i < num_queries; ++i) {
      if (entries_[i] != nullptr && entries_[i]->signature.has_value()) {
        sigs[i] = &*entries_[i]->signature;
      }
    }
    for (size_t k = 0; k < pairs.size(); ++k) {
      // A subset test is a few word ops; polling the governor every pair
      // would double the stage's cost. A 64-pair stride still bounds the
      // deadline overshoot to a couple of microseconds — and k == 0 is
      // polled, so an already-tripped budget prunes nothing.
      if ((k & 63) == 0 && !sig_governor.CheckNow()) break;
      const ClosureSignature* l = sigs[pairs[k].first];
      const ClosureSignature* r = sigs[pairs[k].second];
      if (l == nullptr || r == nullptr) continue;
      if (MayContain(*l, r->base)) continue;
      pruned[k] = 1;
      out(k).pruned = true;
      ++pruned_here;
    }
    FoldGovernorMetrics(sig_governor);
    stats_.pruned_pairs += pruned_here;
    stats_.signature_us += MsSince(sig_start) * 1000.0;
    if (sig_span.active()) {
      sig_span.Arg("pairs", int64_t(pairs.size()))
          .Arg("pruned", int64_t(pruned_here));
    }
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
  for (size_t k = 0; k < pairs.size(); ++k) {
    if (pruned[k] != 0) continue;  // discharged in stage 0
    const auto& [lhs, rhs] = pairs[k];
    Entry& l = *entries_[lhs];
    PairVerdict& verdict = out(k);
    ++stats_.chase_requests;
    TraceSpan span("engine.chase_stage");
    AnnotateWithRequest(span);
    if (span.active()) {
      span.Arg("lhs", int64_t(lhs)).Arg("rhs", int64_t(rhs));
    }
    StageTimer timer(&verdict.chase_ms);

    if (copts.depth == ChaseDepth::kNone) {
      verdict.level_bound = -1;
      if (!l.body_index.has_value()) {
        ++stats_.chases_run;
        l.body_index.emplace();
        for (const Atom& atom : l.query.body()) l.body_index->Insert(atom);
      } else {
        ++stats_.chase_cache_hits;
      }
      needs_search[k] = 1;
      continue;
    }

    ExecGovernor chase_governor = MakeChaseGovernor(budget);
    chase_governor.AddCancellation(engine_token);
    if (!chase_governor.CheckNow()) {
      // Already cancelled (or the absolute deadline has passed) before
      // this pair started: skip its chase entirely.
      FoldGovernorMetrics(chase_governor);
      MarkPairUnknown(verdict, chase_governor.trip());
      continue;
    }

    int level = 0;
    if (copts.depth == ChaseDepth::kPaperBound) {
      level = copts.level_override >= 0
                  ? copts.level_override
                  : PaperLevelBound(l.query, entries_[rhs]->query);
    }
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

    if (chase.failed()) {
      // lhs has no answers on any database satisfying Sigma_FL: contained
      // in every query of the same arity, no search needed.
      MarkPairContained(verdict);
      verdict.lhs_unsatisfiable = true;
      continue;
    }
    chase_trips[k] = ChaseTripReason(chase.outcome(), chase_governor);
    if (chase_trips[k] == TripReason::kCancelled) {
      MarkPairUnknown(verdict, TripReason::kCancelled);
      continue;
    }
    // A truncated prefix (atom budget, or this pair's chase deadline) is
    // still worth searching: a homomorphism into it is a sound positive,
    // and the hom stage anchors its own fresh timeout slice.
    needs_search[k] = 1;
  }

  // Freeze every handle: from here on the chase artifacts are immutable
  // and may be shared across threads (asserted by ResumableChase).
  for (const std::unique_ptr<Entry>& entry : entries_) {
    if (entry != nullptr && entry->chase.has_value()) entry->chase->Freeze();
  }

  // ---- parallel phase: stateless homomorphism searches -------------------
  //
  // Workers read frozen chase results directly (never EnsureLevel — an
  // interrupted frozen handle must not resume here) and run under a
  // per-pair hom governor with its own anchored timeout.
  const SteadyClock::time_point fanout_start = SteadyClock::now();
  auto run_pair_inner = [&](size_t k) {
    PairVerdict& verdict = out(k);
    ExecGovernor hom_governor = MakeHomGovernor(budget);
    hom_governor.AddCancellation(engine_token);
    if (!hom_governor.CheckNow()) {
      FoldGovernorMetrics(hom_governor);
      MarkPairUnknown(verdict,
                      hom_governor.trip() == TripReason::kCancelled
                          ? TripReason::kCancelled
                          : chase_trips[k] != TripReason::kNone
                                ? chase_trips[k]
                                : hom_governor.trip());
      return;
    }
    const auto& [lhs, rhs] = pairs[k];
    const Entry& l = *entries_[lhs];
    const Entry& r = *entries_[rhs];
    const FactIndex& target = copts.depth == ChaseDepth::kNone
                                  ? *l.body_index
                                  : l.chase->result().conjuncts();
    const std::vector<Term>& target_head = copts.depth == ChaseDepth::kNone
                                               ? l.query.head()
                                               : l.chase->result().head();
    MatchOptions match = copts.match;
    match.governor = &hom_governor;
    bool found = FindQueryHomomorphism(r.renamed, target, target_head,
                                       &verdict.hom_stats, match)
                     .has_value();
    FoldGovernorMetrics(hom_governor);
    if (found) {
      // Sound even into a truncated prefix (see governor.h).
      MarkPairContained(verdict);
      return;
    }
    if (chase_trips[k] != TripReason::kNone) {
      MarkPairUnknown(verdict, chase_trips[k]);
    } else if (hom_governor.tripped()) {
      MarkPairUnknown(verdict, hom_governor.trip());
    } else {
      verdict.contained = false;
      verdict.resolution = Resolution::kNotContained;
    }
  };
  auto run_pair = [&](size_t k) {
    if (needs_search[k] == 0) return;
    PairVerdict& verdict = out(k);
    verdict.queue_wait_ms = MsSince(fanout_start);
    TraceSpan span("engine.hom_stage");
    AnnotateWithRequest(span);
    {
      StageTimer timer(&verdict.hom_ms);
      run_pair_inner(k);
    }
    if (span.active()) {
      const auto& [lhs, rhs] = pairs[k];
      span.Arg("lhs", int64_t(lhs))
          .Arg("rhs", int64_t(rhs))
          .Arg("resolution", ResolutionName(verdict.resolution));
      if (verdict.resolution == Resolution::kUnknown) {
        span.Arg("trip", TripReasonName(verdict.unknown_reason));
      }
    }
  };

  size_t jobs = options_.jobs == 0 ? ThreadPool::DefaultThreads()
                                   : size_t(options_.jobs);
  jobs = std::min(jobs, pairs.size());
  if (jobs <= 1) {
    for (size_t k = 0; k < pairs.size(); ++k) run_pair(k);
  } else {
    ThreadPool pool(jobs);
    ParallelFor(pool, pairs.size(), run_pair);
  }

  // The fan-out has joined; a later CheckPairs call on this engine may
  // legally deepen the handles again.
  for (const std::unique_ptr<Entry>& entry : entries_) {
    if (entry != nullptr && entry->chase.has_value()) entry->chase->Thaw();
  }

  stats_.pairs_checked += pairs.size();
  const bool metrics = MetricsRegistry::enabled();
  for (size_t k = 0; k < pairs.size(); ++k) {
    // Pruned pairs ran neither stage: nothing to record, and folding
    // their zero times in would deflate every mean — skip on the dense
    // flag so the pruned fast path never touches the verdict memory.
    if (pruned[k] != 0) continue;
    const PairVerdict& verdict = out(k);
    if (verdict.resolution == Resolution::kUnknown) {
      // Degraded pairs: their search was cut off mid-flight, so their
      // effort and stage times stay out of the throughput aggregates
      // (hom / chase_stage / hom_stage / queue_wait) and land in their
      // own bucket instead.
      stats_.hom_degraded.Accumulate(verdict.hom_stats);
      ++stats_.unknown_pairs;
      if (verdict.unknown_reason == TripReason::kDeadlineExceeded) {
        ++stats_.timed_out_pairs;
      } else if (verdict.unknown_reason == TripReason::kCancelled) {
        ++stats_.cancelled_pairs;
      }
      continue;
    }
    stats_.hom.Accumulate(verdict.hom_stats);
    if (copts.depth != ChaseDepth::kNone) {
      stats_.chase_stage.Record(verdict.chase_ms);
    }
    if (needs_search[k] != 0) {
      stats_.hom_stage.Record(verdict.hom_ms);
      stats_.queue_wait.Record(verdict.queue_wait_ms);
    }
    if (metrics) {
      MetricsRegistry& registry = MetricsRegistry::Get();
      static Histogram& chase_us = registry.histogram("engine.chase_stage_us");
      static Histogram& hom_us = registry.histogram("engine.hom_stage_us");
      static Histogram& wait_us = registry.histogram("engine.queue_wait_us");
      if (copts.depth != ChaseDepth::kNone) {
        chase_us.Record(uint64_t(verdict.chase_ms * 1000.0));
      }
      if (needs_search[k] != 0) {
        hom_us.Record(uint64_t(verdict.hom_ms * 1000.0));
        wait_us.Record(uint64_t(verdict.queue_wait_ms * 1000.0));
      }
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
    if (copts.use_signature_index && !pairs.empty()) {
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
  return Status::Ok();
}

Result<std::vector<PairVerdict>> ContainmentEngine::CheckPairs(
    std::span<const std::pair<size_t, size_t>> pairs) {
  std::vector<PairVerdict> verdicts(pairs.size());
  FLOQ_RETURN_IF_ERROR(CheckPairsCore(
      pairs, [&](size_t k) -> PairVerdict& { return verdicts[k]; }));
  return verdicts;
}

Result<std::vector<std::vector<PairVerdict>>> ContainmentEngine::CheckAll() {
  const size_t n = entries_.size();
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(n * (n - 1));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) pairs.emplace_back(i, j);
    }
  }
  // Verdicts land directly in their matrix cells (the diagonal stays
  // defaulted): no flat intermediate vector, no n^2 copy.
  std::vector<std::vector<PairVerdict>> matrix(n,
                                               std::vector<PairVerdict>(n));
  FLOQ_RETURN_IF_ERROR(CheckPairsCore(pairs, [&](size_t k) -> PairVerdict& {
    const auto& [i, j] = pairs[k];
    return matrix[i][j];
  }));
  return matrix;
}

}  // namespace floq
