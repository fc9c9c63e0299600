#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "containment/classifier.h"
#include "containment/engine.h"
#include "flogic/parser.h"
#include "generator.h"
#include "util/rng.h"
#include "util/trace.h"
#include "workloads.h"

namespace floqbench {

using floq::ConjunctiveQuery;
using floq::PairVerdict;
using floq::Resolution;
using floq::Result;
using floq::Status;
using floq::TraceSpan;
using floq::server::Json;

namespace {

constexpr int kJobs = 2;

struct Iteration {
  double setup_s = 0;
  double classify_s = 0;
  floq::BatchStats stats;
  size_t classes = 0;
  size_t hasse_edges = 0;
};

// One `floq classify`: parse + AddQuery, then CheckAll + taxonomy. Every
// verdict is checked against construction and the one-shot sample.
Result<Iteration> ClassifyOnce(
    const Corpus& corpus,
    const std::map<std::pair<size_t, size_t>, Resolution>& reference,
    int64_t op, Report& report) {
  Iteration it;
  floq::World world;
  floq::BatchContainmentOptions options;
  options.jobs = kJobs;
  floq::ContainmentEngine engine(world, options);
  const size_t n = corpus.entries.size();

  const Clock::time_point setup_start = Clock::now();
  for (const CorpusEntry& entry : corpus.entries) {
    Result<ConjunctiveQuery> query = [&] {
      TraceSpan span("flogic.parse");
      span.Arg("op", op);
      return floq::flogic::ParseQuery(world, entry.text);
    }();
    if (!query.ok()) return query.status();
    TraceSpan span("engine.add_query");
    span.Arg("op", op);
    Result<size_t> id = engine.AddQuery(*query);
    if (!id.ok()) return id.status();
  }
  it.setup_s = SecondsSince(setup_start);

  const Clock::time_point classify_start = Clock::now();
  Result<std::vector<std::vector<PairVerdict>>> matrix = [&] {
    TraceSpan span("engine.check_all");
    span.Arg("op", op);
    return engine.CheckAll();
  }();
  if (!matrix.ok()) return matrix.status();
  floq::QueryTaxonomy taxonomy;
  {
    TraceSpan span("classifier.taxonomy");
    span.Arg("op", op);
    int unknown = 0;
    std::vector<std::vector<bool>> contained(n, std::vector<bool>(n, false));
    for (size_t i = 0; i < n; ++i) {
      contained[i][i] = true;
      for (size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        contained[i][j] = (*matrix)[i][j].contained;
        if ((*matrix)[i][j].resolution == Resolution::kUnknown) ++unknown;
      }
    }
    const floq::BatchStats& stats = engine.stats();
    taxonomy = floq::TaxonomyFromContainment(
        contained, int(stats.pairs_checked - stats.pruned_pairs), unknown,
        int(stats.pruned_pairs));
  }
  it.classify_s = SecondsSince(classify_start);
  it.stats = engine.stats();
  it.classes = taxonomy.classes.size();
  it.hasse_edges = taxonomy.hasse_edges.size();

  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const Resolution got = (*matrix)[i][j].resolution;
      bool ok = got != Resolution::kUnknown &&
                Agrees(corpus.KnownVerdict(i, j), got);
      if (auto ref = reference.find({i, j}); ref != reference.end()) {
        ok = ok && ref->second == got;
      }
      if (ok) {
        report.Attempt(true);
      } else {
        report.Fail("classify verdict " + corpus.entries[i].name + " in " +
                    corpus.entries[j].name + ": " +
                    floq::ResolutionName(got));
      }
    }
  }
  return it;
}

}  // namespace

Status RunClassify(const Config& config, Report& report) {
  const size_t n = config.smoke ? 150 : 1000;
  const size_t sample = config.smoke ? 40 : 300;
  report.Env("queries", Json::Number(double(n)));
  report.Env("jobs", Json::Number(kJobs));
  report.Env("reference_sample", Json::Number(double(sample)));

  Result<Corpus> corpus = MakeCorpus(config.seed, n);
  if (!corpus.ok()) return corpus.status();

  // One-shot references for a seeded sample of the pairs construction
  // says nothing about.
  std::map<std::pair<size_t, size_t>, Resolution> reference;
  floq::Rng rng(config.seed ^ 0x5eed5eedULL);
  for (int tries = 0; reference.size() < sample && tries < 100000; ++tries) {
    const size_t i = rng.Below(n), j = rng.Below(n);
    if (i == j || corpus->KnownVerdict(i, j) != Known::kUnknown) continue;
    Result<Resolution> verdict = OneShotVerdict(
        corpus->entries[i].text, corpus->entries[j].text, {});
    if (!verdict.ok()) {
      report.Fail(verdict.status().ToString());
      continue;
    }
    reference[{i, j}] = *verdict;
  }

  // Untraced iterations give the end-to-end figures; a traced run spends
  // half its time untraced so the tracing overhead is measured in one
  // process, then traces a few iterations into a ring sized to hold them.
  const double untraced_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  const int min_iterations = config.trace ? 2 : 3;
  std::vector<double> setup, classify;
  std::optional<Iteration> last;
  const Clock::time_point start = Clock::now();
  int64_t op = 0;
  while (int(setup.size()) < min_iterations ||
         SecondsSince(start) < untraced_seconds) {
    Result<Iteration> it = ClassifyOnce(*corpus, reference, ++op, report);
    if (!it.ok()) return it.status();
    setup.push_back(it->setup_s);
    classify.push_back(it->classify_s);
    last = *it;
  }
  // The workload's operation is one `floq classify` batch: CheckAll and the
  // taxonomy.
  report.Metric("setup_s", Median(setup), "s");
  report.Metric("op_p50_us", Median(classify) * 1e6, "us");
  report.Detail("classify_s", Json::Number(Median(classify)));
  report.Detail("iterations", Json::Number(double(setup.size())));
  report.Detail("classify_runs_s", JsonArray(classify));
  report.Detail("setup_runs_s", JsonArray(setup));
  report.Detail("taxonomy_classes", Json::Number(double(last->classes)));
  report.Detail("taxonomy_hasse_edges",
                Json::Number(double(last->hasse_edges)));
  report.Detail("pruned_ratio",
                Json::Number(double(last->stats.pruned_pairs) /
                             double(last->stats.pairs_checked)));
  report.Detail("reference_pairs", Json::Number(double(reference.size())));

  if (config.trace) {
    std::vector<double> traced_setup, traced_classify;
    Json counters = Json::Array();
    std::string trace_json;
    uint64_t dropped = 0;
    {
      floq::TraceSession session(size_t{1} << 17);
      // A fixed number of traced iterations, so the per-layer totals of
      // two runs compare.
      while (traced_setup.size() < 2) {
        Result<Iteration> it = ClassifyOnce(*corpus, reference, ++op, report);
        if (!it.ok()) return it.status();
        traced_setup.push_back(it->setup_s);
        traced_classify.push_back(it->classify_s);
        const floq::BatchStats& s = it->stats;
        Json c = Json::Object();
        c.Set("op", Json::Number(double(op)));
        c.Set("chase.runs", Json::Number(double(s.chases_run)));
        c.Set("chase.deepenings", Json::Number(double(s.chase_deepenings)));
        c.Set("chase.stage_ms", Json::Number(s.chase_stage.total_ms));
        c.Set("hom.stage_ms", Json::Number(s.hom_stage.total_ms));
        c.Set("hom.nodes", Json::Number(double(s.hom.nodes_visited)));
        c.Set("signature.ms", Json::Number(s.signature_us / 1000.0));
        c.Set("signature.pruned_ratio",
              Json::Number(double(s.pruned_pairs) / double(s.pairs_checked)));
        c.Set("engine.queue_wait_ms", Json::Number(s.queue_wait.mean_ms()));
        c.Set("taxonomy.classes", Json::Number(double(it->classes)));
        c.Set("taxonomy.hasse_edges", Json::Number(double(it->hasse_edges)));
        c.Set("setup_s", Json::Number(it->setup_s));
        c.Set("classify_s", Json::Number(it->classify_s));
        counters.Append(std::move(c));
      }
      dropped = session.dropped();
      trace_json = session.ToJson();
    }
    const std::string trace_path = config.workdir + "/classify.trace.json";
    if (FILE* f = std::fopen(trace_path.c_str(), "w")) {
      std::fwrite(trace_json.data(), 1, trace_json.size(), f);
      std::fclose(f);
    } else {
      return floq::InternalError("cannot write " + trace_path);
    }
    report.Detail("trace_file", Json::String(trace_path));
    report.Detail("trace_dropped", Json::Number(double(dropped)));
    report.Detail("jobs", Json::Number(kJobs));
    report.Detail("ops", std::move(counters));
    Json overhead = Json::Object();
    overhead.Set("setup_s.untraced", Json::Number(Median(setup)));
    overhead.Set("setup_s.traced", Json::Number(Median(traced_setup)));
    overhead.Set("op_p50_us.untraced", Json::Number(Median(classify) * 1e6));
    overhead.Set("op_p50_us.traced",
                 Json::Number(Median(traced_classify) * 1e6));
    report.Detail("overhead", std::move(overhead));
    if (dropped != 0) report.Fail("trace ring dropped spans");
  }
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  return Status::Ok();
}

}  // namespace floqbench
