// Experiment E17 — the `floq serve` daemon (DESIGN.md §16). Three
// questions, one JSON report (stdout; CI captures BENCH_serve.json):
//
//   * daemon_contain    — round-trip latency (p50/p99) and throughput of
//                         cached `contain` requests against a warm
//                         registry over the AF_UNIX socket. The lattice
//                         answer itself is a matrix lookup, so this arm
//                         prices the whole serving stack: framing, JSON,
//                         admission gate, epoch snapshot.
//   * oneshot_contain   — the same containment question answered the
//                         pre-daemon way: re-parse both queries and run
//                         CheckContainment from scratch per request,
//                         i.e. what every `floq check` invocation pays.
//                         speedup = oneshot_p50 / daemon_p50.
//   * armed_contain     — the daemon arm again with the recommended
//                         production observability config (structured
//                         logging at info, tracing sampled at 1/64,
//                         slow-request accounting). armed_overhead_p50 =
//                         armed_p50 / daemon_p50; CI gates it ≤ 1.05x.
//   * recovery          — QueryRegistry::Open wall time on a registry
//                         whose state lives entirely in an N-record WAL
//                         (no checkpoint), and on the same state after a
//                         checkpoint: the price of crash recovery, and
//                         what checkpointing buys.
//   * growth            — `register` round trips while one registry fills
//                         to 5000 queries, as the p50 of the registrations
//                         that reach each size, split into the means of
//                         the WAL fsync, the parse + index insert and the
//                         publish the daemon's own histograms recorded for
//                         them; then a register/unregister
//                         churn at a fixed live size; after the churn,
//                         `status` must count only live queries in the
//                         index.
//
// FLOQ_BENCH_SMALL=1 shrinks the registry and request counts ~8x for CI
// smoke runs.

#include <benchmark/benchmark.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "containment/containment.h"
#include "flogic/parser.h"
#include "server/daemon.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "term/world.h"
#include "util/check.h"
#include "util/metrics.h"

namespace {

using namespace floq;
using namespace floq::server;

bool SmallMode() {
  const char* env = std::getenv("FLOQ_BENCH_SMALL");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Registered queries: pairwise-related class-membership shapes so the
// maintained lattice holds real verdicts, not just signature discharges.
std::string QueryText(int i) {
  switch (i % 3) {
    case 0:
      return "q(X) :- X : c" + std::to_string(i / 3) + ".";
    case 1:
      return "q(X) :- X : c" + std::to_string(i / 3) +
             ", X[advisor -> Y].";
    default:
      return "q(X) :- X : c" + std::to_string(i / 3) +
             ", X[advisor -> Y], Y : c" + std::to_string(i / 3) + ".";
  }
}

// A connection to a daemon that is starting: polls for up to 10 s.
int ConnectWhenUp(const std::string& path) {
  for (int i = 0; i < 500; ++i) {
    ::usleep(20'000);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    FLOQ_CHECK(fd >= 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
  }
  FLOQ_CHECK(false);
  return -1;
}

Json RoundTrip(int fd, const Json& request) {
  Status written =
      WriteFrame(fd, request.Serialize(), Deadline::AfterMillis(10'000));
  FLOQ_CHECK(written.ok());
  FrameDecoder decoder;
  Result<std::string> payload =
      ReadFrame(fd, decoder, Deadline::AfterMillis(60'000));
  FLOQ_CHECK(payload.ok());
  Result<Json> reply = ParseJson(*payload);
  FLOQ_CHECK(reply.ok());
  return *std::move(reply);
}

struct LatencyStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double req_per_s = 0.0;
};

LatencyStats Summarize(std::vector<double>& samples_us, double wall_ms) {
  std::sort(samples_us.begin(), samples_us.end());
  LatencyStats out;
  out.p50_us = samples_us[samples_us.size() / 2];
  out.p99_us = samples_us[size_t(double(samples_us.size() - 1) * 0.99)];
  out.req_per_s = double(samples_us.size()) / (wall_ms / 1000.0);
  return out;
}

struct GrowthPoint {
  int size = 0;
  double register_p50_us = 0.0;
  // Means over the same registrations, from the daemon's histograms.
  double wal_fsync_us = 0.0;
  double insert_us = 0.0;
  double publish_us = 0.0;
};

struct ChurnMix {
  int live = 0;
  int cycles = 0;
  double register_p50_us = 0.0;
  double unregister_p50_us = 0.0;
  // The daemon's `status` after the churn.
  int64_t queries = 0, inserts = 0, removed = 0, engine_queries = 0;
};

struct Report {
  int queries = 0;
  int requests = 0;
  double register_ms = 0.0;
  LatencyStats daemon;
  LatencyStats armed;
  LatencyStats oneshot;
  double speedup_p50 = 0.0;
  double armed_overhead_p50 = 0.0;
  double wal_records = 0;
  double recovery_wal_ms = 0.0;
  double recovery_checkpoint_ms = 0.0;
  std::vector<GrowthPoint> growth;
  ChurnMix churn;
};

std::string MakeBenchDir() {
  char tmpl[] = "/tmp/floqbenchXXXXXX";
  char* dir = ::mkdtemp(tmpl);
  FLOQ_CHECK(dir != nullptr);
  return dir;
}

// Spins up an in-process daemon with `options`, registers the working
// set, measures the warm cached-contain loop, and shuts down. Fills
// register_ms on the first (baseline) run only.
LatencyStats MeasureDaemonContain(const DaemonOptions& options, int queries,
                                  int requests, double* register_ms) {
  std::thread daemon([options] {
    Status status = RunDaemon(options);
    FLOQ_CHECK(status.ok());
  });

  // Wait for the socket, then register the working set.
  int fd = ConnectWhenUp(options.socket_path);

  double start = NowMs();
  for (int i = 0; i < queries; ++i) {
    Json request = Json::Object();
    request.Set("cmd", Json::String("register"));
    request.Set("name", Json::String("q" + std::to_string(i)));
    request.Set("query", Json::String(QueryText(i)));
    Json reply = RoundTrip(fd, request);
    { Result<bool> ok = reply.GetBool("ok"); FLOQ_CHECK(ok.ok() && *ok); }
  }
  if (register_ms != nullptr) *register_ms = NowMs() - start;

  // Warm cached contain round-trips, cycling over related name pairs.
  std::vector<double> samples_us;
  samples_us.reserve(size_t(requests));
  start = NowMs();
  for (int i = 0; i < requests; ++i) {
    Json request = Json::Object();
    request.Set("cmd", Json::String("contain"));
    request.Set("lhs",
                Json::String("q" + std::to_string((3 * i + 1) % queries)));
    request.Set("rhs",
                Json::String("q" + std::to_string((3 * i) % queries)));
    double t0 = NowMs();
    Json reply = RoundTrip(fd, request);
    samples_us.push_back((NowMs() - t0) * 1000.0);
    { Result<bool> ok = reply.GetBool("ok"); FLOQ_CHECK(ok.ok() && *ok); }
    { Result<bool> cached = reply.GetBool("cached"); FLOQ_CHECK(cached.ok() && *cached); }
  }
  LatencyStats stats = Summarize(samples_us, NowMs() - start);

  Json shutdown = Json::Object();
  shutdown.Set("cmd", Json::String("shutdown"));
  (void)RoundTrip(fd, shutdown);
  ::close(fd);
  daemon.join();
  return stats;
}

// One daemon lifetime per repetition, keep the repetition with the best
// p50: min-of-N discards scheduler jitter (a background task landing on
// one run), which on small boxes dwarfs the effect the overhead gate is
// after. Both arms get the same treatment, so the ratio stays honest.
constexpr int kRepetitions = 3;

LatencyStats BestOf(const DaemonOptions& base_options, int queries,
                    int requests, double* register_ms) {
  LatencyStats best;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    DaemonOptions options = base_options;
    options.dir = MakeBenchDir();
    options.socket_path = options.dir + "/s.sock";
    if (!base_options.log_out.empty()) {
      options.log_out = options.dir + "/log.jsonl";
    }
    if (!base_options.trace_dir.empty()) {
      options.trace_dir = options.dir + "/traces";
    }
    LatencyStats stats = MeasureDaemonContain(
        options, queries, requests, rep == 0 ? register_ms : nullptr);
    if (rep == 0 || stats.p50_us < best.p50_us) best = stats;
  }
  return best;
}

void RunDaemonArms(Report& report) {
  DaemonOptions options;
  options.workers = 2;
  report.daemon =
      BestOf(options, report.queries, report.requests, &report.register_ms);

  // Armed arm: the same serving stack with the recommended production
  // observability config — structured log sink at info (per-request
  // request.done lines are debug-only), tracing sampled at 1/64, the
  // slow-request clock running. What an operated deployment pays; CI
  // gates the p50 ratio at 1.05x. trace_sample=1 (trace everything) is a
  // debugging posture and is deliberately not what this arm prices.
  DaemonOptions armed;
  armed.workers = 2;
  armed.log_out = "armed";  // non-empty: BestOf points it into each rep dir
  armed.log_level = "info";
  armed.trace_sample = 64;
  armed.trace_dir = "armed";
  report.armed = BestOf(armed, report.queries, report.requests, nullptr);
  report.armed_overhead_p50 = report.armed.p50_us / report.daemon.p50_us;

  // The daemon arms the process-wide metrics registry and leaves it on;
  // switch it back off so the one-shot baseline prices the pre-daemon
  // path, not the instrumented one.
  MetricsRegistry::set_enabled(false);

  // One-shot baseline: the same questions with no resident state.
  std::vector<double> samples_us;
  samples_us.reserve(size_t(report.requests));
  double start = NowMs();
  for (int i = 0; i < report.requests; ++i) {
    double t0 = NowMs();
    World world;
    Result<ConjunctiveQuery> lhs = flogic::ParseQuery(
        world, QueryText((3 * i + 1) % report.queries));
    Result<ConjunctiveQuery> rhs =
        flogic::ParseQuery(world, QueryText((3 * i) % report.queries));
    FLOQ_CHECK(lhs.ok() && rhs.ok());
    Result<ContainmentResult> verdict =
        CheckContainment(world, *lhs, *rhs, ContainmentOptions{});
    FLOQ_CHECK(verdict.ok());
    benchmark::DoNotOptimize(verdict->resolution);
    samples_us.push_back((NowMs() - t0) * 1000.0);
  }
  report.oneshot = Summarize(samples_us, NowMs() - start);
  report.speedup_p50 = report.oneshot.p50_us / report.daemon.p50_us;
}

void RunRecoveryArm(Report& report) {
  const std::string dir = MakeBenchDir();
  RegistryOptions options;
  options.dir = dir;
  options.checkpoint_every = 0;  // keep every mutation in the WAL
  {
    QueryRegistry registry(options);
    FLOQ_CHECK(registry.Open().ok());
    for (int i = 0; i < report.queries; ++i) {
      FLOQ_CHECK(
          registry.Register("q" + std::to_string(i), QueryText(i)).ok());
    }
    report.wal_records = double(registry.Snapshot()->wal_mutations);
  }
  {
    double start = NowMs();
    QueryRegistry recovered(options);
    FLOQ_CHECK(recovered.Open().ok());
    report.recovery_wal_ms = NowMs() - start;
    FLOQ_CHECK(recovered.Snapshot()->entries.size() ==
               size_t(report.queries));
    FLOQ_CHECK(recovered.Checkpoint().ok());
  }
  {
    double start = NowMs();
    QueryRegistry recovered(options);
    FLOQ_CHECK(recovered.Open().ok());
    report.recovery_checkpoint_ms = NowMs() - start;
    FLOQ_CHECK(recovered.Snapshot()->entries.size() ==
               size_t(report.queries));
  }
}

Json RegisterRequest(int i) {
  Json request = Json::Object();
  request.Set("cmd", Json::String("register"));
  request.Set("name", Json::String("q" + std::to_string(i)));
  request.Set("query", Json::String(QueryText(i)));
  return request;
}

// Round trip of one mutation, asserted ok; returns its microseconds.
double TimedMutation(int fd, const Json& request) {
  double t0 = NowMs();
  Json reply = RoundTrip(fd, request);
  double us = (NowMs() - t0) * 1000.0;
  Result<bool> ok = reply.GetBool("ok");
  FLOQ_CHECK(ok.ok() && *ok);
  return us;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Starts a daemon with the shipped options on a fresh directory and
// returns a connection to it.
int StartGrowthDaemon(std::thread* daemon) {
  DaemonOptions options;
  options.workers = 2;
  options.dir = MakeBenchDir();
  options.socket_path = options.dir + "/s.sock";
  *daemon = std::thread([options] { FLOQ_CHECK(RunDaemon(options).ok()); });
  return ConnectWhenUp(options.socket_path);
}

void StopDaemon(int fd, std::thread& daemon) {
  Json shutdown = Json::Object();
  shutdown.Set("cmd", Json::String("shutdown"));
  (void)RoundTrip(fd, shutdown);
  ::close(fd);
  daemon.join();
}

// Mean of histogram `name` over what was recorded between two snapshots.
double MeanBetween(const MetricsSnapshot& before, const MetricsSnapshot& after,
                   const std::string& name) {
  for (const auto& h : MetricsRegistry::SnapshotDelta(before, after).histograms) {
    if (h.name == name && h.count > 0) return double(h.sum) / double(h.count);
  }
  return 0.0;
}

void RunGrowthArm(Report& report) {
  // Growth: one registry filled to the largest size; each size reads the
  // p50 of the registrations that bring the registry up to it, and the
  // in-process daemon's histograms over the same registrations split them.
  const std::vector<int> sizes = SmallMode()
                                     ? std::vector<int>{25, 50, 100, 200}
                                     : std::vector<int>{100, 500, 1000,
                                                        2500, 5000};
  std::thread daemon;
  int fd = StartGrowthDaemon(&daemon);
  std::vector<double> register_us;
  MetricsSnapshot window_start;
  size_t next_size = 0;
  for (int i = 0; i < sizes.back(); ++i) {
    const int size = sizes[next_size];
    const int window = std::min(50, size / 2);
    if (i == size - window) window_start = MetricsRegistry::Get().Snapshot();
    register_us.push_back(TimedMutation(fd, RegisterRequest(i)));
    if (i + 1 == size) {
      const MetricsSnapshot window_end = MetricsRegistry::Get().Snapshot();
      GrowthPoint point;
      point.size = size;
      point.register_p50_us = Median(std::vector<double>(
          register_us.begin() + size - window, register_us.begin() + size));
      point.wal_fsync_us =
          MeanBetween(window_start, window_end, "serve.wal.fsync_us");
      point.insert_us =
          MeanBetween(window_start, window_end, "serve.registry.insert_us");
      point.publish_us =
          MeanBetween(window_start, window_end, "serve.registry.publish_us");
      report.growth.push_back(point);
      ++next_size;
    }
  }
  StopDaemon(fd, daemon);

  // Churn: unregister the oldest query and register a new one, at the
  // live size serve_write uses, through more queries than stay live.
  ChurnMix& churn = report.churn;
  churn.live = SmallMode() ? 100 : 1000;
  churn.cycles = SmallMode() ? 200 : 1000;
  fd = StartGrowthDaemon(&daemon);
  for (int i = 0; i < churn.live; ++i) {
    (void)TimedMutation(fd, RegisterRequest(i));
  }
  std::vector<double> churn_register_us, churn_unregister_us;
  for (int cycle = 0; cycle < churn.cycles; ++cycle) {
    Json unregister = Json::Object();
    unregister.Set("cmd", Json::String("unregister"));
    unregister.Set("name", Json::String("q" + std::to_string(cycle)));
    churn_unregister_us.push_back(TimedMutation(fd, unregister));
    churn_register_us.push_back(
        TimedMutation(fd, RegisterRequest(churn.live + cycle)));
  }
  churn.register_p50_us = Median(churn_register_us);
  churn.unregister_p50_us = Median(churn_unregister_us);
  Json status_request = Json::Object();
  status_request.Set("cmd", Json::String("status"));
  Json status = RoundTrip(fd, status_request);
  const Json* index = status.Find("index");
  FLOQ_CHECK(index != nullptr);
  churn.queries = *status.GetInt("queries");
  churn.inserts = *index->GetInt("inserts");
  churn.removed = *index->GetInt("removed");
  churn.engine_queries = *index->GetInt("engine_queries");
  StopDaemon(fd, daemon);
}

void PrintReport() {
  Report report;
  report.queries = SmallMode() ? 24 : 96;
  // The overhead gate divides two p50s, so both arms need enough samples
  // for a stable median even in small mode; cached contains cost ~10 us
  // each, so 2000 requests is still milliseconds of wall clock.
  report.requests = 2000;
  RunDaemonArms(report);
  RunRecoveryArm(report);
  RunGrowthArm(report);
  // The ROADMAP's target for a registration at the largest size: within
  // 2x of one at the smallest.
  const double growth_ratio = report.growth.back().register_p50_us /
                              report.growth.front().register_p50_us;

  std::printf("{\n");
  std::printf("  \"bench\": \"serve\",\n");
  std::printf("  \"small_mode\": %s,\n", SmallMode() ? "true" : "false");
  std::printf("  \"queries\": %d,\n", report.queries);
  std::printf("  \"register_ms\": %.2f,\n", report.register_ms);
  std::printf("  \"contain_requests\": %d,\n", report.requests);
  std::printf(
      "  \"daemon_contain\": {\"p50_us\": %.1f, \"p99_us\": %.1f, "
      "\"req_per_s\": %.0f},\n",
      report.daemon.p50_us, report.daemon.p99_us, report.daemon.req_per_s);
  std::printf(
      "  \"armed_contain\": {\"p50_us\": %.1f, \"p99_us\": %.1f, "
      "\"req_per_s\": %.0f},\n",
      report.armed.p50_us, report.armed.p99_us, report.armed.req_per_s);
  std::printf("  \"armed_overhead_p50\": %.3f,\n", report.armed_overhead_p50);
  std::printf(
      "  \"oneshot_contain\": {\"p50_us\": %.1f, \"p99_us\": %.1f, "
      "\"req_per_s\": %.0f},\n",
      report.oneshot.p50_us, report.oneshot.p99_us,
      report.oneshot.req_per_s);
  std::printf("  \"speedup_p50\": %.2f,\n", report.speedup_p50);
  std::printf(
      "  \"recovery\": {\"wal_records\": %.0f, \"wal_open_ms\": %.2f, "
      "\"checkpoint_open_ms\": %.2f},\n",
      report.wal_records, report.recovery_wal_ms,
      report.recovery_checkpoint_ms);
  std::printf("  \"growth\": {\"register_p50_us\": {");
  for (size_t k = 0; k < report.growth.size(); ++k) {
    std::printf("%s\"%d\": %.1f", k == 0 ? "" : ", ", report.growth[k].size,
                report.growth[k].register_p50_us);
  }
  std::printf("},\n    \"split_mean_us\": {");
  for (size_t k = 0; k < report.growth.size(); ++k) {
    const GrowthPoint& point = report.growth[k];
    std::printf(
        "%s\"%d\": {\"wal_fsync\": %.1f, \"insert\": %.1f, "
        "\"publish\": %.1f}",
        k == 0 ? "" : ", ", point.size, point.wal_fsync_us, point.insert_us,
        point.publish_us);
  }
  std::printf(
      "},\n    \"ratio_largest_to_smallest\": %.2f, \"ratio_target\": 2.0, "
      "\"ratio_target_met\": %s,\n",
      growth_ratio, growth_ratio <= 2.0 ? "true" : "false");
  const ChurnMix& churn = report.churn;
  std::printf(
      "    \"churn\": {\"live\": %d, \"cycles\": %d, "
      "\"register_p50_us\": %.1f, \"unregister_p50_us\": %.1f, "
      "\"queries\": %lld, \"inserts\": %lld, \"removed\": %lld, "
      "\"engine_queries\": %lld}}\n",
      churn.live, churn.cycles, churn.register_p50_us,
      churn.unregister_p50_us, static_cast<long long>(churn.queries),
      static_cast<long long>(churn.inserts),
      static_cast<long long>(churn.removed),
      static_cast<long long>(churn.engine_queries));
  std::printf("}\n");
}

// Interactive arm: one cached contain round-trip per iteration against a
// resident daemon (spun up once per benchmark run).
void BM_DaemonCachedContain(benchmark::State& state) {
  const std::string dir = MakeBenchDir();
  DaemonOptions options;
  options.dir = dir;
  options.socket_path = dir + "/s.sock";
  std::thread daemon([options] { (void)RunDaemon(options); });
  int fd = ConnectWhenUp(options.socket_path);
  for (int i = 0; i < 8; ++i) {
    Json request = Json::Object();
    request.Set("cmd", Json::String("register"));
    request.Set("name", Json::String("q" + std::to_string(i)));
    request.Set("query", Json::String(QueryText(i)));
    (void)RoundTrip(fd, request);
  }
  Json request = Json::Object();
  request.Set("cmd", Json::String("contain"));
  request.Set("lhs", Json::String("q1"));
  request.Set("rhs", Json::String("q0"));
  for (auto _ : state) {
    Json reply = RoundTrip(fd, request);
    benchmark::DoNotOptimize(reply);
  }
  Json shutdown = Json::Object();
  shutdown.Set("cmd", Json::String("shutdown"));
  (void)RoundTrip(fd, shutdown);
  ::close(fd);
  daemon.join();
}
BENCHMARK(BM_DaemonCachedContain)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
