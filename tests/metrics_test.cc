#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "chase/chase.h"
#include "containment/containment.h"
#include "query/parser.h"
#include "term/world.h"
#include "util/metrics.h"
#include "util/parallel_for.h"
#include "util/trace.h"

namespace floq {
namespace {

ConjunctiveQuery Q(World& world, const char* text) {
  Result<ConjunctiveQuery> q = ParseQuery(world, text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

// The registry is process-wide, so each test starts from zeroed
// instruments and leaves collection disabled for its neighbours.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Get().Reset();
    MetricsRegistry::set_enabled(true);
  }
  void TearDown() override {
    MetricsRegistry::set_enabled(false);
    MetricsRegistry::Get().Reset();
  }
};

// ---- a tiny JSON reader (objects/arrays/strings/numbers) ---------------
//
// Enough of RFC 8259 to parse the exports back: the tests assert on the
// round-trip, not just on substrings, so malformed output fails loudly.

struct JsonValue;
using JsonObject = std::map<std::string, std::shared_ptr<JsonValue>>;
using JsonArray = std::vector<std::shared_ptr<JsonValue>>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::shared_ptr<JsonValue> Parse() {
    std::shared_ptr<JsonValue> value = ParseValue();
    SkipSpace();
    ok_ = ok_ && pos_ == text_.size();
    return ok_ ? value : nullptr;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::shared_ptr<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail();
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  std::shared_ptr<JsonValue> ParseObject() {
    if (!Consume('{')) return Fail();
    JsonObject object;
    SkipSpace();
    if (Consume('}')) return Make(std::move(object));
    for (;;) {
      std::shared_ptr<JsonValue> key = ParseString();
      if (key == nullptr || !Consume(':')) return Fail();
      std::shared_ptr<JsonValue> value = ParseValue();
      if (value == nullptr) return Fail();
      object[std::get<std::string>(key->value)] = value;
      if (Consume(',')) continue;
      if (Consume('}')) return Make(std::move(object));
      return Fail();
    }
  }

  std::shared_ptr<JsonValue> ParseArray() {
    if (!Consume('[')) return Fail();
    JsonArray array;
    SkipSpace();
    if (Consume(']')) return Make(std::move(array));
    for (;;) {
      std::shared_ptr<JsonValue> value = ParseValue();
      if (value == nullptr) return Fail();
      array.push_back(value);
      if (Consume(',')) continue;
      if (Consume(']')) return Make(std::move(array));
      return Fail();
    }
  }

  std::shared_ptr<JsonValue> ParseString() {
    if (!Consume('"')) return Fail();
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail();
        char escape = text_[pos_++];
        switch (escape) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) return Fail();
            pos_ += 4;  // tests never assert on control characters
            out += '?';
            break;
          default: out += escape;
        }
      } else {
        out += c;
      }
    }
    if (!Consume('"')) return Fail();
    return Make(std::move(out));
  }

  std::shared_ptr<JsonValue> ParseBool() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return Make(true);
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return Make(false);
    }
    return Fail();
  }

  std::shared_ptr<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return Make(nullptr);
    }
    return Fail();
  }

  std::shared_ptr<JsonValue> ParseNumber() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Fail();
    return Make(std::stod(text_.substr(start, pos_ - start)));
  }

  template <typename T>
  std::shared_ptr<JsonValue> Make(T&& value) {
    auto out = std::make_shared<JsonValue>();
    out->value = std::forward<T>(value);
    return out;
  }

  std::shared_ptr<JsonValue> Fail() {
    ok_ = false;
    pos_ = text_.size();
    return nullptr;
  }

  const std::string& text_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---- Counter ----------------------------------------------------------

TEST_F(MetricsTest, CounterStartsAtZeroAndAccumulates) {
  Counter& counter = MetricsRegistry::Get().counter("test.counter");
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST_F(MetricsTest, CounterNameIsStable) {
  Counter& a = MetricsRegistry::Get().counter("test.same");
  Counter& b = MetricsRegistry::Get().counter("test.same");
  EXPECT_EQ(&a, &b);
}

// The TSan target of the suite: many threads hammer one counter (and one
// histogram) while a reader thread snapshots concurrently; after the join
// the totals must be exact.
TEST_F(MetricsTest, ConcurrentIncrementsAreExactAfterJoin) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  Counter& counter = MetricsRegistry::Get().counter("test.concurrent");
  Histogram& histogram =
      MetricsRegistry::Get().histogram("test.concurrent_histogram");

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Concurrent snapshots must be torn-free (each shard read is atomic)
    // and monotone in aggregate; mainly this exercises TSan.
    uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snapshot = MetricsRegistry::Get().Snapshot();
      for (const auto& c : snapshot.counters) {
        if (c.name == "test.concurrent") {
          EXPECT_GE(c.value, last);
          last = c.value;
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add();
        histogram.Record(uint64_t(i));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(counter.Value(), uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(histogram.Count(), uint64_t(kThreads) * kPerThread);
  // Sum of 0..kPerThread-1, kThreads times over.
  EXPECT_EQ(histogram.Sum(), uint64_t(kThreads) * kPerThread *
                                 (kPerThread - 1) / 2);
}

// ---- Histogram buckets ------------------------------------------------

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  // Bucket 0 holds the value 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(7), 3);
  EXPECT_EQ(Histogram::BucketOf(8), 4);
  EXPECT_EQ(Histogram::BucketOf(1023), 10);
  EXPECT_EQ(Histogram::BucketOf(1024), 11);
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), Histogram::kBuckets - 1);

  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 2u);
  EXPECT_EQ(Histogram::BucketLowerBound(3), 4u);
  EXPECT_EQ(Histogram::BucketLowerBound(11), 1024u);

  // Every value lands in the bucket whose range contains it.
  for (uint64_t value : {0ull, 1ull, 2ull, 3ull, 5ull, 100ull, 4096ull}) {
    int bucket = Histogram::BucketOf(value);
    EXPECT_GE(value, Histogram::BucketLowerBound(bucket)) << value;
    if (bucket + 1 < Histogram::kBuckets) {
      EXPECT_LT(value, Histogram::BucketLowerBound(bucket + 1)) << value;
    }
  }
}

TEST_F(MetricsTest, HistogramRecordFillsBuckets) {
  Histogram& histogram = MetricsRegistry::Get().histogram("test.buckets");
  histogram.Record(0);
  histogram.Record(1);
  histogram.Record(2);
  histogram.Record(3);
  auto buckets = histogram.Buckets();
  EXPECT_EQ(buckets[0], 1u);  // value 0
  EXPECT_EQ(buckets[1], 1u);  // value 1
  EXPECT_EQ(buckets[2], 2u);  // values 2, 3
  EXPECT_EQ(histogram.Count(), 4u);
  EXPECT_EQ(histogram.Sum(), 6u);
}

// ---- disabled-by-default gating ---------------------------------------

TEST(MetricsGatingTest, DisabledRegistryCollectsNothingFromChase) {
  MetricsRegistry::set_enabled(false);
  MetricsRegistry::Get().Reset();

  World world;
  ConjunctiveQuery q = Q(world, "q(A) :- type(T, A, T2), sub(T2, T3).");
  ChaseResult chase = ChaseQuery(world, q);
  EXPECT_GT(chase.size(), 0u);

  MetricsSnapshot snapshot = MetricsRegistry::Get().Snapshot();
  for (const auto& counter : snapshot.counters) {
    EXPECT_EQ(counter.value, 0u) << counter.name;
  }
}

// ---- instrumentation plumbing -----------------------------------------

TEST_F(MetricsTest, ContainmentCheckPopulatesChaseAndHomSeries) {
  World world;
  ConjunctiveQuery q1 =
      Q(world, "q(A, B) :- type(T1, A, T2), sub(T2, T3), type(T3, B, G).");
  ConjunctiveQuery q2 =
      Q(world, "qq(A, B) :- type(T1, A, T2), type(T2, B, G).");
  auto result = CheckContainment(world, q1, q2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->contained);
  EXPECT_GE(result->chase_ms, 0.0);
  EXPECT_GE(result->hom_ms, 0.0);

  MetricsSnapshot snapshot = MetricsRegistry::Get().Snapshot();
  std::map<std::string, uint64_t> counters;
  for (const auto& c : snapshot.counters) counters[c.name] = c.value;

  EXPECT_EQ(counters["chase.runs"], 1u);
  // The pair.fl-style containment derives its witness via rho_7/rho_8.
  EXPECT_GT(counters["chase.rule.rho7"] + counters["chase.rule.rho8"], 0u);
  // All twelve per-rule series exist even when they never fired.
  for (int k = 1; k <= 12; ++k) {
    EXPECT_TRUE(counters.count("chase.rule.rho" + std::to_string(k))) << k;
  }
  EXPECT_GT(counters["match.kernel_dispatch"], 0u);
  EXPECT_GT(counters["hom.nodes_visited"], 0u);
  EXPECT_GT(counters["hom.matches_found"], 0u);

  bool found_level = false;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "chase.max_level") {
      found_level = true;
      EXPECT_GE(h.count, 1u);
    }
  }
  EXPECT_TRUE(found_level);
}

// ---- JSON exports -----------------------------------------------------

TEST_F(MetricsTest, MetricsJsonRoundTrips) {
  MetricsRegistry::Get().counter("test.json\"escape").Add(3);
  MetricsRegistry::Get().histogram("test.json_histogram").Record(5);

  std::string json = MetricsRegistry::Get().ToJson();
  std::shared_ptr<JsonValue> root = JsonParser(json).Parse();
  ASSERT_NE(root, nullptr) << json;

  const JsonObject& top = std::get<JsonObject>(root->value);
  ASSERT_TRUE(top.count("counters"));
  ASSERT_TRUE(top.count("histograms"));
  const JsonObject& counters = std::get<JsonObject>(top.at("counters")->value);
  ASSERT_TRUE(counters.count("test.json\"escape"));
  EXPECT_EQ(std::get<double>(counters.at("test.json\"escape")->value), 3.0);

  const JsonObject& histograms =
      std::get<JsonObject>(top.at("histograms")->value);
  ASSERT_TRUE(histograms.count("test.json_histogram"));
  const JsonObject& histogram =
      std::get<JsonObject>(histograms.at("test.json_histogram")->value);
  EXPECT_EQ(std::get<double>(histogram.at("count")->value), 1.0);
  EXPECT_EQ(std::get<double>(histogram.at("sum")->value), 5.0);
  const JsonArray& buckets =
      std::get<JsonArray>(histogram.at("buckets")->value);
  ASSERT_EQ(buckets.size(), 1u);  // sparse: only the populated bucket
  const JsonArray& entry = std::get<JsonArray>(buckets[0]->value);
  EXPECT_EQ(std::get<double>(entry[0]->value), 4.0);  // lower bound of [4,8)
  EXPECT_EQ(std::get<double>(entry[1]->value), 1.0);
}

TEST_F(MetricsTest, ToJsonIsCanonicalWithNoTrailingWhitespace) {
  // Empty registry and populated registry alike: the snapshot ends at the
  // closing brace, so embedders (the daemon's `metrics` reply, lint
  // --json) splice it in without trimming.
  std::string empty = MetricsRegistry::Get().ToJson();
  ASSERT_FALSE(empty.empty());
  EXPECT_EQ(empty.back(), '}');

  MetricsRegistry::Get().counter("test.canonical").Add(1);
  MetricsRegistry::Get().gauge("test.canonical_gauge").Set(2);
  MetricsRegistry::Get().histogram("test.canonical_histogram").Record(3);
  std::string json = MetricsRegistry::Get().ToJson();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find_last_not_of(" \t\r\n"), json.size() - 1);
  ASSERT_NE(JsonParser(json).Parse(), nullptr) << json;
}

// ---- Gauge ------------------------------------------------------------

TEST_F(MetricsTest, GaugeSetAddResetAndExport) {
  Gauge& gauge = MetricsRegistry::Get().gauge("test.gauge");
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Add(-10);
  EXPECT_EQ(gauge.Value(), -3);  // gauges go down as well as up
  Gauge& same = MetricsRegistry::Get().gauge("test.gauge");
  EXPECT_EQ(&same, &gauge);

  std::string json = MetricsRegistry::Get().ToJson();
  std::shared_ptr<JsonValue> root = JsonParser(json).Parse();
  ASSERT_NE(root, nullptr) << json;
  const JsonObject& top = std::get<JsonObject>(root->value);
  ASSERT_TRUE(top.count("gauges"));
  const JsonObject& gauges = std::get<JsonObject>(top.at("gauges")->value);
  ASSERT_TRUE(gauges.count("test.gauge"));
  EXPECT_EQ(std::get<double>(gauges.at("test.gauge")->value), -3.0);

  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

// ---- SnapshotDelta ----------------------------------------------------

TEST_F(MetricsTest, SnapshotDeltaSubtractsCountersAndHistograms) {
  Counter& counter = MetricsRegistry::Get().counter("test.delta_counter");
  Gauge& gauge = MetricsRegistry::Get().gauge("test.delta_gauge");
  Histogram& histogram =
      MetricsRegistry::Get().histogram("test.delta_histogram");

  counter.Add(10);
  gauge.Set(100);
  histogram.Record(1);
  histogram.Record(1000);
  MetricsSnapshot before = MetricsRegistry::Get().Snapshot();

  counter.Add(5);
  gauge.Set(42);
  histogram.Record(1);
  MetricsRegistry::Get().counter("test.delta_fresh").Add(3);
  MetricsSnapshot after = MetricsRegistry::Get().Snapshot();

  MetricsSnapshot delta = MetricsRegistry::SnapshotDelta(before, after);
  std::map<std::string, uint64_t> counters;
  for (const auto& c : delta.counters) counters[c.name] = c.value;
  EXPECT_EQ(counters["test.delta_counter"], 5u);
  // An instrument born between the snapshots passes through unchanged.
  EXPECT_EQ(counters["test.delta_fresh"], 3u);
  // Gauges are point-in-time: the delta carries `after`'s value verbatim.
  for (const auto& g : delta.gauges) {
    if (g.name == "test.delta_gauge") EXPECT_EQ(g.value, 42);
  }
  for (const auto& h : delta.histograms) {
    if (h.name != "test.delta_histogram") continue;
    EXPECT_EQ(h.count, 1u);
    EXPECT_EQ(h.sum, 1u);
    EXPECT_EQ(h.buckets[1], 1u);   // the new Record(1)
    EXPECT_EQ(h.buckets[10], 0u);  // the old Record(1000) subtracted out
  }

  // A Reset between snapshots clamps at zero instead of underflowing.
  MetricsRegistry::Get().Reset();
  counter.Add(2);
  MetricsSnapshot reset_after = MetricsRegistry::Get().Snapshot();
  MetricsSnapshot clamped = MetricsRegistry::SnapshotDelta(after, reset_after);
  for (const auto& c : clamped.counters) {
    if (c.name == "test.delta_counter") EXPECT_EQ(c.value, 0u);
  }
}

// What `floq top` leans on: deltas between snapshots taken around a
// concurrent burst are exact once the writers have joined.
TEST_F(MetricsTest, SnapshotDeltaIsExactAroundConcurrentBurst) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;
  Counter& counter = MetricsRegistry::Get().counter("test.delta_burst");
  Histogram& histogram =
      MetricsRegistry::Get().histogram("test.delta_burst_histogram");
  counter.Add(123);  // pre-existing baseline the delta must remove
  histogram.Record(9);

  MetricsSnapshot before = MetricsRegistry::Get().Snapshot();
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add();
        histogram.Record(uint64_t(i));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  MetricsSnapshot after = MetricsRegistry::Get().Snapshot();

  MetricsSnapshot delta = MetricsRegistry::SnapshotDelta(before, after);
  for (const auto& c : delta.counters) {
    if (c.name == "test.delta_burst") {
      EXPECT_EQ(c.value, uint64_t(kThreads) * kPerThread);
    }
  }
  for (const auto& h : delta.histograms) {
    if (h.name == "test.delta_burst_histogram") {
      EXPECT_EQ(h.count, uint64_t(kThreads) * kPerThread);
      EXPECT_EQ(h.sum, uint64_t(kThreads) * kPerThread * (kPerThread - 1) / 2);
    }
  }
}

// ---- Prometheus exposition --------------------------------------------

TEST_F(MetricsTest, PrometheusExpositionMatchesGoldenBlocks) {
  MetricsRegistry::Get().counter("test.prom.requests").Add(42);
  MetricsRegistry::Get().gauge("test.prom.queue.depth").Set(-3);
  Histogram& histogram = MetricsRegistry::Get().histogram("test.prom.lat_us");
  histogram.Record(0);
  histogram.Record(1);
  histogram.Record(3);
  histogram.Record(1000);

  std::string exposition = MetricsRegistry::Get().Snapshot().ToPrometheus();

  // Golden per-instrument blocks: name sanitization, the _total suffix,
  // and the log2 -> cumulative-le mapping are all load-bearing for stock
  // scrapers, so they are asserted byte-for-byte.
  const std::string counter_block =
      "# HELP floq_test_prom_requests_total floq counter test.prom.requests\n"
      "# TYPE floq_test_prom_requests_total counter\n"
      "floq_test_prom_requests_total 42\n";
  EXPECT_NE(exposition.find(counter_block), std::string::npos) << exposition;

  const std::string gauge_block =
      "# HELP floq_test_prom_queue_depth floq gauge test.prom.queue.depth\n"
      "# TYPE floq_test_prom_queue_depth gauge\n"
      "floq_test_prom_queue_depth -3\n";
  EXPECT_NE(exposition.find(gauge_block), std::string::npos) << exposition;

  // Values 0, 1, 3, 1000 land in log2 buckets 0, 1, 2, 10; cumulative
  // counts are emitted for every bucket up to the highest populated one,
  // with le = the bucket's inclusive upper bound 2^i - 1.
  const std::string histogram_block =
      "# HELP floq_test_prom_lat_us floq log2 histogram test.prom.lat_us\n"
      "# TYPE floq_test_prom_lat_us histogram\n"
      "floq_test_prom_lat_us_bucket{le=\"0\"} 1\n"
      "floq_test_prom_lat_us_bucket{le=\"1\"} 2\n"
      "floq_test_prom_lat_us_bucket{le=\"3\"} 3\n"
      "floq_test_prom_lat_us_bucket{le=\"7\"} 3\n"
      "floq_test_prom_lat_us_bucket{le=\"15\"} 3\n"
      "floq_test_prom_lat_us_bucket{le=\"31\"} 3\n"
      "floq_test_prom_lat_us_bucket{le=\"63\"} 3\n"
      "floq_test_prom_lat_us_bucket{le=\"127\"} 3\n"
      "floq_test_prom_lat_us_bucket{le=\"255\"} 3\n"
      "floq_test_prom_lat_us_bucket{le=\"511\"} 3\n"
      "floq_test_prom_lat_us_bucket{le=\"1023\"} 4\n"
      "floq_test_prom_lat_us_bucket{le=\"+Inf\"} 4\n"
      "floq_test_prom_lat_us_sum 1004\n"
      "floq_test_prom_lat_us_count 4\n";
  EXPECT_NE(exposition.find(histogram_block), std::string::npos) << exposition;
}

// Parse the exposition back and check the histogram contract every
// scraper relies on: le labels strictly increase, cumulative bucket
// counts never decrease, and the +Inf bucket equals _count.
TEST_F(MetricsTest, PrometheusHistogramsAreCumulativeAndMonotone) {
  Histogram& a = MetricsRegistry::Get().histogram("test.mono.a_us");
  for (uint64_t v : {0ull, 2ull, 2ull, 70ull, 4096ull, 1ull << 40}) {
    a.Record(v);
  }
  MetricsRegistry::Get().histogram("test.mono.empty_us");  // no samples

  std::string exposition = MetricsRegistry::Get().Snapshot().ToPrometheus();
  std::map<std::string, std::vector<std::pair<double, uint64_t>>> series;
  std::map<std::string, uint64_t> totals;
  size_t start = 0;
  while (start < exposition.size()) {
    size_t end = exposition.find('\n', start);
    if (end == std::string::npos) end = exposition.size();
    std::string line = exposition.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    uint64_t value = std::strtoull(line.c_str() + space + 1, nullptr, 10);
    size_t brace = name.find("_bucket{le=\"");
    if (brace != std::string::npos) {
      std::string le = name.substr(brace + 12);
      le.pop_back();  // trailing "}
      le.pop_back();
      double bound = le == "+Inf" ? std::numeric_limits<double>::infinity()
                                  : std::stod(le);
      series[name.substr(0, brace)].emplace_back(bound, value);
    } else {
      totals[name] = value;
    }
  }

  ASSERT_TRUE(series.count("floq_test_mono_a_us"));
  for (const auto& [name, buckets] : series) {
    ASSERT_FALSE(buckets.empty()) << name;
    for (size_t i = 1; i < buckets.size(); ++i) {
      EXPECT_GT(buckets[i].first, buckets[i - 1].first) << name;
      EXPECT_GE(buckets[i].second, buckets[i - 1].second) << name;
    }
    EXPECT_TRUE(std::isinf(buckets.back().first)) << name;
    ASSERT_TRUE(totals.count(name + "_count")) << name;
    EXPECT_EQ(buckets.back().second, totals[name + "_count"]) << name;
  }
  // The empty histogram still exposes +Inf/_sum/_count so the series
  // exists from the first scrape.
  ASSERT_TRUE(series.count("floq_test_mono_empty_us"));
  EXPECT_EQ(series["floq_test_mono_empty_us"].back().second, 0u);
}

// ---- quantiles --------------------------------------------------------

TEST_F(MetricsTest, HistogramQuantileWalksBucketUpperBounds) {
  MetricsSnapshot::HistogramValue empty;
  EXPECT_EQ(HistogramQuantile(empty, 0.5), 0.0);

  Histogram& histogram = MetricsRegistry::Get().histogram("test.quantile");
  histogram.Record(1);
  histogram.Record(2);
  histogram.Record(4);
  histogram.Record(1000);
  MetricsSnapshot snapshot = MetricsRegistry::Get().Snapshot();
  const MetricsSnapshot::HistogramValue* h = nullptr;
  for (const auto& candidate : snapshot.histograms) {
    if (candidate.name == "test.quantile") h = &candidate;
  }
  ASSERT_NE(h, nullptr);
  // Quantiles resolve to the inclusive upper bound of the target bucket:
  // buckets are [2,4) -> 3, [4,8) -> 7, [512,1024) -> 1023.
  EXPECT_EQ(HistogramQuantile(*h, 0.0), 1.0);
  EXPECT_EQ(HistogramQuantile(*h, 0.5), 3.0);
  EXPECT_EQ(HistogramQuantile(*h, 0.75), 7.0);
  EXPECT_EQ(HistogramQuantile(*h, 1.0), 1023.0);
}

// ---- trace suppression (request sampling) -----------------------------

TEST(TraceTest, TraceSuppressMakesSpansNoOps) {
  TraceSession session;
  { TraceSpan kept("suppress.kept"); }
  {
    TraceSuppress suppress;
    TraceSpan dropped("suppress.dropped");
    EXPECT_FALSE(dropped.active());
    {
      TraceSuppress nested;  // scopes nest; spans stay suppressed
      TraceSpan also_dropped("suppress.nested");
      EXPECT_FALSE(also_dropped.active());
    }
    TraceSpan still_dropped("suppress.still");
    EXPECT_FALSE(still_dropped.active());
  }
  { TraceSpan after("suppress.after"); }
  EXPECT_EQ(session.size(), 2u);
  std::string json = session.ToJson();
  EXPECT_NE(json.find("suppress.kept"), std::string::npos);
  EXPECT_NE(json.find("suppress.after"), std::string::npos);
  EXPECT_EQ(json.find("suppress.dropped"), std::string::npos);
}

// ---- tracing ----------------------------------------------------------

TEST(TraceTest, NoSessionMeansInactiveSpans) {
  ASSERT_EQ(TraceSession::Current(), nullptr);
  TraceSpan span("orphan");
  EXPECT_FALSE(span.active());
  span.Arg("ignored", int64_t{1});  // must be a harmless no-op
}

TEST(TraceTest, SpansRecordAndExportChromeJson) {
  std::string json;
  {
    TraceSession session;
    ASSERT_EQ(TraceSession::Current(), &session);
    {
      TraceSpan span("unit.test_span");
      span.Arg("rule", int64_t{7}).Arg("phase", "verify");
    }
    { TraceSpan inner("unit.second_span"); }
    EXPECT_EQ(session.size(), 2u);
    EXPECT_EQ(session.dropped(), 0u);
    json = session.ToJson();
  }
  EXPECT_EQ(TraceSession::Current(), nullptr);

  std::shared_ptr<JsonValue> root = JsonParser(json).Parse();
  ASSERT_NE(root, nullptr) << json;
  const JsonObject& top = std::get<JsonObject>(root->value);
  ASSERT_TRUE(top.count("traceEvents"));
  const JsonArray& events = std::get<JsonArray>(top.at("traceEvents")->value);
  ASSERT_EQ(events.size(), 2u);

  const JsonObject& first = std::get<JsonObject>(events[0]->value);
  EXPECT_EQ(std::get<std::string>(first.at("ph")->value), "X");
  EXPECT_EQ(std::get<std::string>(first.at("name")->value),
            "unit.test_span");
  EXPECT_GE(std::get<double>(first.at("dur")->value), 0.0);
  const JsonObject& args = std::get<JsonObject>(first.at("args")->value);
  EXPECT_EQ(std::get<double>(args.at("rule")->value), 7.0);
  EXPECT_EQ(std::get<std::string>(args.at("phase")->value), "verify");
}

TEST(TraceTest, RingBufferDropsOldestAndCounts) {
  TraceSession session(/*events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceSpan span("ring.span");
  }
  EXPECT_EQ(session.size(), 4u);
  EXPECT_EQ(session.dropped(), 6u);
  std::shared_ptr<JsonValue> root = JsonParser(session.ToJson()).Parse();
  ASSERT_NE(root, nullptr);
  const JsonObject& top = std::get<JsonObject>(root->value);
  EXPECT_EQ(std::get<JsonArray>(top.at("traceEvents")->value).size(), 4u);
}

// ParallelFor starts fresh threads on every call. Each exiting thread
// hands its ring back, so repeated fan-out records under as many tids as
// ran at once instead of allocating a ring per thread it ever started.
TEST(TraceTest, FanOutThreadsReuseHandedBackRings) {
  TraceSession session;
  for (int call = 0; call < 50; ++call) {
    ParallelFor(4, 64, [](size_t i) {
      TraceSpan span("fanout.item");
      span.Arg("i", int64_t(i));
    });
  }
  EXPECT_EQ(session.size(), 50u * 64u);
  EXPECT_EQ(session.dropped(), 0u);
  std::shared_ptr<JsonValue> root = JsonParser(session.ToJson()).Parse();
  ASSERT_NE(root, nullptr);
  const JsonObject& top = std::get<JsonObject>(root->value);
  std::set<double> tids;
  for (const auto& event : std::get<JsonArray>(top.at("traceEvents")->value)) {
    tids.insert(std::get<double>(
        std::get<JsonObject>(event->value).at("tid")->value));
  }
  EXPECT_LE(tids.size(), 4u);
}

TEST(TraceTest, ChaseEmitsSpansWhenSessionInstalled) {
  World world;
  ConjunctiveQuery q = Q(world, "q(A) :- type(T, A, T2), sub(T2, T3).");

  TraceSession session;
  ChaseResult chase = ChaseQuery(world, q);
  EXPECT_GT(chase.size(), 0u);
  EXPECT_GE(session.size(), 1u);
  std::string json = session.ToJson();
  EXPECT_NE(json.find("chase.run"), std::string::npos);
  ASSERT_NE(JsonParser(json).Parse(), nullptr) << json;
}

}  // namespace
}  // namespace floq
