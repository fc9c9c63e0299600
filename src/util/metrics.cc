#include "util/metrics.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "util/json.h"
#include "util/strings.h"

namespace floq {

namespace {

// Round-robin shard assignment: each thread draws one index for its whole
// lifetime, so a fixed thread pool spreads evenly and a single-threaded
// process always hits slot 0 (cache-friendly).
size_t NextThreadSlot() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace

size_t Counter::ShardIndex() { return NextThreadSlot() % kShards; }
size_t Histogram::ShardIndex() { return NextThreadSlot() % kShards; }

int Histogram::BucketOf(uint64_t value) {
  if (value == 0) return 0;
  int width = std::bit_width(value);
  return width < kBuckets ? width : kBuckets - 1;
}

uint64_t Histogram::BucketLowerBound(int bucket) {
  if (bucket <= 0) return 0;
  return uint64_t{1} << (bucket - 1);
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::Sum() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::array<uint64_t, Histogram::kBuckets> Histogram::Buckets() const {
  std::array<uint64_t, kBuckets> out{};
  for (const Shard& shard : shards_) {
    for (int i = 0; i < kBuckets; ++i) {
      out[size_t(i)] += shard.buckets[size_t(i)].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
  }
}

std::atomic<bool> MetricsRegistry::enabled_{false};

// Instrument storage: deques never move elements, so the references the
// instrumentation sites cache in statics stay valid forever. The maps are
// only touched under the mutex (creation and snapshots).
struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  std::deque<Counter> counters;
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  std::unordered_map<std::string, Counter*> counter_by_name;
  std::unordered_map<std::string, Gauge*> gauge_by_name;
  std::unordered_map<std::string, Histogram*> histogram_by_name;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl();  // leaked: outlives static destructors
  return *impl;
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  auto it = i.counter_by_name.find(std::string(name));
  if (it != i.counter_by_name.end()) return *it->second;
  i.counters.emplace_back();
  Counter* c = &i.counters.back();
  i.counter_by_name.emplace(std::string(name), c);
  return *c;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  auto it = i.gauge_by_name.find(std::string(name));
  if (it != i.gauge_by_name.end()) return *it->second;
  i.gauges.emplace_back();
  Gauge* g = &i.gauges.back();
  i.gauge_by_name.emplace(std::string(name), g);
  return *g;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  auto it = i.histogram_by_name.find(std::string(name));
  if (it != i.histogram_by_name.end()) return *it->second;
  i.histograms.emplace_back();
  Histogram* h = &i.histograms.back();
  i.histogram_by_name.emplace(std::string(name), h);
  return *h;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  Impl& i = impl();
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(i.mu);
  snapshot.counters.reserve(i.counter_by_name.size());
  for (const auto& [name, counter] : i.counter_by_name) {
    snapshot.counters.push_back({name, counter->Value()});
  }
  snapshot.gauges.reserve(i.gauge_by_name.size());
  for (const auto& [name, gauge] : i.gauge_by_name) {
    snapshot.gauges.push_back({name, gauge->Value()});
  }
  snapshot.histograms.reserve(i.histogram_by_name.size());
  for (const auto& [name, histogram] : i.histogram_by_name) {
    MetricsSnapshot::HistogramValue value;
    value.name = name;
    value.count = histogram->Count();
    value.sum = histogram->Sum();
    value.buckets = histogram->Buckets();
    snapshot.histograms.push_back(std::move(value));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_name);
  std::sort(snapshot.histograms.begin(), snapshot.histograms.end(), by_name);
  return snapshot;
}

MetricsSnapshot MetricsRegistry::SnapshotDelta(const MetricsSnapshot& before,
                                               const MetricsSnapshot& after) {
  MetricsSnapshot delta = after;  // gauges (and names-only-in-after) as-is
  for (auto& counter : delta.counters) {
    for (const auto& prior : before.counters) {
      if (prior.name != counter.name) continue;
      counter.value -= std::min(prior.value, counter.value);
      break;
    }
  }
  for (auto& histogram : delta.histograms) {
    for (const auto& prior : before.histograms) {
      if (prior.name != histogram.name) continue;
      histogram.count -= std::min(prior.count, histogram.count);
      histogram.sum -= std::min(prior.sum, histogram.sum);
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        uint64_t& cell = histogram.buckets[size_t(b)];
        cell -= std::min(prior.buckets[size_t(b)], cell);
      }
      break;
    }
  }
  return delta;
}

void MetricsRegistry::Reset() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  for (Counter& counter : i.counters) counter.Reset();
  for (Gauge& gauge : i.gauges) gauge.Reset();
  for (Histogram& histogram : i.histograms) histogram.Reset();
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  // Metric names are dotted identifiers, but escape defensively anyway so
  // the export is valid JSON for any registered name.
  for (size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(counters[i].name, &out);
    out += StrCat(": ", counters[i].value);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(gauges[i].name, &out);
    out += StrCat(": ", gauges[i].value);
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramValue& h = histograms[i];
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(h.name, &out);
    out += StrCat(": {\"count\": ", h.count, ", \"sum\": ", h.sum,
                  ", \"buckets\": [");
    bool first = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (h.buckets[size_t(b)] == 0) continue;
      out += StrCat(first ? "" : ", ", "[", Histogram::BucketLowerBound(b),
                    ", ", h.buckets[size_t(b)], "]");
      first = false;
    }
    out += "]}";
  }
  // Canonical tail: no trailing newline, so embedders (the daemon's
  // `metrics` reply, lint --json) splice the snapshot in verbatim.
  out += histograms.empty() ? "}\n}" : "\n  }\n}";
  return out;
}

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Dotted registry names
// map onto underscores under a floq_ prefix.
std::string PrometheusName(std::string_view name) {
  std::string out = "floq_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

// Inclusive upper bound of a log2 bucket, i.e. the Prometheus `le` label:
// bucket 0 holds only the value 0; bucket i >= 1 covers [2^(i-1), 2^i).
uint64_t BucketUpperBound(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= Histogram::kBuckets - 1) return ~uint64_t{0};
  return (uint64_t{1} << bucket) - 1;
}

}  // namespace

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  for (const CounterValue& c : counters) {
    std::string name = PrometheusName(c.name) + "_total";
    out += StrCat("# HELP ", name, " floq counter ", c.name, "\n");
    out += StrCat("# TYPE ", name, " counter\n");
    out += StrCat(name, " ", c.value, "\n");
  }
  for (const GaugeValue& g : gauges) {
    std::string name = PrometheusName(g.name);
    out += StrCat("# HELP ", name, " floq gauge ", g.name, "\n");
    out += StrCat("# TYPE ", name, " gauge\n");
    out += StrCat(name, " ", g.value, "\n");
  }
  for (const HistogramValue& h : histograms) {
    std::string name = PrometheusName(h.name);
    out += StrCat("# HELP ", name, " floq log2 histogram ", h.name, "\n");
    out += StrCat("# TYPE ", name, " histogram\n");
    int highest = -1;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (h.buckets[size_t(b)] != 0) highest = b;
    }
    uint64_t cumulative = 0;
    for (int b = 0; b <= highest; ++b) {
      cumulative += h.buckets[size_t(b)];
      out += StrCat(name, "_bucket{le=\"", BucketUpperBound(b), "\"} ",
                    cumulative, "\n");
    }
    out += StrCat(name, "_bucket{le=\"+Inf\"} ", h.count, "\n");
    out += StrCat(name, "_sum ", h.sum, "\n");
    out += StrCat(name, "_count ", h.count, "\n");
  }
  return out;
}

double HistogramQuantile(const MetricsSnapshot::HistogramValue& h, double q) {
  if (h.count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = uint64_t(q * double(h.count - 1)) + 1;  // 1-based
  uint64_t cumulative = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    cumulative += h.buckets[size_t(b)];
    if (cumulative >= rank) return double(BucketUpperBound(b));
  }
  return double(BucketUpperBound(Histogram::kBuckets - 1));
}

}  // namespace floq
