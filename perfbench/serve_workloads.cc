#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "containment/containment.h"
#include "containment/homomorphism.h"
#include "containment/index.h"
#include "flogic/parser.h"
#include "generator.h"
#include "server/daemon.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "server/wal.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"
#include "workloads.h"

namespace floqbench {

namespace fs = std::filesystem;
using floq::ConjunctiveQuery;
using floq::Resolution;
using floq::Result;
using floq::Status;
using floq::TraceSpan;
using floq::server::Json;

namespace {

// Daemon-wide hom step budget for ad-hoc checks: deterministic, unlike a
// wall-clock limit, so the one-shot reference reproduces every verdict.
constexpr uint64_t kHomSteps = 1'000'000;
constexpr int kWorkers = 2;
constexpr int kCheckpointEvery = 32;  // as shipped
constexpr int64_t kIoTimeoutMs = 120'000;
// How long a serve_read client busy-polls for a reply before it blocks.
constexpr double kReadSpinMicros = 1000;

floq::ResourceBudget AdhocBudget() {
  floq::ResourceBudget budget;
  budget.hom_step_budget = kHomSteps;
  return budget;
}

// ---- client -----------------------------------------------------------------

class Client {
 public:
  explicit Client(double spin_micros = 0) : spin_micros_(spin_micros) {}
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Connect(const std::string& path) {
    Close();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return floq::InternalError("socket failed");
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      return floq::InvalidArgumentError("socket path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Close();
      return floq::InternalError("connect " + path + ": " +
                                    std::strerror(errno));
    }
    decoder_ = floq::server::FrameDecoder();
    return Status::Ok();
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// One request/reply round trip; the reply payload stays raw. With a spin
  /// budget the client busy-polls for the reply that long before it blocks
  /// (README.md, "Client").
  Result<std::string> Call(std::string_view payload) {
    const floq::Deadline deadline = floq::Deadline::AfterMillis(kIoTimeoutMs);
    FLOQ_RETURN_IF_ERROR(floq::server::WriteFrame(fd_, payload, deadline));
    const Clock::time_point start = Clock::now();
    char buffer[65536];
    for (;;) {
      Result<std::optional<std::string>> frame = decoder_.Next();
      if (!frame.ok()) return frame.status();
      if (frame->has_value()) return std::move(**frame);
      if (MicrosSince(start) > spin_micros_) {
        return floq::server::ReadFrame(fd_, decoder_, deadline);
      }
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n > 0) {
        decoder_.Append(buffer, size_t(n));
      } else if (n == 0) {
        return floq::InternalError("connection closed");
      } else if (errno != EAGAIN && errno != EINTR) {
        return floq::InternalError(std::string("recv: ") +
                                   std::strerror(errno));
      }
    }
  }

  Result<Json> CallJson(std::string_view payload) {
    Result<std::string> reply = Call(payload);
    if (!reply.ok()) return reply.status();
    return floq::server::ParseJson(*reply);
  }

 private:
  double spin_micros_;
  int fd_ = -1;
  floq::server::FrameDecoder decoder_;
};

std::string Request(std::initializer_list<std::pair<const char*, std::string>>
                        fields) {
  Json request = Json::Object();
  for (const auto& [key, value] : fields) {
    request.Set(key, Json::String(value));
  }
  return request.Serialize();
}

bool ReplyOk(const Json& reply) {
  const Json* ok = reply.Find("ok");
  return ok != nullptr && ok->type() == Json::Type::kBool && ok->AsBool();
}

std::string ReplyString(const Json& reply, const char* key) {
  const Json* value = reply.Find(key);
  return value != nullptr && value->is_string() ? value->AsString() : "";
}

double ReplyNumber(const Json& reply, const char* key) {
  const Json* value = reply.Find(key);
  return value != nullptr && value->type() == Json::Type::kNumber
             ? value->AsNumber()
             : -1;
}

// ---- in-process daemon ------------------------------------------------------

// RunDaemon on a thread of this process, as `floq serve` runs it.
class InProcessDaemon {
 public:
  InProcessDaemon() = default;
  ~InProcessDaemon() { (void)Stop(); }
  InProcessDaemon(const InProcessDaemon&) = delete;
  InProcessDaemon& operator=(const InProcessDaemon&) = delete;

  /// Starts on `dir` and returns the seconds from the start call to the
  /// first reply.
  Result<double> Start(const std::string& dir) {
    floq::server::DaemonOptions options;
    options.dir = dir;
    options.workers = kWorkers;
    options.hom_step_budget = kHomSteps;
    options.checkpoint_every = kCheckpointEvery;
    options.log_level = "warn";
    socket_ = dir + "/floq.sock";
    const Clock::time_point start = Clock::now();
    finished_ = false;
    thread_ = std::thread([this, options] {
      status_ = floq::server::RunDaemon(options);
      finished_ = true;
    });
    Client probe;
    const std::string ping = Request({{"cmd", "ping"}});
    while (true) {
      if (finished_) {
        thread_.join();
        return floq::InternalError("daemon exited: " + status_.ToString());
      }
      if (probe.Connect(socket_).ok()) {
        Result<Json> reply = probe.CallJson(ping);
        if (reply.ok() && ReplyOk(*reply)) break;
      }
      if (SecondsSince(start) > 120) {
        return floq::DeadlineExceededError("daemon did not answer a ping");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return SecondsSince(start);
  }

  const std::string& socket() const { return socket_; }

  Status Stop() {
    if (!thread_.joinable()) return Status::Ok();
    Client client;
    if (client.Connect(socket_).ok()) {
      (void)client.Call(Request({{"cmd", "shutdown"}}));
    }
    thread_.join();
    return status_;
  }

 private:
  std::string socket_;
  std::atomic<bool> finished_{false};
  Status status_;
  std::thread thread_;  // last: it writes finished_ and status_
};

Status FreshDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return floq::InternalError("cannot create " + dir);
  return Status::Ok();
}

// The registry files only: the state `kill -9` leaves behind.
Status CopyRegistry(const std::string& from, const std::string& to) {
  FLOQ_RETURN_IF_ERROR(FreshDir(to));
  for (const char* name : {"registry.floqreg", "registry.wal"}) {
    std::error_code ec;
    const fs::path src = fs::path(from) / name;
    if (!fs::exists(src)) continue;
    fs::copy_file(src, fs::path(to) / name, ec);
    if (ec) return floq::InternalError("copy " + src.string());
  }
  return Status::Ok();
}

Status WriteFile(const std::string& path, const std::string& data) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return floq::InternalError("cannot write " + path);
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  return Status::Ok();
}

Json Samples(const std::vector<double>& values) {
  Json j = Json::Object();
  j.Set("n", Json::Number(double(values.size())));
  j.Set("p50", Json::Number(Quantile(values, 0.5)));
  j.Set("p75", Json::Number(Quantile(values, 0.75)));
  j.Set("p80", Json::Number(Quantile(values, 0.8)));
  j.Set("p90", Json::Number(Quantile(values, 0.9)));
  j.Set("p95", Json::Number(Quantile(values, 0.95)));
  j.Set("p97", Json::Number(Quantile(values, 0.97)));
  j.Set("p98", Json::Number(Quantile(values, 0.98)));
  j.Set("p99", Json::Number(Quantile(values, 0.99)));
  j.Set("max", Json::Number(Quantile(values, 1.0)));
  return j;
}

// Checks a classify reply: every live name exactly once, nothing else.
bool ClassifyListsLive(const Json& reply, const std::set<std::string>& live) {
  const Json* classes = reply.Find("classes");
  if (!ReplyOk(reply) || classes == nullptr) return false;
  std::set<std::string> seen;
  for (const Json& cls : classes->items()) {
    for (const Json& name : cls.items()) {
      if (!name.is_string() || live.count(name.AsString()) == 0 ||
          !seen.insert(name.AsString()).second) {
        return false;
      }
    }
  }
  return seen.size() == live.size();
}

// classes + hasse of a classify reply, without the epoch and request id.
std::string LatticeOf(const Json& reply) {
  Json lattice = Json::Object();
  if (const Json* c = reply.Find("classes")) lattice.Set("classes", *c);
  if (const Json* h = reply.Find("hasse")) lattice.Set("hasse", *h);
  return lattice.Serialize();
}

// ---- serve_read inputs and clients ------------------------------------------

enum class OpKind : uint8_t { kCached, kAdhoc, kClassify };

const char* KindName(OpKind kind) {
  switch (kind) {
    case OpKind::kCached: return "cached";
    case OpKind::kAdhoc: return "adhoc";
    case OpKind::kClassify: return "classify";
  }
  return "";
}

struct CachedPair {
  size_t lhs = 0, rhs = 0;
  Resolution expected = Resolution::kNotContained;
  std::string payload;
};

struct AdhocCase {
  AdhocPair pair;
  // One-shot verdict under the daemon's step budget; a definite reply must
  // equal it. Unset for class (e) past the timed sample: its verdict holds
  // by construction.
  std::optional<Resolution> reference;
  std::string payload;
};

struct ReadInputs {
  Corpus corpus;
  std::vector<CachedPair> cached;
  // Classes (a)-(d) first, then `heavy` class (e) pairs.
  std::vector<AdhocCase> adhoc;
  size_t heavy = 0;
  std::set<std::string> live;
  // One-shot reference cost and UNKNOWN count per ad-hoc class.
  std::map<char, std::vector<double>> one_shot_us;
  std::map<char, int> one_shot_unknown;
};

struct Op {
  OpKind kind = OpKind::kCached;
  uint32_t index = 0;
};

// A seeded permutation of [first, first + count), walked from an offset.
class PoolWalk {
 public:
  PoolWalk(uint64_t seed, size_t first, size_t count, size_t offset)
      : order_(count), next_(offset) {
    for (size_t i = 0; i < count; ++i) order_[i] = first + i;
    floq::Rng shuffle(seed);
    for (size_t i = count; i > 1; --i) {
      std::swap(order_[i - 1], order_[shuffle.Below(i)]);
    }
  }
  size_t Next() { return order_[next_++ % order_.size()]; }

 private:
  std::vector<size_t> order_;
  size_t next_;
};

// The seeded op sequence of one client: 90% cached, 8% ad-hoc, 2% classify.
// Every tenth ad-hoc request is class (e). Ad-hoc requests walk seeded
// permutations of the two pools, each client from its own offset, so a run
// sends every pool pair about equally often and the heavy class weighs the
// same in every run.
class OpStream {
 public:
  OpStream(uint64_t seed, int client, const ReadInputs& inputs)
      : rng_(seed * 1000003ULL + uint64_t(client) * 7919ULL + 17),
        cached_(inputs.cached.size()),
        light_(seed * 31 + 5, 0, inputs.adhoc.size() - inputs.heavy,
               size_t(client) * (inputs.adhoc.size() - inputs.heavy) / 2),
        heavy_(seed * 37 + 11, inputs.adhoc.size() - inputs.heavy,
               inputs.heavy, size_t(client) * inputs.heavy / 2) {}
  Op Next() {
    const uint64_t r = rng_.Below(100);
    if (r < 90) return {OpKind::kCached, uint32_t(rng_.Below(cached_))};
    if (r < 98) {
      const bool heavy = adhoc_sent_++ % 10 == 9;
      return {OpKind::kAdhoc, uint32_t(heavy ? heavy_.Next() : light_.Next())};
    }
    return {OpKind::kClassify, 0};
  }

 private:
  floq::Rng rng_;
  size_t cached_;
  PoolWalk light_, heavy_;
  uint64_t adhoc_sent_ = 0;
};

// Spans of one operation share this id: the client's round trip and every
// replayed layer call for it.
int64_t OpId(int client, size_t index) {
  return int64_t(client) * 1'000'000 + int64_t(index);
}

struct ClientTally {
  // The latency buffers are written through before the phase starts, so
  // the peak RSS of the process does not grow with the number of requests
  // a run completes, which follows the host's speed.
  ClientTally() {
    Pretouch(cached_us, size_t{1} << 18);
    Pretouch(adhoc_us, size_t{1} << 15);
    Pretouch(classify_us, size_t{1} << 13);
  }
  static void Pretouch(std::vector<double>& samples, size_t capacity) {
    samples.assign(capacity, 0.0);
    samples.clear();  // keeps the written capacity
  }
  std::vector<double> cached_us, adhoc_us, classify_us;
  size_t ops = 0;        // requests sent
  std::vector<Op> sent;  // the requests, when recorded for the replay
  uint64_t attempted = 0, failed = 0, adhoc_decided = 0;
  std::vector<std::string> failures;
  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(why);
  }
};

Result<ReadInputs> MakeReadInputs(const Config& config, size_t queries,
                                  size_t light, size_t heavy,
                                  size_t cached_pool, Report& report) {
  ReadInputs in;
  Result<Corpus> corpus = MakeCorpus(config.seed, queries);
  if (!corpus.ok()) return corpus.status();
  in.corpus = std::move(*corpus);
  for (const CorpusEntry& e : in.corpus.entries) in.live.insert(e.name);

  Result<std::vector<AdhocPair>> pool =
      MakeAdhocPool(config.seed, light, heavy);
  if (!pool.ok()) return pool.status();
  in.heavy = heavy;
  // A one-shot reference for every light pair and a timed sample of the
  // heavy ones; the rest of class (e) is checked against construction.
  const size_t heavy_sample = std::min<size_t>(heavy, 40);
  for (size_t i = 0; i < pool->size(); ++i) {
    AdhocPair& pair = (*pool)[i];
    AdhocCase c;
    if (i < light + heavy_sample) {
      const Clock::time_point start = Clock::now();
      Result<Resolution> ref =
          OneShotVerdict(pair.lhs, pair.rhs, AdhocBudget());
      if (!ref.ok()) return ref.status();
      in.one_shot_us[pair.cls].push_back(MicrosSince(start));
      if (*ref == Resolution::kUnknown) ++in.one_shot_unknown[pair.cls];
      const bool agrees =
          *ref == Resolution::kUnknown || Agrees(pair.known, *ref);
      report.Attempt(agrees,
                     std::string("one-shot verdict contradicts construction "
                                 "(class ") +
                         pair.cls + "): " + pair.lhs + " in " + pair.rhs);
      c.reference = *ref;
    }
    c.payload = Request({{"cmd", "contain"},
                         {"lhs_query", pair.lhs},
                         {"rhs_query", pair.rhs}});
    c.pair = std::move(pair);
    in.adhoc.push_back(std::move(c));
  }

  // Cached pairs: a third inside one family (mostly contained), a third
  // uniform (mostly discharged by construction), a third with no
  // constructed verdict, checked against a one-shot reference.
  floq::Rng rng(config.seed * 2654435761ULL + 3);
  const size_t n = in.corpus.entries.size();
  std::map<int, std::vector<size_t>> family_members;
  for (size_t i = 0; i < n; ++i) {
    if (in.corpus.entries[i].family >= 0) {
      family_members[in.corpus.entries[i].family].push_back(i);
    }
  }
  std::vector<const std::vector<size_t>*> families;
  for (const auto& [id, members] : family_members) {
    if (members.size() > 1) families.push_back(&members);
  }
  int tries = 0;
  while (in.cached.size() < cached_pool && ++tries < 1000000) {
    CachedPair p;
    const uint64_t kind = in.cached.size() % 3;
    if (kind == 0 && !families.empty()) {
      const std::vector<size_t>& members =
          *families[rng.Below(families.size())];
      p.lhs = members[rng.Below(members.size())];
      p.rhs = members[rng.Below(members.size())];
    } else {
      p.lhs = rng.Below(n);
      p.rhs = rng.Below(n);
    }
    if (p.lhs == p.rhs) continue;
    const Known known = in.corpus.KnownVerdict(p.lhs, p.rhs);
    if (kind == 2) {
      if (known != Known::kUnknown) continue;
      Result<Resolution> ref = OneShotVerdict(
          in.corpus.entries[p.lhs].text, in.corpus.entries[p.rhs].text, {});
      if (!ref.ok()) return ref.status();
      p.expected = *ref;
    } else {
      if (known == Known::kUnknown) continue;
      p.expected = known == Known::kContained ? Resolution::kContained
                                              : Resolution::kNotContained;
    }
    p.payload = Request({{"cmd", "contain"},
                         {"lhs", in.corpus.entries[p.lhs].name},
                         {"rhs", in.corpus.entries[p.rhs].name}});
    in.cached.push_back(std::move(p));
  }
  return in;
}

// Registers the corpus in order; returns per-register round trips (µs).
Result<std::vector<double>> RegisterAll(Client& client, const Corpus& corpus,
                                        size_t count) {
  std::vector<double> us;
  for (size_t i = 0; i < count; ++i) {
    const CorpusEntry& e = corpus.entries[i];
    const std::string payload =
        Request({{"cmd", "register"}, {"name", e.name}, {"query", e.text}});
    const Clock::time_point start = Clock::now();
    Result<Json> reply = client.CallJson(payload);
    us.push_back(MicrosSince(start));
    if (!reply.ok()) return reply.status();
    if (!ReplyOk(*reply)) {
      return floq::InternalError("register " + e.name + ": " +
                                 reply->Serialize());
    }
  }
  return us;
}

void RunReadClient(const std::string& socket, uint64_t seed, int client_id,
                   const ReadInputs& in, Clock::time_point until,
                   size_t replay_ops, ClientTally& tally) {
  // A blocked client thread is woken through the hypervisor when its vCPU
  // idles, which would swamp the daemon's few microseconds in a cached
  // round trip; longer requests than the spin budget still block.
  Client client(kReadSpinMicros);
  if (Status st = client.Connect(socket); !st.ok()) {
    tally.Fail(st.ToString());
    ++tally.attempted;
    return;
  }
  OpStream stream(seed, client_id, in);
  while (Clock::now() < until && (replay_ops == 0 || tally.ops < replay_ops)) {
    const Op op = stream.Next();
    if (replay_ops > 0) tally.sent.push_back(op);
    const size_t index = tally.ops++;
    ++tally.attempted;
    const std::string* payload = nullptr;
    switch (op.kind) {
      case OpKind::kCached: payload = &in.cached[op.index].payload; break;
      case OpKind::kAdhoc: payload = &in.adhoc[op.index].payload; break;
      case OpKind::kClassify: {
        static const std::string classify = Request({{"cmd", "classify"}});
        payload = &classify;
        break;
      }
    }
    const Clock::time_point start = Clock::now();
    Result<std::string> raw = [&] {
      TraceSpan span("client.round_trip");
      span.Arg("kind", KindName(op.kind))
          .Arg("op", OpId(client_id, index));
      return client.Call(*payload);
    }();
    const double us = MicrosSince(start);
    if (!raw.ok()) {
      tally.Fail("transport: " + raw.status().ToString());
      return;
    }
    Result<Json> reply = floq::server::ParseJson(*raw);
    if (!reply.ok() || !ReplyOk(*reply)) {
      tally.Fail("error reply: " + *raw);
      continue;
    }
    const std::string resolution = ReplyString(*reply, "resolution");
    switch (op.kind) {
      case OpKind::kCached: {
        tally.cached_us.push_back(us);
        const CachedPair& p = in.cached[op.index];
        if (resolution != floq::ResolutionName(p.expected)) {
          tally.Fail("cached " + in.corpus.entries[p.lhs].name + " in " +
                     in.corpus.entries[p.rhs].name + ": " + resolution);
        }
        break;
      }
      case OpKind::kAdhoc: {
        tally.adhoc_us.push_back(us);
        const AdhocCase& c = in.adhoc[op.index];
        if (resolution == "UNKNOWN") break;  // lowers the decided ratio
        ++tally.adhoc_decided;
        const bool ok =
            c.reference.has_value()
                ? resolution == floq::ResolutionName(*c.reference)
                : Agrees(c.pair.known, resolution == "CONTAINED"
                                           ? Resolution::kContained
                                           : Resolution::kNotContained);
        if (!ok) {
          tally.Fail(std::string("ad-hoc class ") + c.pair.cls + ": " +
                     resolution);
        }
        break;
      }
      case OpKind::kClassify:
        tally.classify_us.push_back(us);
        if (!ClassifyListsLive(*reply, in.live)) {
          tally.Fail("classify reply does not list every live name once");
        }
        break;
    }
  }
}

struct ReadPhase {
  std::vector<double> cached_us, adhoc_us, classify_us;
  std::vector<std::vector<Op>> sent;
  uint64_t completed = 0, adhoc_decided = 0;
  double seconds = 0;
  double peak_rss_mb = 0;  // when the clients finished
};

// Two closed-loop clients for `seconds`. With `replay_ops` > 0 each client
// stops after that many requests and records them for the traced replay.
ReadPhase RunReadPhase(const std::string& socket, const Config& config,
                       const ReadInputs& in, double seconds,
                       size_t replay_ops, Report& report) {
  const int clients = 2;
  std::vector<ClientTally> tallies(clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point until =
      start + std::chrono::microseconds(int64_t(seconds * 1e6));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(RunReadClient, socket, config.seed, c, std::cref(in),
                         until, replay_ops, std::ref(tallies[c]));
  }
  for (std::thread& t : threads) t.join();
  ReadPhase phase;
  phase.seconds = SecondsSince(start);
  phase.peak_rss_mb = PeakRssMb();  // before the merge copies the samples
  for (ClientTally& t : tallies) {
    report.Merge(t.attempted, t.failed, t.failures);
    phase.cached_us.insert(phase.cached_us.end(), t.cached_us.begin(),
                           t.cached_us.end());
    phase.adhoc_us.insert(phase.adhoc_us.end(), t.adhoc_us.begin(),
                          t.adhoc_us.end());
    phase.classify_us.insert(phase.classify_us.end(), t.classify_us.begin(),
                             t.classify_us.end());
    phase.completed +=
        t.cached_us.size() + t.adhoc_us.size() + t.classify_us.size();
    phase.adhoc_decided += t.adhoc_decided;
    phase.sent.push_back(std::move(t.sent));
  }
  return phase;
}

// ---- traced replay helpers --------------------------------------------------

// The protocol work inside one round trip, through the protocol layer's
// public calls: the request is framed and decoded, then parsed by the
// daemon; the reply is serialized, framed and decoded by the client.
void ReplayProtocol(const std::string& request, const Json& reply,
                    const char* kind, int64_t op) {
  auto frame = [&](const std::string& payload) {
    TraceSpan span("protocol.frame");
    span.Arg("kind", kind).Arg("op", op);
    const std::string framed = floq::server::EncodeFrame(payload);
    floq::server::FrameDecoder decoder;
    decoder.Append(framed.data(), framed.size());
    (void)decoder.Next();
  };
  frame(request);
  {
    TraceSpan span("protocol.json_parse");
    span.Arg("kind", kind).Arg("op", op);
    (void)floq::server::ParseJson(request);
  }
  std::string reply_payload;
  {
    TraceSpan span("protocol.json_serialize");
    span.Arg("kind", kind).Arg("op", op);
    reply_payload = reply.Serialize();
  }
  frame(reply_payload);
}

struct AdhocReplayCounts {
  std::vector<double> chase_atoms, hom_nodes;
  uint64_t budget_trips = 0;
};

// The ad-hoc decision from outside: parse, chase to the Theorem 12 bound,
// hom search under the daemon's step budget.
void ReplayAdhoc(const AdhocCase& c, int64_t op, AdhocReplayCounts& counts) {
  floq::World world;
  Result<ConjunctiveQuery> q1 = [&] {
    TraceSpan span("flogic.parse");
    span.Arg("op", op);
    return floq::flogic::ParseQuery(world, c.pair.lhs);
  }();
  Result<ConjunctiveQuery> q2 = [&] {
    TraceSpan span("flogic.parse");
    span.Arg("op", op);
    return floq::flogic::ParseQuery(world, c.pair.rhs);
  }();
  if (!q1.ok() || !q2.ok()) return;
  floq::ChaseOptions chase_options;
  chase_options.max_level = floq::PaperLevelBound(*q1, *q2);
  chase_options.max_atoms = floq::ContainmentOptions{}.max_chase_atoms;
  // The daemon's own chase.run spans already record this chase; the
  // replay's copy is timed apart from the chase layer and its inner spans
  // are suppressed, so the layer counts each chase once.
  floq::ChaseResult chase = [&] {
    TraceSpan span("replay.chase_to_bound");
    span.Arg("class", c.pair.cls == 'e' ? "e" : "a-d").Arg("op", op);
    floq::TraceSuppress quiet;
    return floq::ChaseQuery(world, *q1, chase_options);
  }();
  counts.chase_atoms.push_back(double(chase.size()));
  if (chase.failed()) return;
  chase.FreezeConjuncts();
  const ConjunctiveQuery renamed = q2->RenameApart(world);
  floq::ExecGovernor governor(floq::Deadline::Infinite(),
                              floq::CancellationToken(), kHomSteps);
  floq::MatchOptions match;
  match.governor = &governor;
  floq::MatchStats stats;
  {
    TraceSpan span("hom.search");
    span.Arg("class", c.pair.cls == 'e' ? "e" : "a-d").Arg("op", op);
    (void)floq::FindQueryHomomorphism(renamed, chase.conjuncts(),
                                      chase.head(), &stats, match);
  }
  counts.hom_nodes.push_back(double(stats.nodes_visited));
  if (governor.tripped()) ++counts.budget_trips;
}

Json CachedReply(Resolution resolution) {
  Json reply = Json::Object();
  reply.Set("ok", Json::Bool(true));
  reply.Set("resolution", Json::String(floq::ResolutionName(resolution)));
  reply.Set("epoch", Json::Number(1000));
  reply.Set("cached", Json::Bool(true));
  reply.Set("request_id", Json::Number(123456));
  return reply;
}

Json ClassifyReply(const floq::server::RegistrySnapshotView& snap) {
  Json reply = Json::Object();
  reply.Set("ok", Json::Bool(true));
  reply.Set("epoch", Json::Number(double(snap.epoch)));
  Json classes = Json::Array();
  for (const std::vector<size_t>& cls : snap.taxonomy.classes) {
    Json members = Json::Array();
    for (size_t m : cls) members.Append(Json::String(snap.entries[m].name));
    classes.Append(std::move(members));
  }
  reply.Set("classes", std::move(classes));
  Json hasse = Json::Array();
  for (const auto& [sub, super] : snap.taxonomy.hasse_edges) {
    Json edge = Json::Array();
    edge.Append(Json::Number(sub));
    edge.Append(Json::Number(super));
    hasse.Append(std::move(edge));
  }
  reply.Set("hasse", std::move(hasse));
  reply.Set("request_id", Json::Number(123456));
  return reply;
}

floq::server::RegistryOptions ReplayRegistryOptions(const std::string& dir) {
  floq::server::RegistryOptions options;
  options.dir = dir;
  options.containment.jobs = 1;  // as the daemon configures its index
  options.checkpoint_every = kCheckpointEvery;
  return options;
}

Status WriteTrace(const Config& config, floq::TraceSession& session,
                  Report& report) {
  const std::string path = config.workdir + "/" + config.workload +
                           ".trace.json";
  FLOQ_RETURN_IF_ERROR(WriteFile(path, session.ToJson()));
  report.Detail("trace_file", Json::String(path));
  report.Detail("trace_dropped", Json::Number(double(session.dropped())));
  if (session.dropped() != 0) report.Fail("trace ring dropped spans");
  return Status::Ok();
}

}  // namespace

// ---- serve_read -------------------------------------------------------------

Status RunServeRead(const Config& config, Report& report) {
  const size_t queries = config.smoke ? 80 : 500;
  const size_t light = config.smoke ? 36 : 2700;
  const size_t heavy = config.smoke ? 8 : 1200;
  const size_t cached_pool = config.smoke ? 300 : 3000;
  report.Env("registered_queries", Json::Number(double(queries)));
  report.Env("clients", Json::Number(2));
  report.Env("workers", Json::Number(kWorkers));
  report.Env("hom_step_budget", Json::Number(double(kHomSteps)));
  report.Env("flush_policy",
             Json::String("WAL fsync before ack; checkpoint every 32"));
  report.Env("loop", Json::String("closed loop, 2 clients, one thread each"));
  report.Env("daemon_jobs", Json::Number(1));

  Result<ReadInputs> in =
      MakeReadInputs(config, queries, light, heavy, cached_pool, report);
  if (!in.ok()) return in.status();

  Json one_shot = Json::Object();
  for (const auto& [cls, us] : in->one_shot_us) {
    Json j = Samples(us);
    j.Set("unknown", Json::Number(in->one_shot_unknown[cls]));
    one_shot.Set(std::string(1, cls), std::move(j));
  }
  report.Detail("adhoc_one_shot_us", std::move(one_shot));

  // Set-up: daemon start on a fresh directory + R registrations, seven
  // times: four before the timed phase, the last of them serving it, and
  // three after it. Two windows far apart keep one slow spell of the host
  // from setting the median; one daemon at a time keeps peak RSS from
  // depending on how the allocator hands arenas to concurrent daemons.
  std::vector<double> setup;
  const std::string dir = config.workdir + "/read";
  auto set_up = [&](InProcessDaemon& daemon) -> Status {
    FLOQ_RETURN_IF_ERROR(FreshDir(dir));
    const Clock::time_point start = Clock::now();
    Result<double> started = daemon.Start(dir);
    if (!started.ok()) return started.status();
    Client client;
    FLOQ_RETURN_IF_ERROR(client.Connect(daemon.socket()));
    Result<std::vector<double>> reg = RegisterAll(client, in->corpus, queries);
    if (!reg.ok()) return reg.status();
    setup.push_back(SecondsSince(start));
    return Status::Ok();
  };
  auto set_up_and_stop = [&]() -> Status {
    InProcessDaemon daemon;
    FLOQ_RETURN_IF_ERROR(set_up(daemon));
    return daemon.Stop();
  };
  for (int round = 0; round < 3; ++round) {
    FLOQ_RETURN_IF_ERROR(set_up_and_stop());
  }
  InProcessDaemon daemon;
  FLOQ_RETURN_IF_ERROR(set_up(daemon));

  const double untraced_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  ReadPhase phase = RunReadPhase(daemon.socket(), config, *in,
                                 untraced_seconds, 0, report);
  // Peak RSS through set-up and the timed phase: the set-ups after it are
  // samples for setup_s only, and the arenas their threads draw from the
  // allocator's free list vary from run to run.
  report.Metric("peak_rss_mb", phase.peak_rss_mb, "MB");
  FLOQ_RETURN_IF_ERROR(daemon.Stop());
  for (int round = 0; round < 2; ++round) {
    FLOQ_RETURN_IF_ERROR(set_up_and_stop());
  }
  // The last set-up's daemon serves the traced phase of a traced run.
  FLOQ_RETURN_IF_ERROR(set_up(daemon));
  // The workload's operation is the cached contain, nine requests in ten.
  report.Metric("setup_s", Median(setup), "s");
  report.Metric("op_p50_us", Quantile(phase.cached_us, 0.5), "us");
  report.Detail("read_rps",
                Json::Number(double(phase.completed) / phase.seconds));
  report.Detail("contain_cached_p80_us",
                Json::Number(Quantile(phase.cached_us, 0.80)));
  report.Detail("contain_adhoc_p50_us",
                Json::Number(Quantile(phase.adhoc_us, 0.5)));
  report.Detail("contain_adhoc_p99_us",
                Json::Number(Quantile(phase.adhoc_us, 0.99)));
  report.Detail("classify_cmd_p50_us",
                Json::Number(Quantile(phase.classify_us, 0.5)));
  report.Detail("adhoc_decided_ratio",
                Json::Number(phase.adhoc_us.empty()
                                 ? 0
                                 : double(phase.adhoc_decided) /
                                       double(phase.adhoc_us.size())));
  report.Detail("cached_us", Samples(phase.cached_us));
  report.Detail("adhoc_us", Samples(phase.adhoc_us));
  report.Detail("classify_us", Samples(phase.classify_us));
  report.Detail("setup_runs_s", JsonArray(setup));

  if (config.trace) {
    const floq::MetricsSnapshot before =
        floq::MetricsRegistry::Get().Snapshot();
    floq::TraceSession session(size_t{1} << 17);
    // Closed-loop requests with tracing on, capped so every span fits.
    ReadPhase traced = RunReadPhase(daemon.socket(), config, *in,
                                    config.seconds / 2, 8000, report);
    const floq::MetricsSnapshot after =
        floq::MetricsRegistry::Get().Snapshot();
    Json overhead = Json::Object();
    overhead.Set("op_p50_us.untraced",
                 Json::Number(Quantile(phase.cached_us, 0.5)));
    overhead.Set("op_p50_us.traced",
                 Json::Number(Quantile(traced.cached_us, 0.5)));
    overhead.Set("contain_adhoc_p50_us.untraced",
                 Json::Number(Quantile(phase.adhoc_us, 0.5)));
    overhead.Set("contain_adhoc_p50_us.traced",
                 Json::Number(Quantile(traced.adhoc_us, 0.5)));
    report.Detail("overhead", std::move(overhead));
    // The daemon's own contain latency over the traced requests: it runs
    // in this process, so its histograms are in the process-wide registry.
    for (const auto& h :
         floq::MetricsRegistry::SnapshotDelta(before, after).histograms) {
      if (h.name == "serve.cmd.contain.latency_us") {
        report.Detail("daemon.cmd_contain_us",
                      Json::Number(floq::HistogramQuantile(h, 0.5)));
      }
    }
    FLOQ_RETURN_IF_ERROR(daemon.Stop());

    // Replay the same sequence against bench-owned instances.
    const std::string replay_dir = config.workdir + "/read-replay";
    FLOQ_RETURN_IF_ERROR(FreshDir(replay_dir));
    floq::server::QueryRegistry registry(ReplayRegistryOptions(replay_dir));
    FLOQ_RETURN_IF_ERROR(registry.Open());
    for (const CorpusEntry& e : in->corpus.entries) {
      TraceSpan span("registry.register");
      floq::TraceSuppress quiet;  // the registry's own engine spans
      Result<floq::server::QueryRegistry::RegisterOutcome> outcome =
          registry.Register(e.name, e.text);
      if (!outcome.ok()) return outcome.status();
    }
    AdhocReplayCounts counts;
    for (size_t client = 0; client < traced.sent.size(); ++client) {
      for (size_t i = 0; i < traced.sent[client].size(); ++i) {
        const Op& op = traced.sent[client][i];
        const int64_t id = OpId(int(client), i);
        TraceSpan op_span("replay.op");
        op_span.Arg("kind", KindName(op.kind)).Arg("op", id);
        switch (op.kind) {
          case OpKind::kCached: {
            const CachedPair& p = in->cached[op.index];
            Resolution resolution = Resolution::kUnknown;
            {
              TraceSpan span("registry.snapshot");
              span.Arg("kind", "cached").Arg("op", id);
              auto snap = registry.Snapshot();
              const auto* l = snap->Find(in->corpus.entries[p.lhs].name);
              const auto* r = snap->Find(in->corpus.entries[p.rhs].name);
              if (l != nullptr && r != nullptr) {
                resolution = snap->resolution[snap->by_name.find(l->name)
                                                  ->second]
                                             [snap->by_name.find(r->name)
                                                  ->second];
              }
            }
            ReplayProtocol(p.payload, CachedReply(resolution), "cached", id);
            break;
          }
          case OpKind::kAdhoc: {
            const AdhocCase& c = in->adhoc[op.index];
            ReplayAdhoc(c, id, counts);
            ReplayProtocol(c.payload,
                           CachedReply(c.reference.value_or(
                               Resolution::kContained)),
                           "adhoc", id);
            break;
          }
          case OpKind::kClassify: {
            Json reply;
            {
              TraceSpan span("registry.snapshot");
              span.Arg("kind", "classify").Arg("op", id);
              reply = ClassifyReply(*registry.Snapshot());
            }
            ReplayProtocol(Request({{"cmd", "classify"}}), reply, "classify",
                           id);
            break;
          }
        }
      }
    }
    FLOQ_RETURN_IF_ERROR(WriteTrace(config, session, report));
    Json c = Json::Object();
    c.Set("chase.atoms_p50", Json::Number(Median(counts.chase_atoms)));
    c.Set("hom.nodes_p99", Json::Number(Quantile(counts.hom_nodes, 0.99)));
    c.Set("hom.budget_trips", Json::Number(double(counts.budget_trips)));
    c.Set("adhoc_replayed", Json::Number(double(counts.chase_atoms.size())));
    c.Set("contain_cached_p50_us.traced",
          Json::Number(Quantile(traced.cached_us, 0.5)));
    c.Set("contain_adhoc_p50_us.traced",
          Json::Number(Quantile(traced.adhoc_us, 0.5)));
    c.Set("classify_cmd_p50_us.traced",
          Json::Number(Quantile(traced.classify_us, 0.5)));
    report.Detail("counters", std::move(c));
  } else {
    FLOQ_RETURN_IF_ERROR(daemon.Stop());
  }
  report.Detail("peak_rss_end_mb", Json::Number(PeakRssMb()));
  return Status::Ok();
}

// ---- serve_write ------------------------------------------------------------

namespace {

struct WriteTimes {
  std::vector<double> fill_us, register_us, unregister_us;
  double fill_s = 0;
  size_t next = 0;             // next corpus entry to register
  std::deque<size_t> live;     // registration order
  std::vector<std::pair<bool, size_t>> mutations;  // (register?, entry)
};

// Registers corpus entries until `size` are live.
Status Fill(Client& client, const Corpus& corpus, size_t size, WriteTimes& w,
            Report& report) {
  const Clock::time_point fill_start = Clock::now();
  for (; w.next < size; ++w.next) {
    const CorpusEntry& e = corpus.entries[w.next];
    const std::string payload =
        Request({{"cmd", "register"}, {"name", e.name}, {"query", e.text}});
    const Clock::time_point start = Clock::now();
    Result<Json> reply = [&] {
      TraceSpan span("client.register");
      span.Arg("churn", int64_t{0}).Arg("op", int64_t(w.mutations.size()));
      return client.CallJson(payload);
    }();
    w.fill_us.push_back(MicrosSince(start));
    const bool ok = reply.ok() && ReplyOk(*reply);
    report.Attempt(ok, "register " + e.name);
    if (!ok) return floq::InternalError("fill failed at " + e.name);
    w.live.push_back(w.next);
    w.mutations.emplace_back(true, w.next);
  }
  w.fill_s = SecondsSince(fill_start);
  return Status::Ok();
}

// Churns at live size for `seconds` (or `max_cycles` cycles): unregister the
// oldest, register a new query, and read the new query back through a
// cached contain.
Status Churn(Client& client, const Corpus& corpus, double churn_seconds,
             size_t max_cycles, WriteTimes& w, Report& report) {
  const Clock::time_point until =
      Clock::now() + std::chrono::microseconds(int64_t(churn_seconds * 1e6));
  floq::Rng rng(w.next * 7 + 1);
  for (size_t cycle = 0;
       cycle < max_cycles && Clock::now() < until &&
       w.next < corpus.entries.size();
       ++cycle) {
    const size_t oldest = w.live.front();
    w.live.pop_front();
    {
      const std::string payload =
          Request({{"cmd", "unregister"},
                   {"name", corpus.entries[oldest].name}});
      const Clock::time_point start = Clock::now();
      Result<Json> reply = [&] {
        TraceSpan span("client.unregister");
        span.Arg("churn", int64_t{1}).Arg("op", int64_t(w.mutations.size()));
        return client.CallJson(payload);
      }();
      w.unregister_us.push_back(MicrosSince(start));
      report.Attempt(reply.ok() && ReplyOk(*reply),
                     "unregister " + corpus.entries[oldest].name);
      w.mutations.emplace_back(false, oldest);
    }
    const size_t added = w.next++;
    const CorpusEntry& e = corpus.entries[added];
    double epoch = -1;
    {
      const std::string payload =
          Request({{"cmd", "register"}, {"name", e.name}, {"query", e.text}});
      const Clock::time_point start = Clock::now();
      Result<Json> reply = [&] {
        TraceSpan span("client.register");
        span.Arg("churn", int64_t{1}).Arg("op", int64_t(w.mutations.size()));
        return client.CallJson(payload);
      }();
      w.register_us.push_back(MicrosSince(start));
      const bool ok = reply.ok() && ReplyOk(*reply);
      report.Attempt(ok, "register " + e.name);
      if (ok) epoch = ReplyNumber(*reply, "epoch");
      w.live.push_back(added);
      w.mutations.emplace_back(true, added);
    }
    // Read-your-write: a cached contain naming the new query, against a
    // live family member whose verdict holds by construction.
    size_t other = w.live[rng.Below(w.live.size() - 1)];
    for (size_t candidate : w.live) {
      if (candidate != added && e.family >= 0 &&
          corpus.entries[candidate].family == e.family) {
        other = candidate;
        break;
      }
    }
    if (corpus.KnownVerdict(added, other) == Known::kUnknown) {
      for (size_t candidate : w.live) {
        if (candidate != added && corpus.entries[candidate].family >= 0 &&
            corpus.entries[candidate].family != e.family) {
          other = candidate;
          break;
        }
      }
    }
    const Known known = corpus.KnownVerdict(added, other);
    Result<Json> reply = [&] {
      TraceSpan span("client.contain");
      span.Arg("op", int64_t(w.mutations.size() - 1));
      return client.CallJson(Request({{"cmd", "contain"},
                                      {"lhs", e.name},
                                      {"rhs", corpus.entries[other].name}}));
    }();
    const bool ok =
        reply.ok() && ReplyOk(*reply) && known != Known::kUnknown &&
        ReplyString(*reply, "resolution") ==
            (known == Known::kContained ? "CONTAINED" : "NOT_CONTAINED") &&
        ReplyNumber(*reply, "epoch") >= epoch;
    report.Attempt(ok, "read-your-write " + e.name + " in " +
                           corpus.entries[other].name);
  }
  return Status::Ok();
}

}  // namespace

Status RunServeWrite(const Config& config, Report& report) {
  const size_t size = config.smoke ? 100 : 1000;
  const size_t spare = config.smoke ? 400 : 4000;
  const int recoveries = config.smoke ? 2 : 6;
  report.Env("live_size", Json::Number(double(size)));
  report.Env("clients", Json::Number(1));
  report.Env("workers", Json::Number(kWorkers));
  report.Env("hom_step_budget", Json::Number(double(kHomSteps)));
  report.Env("flush_policy",
             Json::String("WAL fsync before ack; checkpoint every 32"));
  report.Env("loop", Json::String("closed loop, 1 client"));
  report.Env("daemon_jobs", Json::Number(1));

  Result<Corpus> corpus = MakeCorpus(config.seed, size + spare);
  if (!corpus.ok()) return corpus.status();

  // Set-up: daemon start on an empty registry. One untimed start creates
  // its empty log (and the checkpoint written at shutdown); every timed
  // start opens them, so no sample creates and fsyncs a fresh file. A start
  // takes under a millisecond, so samples come in batches spread through
  // the run.
  const std::string empty_dir = config.workdir + "/write-empty";
  FLOQ_RETURN_IF_ERROR(FreshDir(empty_dir));
  {
    InProcessDaemon first;
    if (Result<double> s = first.Start(empty_dir); !s.ok()) return s.status();
    FLOQ_RETURN_IF_ERROR(first.Stop());
  }
  std::vector<double> setup;
  auto sample_setup = [&]() -> Status {
    for (int k = 0; k < 5; ++k) {
      InProcessDaemon empty;
      Result<double> s = empty.Start(empty_dir);
      if (!s.ok()) return s.status();
      setup.push_back(*s);
      FLOQ_RETURN_IF_ERROR(empty.Stop());
    }
    return Status::Ok();
  };
  FLOQ_RETURN_IF_ERROR(sample_setup());

  // A traced run also fills and churns traced, then replays that, so its
  // untraced churn gets a quarter of the run.
  const double churn_seconds =
      config.trace ? config.seconds / 4 : config.seconds;
  const std::string dir = config.workdir + "/write";
  FLOQ_RETURN_IF_ERROR(FreshDir(dir));
  InProcessDaemon daemon;
  if (Result<double> s = daemon.Start(dir); !s.ok()) return s.status();
  Client client;
  FLOQ_RETURN_IF_ERROR(client.Connect(daemon.socket()));
  WriteTimes w;
  FLOQ_RETURN_IF_ERROR(Fill(client, *corpus, size, w, report));

  // Churn in `recoveries` slices. After each, copy the registry files while
  // the daemon is live (the state kill -9 leaves: checkpoint plus WAL
  // tail); twice, restart a second daemon on a fresh copy of it, time it to
  // its first reply and check it answers the live lattice. Spreading the
  // restarts over the churn window keeps one slow spell of the host from
  // setting them all.
  std::vector<double> recovery;
  const std::string crash_copy = config.workdir + "/write-crash";
  for (int r = 0; r < recoveries; ++r) {
    FLOQ_RETURN_IF_ERROR(Churn(client, *corpus, churn_seconds / recoveries,
                               SIZE_MAX, w, report));
    Result<Json> live = client.CallJson(Request({{"cmd", "classify"}}));
    if (!live.ok() || !ReplyOk(*live)) {
      return floq::InternalError("classify on the live daemon failed");
    }
    std::set<std::string> live_names;
    for (size_t i : w.live) live_names.insert(corpus->entries[i].name);
    report.Attempt(ClassifyListsLive(*live, live_names),
                   "live classify does not list every live name once");
    FLOQ_RETURN_IF_ERROR(CopyRegistry(dir, crash_copy));
    for (int k = 0; k < 2; ++k) {
      const std::string copy = config.workdir + "/write-recover";
      FLOQ_RETURN_IF_ERROR(CopyRegistry(crash_copy, copy));
      InProcessDaemon restarted;
      Result<double> started = restarted.Start(copy);
      if (!started.ok()) return started.status();
      recovery.push_back(*started);
      Client check;
      FLOQ_RETURN_IF_ERROR(check.Connect(restarted.socket()));
      Result<Json> reply = check.CallJson(Request({{"cmd", "classify"}}));
      report.Attempt(reply.ok() && LatticeOf(*reply) == LatticeOf(*live),
                     "recovered daemon answers a different lattice");
      check.Close();
      FLOQ_RETURN_IF_ERROR(restarted.Stop());
    }
    FLOQ_RETURN_IF_ERROR(sample_setup());
  }
  client.Close();
  FLOQ_RETURN_IF_ERROR(daemon.Stop());
  // The workload's operation is a registration at live size W.
  report.Metric("setup_s", Median(setup), "s");
  report.Metric("op_p50_us", Quantile(w.register_us, 0.5), "us");
  report.Detail("register_p95_us",
                Json::Number(Quantile(w.register_us, 0.95)));
  report.Detail("fill_s", Json::Number(w.fill_s));
  report.Detail("unregister_p50_us",
                Json::Number(Quantile(w.unregister_us, 0.5)));
  report.Detail("recovery_s", Json::Number(Median(recovery)));
  report.Detail("recovery_runs_s", JsonArray(recovery));
  report.Detail("setup_us", Samples([&] {
    std::vector<double> us;
    for (double s : setup) us.push_back(s * 1e6);
    return us;
  }()));
  report.Detail("register_us", Samples(w.register_us));
  report.Detail("unregister_us", Samples(w.unregister_us));
  report.Detail("fill_us", Samples(w.fill_us));

  if (config.trace) {
    floq::TraceSession session(size_t{1} << 17);
    // The daemon path again with tracing on.
    const std::string traced_dir = config.workdir + "/write-traced";
    FLOQ_RETURN_IF_ERROR(FreshDir(traced_dir));
    InProcessDaemon traced;
    if (Result<double> s = traced.Start(traced_dir); !s.ok()) return s.status();
    Client traced_client;
    FLOQ_RETURN_IF_ERROR(traced_client.Connect(traced.socket()));
    WriteTimes t;
    FLOQ_RETURN_IF_ERROR(Fill(traced_client, *corpus, size, t, report));
    // A fixed number of churn cycles, so the per-layer totals of two runs
    // compare; the run length only caps it.
    constexpr size_t kTracedChurnCycles = 100;
    FLOQ_RETURN_IF_ERROR(Churn(traced_client, *corpus, config.seconds,
                               kTracedChurnCycles, t, report));
    traced_client.Close();
    FLOQ_RETURN_IF_ERROR(traced.Stop());
    Json overhead = Json::Object();
    overhead.Set("fill_s.untraced", Json::Number(w.fill_s));
    overhead.Set("fill_s.traced", Json::Number(t.fill_s));
    overhead.Set("op_p50_us.untraced",
                 Json::Number(Quantile(w.register_us, 0.5)));
    overhead.Set("op_p50_us.traced",
                 Json::Number(Quantile(t.register_us, 0.5)));
    report.Detail("overhead", std::move(overhead));

    // Replay the mutation sequence against a bench-owned registry, a
    // bench-owned index and a bench-owned WAL.
    const std::string replay_dir = config.workdir + "/write-replay";
    FLOQ_RETURN_IF_ERROR(FreshDir(replay_dir));
    floq::server::QueryRegistry registry(ReplayRegistryOptions(replay_dir));
    FLOQ_RETURN_IF_ERROR(registry.Open());
    floq::World index_world;
    floq::BatchContainmentOptions index_options;
    index_options.jobs = 1;
    floq::ContainmentIndex index(index_world, index_options);
    std::vector<size_t> index_id(corpus->entries.size(), SIZE_MAX);
    std::vector<size_t> live_ids;
    floq::server::Wal wal;
    floq::server::WalReplay ignored;
    FLOQ_RETURN_IF_ERROR(wal.Open(replay_dir + "/bench.wal", &ignored));
    double rss_before_churn = 0;
    size_t registered = 0;
    for (size_t m = 0; m < t.mutations.size(); ++m) {
      const auto [is_register, entry] = t.mutations[m];
      const CorpusEntry& e = corpus->entries[entry];
      if (m == size) rss_before_churn = CurrentRssMb();
      const int64_t phase = m < size ? 0 : 1;
      Json record = Json::Object();
      record.Set("op", Json::String(is_register ? "register" : "unregister"));
      record.Set("name", Json::String(e.name));
      if (is_register) record.Set("query", Json::String(e.text));
      {
        TraceSpan span("wal.append");
        span.Arg("churn", phase).Arg("op", int64_t(m));
        FLOQ_RETURN_IF_ERROR(wal.Append(record.Serialize()));
      }
      if (is_register) {
        const int64_t decile =
            m < size ? int64_t(registered * 10 / size) + 1 : 0;
        {
          TraceSpan span("registry.register");
          span.Arg("churn", phase).Arg("decile", decile).Arg("op", int64_t(m));
          floq::TraceSuppress quiet;
          Result<floq::server::QueryRegistry::RegisterOutcome> outcome =
              registry.Register(e.name, e.text);
          if (!outcome.ok()) return outcome.status();
        }
        ++registered;
        Result<ConjunctiveQuery> q = [&] {
          TraceSpan span("flogic.parse");
          span.Arg("churn", phase).Arg("op", int64_t(m));
          return floq::flogic::ParseQuery(index_world, e.text);
        }();
        if (!q.ok()) return q.status();
        {
          TraceSpan span("index.insert");
          span.Arg("churn", phase).Arg("op", int64_t(m));
          floq::TraceSuppress quiet;
          Result<size_t> id = index.Insert(*q);
          if (!id.ok()) return id.status();
          index_id[entry] = *id;
        }
        live_ids.push_back(index_id[entry]);
        TraceSpan span("index.taxonomy");
        span.Arg("churn", phase).Arg("op", int64_t(m));
        (void)index.TaxonomyOf(live_ids);
      } else {
        TraceSpan span("registry.unregister");
        span.Arg("churn", phase).Arg("op", int64_t(m));
        floq::TraceSuppress quiet;
        if (Result<uint64_t> epoch = registry.Unregister(e.name); !epoch.ok()) {
          return epoch.status();
        }
        live_ids.erase(std::find(live_ids.begin(), live_ids.end(),
                                 index_id[entry]));
      }
      TraceSpan span("registry.snapshot");
      span.Arg("churn", phase).Arg("op", int64_t(m));
      auto snap = registry.Snapshot();
      (void)snap->Find(e.name);
    }
    const double rss_growth = CurrentRssMb() - rss_before_churn;
    for (int k = 0; k < 5; ++k) {
      TraceSpan span("registry.checkpoint");
      FLOQ_RETURN_IF_ERROR(registry.Checkpoint());
    }
    for (int k = 0; k < 3; ++k) {
      const std::string copy = config.workdir + "/write-replay-open";
      FLOQ_RETURN_IF_ERROR(CopyRegistry(replay_dir, copy));
      floq::server::QueryRegistry reopened(ReplayRegistryOptions(copy));
      TraceSpan span("registry.open");
      floq::TraceSuppress quiet;
      FLOQ_RETURN_IF_ERROR(reopened.Open());
    }
    for (int k = 0; k < 3; ++k) {
      const std::string copy = config.workdir + "/write-wal-copy";
      FLOQ_RETURN_IF_ERROR(CopyRegistry(crash_copy, copy));
      floq::server::Wal replay_wal;
      floq::server::WalReplay replay;
      TraceSpan span("wal.open");
      FLOQ_RETURN_IF_ERROR(replay_wal.Open(copy + "/registry.wal", &replay));
    }
    FLOQ_RETURN_IF_ERROR(WriteTrace(config, session, report));
    const floq::IndexStats& stats = index.index_stats();
    Json c = Json::Object();
    c.Set("index.checked_pairs", Json::Number(double(stats.checked_pairs)));
    c.Set("index.pruned_ratio",
          Json::Number(stats.candidate_pairs == 0
                           ? 0
                           : double(stats.pruned_pairs) /
                                 double(stats.candidate_pairs)));
    c.Set("registry.rss_growth_mb", Json::Number(rss_growth));
    c.Set("register_p50_us.traced",
          Json::Number(Quantile(t.register_us, 0.5)));
    c.Set("unregister_p50_us.traced",
          Json::Number(Quantile(t.unregister_us, 0.5)));
    c.Set("fill_s.traced", Json::Number(t.fill_s));
    report.Detail("counters", std::move(c));
  }
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  return Status::Ok();
}

}  // namespace floqbench
