// Tests for the `floq serve` daemon stack (DESIGN.md §16): the wire
// protocol, the write-ahead log, the durable registry, the live daemon's
// degradation ladder — and the headline crash-recovery suite, which uses
// the deterministic fault-injection points (util/fault.h) to kill a real
// daemon process at every durability-critical instruction and assert
// that recovery preserves exactly the acknowledged state and the full
// containment lattice.
//
// The crash suite re-executes this test binary as the daemon: main()
// recognizes `--daemon-child <dir> <socket> [k=v...]` and runs RunDaemon
// instead of gtest, so fork + execv(/proc/self/exe) gives each scenario
// a genuine process to kill -9 (via the fault point's _exit) and restart.

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "containment/classifier.h"
#include "flogic/parser.h"
#include "gtest/gtest.h"
#include "server/daemon.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "server/wal.h"
#include "util/crc32.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/rng.h"

namespace floq::server {
namespace {

// --- helpers --------------------------------------------------------------

std::string MakeTempDir() {
  char buffer[] = "/tmp/floqsrvXXXXXX";  // short: AF_UNIX paths cap ~107B
  const char* dir = mkdtemp(buffer);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

int ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One request, one reply, on an open connection.
Result<Json> Call(int fd, const Json& request, int64_t timeout_ms = 20'000) {
  FLOQ_RETURN_IF_ERROR(WriteFrame(fd, request.Serialize(),
                                  Deadline::AfterMillis(timeout_ms)));
  FrameDecoder decoder;
  Result<std::string> payload =
      ReadFrame(fd, decoder, Deadline::AfterMillis(timeout_ms));
  if (!payload.ok()) return payload.status();
  return ParseJson(*payload);
}

// One request, one reply, fresh connection. Error Status when the daemon
// is unreachable or drops the connection mid-request (how a crashed
// daemon presents to a client).
Result<Json> Request(const std::string& socket_path, const Json& request,
                     int64_t timeout_ms = 20'000) {
  int fd = ConnectUnix(socket_path);
  if (fd < 0) return InternalError("connect " + socket_path);
  Result<Json> reply = Call(fd, request, timeout_ms);
  ::close(fd);
  return reply;
}

Json MakeRequest(const std::string& cmd) {
  Json request = Json::Object();
  request.Set("cmd", Json::String(cmd));
  return request;
}

Json RegisterRequest(const std::string& name, const std::string& query) {
  Json request = MakeRequest("register");
  request.Set("name", Json::String(name));
  request.Set("query", Json::String(query));
  return request;
}

struct DaemonProc {
  pid_t pid = -1;
  std::string dir;
  std::string socket_path;
};

// fork + execv(/proc/self/exe --daemon-child ...): a real process whose
// fault-point _exit(42) is indistinguishable from kill -9 for the files
// on disk. `fault` arms FLOQ_FAULT in the child only.
DaemonProc SpawnDaemon(const std::string& dir, const std::string& fault = "",
                       std::vector<std::string> extra = {}) {
  DaemonProc daemon;
  daemon.dir = dir;
  daemon.socket_path = dir + "/floq.sock";
  pid_t pid = fork();
  if (pid == 0) {
    if (fault.empty()) {
      unsetenv("FLOQ_FAULT");
    } else {
      setenv("FLOQ_FAULT", fault.c_str(), 1);
    }
    std::vector<std::string> args = {"/proc/self/exe", "--daemon-child", dir,
                                     daemon.socket_path};
    for (std::string& e : extra) args.push_back(std::move(e));
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  daemon.pid = pid;
  return daemon;
}


// Kills a daemon leaked by an assertion failure on scope exit. A leaked
// child inherits the test's stdout pipe; without this, one failed test
// hangs any harness waiting for EOF on that pipe.
class DaemonReaper {
 public:
  explicit DaemonReaper(DaemonProc& daemon) : daemon_(daemon) {}
  ~DaemonReaper() {
    if (daemon_.pid <= 0) return;
    kill(daemon_.pid, SIGKILL);
    int status = 0;
    waitpid(daemon_.pid, &status, 0);
  }

 private:
  DaemonProc& daemon_;
};

// Polls until the daemon answers a ping (or dies / 5s pass).
bool WaitForDaemon(const DaemonProc& daemon) {
  for (int i = 0; i < 250; ++i) {
    Result<Json> pong = Request(daemon.socket_path, MakeRequest("ping"), 2000);
    if (pong.ok()) return true;
    int status = 0;
    if (waitpid(daemon.pid, &status, WNOHANG) == daemon.pid) return false;
    usleep(20'000);
  }
  return false;
}

int WaitForExit(DaemonProc& daemon) {
  int status = 0;
  if (waitpid(daemon.pid, &status, 0) != daemon.pid) return -1;
  daemon.pid = -1;  // reaped: the DaemonReaper must not touch it
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

// Graceful stop through the protocol; returns the process exit code.
int ShutdownDaemon(DaemonProc& daemon) {
  (void)Request(daemon.socket_path, MakeRequest("shutdown"));
  return WaitForExit(daemon);
}

// The workload every daemon test registers: a mix of equivalent,
// strictly contained, and incomparable queries so the maintained lattice
// has real classes and real edges to preserve across crashes.
const std::vector<std::pair<std::string, std::string>>& Workload() {
  static const std::vector<std::pair<std::string, std::string>> queries = {
      {"students", "q(X) :- X : student."},
      {"students2", "q(Y) :- Y : student, Y : student."},  // ≡ students
      {"people", "q(X) :- X : person."},
      {"advised", "q(X) :- X : student, X[advisor -> Y]."},  // ⊆ students
      {"pairs", "q(X, Y) :- X[advisor -> Y]."},
  };
  return queries;
}

// Deterministic lattice fingerprint: the classify reply minus the epoch.
// A recovered registry's epoch need only be >= the last acked one (WAL
// records replayed on top of a checkpoint that already holds them can
// advance it further); the lattice itself must not move.
std::string LatticeFingerprint(const Json& classify_reply) {
  Json fingerprint = Json::Object();
  const Json* classes = classify_reply.Find("classes");
  const Json* hasse = classify_reply.Find("hasse");
  EXPECT_NE(classes, nullptr);
  EXPECT_NE(hasse, nullptr);
  if (classes != nullptr) fingerprint.Set("classes", *classes);
  if (hasse != nullptr) fingerprint.Set("hasse", *hasse);
  return fingerprint.Serialize();
}

// Full cached containment matrix over the workload, as resolution names.
std::vector<std::string> ContainMatrix(const std::string& socket_path) {
  std::vector<std::string> matrix;
  for (const auto& [lhs, lhs_text] : Workload()) {
    for (const auto& [rhs, rhs_text] : Workload()) {
      Json request = MakeRequest("contain");
      request.Set("lhs", Json::String(lhs));
      request.Set("rhs", Json::String(rhs));
      Result<Json> reply = Request(socket_path, request);
      EXPECT_TRUE(reply.ok()) << reply.status().ToString();
      if (!reply.ok()) {
        matrix.push_back("ERROR");
        continue;
      }
      const Json* resolution = reply->Find("resolution");
      matrix.push_back(resolution != nullptr && resolution->is_string()
                           ? resolution->AsString()
                           : "MALFORMED");
    }
  }
  return matrix;
}

// --- protocol unit tests --------------------------------------------------

TEST(ProtocolTest, JsonRoundTripIsDeterministic) {
  Json object = Json::Object();
  object.Set("cmd", Json::String("contain"));
  object.Set("count", Json::Number(42));
  object.Set("flag", Json::Bool(true));
  object.Set("nothing", Json::Null());
  Json array = Json::Array();
  array.Append(Json::String("a\"b\\c\n"));
  array.Append(Json::Number(-1.5));
  object.Set("items", array);

  std::string wire = object.Serialize();
  EXPECT_EQ(wire,
            "{\"cmd\":\"contain\",\"count\":42,\"flag\":true,"
            "\"nothing\":null,\"items\":[\"a\\\"b\\\\c\\n\",-1.5]}");
  Result<Json> parsed = ParseJson(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Serialize(), wire);
}

TEST(ProtocolTest, ParseRejectsMalformedAndDeepInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  std::string deep(kMaxJsonDepth + 2, '[');
  deep += std::string(kMaxJsonDepth + 2, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
  std::string shallow(kMaxJsonDepth - 1, '[');
  shallow += std::string(kMaxJsonDepth - 1, ']');
  EXPECT_TRUE(ParseJson(shallow).ok());
}

TEST(ProtocolTest, FrameDecoderHandlesPartialAndBackToBackFrames) {
  std::string first = EncodeFrame("{\"a\":1}");
  std::string second = EncodeFrame("{\"b\":2}");
  std::string stream = first + second;

  FrameDecoder decoder;
  // Byte-at-a-time: each frame completes exactly on its final byte.
  std::vector<std::string> decoded;
  for (size_t i = 0; i < stream.size(); ++i) {
    decoder.Append(stream.data() + i, 1);
    Result<std::optional<std::string>> frame = decoder.Next();
    ASSERT_TRUE(frame.ok());
    if (frame->has_value()) {
      EXPECT_TRUE(i + 1 == first.size() || i + 1 == stream.size());
      decoded.push_back(**frame);
    }
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], "{\"a\":1}");
  EXPECT_EQ(decoded[1], "{\"b\":2}");
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(ProtocolTest, FrameDecoderPoisonsOnOversizedHeader) {
  uint32_t huge = kMaxFrameBytes + 1;
  char header[4];
  std::memcpy(header, &huge, 4);
  FrameDecoder decoder;
  decoder.Append(header, 4);
  EXPECT_FALSE(decoder.Next().ok());
  // Poisoned: stays failed even if more bytes arrive.
  decoder.Append("xxxx", 4);
  EXPECT_FALSE(decoder.Next().ok());
}

// --- WAL unit tests -------------------------------------------------------

TEST(WalTest, AppendsSurviveReopen) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/test.wal";
  {
    Wal wal;
    WalReplay replay;
    ASSERT_TRUE(wal.Open(path, &replay).ok());
    EXPECT_TRUE(replay.records.empty());
    ASSERT_TRUE(wal.Append("one").ok());
    ASSERT_TRUE(wal.Append("two").ok());
    ASSERT_TRUE(wal.Append(std::string(1000, 'x')).ok());
  }
  Wal wal;
  WalReplay replay;
  ASSERT_TRUE(wal.Open(path, &replay).ok());
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[0], "one");
  EXPECT_EQ(replay.records[1], "two");
  EXPECT_EQ(replay.records[2], std::string(1000, 'x'));
  EXPECT_FALSE(replay.truncated_tail);
}

TEST(WalTest, TornTailIsTruncatedNotFatal) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/test.wal";
  {
    Wal wal;
    WalReplay replay;
    ASSERT_TRUE(wal.Open(path, &replay).ok());
    ASSERT_TRUE(wal.Append("kept").ok());
    ASSERT_TRUE(wal.Append("torn-away").ok());
  }
  // Chop into the middle of the second record: a crash mid-write.
  struct stat st{};
  ASSERT_EQ(stat(path.c_str(), &st), 0);
  ASSERT_EQ(truncate(path.c_str(), st.st_size - 4), 0);

  Wal wal;
  WalReplay replay;
  ASSERT_TRUE(wal.Open(path, &replay).ok());
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0], "kept");
  EXPECT_TRUE(replay.truncated_tail);

  // The tail was repaired on open: appends land cleanly and a further
  // reopen sees both records with no truncation flag.
  ASSERT_TRUE(wal.Append("after-repair").ok());
  wal.Close();
  Wal again;
  WalReplay replay2;
  ASSERT_TRUE(again.Open(path, &replay2).ok());
  ASSERT_EQ(replay2.records.size(), 2u);
  EXPECT_EQ(replay2.records[1], "after-repair");
  EXPECT_FALSE(replay2.truncated_tail);
}

TEST(WalTest, MidLogCorruptionFailsLoudly) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/test.wal";
  {
    Wal wal;
    WalReplay replay;
    ASSERT_TRUE(wal.Open(path, &replay).ok());
    ASSERT_TRUE(wal.Append("first-record-payload").ok());
    ASSERT_TRUE(wal.Append("second-record-payload").ok());
    ASSERT_TRUE(wal.Append("third-record-payload").ok());
  }
  // Flip one payload byte of the FIRST record: its CRC now mismatches
  // but valid records follow, so this is corruption, not a torn tail.
  int fd = open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  char byte = 0;
  ASSERT_EQ(pread(fd, &byte, 1, 8 + 8 + 2), 1);  // magic + frame + 2
  byte ^= 0x40;
  ASSERT_EQ(pwrite(fd, &byte, 1, 8 + 8 + 2), 1);
  close(fd);

  Wal wal;
  WalReplay replay;
  EXPECT_FALSE(wal.Open(path, &replay).ok());
}

// --- registry unit tests --------------------------------------------------

RegistryOptions TestRegistryOptions(const std::string& dir,
                                    int checkpoint_every = 32) {
  RegistryOptions options;
  options.dir = dir;
  options.checkpoint_every = checkpoint_every;
  options.containment.jobs = 1;
  return options;
}

TEST(RegistryTest, RegisterUnregisterAndSnapshotIsolation) {
  std::string dir = MakeTempDir();
  QueryRegistry registry(TestRegistryOptions(dir));
  ASSERT_TRUE(registry.Open().ok());

  ASSERT_TRUE(registry.Register("a", "q(X) :- X : student.").ok());
  std::shared_ptr<const RegistrySnapshotView> before = registry.Snapshot();
  ASSERT_TRUE(registry.Register("b", "q(X) :- X : person.").ok());

  // The old snapshot is immutable: it still sees one entry.
  EXPECT_EQ(before->entries.size(), 1u);
  std::shared_ptr<const RegistrySnapshotView> after = registry.Snapshot();
  EXPECT_EQ(after->entries.size(), 2u);
  EXPECT_GT(after->epoch, before->epoch);

  // Identical re-register is an acked no-op; conflicting text refuses.
  Result<QueryRegistry::RegisterOutcome> again =
      registry.Register("a", "q(X) :- X : student.");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->already_registered);
  EXPECT_FALSE(registry.Register("a", "q(X) :- X : person.").ok());

  ASSERT_TRUE(registry.Unregister("a").ok());
  EXPECT_FALSE(registry.Unregister("a").ok());  // NotFound now
  EXPECT_EQ(registry.Snapshot()->entries.size(), 1u);
  EXPECT_EQ(registry.Snapshot()->Find("b")->name, "b");
}

// Every pair of a snapshot's relation, read by index id over its entries
// in registration order, keyed by names: ids are not stable across a
// reopen, names are.
std::string RelationFingerprint(const RegistrySnapshotView& snap) {
  std::string out;
  for (const RegistryEntryView& lhs : snap.entries) {
    for (const RegistryEntryView& rhs : snap.entries) {
      out += lhs.name + "<" + rhs.name + ":" +
             ResolutionName(snap.resolution[lhs.id][rhs.id]) + ",";
    }
  }
  return out;
}

TEST(RegistryTest, ReopenRecoversEntriesAndLattice) {
  std::string dir = MakeTempDir();
  std::string fingerprint_before;
  uint64_t last_acked_epoch = 0;
  {
    QueryRegistry registry(TestRegistryOptions(dir, /*checkpoint_every=*/2));
    ASSERT_TRUE(registry.Open().ok());
    for (const auto& [name, text] : Workload()) {
      Result<QueryRegistry::RegisterOutcome> outcome =
          registry.Register(name, text);
      ASSERT_TRUE(outcome.ok()) << name;
      last_acked_epoch = outcome->epoch;
    }
    Result<uint64_t> unregistered = registry.Unregister("people");
    ASSERT_TRUE(unregistered.ok());
    EXPECT_GT(*unregistered, last_acked_epoch);
    last_acked_epoch = *unregistered;
    fingerprint_before = RelationFingerprint(*registry.Snapshot());
    // No clean shutdown: drop the registry with WAL + checkpoint as-is.
  }
  QueryRegistry recovered(TestRegistryOptions(dir));
  ASSERT_TRUE(recovered.Open().ok());
  std::shared_ptr<const RegistrySnapshotView> snap = recovered.Snapshot();
  EXPECT_GE(snap->epoch, last_acked_epoch) << "epoch went backwards";
  ASSERT_EQ(snap->entries.size(), Workload().size() - 1);
  EXPECT_EQ(snap->Find("people"), nullptr);
  EXPECT_NE(snap->Find("students"), nullptr);
  EXPECT_EQ(RelationFingerprint(*snap), fingerprint_before);
}

// ---- registry churn ------------------------------------------------------

// Query texts for churn: unary, binary and boolean shapes over three
// classes, with equivalent rewrites, strict sub-bodies, containments that
// hold only under Sigma_FL (rho_3 through `d :: c`) and a mandatory
// attribute.
std::vector<std::string> ChurnPool() {
  std::vector<std::string> pool;
  for (int c = 0; c < 3; ++c) {
    const std::string k = "c" + std::to_string(c);
    const std::string d = "d" + std::to_string(c);
    pool.push_back("q(X) :- X : " + k + ".");
    pool.push_back("q(Y) :- Y : " + k + ", Y : " + k + ".");
    pool.push_back("q(X) :- X : " + k + ", X[a -> Y].");
    pool.push_back("q(X) :- X : " + k + ", X[a -> Y], Y : " + k + ".");
    pool.push_back("q(X) :- X : " + d + ", " + d + " :: " + k + ".");
    pool.push_back("q(X) :- X[b {1:*} *=> " + k + "], X : " + k + ".");
    pool.push_back("q(X, Y) :- X : " + k + ", X[a -> Y].");
    pool.push_back("q(X, Y) :- X[a -> Y].");
    pool.push_back("q() :- X : " + k + ".");
  }
  return pool;
}

using NamedTexts = std::vector<std::pair<std::string, std::string>>;

// The matrix and taxonomy a one-shot batch computes over `live` in
// order: a fresh engine decides every same-arity pair (cross-arity pairs
// are not contained), and the taxonomy comes from the dense entry point
// ClassifyQueries uses.
struct Batch {
  std::vector<std::vector<Resolution>> matrix;
  QueryTaxonomy taxonomy;
};

Batch BatchOver(const NamedTexts& live) {
  World world;
  BatchContainmentOptions options;
  options.jobs = 1;
  ContainmentEngine engine(world, options);
  std::vector<int> arity;
  for (const auto& [name, text] : live) {
    Result<ConjunctiveQuery> query = flogic::ParseQuery(world, text);
    EXPECT_TRUE(query.ok()) << text;
    if (!query.ok()) return {};
    arity.push_back(query->arity());
    EXPECT_TRUE(engine.AddQuery(*query).ok());
  }
  const size_t n = live.size();
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j && arity[i] == arity[j]) pairs.emplace_back(i, j);
    }
  }
  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
  EXPECT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  if (!verdicts.ok()) return {};
  Batch batch;
  batch.matrix.assign(
      n, std::vector<Resolution>(n, Resolution::kNotContained));
  std::vector<std::vector<bool>> contained(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) {
    batch.matrix[i][i] = Resolution::kContained;
    contained[i][i] = true;
  }
  for (size_t k = 0; k < pairs.size(); ++k) {
    const auto [i, j] = pairs[k];
    batch.matrix[i][j] = (*verdicts)[k].resolution;
    contained[i][j] = (*verdicts)[k].contained;
  }
  batch.taxonomy = TaxonomyFromContainment(contained, 0, 0, 0);
  return batch;
}

// Every answer a snapshot gives, as one string: entries in registration
// order, every pair by index id, classes by member name.
std::string SnapshotFingerprint(const RegistrySnapshotView& snap) {
  std::string out = std::to_string(snap.epoch) + ";";
  for (const RegistryEntryView& entry : snap.entries) {
    out += entry.name + "=" + entry.text + "#" + std::to_string(entry.id) +
           ";";
  }
  out += RelationFingerprint(snap);
  for (const std::vector<size_t>& cls : snap.taxonomy.classes) {
    out += "[";
    for (size_t m : cls) out += snap.entries[m].name + " ";
    out += "]";
  }
  for (const auto& [sub, super] : snap.taxonomy.hasse_edges) {
    out += std::to_string(sub) + "<" + std::to_string(super) + " ";
  }
  return out;
}

// The snapshot read through each live entry's index id, in registration
// order, against a one-shot batch over the same queries in that order:
// every pair, class, member and Hasse edge.
void ExpectSnapshotMatchesBatch(const RegistrySnapshotView& snap,
                                const NamedTexts& live) {
  ASSERT_EQ(snap.entries.size(), live.size());
  std::vector<size_t> ids;  // position in registration order -> index id
  for (const RegistryEntryView& entry : snap.entries) {
    const size_t i = ids.size();
    ASSERT_EQ(entry.name, live[i].first);
    ASSERT_EQ(entry.text, live[i].second);
    ASSERT_TRUE(ids.empty() || entry.id > ids.back()) << "ids not ascending";
    ASSERT_EQ(snap.by_name.find(entry.name)->second, entry.id);
    ASSERT_EQ(&snap.entries[entry.id], &entry);
    ASSERT_EQ(snap.Find(entry.name), &entry);
    ids.push_back(entry.id);
  }
  const Batch batch = BatchOver(live);
  for (size_t i = 0; i < live.size(); ++i) {
    for (size_t j = 0; j < live.size(); ++j) {
      EXPECT_EQ(snap.resolution[ids[i]][ids[j]], batch.matrix[i][j])
          << "epoch " << snap.epoch << ": " << live[i].first << " in "
          << live[j].first;
    }
  }
  std::vector<int> class_of(live.size(), -1);
  std::vector<std::vector<size_t>> classes;
  for (const std::vector<size_t>& members : snap.taxonomy.classes) {
    std::vector<size_t> positions;
    for (size_t id : members) {
      auto it = std::lower_bound(ids.begin(), ids.end(), id);
      ASSERT_TRUE(it != ids.end() && *it == id)
          << "epoch " << snap.epoch << ": member " << id << " is not live";
      const size_t i = size_t(it - ids.begin());
      class_of[i] = int(classes.size());
      positions.push_back(i);
    }
    classes.push_back(std::move(positions));
  }
  EXPECT_EQ(class_of, batch.taxonomy.class_of) << "epoch " << snap.epoch;
  EXPECT_EQ(classes, batch.taxonomy.classes) << "epoch " << snap.epoch;
  EXPECT_EQ(snap.taxonomy.hasse_edges, batch.taxonomy.hasse_edges)
      << "epoch " << snap.epoch;
  // The index holds the live queries and nothing else.
  EXPECT_EQ(snap.index.inserts - snap.index.removed, live.size());
  EXPECT_EQ(snap.engine_queries, live.size());
}

// Seeded register/unregister churn around 30 live queries with frequent
// checkpoints. At every epoch the published relation and taxonomy equal
// a one-shot batch over the live queries in registration order; a
// snapshot held across later unregisters, and past its registry, still
// answers its own epoch (the AddressSanitizer job sees any use of a freed
// entry, row or member list); and the index holds exactly the live
// queries, before and after a reopen.
TEST(RegistryTest, ChurnMatchesBatchAtEveryEpochAndFreesEntries) {
  std::string dir = MakeTempDir();
  const std::vector<std::string> pool = ChurnPool();
  Rng rng(20261017);
  NamedTexts live;
  int next_name = 0;
  std::vector<std::pair<std::shared_ptr<const RegistrySnapshotView>,
                        std::string>>
      held;
  {
    QueryRegistry registry(TestRegistryOptions(dir, /*checkpoint_every=*/3));
    ASSERT_TRUE(registry.Open().ok());
    uint64_t epoch = registry.Snapshot()->epoch;
    for (int step = 0; step < 150; ++step) {
      const bool grow =
          live.size() < 24 || (live.size() < 36 && rng.Chance(0.5));
      if (grow) {
        // A name that was unregistered earlier may come back.
        const std::string name =
            next_name > 0 && rng.Chance(0.2)
                ? "n" + std::to_string(rng.Below(uint64_t(next_name)))
                : "n" + std::to_string(next_name++);
        bool taken = false;
        for (const auto& entry : live) taken = taken || entry.first == name;
        if (taken) continue;
        const std::string& text = pool[rng.Below(pool.size())];
        ASSERT_TRUE(registry.Register(name, text).ok()) << name;
        live.emplace_back(name, text);
      } else {
        if (held.size() < 8) {
          std::shared_ptr<const RegistrySnapshotView> snap =
              registry.Snapshot();
          held.emplace_back(snap, SnapshotFingerprint(*snap));
        }
        const size_t victim = size_t(rng.Below(live.size()));
        ASSERT_TRUE(registry.Unregister(live[victim].first).ok());
        live.erase(live.begin() + std::ptrdiff_t(victim));
      }
      std::shared_ptr<const RegistrySnapshotView> snap = registry.Snapshot();
      EXPECT_EQ(snap->epoch, epoch + 1);
      epoch = snap->epoch;
      ExpectSnapshotMatchesBatch(*snap, live);
    }
    ASSERT_EQ(held.size(), 8u);
    for (const auto& [snap, fingerprint] : held) {
      EXPECT_EQ(SnapshotFingerprint(*snap), fingerprint);
    }
  }
  // The registry is gone; the epochs it published still read as they did.
  for (const auto& [snap, fingerprint] : held) {
    EXPECT_EQ(SnapshotFingerprint(*snap), fingerprint);
  }
  QueryRegistry reopened(TestRegistryOptions(dir));
  ASSERT_TRUE(reopened.Open().ok());
  ExpectSnapshotMatchesBatch(*reopened.Snapshot(), live);
}

// A checkpoint written before the epoch was persisted has no "epoch"
// field: it loads as epoch 0, and the next mutation publishes epoch 1.
TEST(RegistryTest, CheckpointWithoutEpochLoadsAsZero) {
  std::string dir = MakeTempDir();
  const std::string payload =
      R"({"entries": [{"name": "a", "query": "q(X) :- X : student."}]})";
  const uint32_t len = uint32_t(payload.size());
  const uint32_t crc = Crc32(payload);
  std::string bytes = "FLOQREG1";
  bytes.append(reinterpret_cast<const char*>(&len), 4);
  bytes.append(reinterpret_cast<const char*>(&crc), 4);
  bytes += payload;
  std::FILE* file = std::fopen((dir + "/registry.floqreg").c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  ASSERT_EQ(std::fclose(file), 0);

  QueryRegistry registry(TestRegistryOptions(dir));
  ASSERT_TRUE(registry.Open().ok());
  EXPECT_EQ(registry.Snapshot()->epoch, 0u);
  EXPECT_NE(registry.Snapshot()->Find("a"), nullptr);
  Result<QueryRegistry::RegisterOutcome> next =
      registry.Register("b", "q(X) :- X : person.");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->epoch, 1u);
}

TEST(RegistryTest, RejectsInvalidNames) {
  std::string dir = MakeTempDir();
  QueryRegistry registry(TestRegistryOptions(dir));
  ASSERT_TRUE(registry.Open().ok());
  EXPECT_FALSE(registry.Register("", "q(X) :- X : student.").ok());
  EXPECT_FALSE(registry.Register("has space", "q(X) :- X : student.").ok());
  EXPECT_FALSE(registry.Register(std::string(300, 'a'),
                                 "q(X) :- X : student.").ok());
  // A parse failure must not reach the WAL: the registry stays clean.
  EXPECT_FALSE(registry.Register("bad", "q(X :-").ok());
  EXPECT_EQ(registry.Snapshot()->entries.size(), 0u);
}

// --- live daemon tests ----------------------------------------------------

TEST(DaemonTest, FullSessionAgainstLiveDaemon) {
  std::string dir = MakeTempDir();
  DaemonProc daemon = SpawnDaemon(dir);
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon));

  for (const auto& [name, text] : Workload()) {
    Result<Json> reply =
        Request(daemon.socket_path, RegisterRequest(name, text));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(*reply->GetBool("ok")) << reply->Serialize();
  }

  // Cached contain: advised ⊆ students, not vice versa.
  Json contain = MakeRequest("contain");
  contain.Set("lhs", Json::String("advised"));
  contain.Set("rhs", Json::String("students"));
  Result<Json> verdict = Request(daemon.socket_path, contain);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->Find("resolution")->AsString(), "CONTAINED");
  EXPECT_TRUE(*verdict->GetBool("cached"));

  contain.Set("lhs", Json::String("students"));
  contain.Set("rhs", Json::String("advised"));
  verdict = Request(daemon.socket_path, contain);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->Find("resolution")->AsString(), "NOT_CONTAINED");

  // Ad-hoc contain against a registered name: fresh chase, same verdict.
  Json adhoc = MakeRequest("contain");
  adhoc.Set("lhs_query",
            Json::String("q(X) :- X : student, X[advisor -> Y]."));
  adhoc.Set("rhs", Json::String("students"));
  verdict = Request(daemon.socket_path, adhoc);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->Find("resolution")->AsString(), "CONTAINED");
  EXPECT_FALSE(*verdict->GetBool("cached"));

  // classify groups the two equivalent student queries.
  Result<Json> classify = Request(daemon.socket_path, MakeRequest("classify"));
  ASSERT_TRUE(classify.ok());
  std::string fingerprint = LatticeFingerprint(*classify);
  EXPECT_NE(fingerprint.find("students2"), std::string::npos);

  // NOT_FOUND is typed, not a verdict.
  Json missing = MakeRequest("contain");
  missing.Set("lhs", Json::String("students"));
  missing.Set("rhs", Json::String("no-such-query"));
  verdict = Request(daemon.socket_path, missing);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(*verdict->GetBool("ok"));
  EXPECT_EQ(verdict->Find("code")->AsString(), "NOT_FOUND");

  // lint over the wire.
  Json lint = MakeRequest("lint");
  lint.Set("program", Json::String("q(X) :- X : student.\nq(X) :- Y : person."));
  Result<Json> lint_reply = Request(daemon.socket_path, lint);
  ASSERT_TRUE(lint_reply.ok());
  EXPECT_TRUE(*lint_reply->GetBool("ok"));

  // status reflects the registered set.
  Result<Json> status = Request(daemon.socket_path, MakeRequest("status"));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status->GetInt("queries"),
            static_cast<int64_t>(Workload().size()));

  Result<Json> metrics = Request(daemon.socket_path, MakeRequest("metrics"));
  ASSERT_TRUE(metrics.ok());
  EXPECT_TRUE(*metrics->GetBool("ok"));

  // Unknown command is INVALID, connection stays usable (new conn here).
  Result<Json> bad = Request(daemon.socket_path, MakeRequest("frobnicate"));
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->Find("code")->AsString(), "INVALID");

  EXPECT_EQ(ShutdownDaemon(daemon), 0);
}

// An ad-hoc contain whose rhs has 8,000 atoms. The hom search places one
// atom per level, so it runs 8,000 levels deep; the daemon must answer
// from its explicit frame stack on the connection thread's default stack,
// and stay up for the next request.
TEST(DaemonTest, AdHocContainWithEightThousandAtomRhs) {
  std::string dir = MakeTempDir();
  DaemonProc daemon = SpawnDaemon(dir);
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon));

  std::string rhs = "q() :- X[Y -> Z]";
  for (int i = 1; i < 8'000; ++i) rhs += ", X[Y -> Z]";
  rhs += ".";
  Json contain = MakeRequest("contain");
  contain.Set("lhs_query", Json::String("q() :- o[a -> v]."));
  contain.Set("rhs_query", Json::String(rhs));
  Result<Json> verdict = Request(daemon.socket_path, contain, 60'000);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  ASSERT_TRUE(*verdict->GetBool("ok")) << verdict->Serialize();
  EXPECT_EQ(verdict->Find("resolution")->AsString(), "CONTAINED");

  Result<Json> pong = Request(daemon.socket_path, MakeRequest("ping"));
  EXPECT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(ShutdownDaemon(daemon), 0);
}

TEST(DaemonTest, RegistrationsSurviveGracefulRestart) {
  std::string dir = MakeTempDir();
  DaemonProc daemon = SpawnDaemon(dir);
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon));
  for (const auto& [name, text] : Workload()) {
    ASSERT_TRUE(Request(daemon.socket_path, RegisterRequest(name, text)).ok());
  }
  std::vector<std::string> matrix_before = ContainMatrix(daemon.socket_path);
  ASSERT_EQ(ShutdownDaemon(daemon), 0);

  DaemonProc restarted = SpawnDaemon(dir);
  DaemonReaper restarted_reaper(restarted);
  ASSERT_TRUE(WaitForDaemon(restarted));
  // The drain checkpointed: recovery needs no WAL replay, and the
  // lattice answers identically.
  EXPECT_EQ(ContainMatrix(restarted.socket_path), matrix_before);
  Result<Json> status = Request(restarted.socket_path, MakeRequest("status"));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status->GetInt("wal_mutations"), 0);
  EXPECT_EQ(ShutdownDaemon(restarted), 0);
}

// `status`, `classify` and cached `contain` answer from the published
// snapshot alone: on one connection they run beside registrations on
// another without racing them (the ThreadSanitizer job runs this) and
// without waiting for their WAL fsync, and each reply is one epoch's
// consistent view.
TEST(DaemonTest, StatusReadsOneSnapshotBesideRegistrations) {
  std::string dir = MakeTempDir();
  DaemonProc daemon = SpawnDaemon(dir, "", {"checkpoint_every=4"});
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon));
  const int status_fd = ConnectUnix(daemon.socket_path);
  ASSERT_GE(status_fd, 0);

  // A pair that stays registered throughout (advised ⊆ students), then
  // the names live at each epoch of the writer's sequence below.
  const std::pair<std::string, std::string> stay[2] = {
      {"stay-sub", "q(X) :- X : student, X[advisor -> Y]."},
      {"stay-super", "q(X) :- X : student."}};
  for (const auto& [name, text] : stay) {
    Result<Json> reply = Call(status_fd, RegisterRequest(name, text));
    ASSERT_TRUE(reply.ok() && *reply->GetBool("ok")) << name;
  }
  std::vector<std::set<std::string>> live_at(3);
  live_at[2] = {stay[0].first, stay[1].first};
  for (int i = 0; i < 60; ++i) {
    const std::string unique =
        Workload()[size_t(i) % Workload().size()].first + "-" +
        std::to_string(i);
    live_at.push_back(live_at.back());
    live_at.back().insert(unique);
    if (i % 2 == 1) {
      live_at.push_back(live_at.back());
      live_at.back().erase(unique);
    }
  }

  std::atomic<bool> writing{true};
  std::atomic<int> write_failures{0};
  std::thread writer([&] {
    const int fd = ConnectUnix(daemon.socket_path);
    if (fd < 0) ++write_failures;
    for (int i = 0; fd >= 0 && i < 60; ++i) {
      const auto& [name, text] = Workload()[size_t(i) % Workload().size()];
      const std::string unique = name + "-" + std::to_string(i);
      Result<Json> reply = Call(fd, RegisterRequest(unique, text));
      if (!reply.ok() || !*reply->GetBool("ok")) ++write_failures;
      if (i % 2 == 1) {
        Json unregister = MakeRequest("unregister");
        unregister.Set("name", Json::String(unique));
        reply = Call(fd, unregister);
        if (!reply.ok() || !*reply->GetBool("ok")) ++write_failures;
      }
    }
    if (fd >= 0) ::close(fd);
    writing = false;
  });

  int replies = 0;
  bool consistent = true;
  auto check_status = [&]() -> std::optional<Json> {
    Result<Json> status = Call(status_fd, MakeRequest("status"));
    if (!status.ok() || !*status->GetBool("ok")) return std::nullopt;
    ++replies;
    const Json* index = status->Find("index");
    if (index == nullptr) return std::nullopt;
    const int64_t queries = *status->GetInt("queries");
    consistent = consistent &&
                 *index->GetInt("inserts") - *index->GetInt("removed") ==
                     queries &&
                 *index->GetInt("engine_queries") == queries;
    return *std::move(status);
  };
  // Each classify lists every name of its epoch exactly once.
  int classifies = 0;
  auto check_classify = [&]() -> bool {
    Result<Json> reply = Call(status_fd, MakeRequest("classify"));
    if (!reply.ok() || !*reply->GetBool("ok")) return false;
    ++classifies;
    const size_t epoch = size_t(*reply->GetInt("epoch"));
    std::multiset<std::string> names;
    for (const Json& members : reply->Find("classes")->items()) {
      for (const Json& member : members.items()) {
        names.insert(member.AsString());
      }
    }
    const bool listed =
        epoch < live_at.size() &&
        names == std::multiset<std::string>(live_at[epoch].begin(),
                                            live_at[epoch].end());
    EXPECT_TRUE(listed) << "classify at epoch " << epoch;
    return listed;
  };
  // The cached verdict of the pair that stays is the constructed one.
  int contains = 0;
  auto check_contain = [&]() -> bool {
    Json request = MakeRequest("contain");
    request.Set("lhs", Json::String(stay[0].first));
    request.Set("rhs", Json::String(stay[1].first));
    Result<Json> reply = Call(status_fd, request);
    if (!reply.ok() || !*reply->GetBool("ok")) return false;
    ++contains;
    const bool contained = *reply->GetString("resolution") == "CONTAINED" &&
                           *reply->GetBool("cached");
    EXPECT_TRUE(contained) << reply->Serialize();
    return contained;
  };
  while (writing.load()) {
    if (!check_status().has_value() || !check_classify() ||
        !check_contain()) {
      break;
    }
  }
  writer.join();
  EXPECT_EQ(write_failures.load(), 0);
  std::optional<Json> last = check_status();
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(check_classify());
  EXPECT_TRUE(check_contain());
  EXPECT_TRUE(consistent);
  EXPECT_GT(replies, 1);
  EXPECT_GT(classifies, 1);
  EXPECT_GT(contains, 1);
  EXPECT_EQ(*last->GetInt("queries"), 32);
  EXPECT_EQ(*last->Find("index")->GetInt("removed"), 30);
  ::close(status_fd);
  // Under ThreadSanitizer a reported race turns the daemon's exit code
  // nonzero.
  EXPECT_EQ(ShutdownDaemon(daemon), 0);
}

TEST(DaemonTest, MalformedFramesGetTypedRepliesAndClose) {
  std::string dir = MakeTempDir();
  DaemonProc daemon = SpawnDaemon(dir);
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon));

  // Valid frame, invalid JSON → BAD_REQUEST, then the server closes.
  int fd = ConnectUnix(daemon.socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteFrame(fd, "not json {{{", Deadline::AfterMillis(5000)).ok());
  FrameDecoder decoder;
  Result<std::string> reply =
      ReadFrame(fd, decoder, Deadline::AfterMillis(5000));
  ASSERT_TRUE(reply.ok());
  Result<Json> parsed = ParseJson(*reply);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("code")->AsString(), "BAD_REQUEST");
  Result<std::string> eof = ReadFrame(fd, decoder, Deadline::AfterMillis(5000));
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);  // clean EOF
  ::close(fd);

  // Oversized frame header → same ladder rung.
  fd = ConnectUnix(daemon.socket_path);
  ASSERT_GE(fd, 0);
  uint32_t huge = kMaxFrameBytes + 1;
  char header[4];
  std::memcpy(header, &huge, 4);
  ASSERT_EQ(write(fd, header, 4), 4);
  FrameDecoder decoder2;
  reply = ReadFrame(fd, decoder2, Deadline::AfterMillis(5000));
  ASSERT_TRUE(reply.ok());
  parsed = ParseJson(*reply);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("code")->AsString(), "BAD_REQUEST");
  ::close(fd);

  // The daemon shrugged it all off.
  EXPECT_TRUE(Request(daemon.socket_path, MakeRequest("ping")).ok());
  EXPECT_EQ(ShutdownDaemon(daemon), 0);
}

#ifdef FLOQ_FAULT_INJECT
TEST(DaemonTest, AdmissionGateShedsBeyondQueueLimit) {
  std::string dir = MakeTempDir();
  // One worker, zero queue: any request arriving while another runs is
  // shed immediately with OVERLOADED — never silently queued. The
  // stall-type fault point pins the first contain inside its admission
  // permit for 2 s, so the probe deterministically finds the worker
  // busy without depending on any query being expensive.
  DaemonProc daemon = SpawnDaemon(dir, "serve.contain.stall",
                                  {"workers=1", "queue_limit=0"});
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon));

  Json slow = MakeRequest("contain");
  slow.Set("lhs_query", Json::String("q(X) :- X : student."));
  slow.Set("rhs_query", Json::String("q(Y) :- Y : student."));

  int slow_fd = ConnectUnix(daemon.socket_path);
  ASSERT_GE(slow_fd, 0);
  ASSERT_TRUE(
      WriteFrame(slow_fd, slow.Serialize(), Deadline::AfterMillis(5000)).ok());
  usleep(300'000);  // let the worker enter the stalled contain

  Result<Json> shed = Request(daemon.socket_path, MakeRequest("ping"));
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_FALSE(*shed->GetBool("ok"));
  const Json* code = shed->Find("code");
  ASSERT_NE(code, nullptr) << shed->Serialize();
  EXPECT_EQ(code->AsString(), "OVERLOADED");

  // Drain while the stalled contain is still in flight: the second
  // signal escalates to cancellation through the shared token, the
  // daemon still answers the slow client, and it exits 0.
  kill(daemon.pid, SIGTERM);
  usleep(100'000);
  kill(daemon.pid, SIGTERM);
  FrameDecoder decoder;
  Result<std::string> payload =
      ReadFrame(slow_fd, decoder, Deadline::AfterMillis(15'000));
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  Result<Json> parsed = ParseJson(*payload);
  ASSERT_TRUE(parsed.ok());
  if (const Json* resolution = parsed->Find("resolution");
      resolution != nullptr) {
    // The trivial pair may still resolve soundly before the cancelled
    // token is observed; a cancelled check must degrade to UNKNOWN —
    // either way, never an unsound verdict.
    EXPECT_TRUE(resolution->AsString() == "CONTAINED" ||
                resolution->AsString() == "UNKNOWN")
        << parsed->Serialize();
  } else {
    EXPECT_FALSE(*parsed->GetBool("ok"));
  }
  ::close(slow_fd);
  EXPECT_EQ(WaitForExit(daemon), 0);
}
#endif  // FLOQ_FAULT_INJECT

TEST(DaemonTest, IdleConnectionsAreDisconnected) {
  std::string dir = MakeTempDir();
  DaemonProc daemon = SpawnDaemon(dir, "", {"idle_timeout_ms=400"});
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon));
  int fd = ConnectUnix(daemon.socket_path);
  ASSERT_GE(fd, 0);
  // Say nothing; the daemon hangs up on us.
  FrameDecoder decoder;
  Result<std::string> read =
      ReadFrame(fd, decoder, Deadline::AfterMillis(5000));
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound)
      << read.status().ToString();
  ::close(fd);
  EXPECT_EQ(ShutdownDaemon(daemon), 0);
}

// --- observability: metrics snapshot, Prometheus, request attribution -----

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::string();
  std::string content;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    content.append(buffer, n);
  }
  std::fclose(file);
  return content;
}

TEST(ObservabilityTest, MetricsOutWrittenOnSigtermDrain) {
  std::string dir = MakeTempDir();
  std::string metrics_path = dir + "/final-metrics.json";
  DaemonProc daemon = SpawnDaemon(dir, "", {"metrics_out=" + metrics_path});
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon));
  ASSERT_TRUE(Request(daemon.socket_path,
                      RegisterRequest("students", "q(X) :- X : student."))
                  .ok());

  kill(daemon.pid, SIGTERM);
  EXPECT_EQ(WaitForExit(daemon), 0);

  // The drain path wrote a final snapshot: canonical JSON with the serve
  // counters armed by the daemon itself.
  std::string snapshot = ReadFileOrEmpty(metrics_path);
  ASSERT_FALSE(snapshot.empty()) << metrics_path << " missing";
  EXPECT_NE(snapshot.find("\"counters\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"gauges\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"serve.requests\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"serve.wal.append.records\": 1"),
            std::string::npos)
      << snapshot;
}

TEST(ObservabilityTest, RepliesCarryRequestIdsAndClientTraceIds) {
  std::string dir = MakeTempDir();
  DaemonProc daemon = SpawnDaemon(dir);
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon));

  // Server-assigned ids are monotonically increasing across requests.
  Result<Json> first = Request(daemon.socket_path, MakeRequest("ping"));
  ASSERT_TRUE(first.ok());
  Result<int64_t> first_id = first->GetInt("request_id");
  ASSERT_TRUE(first_id.ok()) << first->Serialize();
  Result<Json> second = Request(daemon.socket_path, MakeRequest("status"));
  ASSERT_TRUE(second.ok());
  Result<int64_t> second_id = second->GetInt("request_id");
  ASSERT_TRUE(second_id.ok());
  EXPECT_GT(*second_id, *first_id);

  // A client-supplied trace id echoes back on the reply, even a typed
  // error reply.
  Json bad = MakeRequest("frobnicate");
  bad.Set("trace_id", Json::String("deadbeef-cafe"));
  Result<Json> reply = Request(daemon.socket_path, bad);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(*reply->GetBool("ok"));
  Result<std::string> echoed = reply->GetString("trace_id");
  ASSERT_TRUE(echoed.ok()) << reply->Serialize();
  EXPECT_EQ(*echoed, "deadbeef-cafe");
  EXPECT_TRUE(reply->GetInt("request_id").ok()) << reply->Serialize();

  EXPECT_EQ(ShutdownDaemon(daemon), 0);
}

TEST(ObservabilityTest, PrometheusOverProtocol) {
  std::string dir = MakeTempDir();
  DaemonProc daemon = SpawnDaemon(dir);
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon));
  ASSERT_TRUE(Request(daemon.socket_path,
                      RegisterRequest("students", "q(X) :- X : student."))
                  .ok());

  Json request = MakeRequest("metrics");
  request.Set("format", Json::String("prometheus"));
  Result<Json> reply = Request(daemon.socket_path, request);
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(*reply->GetBool("ok")) << reply->Serialize();
  Result<std::string> body = reply->GetString("body");
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body->find("# TYPE floq_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(body->find("# TYPE floq_serve_cmd_register_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(body->find("floq_serve_wal_fsync_us_bucket"), std::string::npos);
  EXPECT_NE(body->find("# TYPE floq_serve_queue_depth gauge"),
            std::string::npos);

  // An unknown format is a typed INVALID, not a guess.
  request.Set("format", Json::String("xml"));
  reply = Request(daemon.socket_path, request);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(*reply->GetBool("ok"));
  EXPECT_EQ(reply->Find("code")->AsString(), "INVALID");

  EXPECT_EQ(ShutdownDaemon(daemon), 0);
}

// Binds an ephemeral loopback port, frees it, and returns its number —
// the next bind can lose a race for it, but the window is tiny and the
// test fails loudly rather than silently.
int ProbeFreePort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  ::close(fd);
  return int(ntohs(addr.sin_port));
}

TEST(ObservabilityTest, HttpMetricsEndpointServesExposition) {
  int port = ProbeFreePort();
  ASSERT_GT(port, 0);
  std::string dir = MakeTempDir();
  DaemonProc daemon = SpawnDaemon(
      dir, "", {"http_metrics_port=" + std::to_string(port)});
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(uint16_t(port));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::write(fd, request, sizeof request - 1),
            ssize_t(sizeof request - 1));
  std::string response;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buffer, sizeof buffer)) > 0) {
    response.append(buffer, size_t(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("floq_serve_requests_total"), std::string::npos);

  // Non-/metrics paths 404 without killing the listener.
  fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const char bad[] = "GET /other HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::write(fd, bad, sizeof bad - 1), ssize_t(sizeof bad - 1));
  response.clear();
  while ((n = ::read(fd, buffer, sizeof buffer)) > 0) {
    response.append(buffer, size_t(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("404"), std::string::npos) << response;

  EXPECT_EQ(ShutdownDaemon(daemon), 0);
}

// --- fault-injection: error points (daemon survives) ----------------------

#ifdef FLOQ_FAULT_INJECT

TEST(FaultTest, CatalogHasEnoughCrashPoints) {
  int crash_points = 0;
  std::set<std::string> names;
  for (const fault::PointInfo& point : fault::kPoints) {
    EXPECT_TRUE(names.insert(point.name).second)
        << "duplicate fault point " << point.name;
    if (point.crash) ++crash_points;
  }
  EXPECT_GE(crash_points, 8) << "the crash suite needs ≥8 kill points";
}

TEST(FaultTest, WalAppendIoErrorIsInternalNotFatal) {
  std::string dir = MakeTempDir();
  DaemonProc daemon = SpawnDaemon(dir, "wal.append.io_error:2");
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon));

  Result<Json> first = Request(
      daemon.socket_path, RegisterRequest("students", "q(X) :- X : student."));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first->GetBool("ok"));

  // Second append hits the injected EIO: a typed INTERNAL error, no ack,
  // no crash — and reads keep working off the last good state.
  Result<Json> second = Request(
      daemon.socket_path, RegisterRequest("people", "q(X) :- X : person."));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(*second->GetBool("ok"));
  EXPECT_EQ(second->Find("code")->AsString(), "INTERNAL");

  Result<Json> status = Request(daemon.socket_path, MakeRequest("status"));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status->GetInt("queries"), 1);
  (void)Request(daemon.socket_path, MakeRequest("shutdown"));
  WaitForExit(daemon);

  // Whatever the exit path, the acked registration must recover.
  DaemonProc recovered = SpawnDaemon(dir);
  DaemonReaper recovered_reaper(recovered);
  ASSERT_TRUE(WaitForDaemon(recovered));
  Result<Json> after = Request(recovered.socket_path, MakeRequest("status"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after->GetInt("queries"), 1);
  EXPECT_EQ(ShutdownDaemon(recovered), 0);
}

TEST(FaultTest, CheckpointIoErrorKeepsWalAuthoritative) {
  std::string dir = MakeTempDir();
  // checkpoint_every=2 → the second register triggers a checkpoint whose
  // injected failure must not lose either acked mutation.
  DaemonProc daemon =
      SpawnDaemon(dir, "checkpoint.io_error", {"checkpoint_every=2"});
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon));
  for (const auto& [name, text] : Workload()) {
    Result<Json> reply =
        Request(daemon.socket_path, RegisterRequest(name, text));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(*reply->GetBool("ok")) << reply->Serialize();
  }
  (void)Request(daemon.socket_path, MakeRequest("shutdown"));
  WaitForExit(daemon);

  DaemonProc recovered = SpawnDaemon(dir);
  DaemonReaper recovered_reaper(recovered);
  ASSERT_TRUE(WaitForDaemon(recovered));
  Result<Json> status = Request(recovered.socket_path, MakeRequest("status"));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status->GetInt("queries"),
            static_cast<int64_t>(Workload().size()));
  EXPECT_EQ(ShutdownDaemon(recovered), 0);
}

TEST(FaultTest, UnknownFaultPointRefusesToStart) {
  std::string dir = MakeTempDir();
  DaemonProc daemon = SpawnDaemon(dir, "no.such.point");
  DaemonReaper daemon_reaper(daemon);
  EXPECT_EQ(WaitForExit(daemon), fault::kBadPointExitCode);
}

// The attribution contract (DESIGN.md §17): one request's id is the SAME
// number in the reply, in the slow-request log line, and in the span tree
// of the rotated trace file. The stall point makes the contain take ~2s
// against a 100ms slow threshold, so the warn line fires
// deterministically; trace_sample=1 keeps every request's spans.
TEST(FaultTest, RequestIdIsConsistentAcrossReplyLogAndTrace) {
  std::string dir = MakeTempDir();
  std::string log_path = dir + "/server-log.jsonl";
  std::string trace_dir = dir + "/traces";
  DaemonProc daemon = SpawnDaemon(
      dir, "serve.contain.stall",
      {"log_out=" + log_path, "log_level=debug", "slow_request_ms=100",
       "trace_sample=1", "trace_dir=" + trace_dir});
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon));

  Json slow = MakeRequest("contain");
  slow.Set("lhs_query", Json::String("q(X) :- X : student."));
  slow.Set("rhs_query", Json::String("q(Y) :- Y : student."));
  slow.Set("trace_id", Json::String("traceid-123"));
  Result<Json> reply = Request(daemon.socket_path, slow);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  Result<int64_t> id = reply->GetInt("request_id");
  ASSERT_TRUE(id.ok()) << reply->Serialize();
  Result<std::string> echoed = reply->GetString("trace_id");
  ASSERT_TRUE(echoed.ok()) << reply->Serialize();
  EXPECT_EQ(*echoed, "traceid-123");

  EXPECT_EQ(ShutdownDaemon(daemon), 0);  // drain rotates the trace file

  const std::string id_field = "\"request_id\": " + std::to_string(*id);

  // The slow-request log line names the same request and trace id.
  std::string log = ReadFileOrEmpty(log_path);
  bool found_slow = false;
  size_t start = 0;
  while (start < log.size()) {
    size_t end = log.find('\n', start);
    if (end == std::string::npos) end = log.size();
    std::string line = log.substr(start, end - start);
    if (line.find("\"msg\": \"request.slow\"") != std::string::npos &&
        line.find("\"cmd\": \"contain\"") != std::string::npos) {
      found_slow = true;
      EXPECT_NE(line.find(id_field), std::string::npos) << line;
      EXPECT_NE(line.find("\"trace_id\": \"traceid-123\""), std::string::npos)
          << line;
    }
    start = end + 1;
  }
  EXPECT_TRUE(found_slow) << log;

  // And the rotated trace's serve.request span carries the same id.
  std::string traces;
  for (int seq = 0; seq < 8; ++seq) {
    traces += ReadFileOrEmpty(trace_dir + "/floq-trace-" +
                              std::to_string(seq) + ".json");
  }
  ASSERT_FALSE(traces.empty());
  EXPECT_NE(traces.find("\"serve.request\""), std::string::npos);
  EXPECT_NE(traces.find(id_field), std::string::npos);
}

// --- the headline: crash-recovery parity suite ----------------------------

struct CrashScenario {
  const char* fault;        // FLOQ_FAULT spec, point[:nth]
  int checkpoint_every;     // daemon checkpoint cadence
};

// Reference lattice from an uninterrupted daemon over the same workload,
// computed once: classify fingerprint + full contain matrix.
struct Reference {
  std::string fingerprint;
  std::vector<std::string> matrix;
};

const Reference& CleanReference() {
  static const Reference reference = [] {
    Reference r;
    std::string dir = MakeTempDir();
    DaemonProc daemon = SpawnDaemon(dir);
    DaemonReaper daemon_reaper(daemon);
    EXPECT_TRUE(WaitForDaemon(daemon));
    for (const auto& [name, text] : Workload()) {
      Result<Json> reply =
          Request(daemon.socket_path, RegisterRequest(name, text));
      EXPECT_TRUE(reply.ok() && *reply->GetBool("ok"));
    }
    Result<Json> classify =
        Request(daemon.socket_path, MakeRequest("classify"));
    EXPECT_TRUE(classify.ok());
    r.fingerprint = LatticeFingerprint(*classify);
    r.matrix = ContainMatrix(daemon.socket_path);
    EXPECT_EQ(ShutdownDaemon(daemon), 0);
    return r;
  }();
  return reference;
}

class CrashRecoveryTest : public ::testing::TestWithParam<CrashScenario> {};

// For each durability-critical fault point: run a daemon armed to die
// there, register the workload until the crash, then restart and assert
//   (1) the process really died at the injected point (exit 42),
//   (2) every ACKED registration survived (durability before ack) and
//       the epoch did not fall below the last acked one,
//   (3) nothing un-attempted was invented,
//   (4) re-registering the full workload is idempotent, and
//   (5) the recovered lattice — classify fingerprint and the complete
//       containment matrix — is byte-identical to the uninterrupted
//       reference. No crash point may yield an unsound verdict.
TEST_P(CrashRecoveryTest, AckedStateAndLatticeSurviveKill) {
  const CrashScenario& scenario = GetParam();
  std::string dir = MakeTempDir();
  DaemonProc daemon =
      SpawnDaemon(dir, scenario.fault,
                  {"checkpoint_every=" +
                   std::to_string(scenario.checkpoint_every)});
  DaemonReaper daemon_reaper(daemon);
  ASSERT_TRUE(WaitForDaemon(daemon)) << scenario.fault;

  std::set<std::string> acked;
  int64_t last_acked_epoch = 0;
  for (const auto& [name, text] : Workload()) {
    Result<Json> reply =
        Request(daemon.socket_path, RegisterRequest(name, text));
    if (reply.ok() && reply->GetBool("ok").ok() && *reply->GetBool("ok")) {
      acked.insert(name);
      last_acked_epoch = *reply->GetInt("epoch");
    } else {
      break;  // the daemon died mid-request (or is already gone)
    }
  }
  ASSERT_EQ(WaitForExit(daemon), fault::kCrashExitCode)
      << scenario.fault << ": daemon did not die at the injected point";

  // Restart, fault disarmed: recovery must be clean.
  DaemonProc recovered = SpawnDaemon(dir);
  DaemonReaper recovered_reaper(recovered);
  ASSERT_TRUE(WaitForDaemon(recovered))
      << scenario.fault << ": recovery failed";

  Result<Json> status = Request(recovered.socket_path, MakeRequest("status"));
  ASSERT_TRUE(status.ok());
  int64_t queries = *status->GetInt("queries");
  EXPECT_GE(queries, static_cast<int64_t>(acked.size()))
      << scenario.fault << ": an acked registration was lost";
  EXPECT_GE(*status->GetInt("epoch"), last_acked_epoch)
      << scenario.fault << ": the epoch went backwards across the restart";
  EXPECT_LE(queries, static_cast<int64_t>(Workload().size()))
      << scenario.fault << ": recovery invented state";
  for (const std::string& name : acked) {
    Json probe = MakeRequest("contain");
    probe.Set("lhs", Json::String(name));
    probe.Set("rhs", Json::String(name));
    Result<Json> self = Request(recovered.socket_path, probe);
    ASSERT_TRUE(self.ok());
    EXPECT_TRUE(*self->GetBool("ok"))
        << scenario.fault << ": acked query " << name << " missing";
    EXPECT_EQ(self->Find("resolution")->AsString(), "CONTAINED");
  }

  // Idempotent top-up to the full workload, then lattice parity.
  for (const auto& [name, text] : Workload()) {
    Result<Json> reply =
        Request(recovered.socket_path, RegisterRequest(name, text));
    ASSERT_TRUE(reply.ok()) << scenario.fault;
    EXPECT_TRUE(*reply->GetBool("ok")) << reply->Serialize();
  }
  Result<Json> classify =
      Request(recovered.socket_path, MakeRequest("classify"));
  ASSERT_TRUE(classify.ok());
  EXPECT_EQ(LatticeFingerprint(*classify), CleanReference().fingerprint)
      << scenario.fault << ": recovered lattice diverged";
  EXPECT_EQ(ContainMatrix(recovered.socket_path), CleanReference().matrix)
      << scenario.fault << ": recovered matrix diverged";

  EXPECT_EQ(ShutdownDaemon(recovered), 0) << scenario.fault;
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashPoints, CrashRecoveryTest,
    ::testing::Values(
        // WAL append: before any bytes, mid-record, after write pre-fsync.
        CrashScenario{"wal.append.before_write:3", 32},
        CrashScenario{"wal.append.torn_write:2", 32},
        CrashScenario{"wal.append.before_fsync:4", 32},
        // Checkpoint: torn tmp, tmp durable but not yet live, live but
        // WAL not yet reset (replay must be idempotent).
        CrashScenario{"checkpoint.tmp.torn_write", 2},
        CrashScenario{"checkpoint.before_rename", 2},
        CrashScenario{"checkpoint.after_rename", 2},
        CrashScenario{"checkpoint.after_rename:2", 2},
        // Request path: between admission and execution, and after the
        // mutation is durable but before the client hears about it.
        CrashScenario{"serve.request.before_execute:3", 32},
        CrashScenario{"serve.request.before_reply:2", 32},
        CrashScenario{"serve.request.before_reply:5", 2}),
    [](const ::testing::TestParamInfo<CrashScenario>& info) {
      std::string name = info.param.fault;
      for (char& c : name) {
        if (c == '.' || c == ':') c = '_';
      }
      return name + "_ck" + std::to_string(info.param.checkpoint_every);
    });

#else  // !FLOQ_FAULT_INJECT

TEST(FaultTest, DISABLED_FaultInjectionCompiledOut) {
  GTEST_SKIP() << "built without FLOQ_FAULT_INJECT";
}

#endif  // FLOQ_FAULT_INJECT

}  // namespace
}  // namespace floq::server

// The crash suite re-executes this binary as a real daemon process.
int DaemonChildMain(int argc, char** argv) {
  floq::server::DaemonOptions options;
  options.dir = argv[2];
  options.socket_path = argv[3];
  options.workers = 2;
  options.jobs = 1;
  for (int i = 4; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (eq == std::string::npos) continue;
    std::string key = arg.substr(0, eq);
    std::string text = arg.substr(eq + 1);
    long long value = std::atoll(text.c_str());
    if (key == "workers") options.workers = int(value);
    else if (key == "queue_limit") options.queue_limit = int(value);
    else if (key == "max_connections") options.max_connections = int(value);
    else if (key == "idle_timeout_ms") options.idle_timeout_ms = value;
    else if (key == "io_timeout_ms") options.io_timeout_ms = value;
    else if (key == "request_timeout_ms") options.request_timeout_ms = value;
    else if (key == "checkpoint_every") options.checkpoint_every = int(value);
    else if (key == "slow_request_ms") options.slow_request_ms = value;
    else if (key == "trace_sample") options.trace_sample = int(value);
    else if (key == "http_metrics_port") options.http_metrics_port = int(value);
    else if (key == "log_out") options.log_out = text;
    else if (key == "log_level") options.log_level = text;
    else if (key == "metrics_out") options.metrics_out = text;
    else if (key == "trace_dir") options.trace_dir = text;
  }
  floq::Status status = floq::server::RunDaemon(options);
  if (!status.ok()) {
    std::fprintf(stderr, "daemon-child: %s\n", status.ToString().c_str());
    return 4;
  }
  return 0;
}

int main(int argc, char** argv) {
  if (argc >= 4 && std::strcmp(argv[1], "--daemon-child") == 0) {
    return DaemonChildMain(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
