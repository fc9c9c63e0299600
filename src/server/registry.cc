#include "server/registry.h"

#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "flogic/parser.h"
#include "server/protocol.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/log.h"
#include "util/metrics.h"

namespace floq::server {

namespace {

constexpr char kCheckpointMagic[8] = {'F', 'L', 'O', 'Q',
                                      'R', 'E', 'G', '1'};

Status Errno(const char* op) {
  return InternalError(std::string(op) + ": " + std::strerror(errno));
}

Status ValidateName(const std::string& name) {
  if (name.empty() || name.size() > 256) {
    return InvalidArgumentError("query name must be 1..256 bytes");
  }
  for (char c : name) {
    if (static_cast<unsigned char>(c) < 0x21 || c == 0x7F) {
      return InvalidArgumentError(
          "query name must not contain spaces or control bytes");
    }
  }
  return Status::Ok();
}

Status SyncParentDir(const std::string& path) {
  size_t slash = path.rfind('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return Errno("open(dir)");
  int rc = ::fsync(dfd);
  int saved = errno;
  ::close(dfd);
  if (rc != 0) {
    errno = saved;
    return Errno("fsync(dir)");
  }
  return Status::Ok();
}

}  // namespace

QueryRegistry::QueryRegistry(RegistryOptions options)
    : options_(std::move(options)),
      checkpoint_path_(options_.dir + "/registry.floqreg"),
      wal_path_(options_.dir + "/registry.wal"),
      index_(world_, options_.containment) {}

QueryRegistry::~QueryRegistry() {
  for (auto& record : records_) retired_entries_.Retire(std::move(record));
}

Status QueryRegistry::Open() {
  std::shared_ptr<const RegistrySnapshotView> retired;  // freed after mu_
  std::lock_guard<std::mutex> lock(mu_);
  if (fault::Armed("registry.load.io_error")) {
    return InternalError("injected: registry.load.io_error");
  }

  std::vector<RegistryEntryView> checkpointed;
  bool have_checkpoint = false;
  FLOQ_RETURN_IF_ERROR(
      LoadCheckpoint(&checkpointed, &epoch_, &have_checkpoint));
  for (const RegistryEntryView& entry : checkpointed) {
    bool applied = false;
    Status st = ApplyRegister(entry.name, entry.text, &applied);
    if (!st.ok()) {
      return InternalError("checkpoint entry '" + entry.name +
                           "' failed to re-apply: " + st.ToString());
    }
  }

  WalReplay replay;
  FLOQ_RETURN_IF_ERROR(wal_.Open(wal_path_, &replay));
  for (const std::string& record : replay.records) {
    bool applied = false;
    FLOQ_RETURN_IF_ERROR(ApplyWalRecord(record, &applied));
    // Idempotent no-ops (records a checkpoint already holds) publish
    // nothing new, so they advance no epoch.
    if (applied) ++epoch_;
  }
  // Recovery state is in memory only; the files already encode it, so no
  // checkpoint is forced here — mutation counting starts fresh.
  dirty_ = uint64_t(replay.records.size());
  retired = PublishLocked();
  return Status::Ok();
}

Status QueryRegistry::LoadCheckpoint(std::vector<RegistryEntryView>* entries,
                                     uint64_t* epoch, bool* found) {
  *found = false;
  *epoch = 0;
  int fd = ::open(checkpoint_path_.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::Ok();
    return Errno("open(checkpoint)");
  }
  struct stat sb;
  if (::fstat(fd, &sb) != 0) {
    Status st = Errno("fstat(checkpoint)");
    ::close(fd);
    return st;
  }
  std::string bytes(size_t(sb.st_size), '\0');
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::pread(fd, bytes.data() + off, bytes.size() - off,
                        off_t(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Errno("pread(checkpoint)");
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    off += size_t(n);
  }
  ::close(fd);
  bytes.resize(off);

  // The checkpoint only becomes live via rename, so a torn or corrupt
  // live checkpoint is real corruption, never an interrupted write.
  if (bytes.size() < sizeof(kCheckpointMagic) + 8 ||
      std::memcmp(bytes.data(), kCheckpointMagic,
                  sizeof(kCheckpointMagic)) != 0) {
    return InvalidArgumentError("registry checkpoint corrupt (header): " +
                                checkpoint_path_);
  }
  uint32_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&len, bytes.data() + 8, 4);
  std::memcpy(&crc, bytes.data() + 12, 4);
  if (bytes.size() != 16 + size_t(len)) {
    return InvalidArgumentError("registry checkpoint corrupt (size): " +
                                checkpoint_path_);
  }
  std::string_view payload(bytes.data() + 16, len);
  if (Crc32(payload) != crc) {
    return InvalidArgumentError("registry checkpoint corrupt (CRC): " +
                                checkpoint_path_);
  }
  Result<Json> doc = ParseJson(payload);
  if (!doc.ok()) {
    return InvalidArgumentError("registry checkpoint corrupt (JSON): " +
                                doc.status().message());
  }
  // Checkpoints written before the epoch was persisted carry no field:
  // they load as epoch 0.
  if (doc->Find("epoch") != nullptr) {
    Result<int64_t> stored = doc->GetInt("epoch");
    if (!stored.ok() || *stored < 0) {
      return InvalidArgumentError("registry checkpoint corrupt (epoch)");
    }
    *epoch = uint64_t(*stored);
  }
  const Json* list = doc->Find("entries");
  if (list == nullptr || !list->is_array()) {
    return InvalidArgumentError(
        "registry checkpoint corrupt (no entries array)");
  }
  for (const Json& item : list->items()) {
    Result<std::string> name = item.GetString("name");
    Result<std::string> text = item.GetString("query");
    if (!name.ok() || !text.ok()) {
      return InvalidArgumentError("registry checkpoint corrupt (entry)");
    }
    RegistryEntryView entry;
    entry.name = *name;
    entry.text = *text;
    entries->push_back(std::move(entry));
  }
  *found = true;
  return Status::Ok();
}

Status QueryRegistry::ApplyRegister(const std::string& name,
                                    const std::string& text, bool* applied) {
  *applied = false;
  FLOQ_RETURN_IF_ERROR(ValidateName(name));
  if (const RegistryEntryView* live = FindLocked(name); live != nullptr) {
    if (live->text == text) return Status::Ok();  // idempotent replay
    return FailedPreconditionError("query '" + name +
                                   "' already registered with a "
                                   "different definition");
  }
  Result<ConjunctiveQuery> query = flogic::ParseQuery(world_, text);
  if (!query.ok()) return query.status();
  FLOQ_RETURN_IF_ERROR(InsertLocked(name, text, *query));
  *applied = true;
  return Status::Ok();
}

Status QueryRegistry::InsertLocked(const std::string& name,
                                   const std::string& text,
                                   const ConjunctiveQuery& query) {
  Result<size_t> id = index_.Insert(query);
  if (!id.ok()) return id.status();
  auto entry = std::make_shared<const RegistryEntryView>(
      RegistryEntryView{name, text, *id});
  by_name_.Insert(entry->name, *id);
  // Ids ascend with registration, so appending keeps entries_ sorted.
  entries_.ids_.push_back(*id);
  entries_.items_.items().push_back(entry.get());
  records_.push_back(std::move(entry));
  return Status::Ok();
}

Status QueryRegistry::ApplyUnregister(const std::string& name,
                                      bool* applied) {
  *applied = false;
  const NameIndex::Item* it = by_name_.find(name);
  if (it == by_name_.end()) return Status::Ok();  // idempotent replay
  const size_t id = it->second;
  FLOQ_RETURN_IF_ERROR(index_.Remove(id));
  // The name item views the record's string: it goes first.
  by_name_.Erase(name);
  const auto position = std::ptrdiff_t(entries_.PositionOf(id));
  entries_.ids_.erase(entries_.ids_.begin() + position);
  entries_.items_.items().erase(entries_.items_.items().begin() + position);
  retired_entries_.Retire(std::move(records_[size_t(position)]));
  records_.erase(records_.begin() + position);
  retired_entries_.Seal();
  *applied = true;
  return Status::Ok();
}

Status QueryRegistry::ApplyWalRecord(const std::string& payload,
                                     bool* applied) {
  *applied = false;
  Result<Json> doc = ParseJson(payload);
  if (!doc.ok()) {
    return InvalidArgumentError("WAL record is not JSON: " +
                                doc.status().message());
  }
  Result<std::string> op = doc->GetString("op");
  if (!op.ok()) return op.status();
  if (*op == "register") {
    Result<std::string> name = doc->GetString("name");
    Result<std::string> text = doc->GetString("query");
    if (!name.ok()) return name.status();
    if (!text.ok()) return text.status();
    return ApplyRegister(*name, *text, applied);
  }
  if (*op == "unregister") {
    Result<std::string> name = doc->GetString("name");
    if (!name.ok()) return name.status();
    return ApplyUnregister(*name, applied);
  }
  return InvalidArgumentError("WAL record has unknown op '" + *op + "'");
}

Result<QueryRegistry::RegisterOutcome> QueryRegistry::Register(
    const std::string& name, const std::string& text) {
  std::shared_ptr<const RegistrySnapshotView> retired;  // freed after mu_
  std::lock_guard<std::mutex> lock(mu_);
  FLOQ_RETURN_IF_ERROR(ValidateName(name));
  if (const RegistryEntryView* live = FindLocked(name); live != nullptr) {
    if (live->text != text) {
      return FailedPreconditionError("query '" + name +
                                     "' already registered with a "
                                     "different definition");
    }
    RegisterOutcome outcome;
    outcome.epoch = epoch_;
    outcome.already_registered = true;
    return outcome;
  }
  // Parse before logging: the WAL must only ever hold records that
  // re-apply cleanly on recovery. The one parse is the one inserted below;
  // a text that fails leaves at most some interned names in world_.
  auto start = std::chrono::steady_clock::now();
  Result<ConjunctiveQuery> query = flogic::ParseQuery(world_, text);
  if (!query.ok()) return query.status();
  auto insert_time = std::chrono::steady_clock::now() - start;

  Json record = Json::Object();
  record.Set("op", Json::String("register"));
  record.Set("name", Json::String(name));
  record.Set("query", Json::String(text));
  FLOQ_RETURN_IF_ERROR(wal_.Append(record.Serialize()));

  // Durable from here: even if this process dies before the in-memory
  // apply below, recovery replays the record.
  start = std::chrono::steady_clock::now();
  FLOQ_RETURN_IF_ERROR(InsertLocked(name, text, *query));
  insert_time += std::chrono::steady_clock::now() - start;
  if (MetricsRegistry::enabled()) {
    // Parse plus index insert: a registration's share that is neither the
    // WAL append (serve.wal.*) nor the publish.
    static Histogram& insert_us =
        MetricsRegistry::Get().histogram("serve.registry.insert_us");
    insert_us.Record(uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(insert_time)
            .count()));
  }
  ++epoch_;
  ++dirty_;
  MaybeCheckpointLocked();
  retired = PublishLocked();
  RegisterOutcome outcome;
  outcome.epoch = epoch_;
  return outcome;
}

Result<uint64_t> QueryRegistry::Unregister(const std::string& name) {
  std::shared_ptr<const RegistrySnapshotView> retired;  // freed after mu_
  std::lock_guard<std::mutex> lock(mu_);
  if (FindLocked(name) == nullptr) {
    return NotFoundError("no registered query named '" + name + "'");
  }
  Json record = Json::Object();
  record.Set("op", Json::String("unregister"));
  record.Set("name", Json::String(name));
  FLOQ_RETURN_IF_ERROR(wal_.Append(record.Serialize()));
  bool applied = false;
  FLOQ_RETURN_IF_ERROR(ApplyUnregister(name, &applied));
  ++epoch_;
  ++dirty_;
  MaybeCheckpointLocked();
  retired = PublishLocked();
  return epoch_;
}

Status QueryRegistry::Checkpoint() {
  std::shared_ptr<const RegistrySnapshotView> retired;  // freed after mu_
  std::lock_guard<std::mutex> lock(mu_);
  FLOQ_RETURN_IF_ERROR(CheckpointLocked());
  retired = PublishLocked();  // the snapshot's wal_mutations now reads 0
  return Status::Ok();
}

// The mutation is already fsync'd in the WAL when this runs, so a failed
// cadence checkpoint must not fail (or worse, un-ack) the mutation:
// recovery just replays a longer log. The error is reported and the next
// mutation retries (dirty_ keeps counting).
void QueryRegistry::MaybeCheckpointLocked() {
  if (options_.checkpoint_every <= 0 ||
      dirty_ < uint64_t(options_.checkpoint_every)) {
    return;
  }
  if (Status checkpointed = CheckpointLocked(); !checkpointed.ok()) {
    // The WAL remains authoritative; recovery replays a longer log.
    FLOQ_LOG(Warn, "checkpoint.failed")
        .Str("error", checkpointed.ToString())
        .Num("dirty", int64_t(dirty_));
  }
}

Status QueryRegistry::CheckpointLocked() {
  auto checkpoint_start = std::chrono::steady_clock::now();
  if (fault::Armed("checkpoint.io_error")) {
    // The WAL still holds every mutation: recovery without this
    // checkpoint reaches the same state, so the daemon reports the error
    // and keeps serving.
    return InternalError("injected: checkpoint.io_error");
  }

  Json doc = Json::Object();
  Json entries = Json::Array();
  for (const RegistryEntryView& entry : entries_) {
    Json item = Json::Object();
    item.Set("name", Json::String(entry.name));
    item.Set("query", Json::String(entry.text));
    entries.Append(std::move(item));
  }
  doc.Set("epoch", Json::Number(double(epoch_)));
  doc.Set("entries", std::move(entries));
  std::string payload = doc.Serialize();

  uint32_t len = uint32_t(payload.size());
  uint32_t crc = Crc32(payload);
  std::string bytes(kCheckpointMagic, sizeof(kCheckpointMagic));
  bytes.append(reinterpret_cast<const char*>(&len), 4);
  bytes.append(reinterpret_cast<const char*>(&crc), 4);
  bytes.append(payload);

  const std::string tmp = checkpoint_path_ + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open(checkpoint.tmp)");
  if (fault::Armed("checkpoint.tmp.torn_write")) {
    // Half a checkpoint in the tmp file, then death: the live checkpoint
    // and WAL are untouched, so recovery must not even notice.
    (void)!::write(fd, bytes.data(), bytes.size() / 2);
    (void)::fsync(fd);
    _exit(fault::kCrashExitCode);
  }
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Errno("write(checkpoint.tmp)");
      ::close(fd);
      ::unlink(tmp.c_str());
      return st;
    }
    off += size_t(n);
  }
  if (::fsync(fd) != 0) {
    Status st = Errno("fsync(checkpoint.tmp)");
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  ::close(fd);

  fault::MaybeCrash("checkpoint.before_rename");
  if (::rename(tmp.c_str(), checkpoint_path_.c_str()) != 0) {
    Status st = Errno("rename(checkpoint)");
    ::unlink(tmp.c_str());
    return st;
  }
  // Make the rename itself durable before truncating the WAL — reversing
  // the order could lose the registry to a crash between the two.
  FLOQ_RETURN_IF_ERROR(SyncParentDir(checkpoint_path_));
  fault::MaybeCrash("checkpoint.after_rename");
  FLOQ_RETURN_IF_ERROR(wal_.Reset());
  dirty_ = 0;
  if (MetricsRegistry::enabled()) {
    static Histogram& duration_us =
        MetricsRegistry::Get().histogram("serve.checkpoint.duration_us");
    static Counter& count =
        MetricsRegistry::Get().counter("serve.checkpoint.count");
    static Gauge& last_unix_s =
        MetricsRegistry::Get().gauge("serve.checkpoint.last_unix_s");
    duration_us.Record(uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - checkpoint_start)
            .count()));
    count.Add(1);
    // Scrapers derive checkpoint age as time() - this gauge.
    last_unix_s.Set(std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count());
  }
  return Status::Ok();
}

std::shared_ptr<const RegistrySnapshotView> QueryRegistry::PublishLocked() {
  const auto start = std::chrono::steady_clock::now();
  auto view = std::make_shared<RegistrySnapshotView>();
  view->epoch = epoch_;
  view->entries = entries_;
  view->entries.pin_ = retired_entries_.pin();
  view->by_name = by_name_;
  view->resolution = index_.Relation();
  view->taxonomy = index_.taxonomy().View();
  view->index = index_.index_stats();
  view->wal_mutations = dirty_;
  view->engine_queries = index_.engine().live_query_count();
  if (MetricsRegistry::enabled()) {
    static Gauge& queries = MetricsRegistry::Get().gauge("serve.registry.queries");
    static Gauge& epoch = MetricsRegistry::Get().gauge("serve.registry.epoch");
    static Gauge& hasse = MetricsRegistry::Get().gauge("serve.registry.hasse_edges");
    static Gauge& wal_dirty = MetricsRegistry::Get().gauge("serve.wal.dirty");
    static Histogram& publish_us =
        MetricsRegistry::Get().histogram("serve.registry.publish_us");
    queries.Set(int64_t(view->entries.size()));
    epoch.Set(int64_t(view->epoch));
    hasse.Set(int64_t(view->taxonomy.hasse_edges.size()));
    wal_dirty.Set(int64_t(dirty_));
    publish_us.Record(uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return std::exchange(snapshot_, std::move(view));
}

const RegistryEntryView* QueryRegistry::FindLocked(
    std::string_view name) const {
  const NameIndex::Item* it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &entries_[it->second];
}

std::shared_ptr<const RegistrySnapshotView> QueryRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

}  // namespace floq::server
