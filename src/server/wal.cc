#include "server/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "util/crc32.h"
#include "util/fault.h"
#include "util/file.h"
#include "util/metrics.h"

namespace floq::server {

void AppendRecord(std::string_view payload, std::string* out) {
  const uint32_t len = uint32_t(payload.size());
  const uint32_t crc = Crc32(payload);
  out->append(reinterpret_cast<const char*>(&len), 4);
  out->append(reinterpret_cast<const char*>(&crc), 4);
  out->append(payload);
}

std::optional<std::string_view> DecodeRecord(std::string_view bytes,
                                             uint32_t max_payload) {
  if (bytes.size() < kRecordFrameBytes) return std::nullopt;
  uint32_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&len, bytes.data(), 4);
  std::memcpy(&crc, bytes.data() + 4, 4);
  if (len > max_payload || bytes.size() - kRecordFrameBytes < len) {
    return std::nullopt;
  }
  std::string_view payload = bytes.substr(kRecordFrameBytes, len);
  if (Crc32(payload) != crc) return std::nullopt;
  return payload;
}

Result<WalReplay> ScanWal(std::string_view bytes) {
  const std::string_view magic(kWalMagic, sizeof(kWalMagic));
  WalReplay scan;
  scan.truncated_tail = !bytes.empty();
  // Creation died before the header's fsync: nothing was ever acked.
  if (bytes.size() < magic.size() && magic.starts_with(bytes)) return scan;
  if (!bytes.starts_with(magic)) {
    return InvalidArgumentError("WAL header missing or corrupt");
  }
  // One pass: a record at the end of the valid prefix extends it; a record
  // anywhere past a bad byte means the bad record was not the final one,
  // so tail repair would drop acked records.
  size_t valid = magic.size();
  for (size_t at = valid; at + kRecordFrameBytes <= bytes.size();) {
    std::optional<std::string_view> payload =
        DecodeRecord(bytes.substr(at), kMaxWalRecordBytes);
    if (!payload.has_value()) {
      ++at;
      continue;
    }
    if (at != valid) {
      return InvalidArgumentError(
          "WAL corrupt mid-log (valid record follows a bad one)");
    }
    scan.records.emplace_back(*payload);
    valid = at = at + kRecordFrameBytes + payload->size();
  }
  scan.valid_bytes = valid;
  scan.truncated_tail = valid < bytes.size();
  return scan;
}

Wal::~Wal() { Close(); }

void Wal::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Wal::Open(const std::string& path, WalReplay* replay) {
  Close();
  *replay = WalReplay();
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) return ErrnoError("open(" + path + ")");
  path_ = path;
  Status replayed = Replay(replay);
  if (!replayed.ok()) Close();
  return replayed;
}

Status Wal::Replay(WalReplay* replay) {
  if (fault::Armed("wal.replay.io_error")) {
    return InternalError("injected: wal.replay.io_error");
  }
  // Read the whole log (registration logs are small; checkpoints keep
  // them so). The offset ends at the end of the file.
  Result<std::string> bytes = ReadAll(fd_, path_);
  if (!bytes.ok()) return bytes.status();
  Result<WalReplay> scan = ScanWal(*bytes);
  if (!scan.ok()) {
    return InvalidArgumentError(scan.status().message() + ": " + path_);
  }
  *replay = std::move(*scan);
  if (replay->valid_bytes == 0) {
    // A new log, or a header torn before its fsync: write it whole.
    replay->valid_bytes = sizeof(kWalMagic);
    if (::lseek(fd_, 0, SEEK_SET) < 0) {
      return ErrnoError("lseek(" + path_ + ")");
    }
    FLOQ_RETURN_IF_ERROR(WriteAll(
        fd_, std::string_view(kWalMagic, sizeof(kWalMagic)), path_));
    if (::fsync(fd_) != 0) return ErrnoError("fsync(" + path_ + ")");
    return SyncParentDir(path_);
  }
  if (replay->truncated_tail) return TruncateTo(replay->valid_bytes);
  return Status::Ok();
}

Status Wal::TruncateTo(uint64_t size) {
  if (::ftruncate(fd_, off_t(size)) != 0) {
    return ErrnoError("ftruncate(" + path_ + ")");
  }
  if (::fsync(fd_) != 0) return ErrnoError("fsync(" + path_ + ")");
  if (::lseek(fd_, off_t(size), SEEK_SET) < 0) {
    return ErrnoError("lseek(" + path_ + ")");
  }
  return Status::Ok();
}

Status Wal::Append(std::string_view payload) {
  if (fd_ < 0) return FailedPreconditionError("WAL not open");
  if (payload.size() > kMaxWalRecordBytes) {
    return InvalidArgumentError("WAL record too large");
  }
  fault::MaybeCrash("wal.append.before_write");
  if (fault::Armed("wal.append.io_error")) {
    Close();
    return InternalError("injected: wal.append.io_error");
  }

  std::string record;
  AppendRecord(payload, &record);

  if (fault::Armed("wal.append.torn_write")) {
    // Persist half the record — header plus a payload prefix — and die.
    // Recovery must truncate this tail and match a run where the append
    // never happened (it was never acked).
    (void)WriteAll(fd_, std::string_view(record).substr(0, record.size() / 2),
                   path_);
    (void)::fsync(fd_);
    _exit(fault::kCrashExitCode);
  }

  Status st = WriteAll(fd_, record, path_);
  if (!st.ok()) {
    Close();
    return st;
  }
  fault::MaybeCrash("wal.append.before_fsync");
  const bool metered = MetricsRegistry::enabled();
  const auto fsync_start = metered ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point();
  if (::fsync(fd_) != 0) {
    st = ErrnoError("fsync(" + path_ + ")");
    Close();
    return st;
  }
  if (metered) {
    static Histogram& fsync_us =
        MetricsRegistry::Get().histogram("serve.wal.fsync_us");
    static Counter& bytes =
        MetricsRegistry::Get().counter("serve.wal.append.bytes");
    static Counter& records =
        MetricsRegistry::Get().counter("serve.wal.append.records");
    fsync_us.Record(uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - fsync_start)
            .count()));
    bytes.Add(record.size());
    records.Add(1);
  }
  return Status::Ok();
}

Status Wal::Reset() {
  if (fd_ < 0) return FailedPreconditionError("WAL not open");
  Status reset = TruncateTo(sizeof(kWalMagic));
  if (!reset.ok()) Close();
  return reset;
}

}  // namespace floq::server
