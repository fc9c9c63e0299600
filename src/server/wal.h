#ifndef FLOQ_SERVER_WAL_H_
#define FLOQ_SERVER_WAL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

// Append-only write-ahead log backing the `floq serve` registry.
//
// On-disk layout:
//
//   header  := "FLOQWAL1" (8 bytes)
//   record  := u32-LE payload-length, u32-LE CRC-32(payload), payload
//
// The record frame is shared with the registry checkpoint, which is a
// one-record log under its own magic (registry.h). Records are appended
// with write(2) + fsync(2) before the registry acknowledges the mutation,
// so an acked register/unregister survives kill -9 at any later instant.
// Recovery replays records in order and repairs a torn tail: a final
// record whose bytes are incomplete or whose CRC mismatches is truncated
// away (it was never acked — the crash interrupted the append before the
// fsync ack fence), while a CRC mismatch *followed by* more valid bytes
// is real corruption and fails recovery loudly. A file shorter than the
// header whose bytes are a prefix of it is a creation that died before
// its fsync: it opens as an empty log.
//
// Fault points (util/fault.h) are threaded through Append so the
// crash-recovery suite can kill the process before the write, between a
// half-written record and its tail, and after the write but before the
// fsync.

namespace floq::server {

inline constexpr char kWalMagic[8] = {'F', 'L', 'O', 'Q', 'W', 'A', 'L', '1'};
inline constexpr uint32_t kMaxWalRecordBytes = 1u << 20;
// Bytes of a record's frame: its length and its CRC-32.
inline constexpr size_t kRecordFrameBytes = 8;

// Appends `payload`, framed as one record, to `out`.
void AppendRecord(std::string_view payload, std::string* out);

// The payload of the record at the start of `bytes`, or nullopt unless its
// length is at most `max_payload`, that many bytes follow the frame and
// their CRC-32 matches.
std::optional<std::string_view> DecodeRecord(std::string_view bytes,
                                             uint32_t max_payload);

// What the bytes of a WAL file hold; a function of the bytes alone.
struct WalReplay {
  std::vector<std::string> records;
  // Offset just past the last valid record: anything beyond is a torn
  // tail. 0 when the header itself is torn or absent (the log is empty).
  uint64_t valid_bytes = 0;
  // Bytes follow valid_bytes; Open truncates them away.
  bool truncated_tail = false;
};

// Scans a whole WAL file. Fails with InvalidArgument on a wrong header or
// on a valid record anywhere after an invalid one (mid-log corruption).
Result<WalReplay> ScanWal(std::string_view bytes);

class Wal {
 public:
  Wal() = default;
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Opens (creating if absent) the log at `path`, replays every valid
  // record into `replay`, and truncates any torn tail so the next
  // Append lands on a clean boundary; `replay->valid_bytes` is then the
  // log's size.
  Status Open(const std::string& path, WalReplay* replay);

  // Durably appends one record: write, fsync, then return. An error
  // leaves the log closed (the daemon must not ack after a failed
  // append, and a reopened log re-runs tail repair).
  Status Append(std::string_view payload);

  // Truncates back to the bare header after a successful checkpoint.
  Status Reset();

  void Close();
  bool open() const { return fd_ >= 0; }

 private:
  // Reads, scans and repairs the freshly opened log.
  Status Replay(WalReplay* replay);
  // Cuts the log to `size` bytes, fsyncs, and moves the offset there.
  Status TruncateTo(uint64_t size);

  int fd_ = -1;
  std::string path_;
};

}  // namespace floq::server

#endif  // FLOQ_SERVER_WAL_H_
