#ifndef FLOQ_UTIL_FILE_H_
#define FLOQ_UTIL_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

// The one file layer (DESIGN.md §16.2): the serve WAL and checkpoint,
// FLOQSNAP snapshots and the CLI's input and output files are read and
// written only through these helpers. A failed system call becomes a
// Status naming the call, the path and strerror(errno); no write error is
// dropped.

namespace floq {

/// The Status for the system call `what` (e.g. "open(/d/registry.wal)")
/// that just failed: NotFound for ENOENT, Internal otherwise.
Status ErrnoError(std::string_view what);

/// Reads `fd` from its offset to end of file; `name` labels errors.
Result<std::string> ReadAll(int fd, std::string_view name);

/// Reads the whole of `path`; NotFound when it does not exist.
Result<std::string> ReadFile(const std::string& path);

/// Writes all of `data` at `fd`'s offset, resuming after short writes and
/// EINTR; `name` labels errors.
Status WriteAll(int fd, std::string_view data, std::string_view name);

/// Creates or truncates `path` and writes `data`, reporting open, write and
/// close errors. Not durable: for output files a crash may lose.
Status WriteFile(const std::string& path, std::string_view data);

/// Crash points (util/fault.h) a durable replace passes; null skips one.
struct ReplaceFaults {
  const char* torn_write = nullptr;     // half the tmp file written, then death
  const char* before_rename = nullptr;  // the tmp file whole and fsync'd
};

/// Atomically and durably replaces `path` with `data`: writes `path`.tmp,
/// fsyncs and closes it, renames it over `path`, then fsyncs the parent
/// directory. A crash leaves either the old file or the new one whole; an
/// error removes the tmp file and leaves `path` untouched.
Status ReplaceFile(const std::string& path, std::string_view data,
                   const ReplaceFaults& faults = {});

/// fsyncs the directory holding `path`, so that a created or renamed
/// entry survives a crash.
Status SyncParentDir(const std::string& path);

}  // namespace floq

#endif  // FLOQ_UTIL_FILE_H_
