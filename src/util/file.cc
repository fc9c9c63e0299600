#include "util/file.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "util/fault.h"

namespace floq {

Status ErrnoError(std::string_view what) {
  const int error = errno;
  std::string message(what);
  message += ": ";
  message += std::strerror(error);
  return error == ENOENT ? NotFoundError(std::move(message))
                         : InternalError(std::move(message));
}

Result<std::string> ReadAll(int fd, std::string_view name) {
  // The size is only a hint; one spare byte lets the read that finds the
  // end of a regular file run without growing the buffer.
  struct stat sb;
  const size_t hint =
      ::fstat(fd, &sb) == 0 && sb.st_size > 0 ? size_t(sb.st_size) : 0;
  std::string bytes(hint + 1, '\0');
  size_t size = 0;
  for (;;) {
    if (size == bytes.size()) bytes.resize(2 * bytes.size() + 4096);
    const ssize_t n = ::read(fd, bytes.data() + size, bytes.size() - size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("read(" + std::string(name) + ")");
    }
    if (n == 0) break;
    size += size_t(n);
  }
  bytes.resize(size);
  return bytes;
}

Result<std::string> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoError("open(" + path + ")");
  Result<std::string> bytes = ReadAll(fd, path);
  ::close(fd);
  return bytes;
}

Status WriteAll(int fd, std::string_view data, std::string_view name) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write(" + std::string(name) + ")");
    }
    data.remove_prefix(size_t(n));
  }
  return Status::Ok();
}

Status WriteFile(const std::string& path, std::string_view data) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoError("open(" + path + ")");
  Status written = WriteAll(fd, data, path);
  if (::close(fd) != 0 && written.ok()) {
    written = ErrnoError("close(" + path + ")");
  }
  return written;
}

Status ReplaceFile(const std::string& path, std::string_view data,
                   const ReplaceFaults& faults) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoError("open(" + tmp + ")");
  if (faults.torn_write != nullptr && fault::Armed(faults.torn_write)) {
    (void)WriteAll(fd, data.substr(0, data.size() / 2), tmp);
    (void)::fsync(fd);
    _exit(fault::kCrashExitCode);
  }
  // fsync before close *and* rename: otherwise a crash after the rename
  // could leave a live file whose data never reached the disk.
  Status replaced = WriteAll(fd, data, tmp);
  if (replaced.ok() && ::fsync(fd) != 0) {
    replaced = ErrnoError("fsync(" + tmp + ")");
  }
  if (::close(fd) != 0 && replaced.ok()) {
    replaced = ErrnoError("close(" + tmp + ")");
  }
  if (replaced.ok()) {
    if (faults.before_rename != nullptr) {
      fault::MaybeCrash(faults.before_rename);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      replaced = ErrnoError("rename(" + tmp + ")");
    }
  }
  if (!replaced.ok()) {
    ::unlink(tmp.c_str());
    return replaced;
  }
  // Make the rename itself durable.
  return SyncParentDir(path);
}

Status SyncParentDir(const std::string& path) {
  const size_t slash = path.rfind('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoError("open(" + dir + ")");
  Status synced =
      ::fsync(fd) == 0 ? Status::Ok() : ErrnoError("fsync(" + dir + ")");
  ::close(fd);
  return synced;
}

}  // namespace floq
