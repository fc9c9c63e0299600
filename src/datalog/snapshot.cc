#include "datalog/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/crc32.h"

namespace floq {

namespace {

// File layout (all offsets from file start, little-endian):
//   SnapshotHeader
//   atoms    : Atom[atom_count]              (64-aligned)
//   postings : uint32[posting_count]         (64-aligned)
//   preds    : PredTableEntry[pred_count]    (64-aligned)
//   args     : ArgTableEntry[arg_count]      (64-aligned)
//   symbols  : length-prefixed blob          (64-aligned)
// Every posting list is one ascending run of ids in the postings section;
// its table entry holds the run's offset (in ids) and length.
constexpr char kMagic[8] = {'F', 'L', 'O', 'Q', 'S', 'N', 'A', 'P'};

struct SnapshotHeader {
  char magic[8];
  uint32_t version;
  uint32_t flags;
  uint32_t atom_count;
  uint32_t pred_count;
  uint32_t arg_count;
  // CRC-32 of this header with the field itself zeroed: catches a torn
  // or bit-flipped header before any offset is trusted.
  uint32_t header_crc;
  uint64_t atoms_offset;
  uint64_t postings_offset;
  uint64_t posting_count;  // ids in the postings section
  uint64_t preds_offset;
  uint64_t args_offset;
  uint64_t symbols_offset;
  uint64_t symbols_size;
  // CRC-32 of the symbols section (low 32 bits; the section every load
  // reads eagerly — the mmap-ed atom/posting sections stay lazily faulted
  // and rely on the bounds checks).
  uint64_t symbols_crc;
};
static_assert(std::is_trivially_copyable_v<SnapshotHeader>);
static_assert(sizeof(SnapshotHeader) == 96);

struct PredTableEntry {
  uint32_t predicate;
  uint32_t offset;  // in ids, from the start of the postings section
  uint32_t count;
  uint32_t reserved;
};
static_assert(sizeof(PredTableEntry) == 16);

struct ArgTableEntry {
  uint64_t key;
  uint32_t offset;  // in ids, from the start of the postings section
  uint32_t count;
};
static_assert(sizeof(ArgTableEntry) == 16);

static_assert(std::is_trivially_copyable_v<Atom>,
              "atoms are stored as raw bytes");

// Read-only private mapping of a whole file, kept alive by shared_ptr
// from everything that points into it (FactIndex atom span and posting
// runs).
struct MappedFile {
  const uint8_t* data = nullptr;
  size_t size = 0;

  ~MappedFile() {
    if (data != nullptr) {
      ::munmap(const_cast<uint8_t*>(data), size);
    }
  }
};

constexpr uint64_t kSectionAlign = 64;

// Buffered whole-file writer; sections are appended with alignment pads.
class FileWriter {
 public:
  void Pad() {
    while (bytes_.size() % kSectionAlign != 0) bytes_.push_back(0);
  }

  uint64_t offset() const { return bytes_.size(); }

  void Append(const void* data, size_t size) {
    if (size == 0) return;
    const uint8_t* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }

  void AppendU32(uint32_t v) { Append(&v, sizeof v); }

  void AppendString(const std::string& s) {
    AppendU32(uint32_t(s.size()));
    Append(s.data(), s.size());
  }

  void PatchHeader(const SnapshotHeader& header) {
    std::memcpy(bytes_.data(), &header, sizeof header);
  }

  Status WriteTo(const std::string& path) {
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
      return InvalidArgumentError("cannot open snapshot file for writing: " +
                                  tmp);
    }
    // fsync before close *and* rename: a crash between rename and the
    // data reaching disk would otherwise leave a live snapshot full of
    // zero pages — exactly the torn state the CRCs exist to catch, but
    // better never to create it.
    const size_t written = std::fwrite(bytes_.data(), 1, bytes_.size(), f);
    bool flushed = written == bytes_.size() && std::fflush(f) == 0 &&
                   ::fsync(fileno(f)) == 0;
    flushed = std::fclose(f) == 0 && flushed;
    if (!flushed || std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      return InternalError("short write while saving snapshot: " + path);
    }
    // Make the rename itself durable: fsync the parent directory.
    size_t slash = path.rfind('/');
    std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    if (dir.empty()) dir = "/";
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0) {
      return InternalError("cannot open snapshot directory for fsync: " + dir);
    }
    const bool dir_synced = ::fsync(dfd) == 0;
    ::close(dfd);
    if (!dir_synced) {
      return InternalError("fsync failed on snapshot directory: " + dir);
    }
    return Status::Ok();
  }

  std::vector<uint8_t> bytes_;
};

// Bounds-checked reader over the symbol blob of a mapped snapshot.
class BlobReader {
 public:
  BlobReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU32(uint32_t& out) {
    if (pos_ + 4 > size_) return false;
    std::memcpy(&out, data_ + pos_, 4);
    pos_ += 4;
    return true;
  }

  bool ReadString(std::string& out) {
    uint32_t len = 0;
    if (!ReadU32(len) || pos_ + len > size_) return false;
    out.assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

// Privileged access to FactIndex storage (friend; see fact_index.h).
class SnapshotIO {
 public:
  static Status Write(const FactIndex& index, const World& world,
                      const std::string& path, uint32_t flags) {
    FileWriter out;
    SnapshotHeader header{};
    std::memcpy(header.magic, kMagic, sizeof kMagic);
    header.version = kSnapshotFormatVersion;
    header.flags = flags;
    header.atom_count = index.size();
    header.pred_count = uint32_t(index.by_predicate_.size());
    header.arg_count = uint32_t(index.by_argument_.size());
    out.Append(&header, sizeof header);

    out.Pad();
    header.atoms_offset = out.offset();
    if (index.mapped_count_ > 0) {
      out.Append(index.mapped_atoms_.data(),
                 size_t(index.mapped_count_) * sizeof(Atom));
    }
    out.Append(index.atoms_.data(), index.atoms_.size() * sizeof(Atom));

    // Postings first, tables after: each entry needs its run's offset.
    out.Pad();
    header.postings_offset = out.offset();
    auto append_run = [&](const FactIndex::PostingList& list) {
      const std::span<const uint32_t> ids = list.view();
      const uint64_t offset = header.posting_count;
      header.posting_count += ids.size();
      out.Append(ids.data(), ids.size_bytes());
      return offset;
    };
    std::vector<PredTableEntry> preds;
    preds.reserve(index.by_predicate_.size());
    for (const auto& [pred, list] : index.by_predicate_) {
      const uint64_t offset = append_run(list);
      preds.push_back(
          {pred, uint32_t(offset), uint32_t(list.view().size()), 0});
    }
    std::vector<ArgTableEntry> args;
    args.reserve(index.by_argument_.size());
    for (const auto& [key, list] : index.by_argument_) {
      const uint64_t offset = append_run(list);
      args.push_back({key, uint32_t(offset), uint32_t(list.view().size())});
    }
    if (header.posting_count > UINT32_MAX) {
      return InvalidArgumentError(
          "index too large for a snapshot (more than 2^32 postings): " +
          path);
    }

    out.Pad();
    header.preds_offset = out.offset();
    out.Append(preds.data(), preds.size() * sizeof(PredTableEntry));

    out.Pad();
    header.args_offset = out.offset();
    out.Append(args.data(), args.size() * sizeof(ArgTableEntry));

    out.Pad();
    header.symbols_offset = out.offset();
    out.AppendU32(world.constant_count());
    for (uint32_t i = 0; i < world.constant_count(); ++i) {
      out.AppendString(world.NameOf(Term::Constant(i)));
    }
    out.AppendU32(world.variable_count());
    for (uint32_t i = 0; i < world.variable_count(); ++i) {
      out.AppendString(world.NameOf(Term::Variable(i)));
    }
    out.AppendU32(world.predicates().size());
    for (uint32_t i = 0; i < world.predicates().size(); ++i) {
      out.AppendString(world.predicates().NameOf(i));
      out.AppendU32(uint32_t(world.predicates().ArityOf(i)));
    }
    out.AppendU32(world.null_count());
    header.symbols_size = out.offset() - header.symbols_offset;

    header.symbols_crc = Crc32(out.bytes_.data() + header.symbols_offset,
                               size_t(header.symbols_size));
    header.header_crc = 0;
    header.header_crc = Crc32(&header, sizeof header);
    out.PatchHeader(header);
    return out.WriteTo(path);
  }

  static Result<SnapshotInfo> Load(const std::string& path, World& world,
                                   FactIndex& index) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return NotFoundError("cannot open snapshot: " + path);
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < off_t(sizeof(SnapshotHeader))) {
      ::close(fd);
      return InvalidArgumentError("snapshot too small: " + path);
    }
    const size_t file_size = size_t(st.st_size);
    void* raw = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (raw == MAP_FAILED) {
      return InternalError("mmap failed for snapshot: " + path);
    }
    auto mapping = std::make_shared<MappedFile>();
    mapping->data = static_cast<const uint8_t*>(raw);
    mapping->size = file_size;
    const uint8_t* base = mapping->data;

    SnapshotHeader header;
    std::memcpy(&header, base, sizeof header);
    if (std::memcmp(header.magic, kMagic, sizeof kMagic) != 0) {
      return InvalidArgumentError("not a floq snapshot: " + path);
    }
    if (header.version != kSnapshotFormatVersion) {
      return InvalidArgumentError(
          "snapshot version " + std::to_string(header.version) +
          " unsupported (expected " +
          std::to_string(kSnapshotFormatVersion) + "): " + path);
    }
    {
      SnapshotHeader checked = header;
      const uint32_t stored = checked.header_crc;
      checked.header_crc = 0;
      if (Crc32(&checked, sizeof checked) != stored) {
        return InvalidArgumentError("snapshot header CRC mismatch: " + path);
      }
    }
    // `count` elements of `size` bytes from `offset` fit in the file
    // (divided rather than multiplied, so no count can overflow).
    auto section_ok = [&](uint64_t offset, uint64_t count, uint64_t size) {
      return offset <= file_size && count <= (file_size - offset) / size;
    };
    if (!section_ok(header.atoms_offset, header.atom_count, sizeof(Atom)) ||
        !section_ok(header.postings_offset, header.posting_count,
                    sizeof(uint32_t)) ||
        header.postings_offset % alignof(uint32_t) != 0 ||
        !section_ok(header.preds_offset, header.pred_count,
                    sizeof(PredTableEntry)) ||
        !section_ok(header.args_offset, header.arg_count,
                    sizeof(ArgTableEntry)) ||
        !section_ok(header.symbols_offset, header.symbols_size, 1)) {
      return InvalidArgumentError("snapshot sections out of bounds: " + path);
    }
    if (Crc32(base + header.symbols_offset, size_t(header.symbols_size)) !=
        uint32_t(header.symbols_crc)) {
      return InvalidArgumentError("snapshot symbol table CRC mismatch: " +
                                  path);
    }

    // Restore the symbol tables. Interning must reproduce the stored ids
    // exactly — the Term encodings in the atom array depend on them — so
    // the target world must be fresh or already identical.
    BlobReader blob(base + header.symbols_offset, header.symbols_size);
    uint32_t count = 0;
    std::string name;
    auto corrupt = [&]() {
      return InvalidArgumentError("snapshot symbol table corrupt: " + path);
    };
    if (!blob.ReadU32(count)) return corrupt();
    for (uint32_t i = 0; i < count; ++i) {
      if (!blob.ReadString(name)) return corrupt();
      if (world.MakeConstant(name) != Term::Constant(i)) {
        return FailedPreconditionError(
            "snapshot constant '" + name +
            "' does not intern at its stored id; load into a fresh World");
      }
    }
    if (!blob.ReadU32(count)) return corrupt();
    for (uint32_t i = 0; i < count; ++i) {
      if (!blob.ReadString(name)) return corrupt();
      if (world.MakeVariable(name) != Term::Variable(i)) {
        return FailedPreconditionError(
            "snapshot variable '" + name +
            "' does not intern at its stored id; load into a fresh World");
      }
    }
    if (!blob.ReadU32(count)) return corrupt();
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t arity = 0;
      if (!blob.ReadString(name) || !blob.ReadU32(arity)) return corrupt();
      if (world.predicates().Intern(name, int(arity)) != PredicateId(i)) {
        return FailedPreconditionError(
            "snapshot predicate '" + name +
            "' does not intern at its stored id; load into a fresh World");
      }
    }
    uint32_t null_count = 0;
    if (!blob.ReadU32(null_count)) return corrupt();
    world.AdvanceNullCounter(null_count);

    // Validate posting tables before mutating the index, so an error
    // leaves the caller's index untouched: every run must lie inside the
    // postings section. The ids in a run are trusted (DESIGN.md §14.3).
    const auto* postings =
        reinterpret_cast<const uint32_t*>(base + header.postings_offset);
    const auto* preds =
        reinterpret_cast<const PredTableEntry*>(base + header.preds_offset);
    const auto* args =
        reinterpret_cast<const ArgTableEntry*>(base + header.args_offset);
    auto run_ok = [&](uint32_t offset, uint32_t count) {
      return uint64_t(offset) + count <= header.posting_count;
    };
    for (uint32_t i = 0; i < header.pred_count; ++i) {
      if (!run_ok(preds[i].offset, preds[i].count)) {
        return InvalidArgumentError("snapshot posting run out of bounds: " +
                                    path);
      }
    }
    for (uint32_t i = 0; i < header.arg_count; ++i) {
      if (!run_ok(args[i].offset, args[i].count)) {
        return InvalidArgumentError("snapshot posting run out of bounds: " +
                                    path);
      }
    }

    // Point the index at the mapping. The id map is rebuilt lazily (see
    // FactIndex::EnsureIds) so a load touches no atom pages up front, and
    // each posting list reads its run in place until an insert appends.
    index.Clear();
    index.mapped_atoms_ = std::span<const Atom>(
        reinterpret_cast<const Atom*>(base + header.atoms_offset),
        header.atom_count);
    index.mapped_count_ = header.atom_count;
    index.mapped_owner_ = mapping;
    index.ids_built_ = header.atom_count == 0;

    for (uint32_t i = 0; i < header.pred_count; ++i) {
      index.by_predicate_[preds[i].predicate].mapped =
          std::span<const uint32_t>(postings + preds[i].offset,
                                    preds[i].count);
    }
    for (uint32_t i = 0; i < header.arg_count; ++i) {
      index.by_argument_[args[i].key].mapped =
          std::span<const uint32_t>(postings + args[i].offset, args[i].count);
    }

    SnapshotInfo info;
    info.version = header.version;
    info.flags = header.flags;
    info.atom_count = header.atom_count;
    return info;
  }
};

Status WriteFactIndexSnapshot(const FactIndex& index, const World& world,
                              const std::string& path, uint32_t flags) {
  return SnapshotIO::Write(index, world, path, flags);
}

Result<SnapshotInfo> LoadFactIndexSnapshot(const std::string& path,
                                           World& world, FactIndex& index) {
  return SnapshotIO::Load(path, world, index);
}

}  // namespace floq
