// libFuzzer target for the two files `floq serve` reads back at startup
// (FLOQ_FUZZ=ON, Clang only): the WAL and the FLOQREG1 checkpoint, which
// share one record frame (server/wal.h). The bytes go to ScanWal and
// DecodeCheckpoint, the functions Wal::Open and the checkpoint load call,
// and two rules must hold:
//
//   * when the scan reports no corruption, the magic followed by the
//     re-encoded records equals the valid prefix (a torn header is a
//     strict prefix of the magic and holds no record), and no record
//     starts anywhere in the tail that Open would truncate;
//   * the checkpoint decode accepts exactly the magic followed by one
//     encoded record.
//
//   clang++ -fsanitize=fuzzer,address ...   (via -DFLOQ_FUZZ=ON)
//   ./fuzz_wal corpus/ -max_total_time=60

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "server/registry.h"
#include "server/wal.h"

namespace {

using floq::server::AppendRecord;

void Check(bool holds) {
  if (!holds) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  const std::string_view wal_magic(floq::server::kWalMagic, 8);
  const std::string_view checkpoint_magic(floq::server::kCheckpointMagic, 8);

  // The bytes as a WAL, and as the same records under a valid header.
  const std::string headed = std::string(wal_magic) + std::string(bytes);
  for (std::string_view wal : {bytes, std::string_view(headed)}) {
    floq::Result<floq::server::WalReplay> scan = floq::server::ScanWal(wal);
    if (!scan.ok()) continue;
    Check(scan->truncated_tail == (scan->valid_bytes < wal.size()));
    Check(scan->valid_bytes > 0 ||
          (wal.size() < wal_magic.size() && wal_magic.starts_with(wal)));
    std::string encoded(scan->valid_bytes > 0 ? wal_magic : "");
    for (const std::string& record : scan->records) {
      Check(record.size() <= floq::server::kMaxWalRecordBytes);
      AppendRecord(record, &encoded);
    }
    Check(encoded == wal.substr(0, scan->valid_bytes));
    for (size_t at = scan->valid_bytes; at < wal.size(); ++at) {
      Check(!floq::server::DecodeRecord(wal.substr(at),
                                        floq::server::kMaxWalRecordBytes));
    }
  }

  // The bytes as a checkpoint, and framed as one: accepted exactly then.
  if (floq::Result<std::string_view> payload =
          floq::server::DecodeCheckpoint(bytes);
      payload.ok()) {
    std::string encoded(checkpoint_magic);
    AppendRecord(*payload, &encoded);
    Check(encoded == bytes);
  }
  std::string framed(checkpoint_magic);
  AppendRecord(bytes, &framed);
  floq::Result<std::string_view> payload =
      floq::server::DecodeCheckpoint(framed);
  Check(payload.ok() && *payload == bytes);
  return 0;
}
