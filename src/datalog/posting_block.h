#ifndef FLOQ_DATALOG_POSTING_BLOCK_H_
#define FLOQ_DATALOG_POSTING_BLOCK_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

// Block-compressed posting storage (DESIGN.md §14). FactIndex posting
// lists are strictly increasing fact ids, which makes them ideal targets
// for delta encoding: a frozen list is cut into blocks of
// kPostingBlockSize ids, each block stored as a 4-byte base id plus
// fixed-width deltas (frame-of-reference, byte-aligned widths 1/2/4), with
// a per-block max-id. Everything lives in one flat, offset-addressed arena — no per-list heap
// allocation, and the arena bytes are position-independent, so a snapshot
// file can be mmap-ed back and used in place (snapshot.h).
//
// Consumers never touch blocks directly: PostingView is the value-type
// handle FactIndex hands out (frozen prefix + mutable tail span), and
// PostingCursor streams a view with value()/Next(), decoding one block at
// a time into a small stack buffer. The compiled kernel's candidate loop
// runs entirely on cursors, so it is oblivious to which tier an id came
// from.
//
// SIMD: with FLOQ_NATIVE (and SSE4.1) the block decode runs a 4-wide
// prefix-sum. The scalar path is always compiled and differentially
// tested against the SIMD one (tests/posting_test.cc).

namespace floq {

/// Ids per compressed block. 128 keeps the decode buffer stack-friendly
/// (512 bytes) and one block per cache-line-sized metadata entry.
inline constexpr uint32_t kPostingBlockSize = 128;

/// Metadata for one block. `max_id` is the block's last id (kept in the
/// FLOQSNAP on-disk layout). `packed` holds the payload-relative byte
/// offset of the block's data in the upper 30 bits and the delta width
/// code (0 -> 1 byte, 1 -> 2 bytes, 2 -> 4 bytes) in the low 2.
struct PostingBlockMeta {
  uint32_t max_id;
  uint32_t packed;

  uint32_t payload_offset() const { return packed >> 2; }
  uint32_t delta_width() const { return 1u << (packed & 3u); }
};
static_assert(sizeof(PostingBlockMeta) == 8);

/// A resolved frozen list inside an arena: header + metadata + payload
/// pointers. Cheap to build from (arena, offset); see ResolveFrozenList.
struct FrozenListView {
  uint32_t count = 0;       // total ids in the frozen list
  uint32_t num_blocks = 0;  // ceil(count / kPostingBlockSize)
  const PostingBlockMeta* metas = nullptr;
  const uint8_t* payload = nullptr;  // base for PostingBlockMeta offsets

  /// Number of ids in block `b` (only the last block may be short).
  uint32_t BlockLength(uint32_t b) const {
    return b + 1 == num_blocks ? count - b * kPostingBlockSize
                               : kPostingBlockSize;
  }
};

/// Flat byte arena of frozen posting lists. Lists are appended with
/// EncodeList while building (FactIndex::Freeze) and addressed by byte
/// offset thereafter; AdoptMapped points the arena at an external
/// read-only buffer (an mmap-ed snapshot) instead.
class PostingArena {
 public:
  PostingArena() = default;
  PostingArena(PostingArena&&) = default;
  PostingArena& operator=(PostingArena&&) = default;
  PostingArena(const PostingArena&) = delete;
  PostingArena& operator=(const PostingArena&) = delete;

  /// Appends a frozen encoding of `ids` (strictly increasing, nonempty)
  /// and returns its arena offset. Invalidates data() from prior calls
  /// only within the same Freeze pass — FactIndex swaps in the finished
  /// arena wholesale before handing out views.
  uint32_t EncodeList(std::span<const uint32_t> ids);

  /// Points the arena at `size` externally owned bytes (mmap). `owner`
  /// keeps the mapping alive for the arena's lifetime.
  void AdoptMapped(const uint8_t* data, size_t size,
                   std::shared_ptr<const void> owner);

  const uint8_t* data() const { return mapped_ != nullptr ? mapped_ : bytes_.data(); }
  size_t size() const { return mapped_ != nullptr ? mapped_size_ : bytes_.size(); }
  bool empty() const { return size() == 0; }

  /// Heap bytes owned by the arena itself (0 when mmap-backed).
  size_t HeapBytes() const { return bytes_.capacity(); }

  void Clear() {
    std::vector<uint8_t>().swap(bytes_);
    mapped_ = nullptr;
    mapped_size_ = 0;
    owner_.reset();
  }

 private:
  std::vector<uint8_t> bytes_;
  const uint8_t* mapped_ = nullptr;
  size_t mapped_size_ = 0;
  std::shared_ptr<const void> owner_;
};

/// Resolves the frozen list stored at `offset` in `arena_data`.
FrozenListView ResolveFrozenList(const uint8_t* arena_data, uint32_t offset);

/// Decodes block `b` of `list` into `out` (capacity >= kPostingBlockSize).
/// Returns the number of ids written. The *Scalar variant is the always-
/// compiled reference; DecodeBlock dispatches to SIMD when built with
/// FLOQ_NATIVE and SSE4.1, and is bit-identical to the scalar path.
uint32_t DecodeBlockScalar(const FrozenListView& list, uint32_t b,
                           uint32_t* out);
uint32_t DecodeBlock(const FrozenListView& list, uint32_t b, uint32_t* out);

/// True when this binary's DecodeBlock runs the SIMD path.
bool SimdPostingsEnabled();

class PostingCursor;

/// A posting list as handed out by FactIndex: an optional frozen prefix
/// (arena + offset) followed by the mutable append tail. Value type —
/// copying is two pointers and two spans; views are transient (taken per
/// lookup, never across a Freeze()).
class PostingView {
 public:
  PostingView() = default;

  /// Frozen prefix at `frozen_offset` (count `frozen_count`) plus `tail`.
  PostingView(const uint8_t* arena_data, uint32_t frozen_offset,
              uint32_t frozen_count, std::span<const uint32_t> tail)
      : arena_(arena_data),
        frozen_offset_(frozen_offset),
        frozen_count_(frozen_count),
        tail_(tail) {}

  /// Tail-only views, for unfrozen lists and tests.
  PostingView(std::span<const uint32_t> ids) : tail_(ids) {}  // NOLINT
  PostingView(const std::vector<uint32_t>& ids)               // NOLINT
      : tail_(ids.data(), ids.size()) {}

  size_t size() const { return size_t(frozen_count_) + tail_.size(); }
  bool empty() const { return frozen_count_ == 0 && tail_.empty(); }
  uint32_t frozen_count() const { return frozen_count_; }
  std::span<const uint32_t> tail() const { return tail_; }

  /// Appends all ids, in order, to `out`.
  void Materialize(std::vector<uint32_t>& out) const;

  /// Convenience for tests and benches: the ids as one plain vector.
  std::vector<uint32_t> ToVector() const {
    std::vector<uint32_t> out;
    Materialize(out);
    return out;
  }

  // Input iteration for range-for. The iterator owns a PostingCursor, so
  // it is not cheap to copy — hot loops use PostingCursor directly.
  class iterator;
  iterator begin() const;
  struct end_sentinel {};
  end_sentinel end() const { return {}; }

 private:
  friend class PostingCursor;
  const uint8_t* arena_ = nullptr;
  uint32_t frozen_offset_ = 0;
  uint32_t frozen_count_ = 0;
  std::span<const uint32_t> tail_;
};

/// Streaming cursor over a PostingView: value()/Next(). Decodes one frozen
/// block at a time, lazily, into an owned buffer; positions in the tail
/// read straight from the index's vector. Forward-only.
class PostingCursor {
 public:
  PostingCursor() = default;
  explicit PostingCursor(const PostingView& view)
      : frozen_(view.frozen_count_ > 0
                    ? ResolveFrozenList(view.arena_, view.frozen_offset_)
                    : FrozenListView{}),
        tail_(view.tail_),
        frozen_count_(view.frozen_count_),
        total_(view.size()) {}

  bool AtEnd() const { return pos_ >= total_; }

  /// Current id; cursor must not be AtEnd().
  uint32_t value() {
    if (pos_ >= frozen_count_) return tail_[pos_ - frozen_count_];
    uint32_t p = uint32_t(pos_);
    if (p < block_begin_ || p >= block_end_) DecodeBlockAt(p);
    return buf_[p - block_begin_];
  }

  void Next() { ++pos_; }

 private:
  void DecodeBlockAt(uint32_t p);

  FrozenListView frozen_{};
  std::span<const uint32_t> tail_;
  size_t frozen_count_ = 0;
  size_t total_ = 0;
  size_t pos_ = 0;
  // Decoded window [block_begin_, block_end_) of frozen positions.
  uint32_t block_begin_ = 0;
  uint32_t block_end_ = 0;
  std::array<uint32_t, kPostingBlockSize> buf_;
};

class PostingView::iterator {
 public:
  using value_type = uint32_t;
  using difference_type = std::ptrdiff_t;

  iterator() = default;
  explicit iterator(const PostingView& view) : cursor_(view) {}

  uint32_t operator*() { return cursor_.value(); }
  iterator& operator++() {
    cursor_.Next();
    return *this;
  }
  void operator++(int) { cursor_.Next(); }
  bool operator==(PostingView::end_sentinel) const { return cursor_.AtEnd(); }
  bool operator!=(PostingView::end_sentinel) const { return !cursor_.AtEnd(); }

 private:
  PostingCursor cursor_;
};

inline PostingView::iterator PostingView::begin() const {
  return iterator(*this);
}

}  // namespace floq

#endif  // FLOQ_DATALOG_POSTING_BLOCK_H_
