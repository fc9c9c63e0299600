#include "datalog/posting_block.h"

#include <algorithm>

#include "util/check.h"
#include "util/metrics.h"

#if defined(FLOQ_NATIVE) && defined(__SSE4_1__)
#include <smmintrin.h>
#define FLOQ_POSTING_SIMD 1
#else
#define FLOQ_POSTING_SIMD 0
#endif

namespace floq {

namespace {

// Frozen-list layout at an 8-aligned arena offset (all fields little-
// endian, the only byte order the engine targets):
//   u32 count | u32 num_blocks | PostingBlockMeta[num_blocks] | payload
// where each block's payload is a u32 base id followed by (len - 1)
// fixed-width deltas (width from the block's meta).
constexpr uint32_t kArenaAlign = 8;

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

uint32_t WidthCodeFor(uint32_t max_delta) {
  if (max_delta <= 0xffu) return 0;
  if (max_delta <= 0xffffu) return 1;
  return 2;
}

}  // namespace

uint32_t PostingArena::EncodeList(std::span<const uint32_t> ids) {
  FLOQ_CHECK(mapped_ == nullptr);
  FLOQ_CHECK(!ids.empty());
  while (bytes_.size() % kArenaAlign != 0) bytes_.push_back(0);
  const uint32_t offset = uint32_t(bytes_.size());

  const uint32_t count = uint32_t(ids.size());
  const uint32_t num_blocks =
      (count + kPostingBlockSize - 1) / kPostingBlockSize;

  auto append_u32 = [&](uint32_t v) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
    bytes_.insert(bytes_.end(), p, p + sizeof v);
  };
  append_u32(count);
  append_u32(num_blocks);
  const size_t metas_at = bytes_.size();
  bytes_.resize(metas_at + size_t(num_blocks) * sizeof(PostingBlockMeta));
  const size_t payload_at = bytes_.size();

  for (uint32_t b = 0; b < num_blocks; ++b) {
    const uint32_t begin = b * kPostingBlockSize;
    const uint32_t len = std::min(kPostingBlockSize, count - begin);
    uint32_t max_delta = 0;
    for (uint32_t i = 1; i < len; ++i) {
      FLOQ_DCHECK(ids[begin + i] > ids[begin + i - 1]);
      max_delta = std::max(max_delta, ids[begin + i] - ids[begin + i - 1]);
    }
    const uint32_t width_code = WidthCodeFor(max_delta);
    const uint32_t width = 1u << width_code;
    const uint32_t rel = uint32_t(bytes_.size() - payload_at);
    const PostingBlockMeta meta{ids[begin + len - 1], (rel << 2) | width_code};
    std::memcpy(bytes_.data() + metas_at + size_t(b) * sizeof meta, &meta,
                sizeof meta);
    append_u32(ids[begin]);
    for (uint32_t i = 1; i < len; ++i) {
      const uint32_t delta = ids[begin + i] - ids[begin + i - 1];
      // Low `width` bytes only — little-endian truncation.
      const uint8_t* p = reinterpret_cast<const uint8_t*>(&delta);
      bytes_.insert(bytes_.end(), p, p + width);
    }
  }
  return offset;
}

void PostingArena::AdoptMapped(const uint8_t* data, size_t size,
                               std::shared_ptr<const void> owner) {
  std::vector<uint8_t>().swap(bytes_);
  mapped_ = data;
  mapped_size_ = size;
  owner_ = std::move(owner);
}

FrozenListView ResolveFrozenList(const uint8_t* arena_data, uint32_t offset) {
  FrozenListView v;
  const uint8_t* p = arena_data + offset;
  v.count = LoadU32(p);
  v.num_blocks = LoadU32(p + 4);
  v.metas = reinterpret_cast<const PostingBlockMeta*>(p + 8);
  v.payload = p + 8 + size_t(v.num_blocks) * sizeof(PostingBlockMeta);
  return v;
}

uint32_t DecodeBlockScalar(const FrozenListView& list, uint32_t b,
                           uint32_t* out) {
  const uint32_t n = list.BlockLength(b);
  const PostingBlockMeta meta = list.metas[b];
  const uint8_t* p = list.payload + meta.payload_offset();
  uint32_t value = LoadU32(p);
  p += 4;
  out[0] = value;
  switch (meta.packed & 3u) {
    case 0:
      for (uint32_t i = 1; i < n; ++i) {
        value += p[i - 1];
        out[i] = value;
      }
      break;
    case 1:
      for (uint32_t i = 1; i < n; ++i) {
        uint16_t d;
        std::memcpy(&d, p + size_t(i - 1) * 2, sizeof d);
        value += d;
        out[i] = value;
      }
      break;
    default:
      for (uint32_t i = 1; i < n; ++i) {
        value += LoadU32(p + size_t(i - 1) * 4);
        out[i] = value;
      }
      break;
  }
  return n;
}

#if FLOQ_POSTING_SIMD

namespace {

// Inclusive 4-lane prefix sum (Hillis–Steele within the register).
inline __m128i PrefixSum4(__m128i d) {
  d = _mm_add_epi32(d, _mm_slli_si128(d, 4));
  d = _mm_add_epi32(d, _mm_slli_si128(d, 8));
  return d;
}

uint32_t DecodeBlockSimd(const FrozenListView& list, uint32_t b,
                         uint32_t* out) {
  const uint32_t n = list.BlockLength(b);
  const PostingBlockMeta meta = list.metas[b];
  const uint8_t* p = list.payload + meta.payload_offset();
  uint32_t value = LoadU32(p);
  p += 4;
  out[0] = value;
  const uint32_t width_code = meta.packed & 3u;
  const uint32_t deltas = n - 1;
  uint32_t g = 0;
  for (; g + 4 <= deltas; g += 4) {
    __m128i d;
    if (width_code == 0) {
      uint32_t raw;
      std::memcpy(&raw, p + g, sizeof raw);
      d = _mm_cvtepu8_epi32(_mm_cvtsi32_si128(int(raw)));
    } else if (width_code == 1) {
      d = _mm_cvtepu16_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + size_t(g) * 2)));
    } else {
      d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + size_t(g) * 4));
    }
    const __m128i sums =
        _mm_add_epi32(PrefixSum4(d), _mm_set1_epi32(int(value)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 1 + g), sums);
    value = uint32_t(_mm_extract_epi32(sums, 3));
  }
  for (; g < deltas; ++g) {
    uint32_t delta;
    if (width_code == 0) {
      delta = p[g];
    } else if (width_code == 1) {
      uint16_t d16;
      std::memcpy(&d16, p + size_t(g) * 2, sizeof d16);
      delta = d16;
    } else {
      delta = LoadU32(p + size_t(g) * 4);
    }
    value += delta;
    out[1 + g] = value;
  }
  return n;
}

}  // namespace

uint32_t DecodeBlock(const FrozenListView& list, uint32_t b, uint32_t* out) {
  return DecodeBlockSimd(list, b, out);
}

bool SimdPostingsEnabled() { return true; }

#else

uint32_t DecodeBlock(const FrozenListView& list, uint32_t b, uint32_t* out) {
  return DecodeBlockScalar(list, b, out);
}

bool SimdPostingsEnabled() { return false; }

#endif  // FLOQ_POSTING_SIMD

void PostingView::Materialize(std::vector<uint32_t>& out) const {
  out.reserve(out.size() + size());
  if (frozen_count_ > 0) {
    const FrozenListView list = ResolveFrozenList(arena_, frozen_offset_);
    std::array<uint32_t, kPostingBlockSize> buf;
    for (uint32_t b = 0; b < list.num_blocks; ++b) {
      const uint32_t n = DecodeBlock(list, b, buf.data());
      out.insert(out.end(), buf.data(), buf.data() + n);
    }
  }
  out.insert(out.end(), tail_.begin(), tail_.end());
}

void PostingCursor::DecodeBlockAt(uint32_t p) {
  const uint32_t b = p / kPostingBlockSize;
  const uint32_t n = DecodeBlock(frozen_, b, buf_.data());
  block_begin_ = b * kPostingBlockSize;
  block_end_ = block_begin_ + n;
  if (MetricsRegistry::enabled()) {
    static Counter& decoded =
        MetricsRegistry::Get().counter("index.blocks_decoded");
    decoded.Add(1);
  }
}

}  // namespace floq
