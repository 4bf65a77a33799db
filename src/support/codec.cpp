#include "support/codec.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "support/error.hpp"
#include "support/strings.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AC_SIMD_X86 1
#include <immintrin.h>
#endif

namespace ac {

namespace {

// --- RLE token layout (PackBits-style) --------------------------------------
// control c in [0x00, 0x7F]: literal run, c+1 bytes follow;
// control c in [0x80, 0xFF]: repeated byte, length (c - 0x80) + kRleMinRun,
//                            followed by the single value byte.
// A run token costs 2 bytes, so runs shorter than 3 stay literal; the worst
// case (no runs at all) expands by 1 byte per 128.
constexpr std::size_t kRleMinRun = 3;
constexpr std::size_t kRleMaxRun = 0x7F + kRleMinRun;  // 130
constexpr std::size_t kRleMaxLiteral = 0x80;           // 128

// --- LZ token layout --------------------------------------------------------
// control c in [0x00, 0x7F]: literal run, c+1 bytes follow;
// control c in [0x80, 0xFF]: match of length (c & 0x7F) + kLzMinMatch against
//                            the u16-LE distance that follows (1..65535 back).
constexpr std::size_t kLzMinMatch = 4;
constexpr std::size_t kLzMaxMatch = 0x7F + kLzMinMatch;  // 131
constexpr std::size_t kLzMaxLiteral = 0x80;
constexpr std::size_t kLzWindow = 0xFFFF;
constexpr std::size_t kLzHashBits = 15;

std::uint32_t lz_hash(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kLzHashBits);
}

// --- decode output ----------------------------------------------------------
// The RLE and LZ decoders write through a pointer into `out`, whose size is
// the room they may write. A token with kSlack bytes of room past its end
// copies in whole 16-byte steps, spilling into that slack; a token nearer
// the end copies exactly. Each decode first reserves what its tokens can
// produce, capped by the caller's limit, so a corrupt limit never allocates
// ahead of real bytes; within that the room doubles from what the first
// token needs, by at most kRoomStep bytes a time, so a decode touches little
// beyond what it writes, and a scratch string reused for same-size decodes
// stops growing. At the end `out` is cut to the bytes decoded.

constexpr std::size_t kStep = 16;
constexpr std::size_t kSlack = 144;  // the longest token output (131) in whole steps
constexpr std::size_t kRoomStep = std::size_t{64} << 10;

/// Grow `out` to hold `need` bytes plus kSlack, within `limit` + kSlack
/// (need <= limit). Returns the new data pointer.
char* grow_room(std::string& out, std::size_t need, std::size_t limit) {
  const std::size_t cap = std::min(limit, SIZE_MAX - kSlack) + kSlack;
  out.resize(std::min(std::max(out.size() + std::min(out.size(), kRoomStep), need + kSlack), cap));
  return out.data();
}

/// Copy `n` bytes in whole steps: up to kStep - 1 bytes past dst + n are
/// written and past src + n read. With dst - src >= kStep the copy may
/// overlap its own output, as an LZ match does.
void copy_steps(char* dst, const char* src, std::size_t n) {
  std::size_t k = 0;
  do {
    std::memcpy(dst + k, src + k, kStep);
    k += kStep;
  } while (k < n);
}

/// Fill `n` bytes with `v` in whole steps, at least three, so up to 47 bytes
/// past n.
void fill_steps(char* dst, char v, std::size_t n) {
  char step[kStep];
  std::memset(step, v, kStep);
  std::memcpy(dst, step, kStep);
  std::memcpy(dst + kStep, step, kStep);
  std::memcpy(dst + 2 * kStep, step, kStep);
  for (std::size_t k = 3 * kStep; k < n; k += kStep) std::memcpy(dst + k, step, kStep);
}

/// Continue the `dist`-byte pattern that ends at `to` for `n` bytes (dist
/// below a step, so whole-step copies would read bytes not yet written): the
/// pattern is laid out once across a step, then stored every `period` bytes,
/// the largest multiple of dist within a step, so each store continues it.
/// Writes up to kStep - 1 bytes past n.
void repeat_steps(char* to, std::size_t dist, std::size_t n) {
  char pattern[kStep];
  for (std::size_t i = 0; i < kStep; ++i) {
    pattern[i] = i < dist ? (to - dist)[i] : pattern[i - dist];
  }
  const std::size_t period = kStep - kStep % dist;
  for (std::size_t k = 0; k < n; k += period) std::memcpy(to + k, pattern, kStep);
}

std::size_t whole_steps(std::size_t n) { return (n + kStep - 1) & ~(kStep - 1); }

/// A literal run of `n` bytes from `in` (`left` bytes of input remain) to
/// dst + pos, in steps when the input and the room allow it.
void put_literal(char* dst, std::size_t pos, std::size_t room, const char* in, std::size_t left,
                 std::size_t n) {
  if (pos + n + kSlack <= room && whole_steps(n) <= left) {
    copy_steps(dst + pos, in, n);
  } else {
    std::memcpy(dst + pos, in, n);
  }
}

class RawCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::Raw; }
  void encode_into(std::string_view raw, std::string_view, std::string& out) const override {
    out.assign(raw);
  }
  void decode_into(std::string_view payload, std::size_t max_out, std::string_view,
                   std::string& out) const override {
    if (payload.size() > max_out) throw CodecError("raw codec: payload exceeds limit");
    out.assign(payload);
  }
};

class XorDeltaCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::Xor; }
  void encode_into(std::string_view raw, std::string_view base,
                   std::string& out) const override {
    apply(raw, base, out);
  }
  void decode_into(std::string_view payload, std::size_t max_out, std::string_view base,
                   std::string& out) const override {
    if (payload.size() > max_out) throw CodecError("xor codec: payload exceeds limit");
    apply(payload, base, out);  // XOR is an involution
  }

 private:
  static void apply(std::string_view in, std::string_view base, std::string& out) {
    out.assign(in);
    const std::size_t n = std::min(out.size(), base.size());
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<char>(out[i] ^ base[i]);
    // bytes past the base are kept verbatim (XOR against zero)
  }
};

class RleCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::Rle; }

  void encode_into(std::string_view raw, std::string_view, std::string& out) const override {
    out.clear();
    out.reserve(raw.size() / 4 + 16);
    const auto* p = reinterpret_cast<const unsigned char*>(raw.data());
    std::size_t lit_start = 0;  // start of the pending literal run
    std::size_t i = 0;
    const auto flush_literals = [&](std::size_t end) {
      while (lit_start < end) {
        const std::size_t n = std::min(end - lit_start, kRleMaxLiteral);
        out.push_back(static_cast<char>(n - 1));
        out.append(raw.data() + lit_start, n);
        lit_start += n;
      }
    };
    // Two SIMD scans instead of the old byte-at-a-time walk: skip to the next
    // position that starts a tokenizable (>= kRleMinRun) run, then measure it.
    // A position the old walk skipped past can never start such a run, so the
    // token stream is byte-identical (pinned in tests/test_simd.cpp).
    while (i < raw.size()) {
      const std::size_t start = i + rle_find_run(p + i, raw.size() - i);
      if (start >= raw.size()) break;
      const std::size_t run =
          rle_run_length(p + start, std::min(raw.size() - start, kRleMaxRun));
      flush_literals(start);
      out.push_back(static_cast<char>(0x80 + (run - kRleMinRun)));
      out.push_back(static_cast<char>(p[start]));
      i = start + run;
      lit_start = i;
    }
    flush_literals(raw.size());
  }

  void decode_into(std::string_view payload, std::size_t max_out, std::string_view,
                   std::string& out) const override {
    // A run token expands to at most kRleMaxRun bytes.
    out.reserve(std::min(max_out, payload.size() * (kRleMaxRun / 2) + 16) + kSlack);
    const char* in = payload.data();
    const char* const in_end = in + payload.size();
    char* dst = out.data();
    std::size_t pos = 0;
    while (in != in_end) {
      const auto c = static_cast<unsigned char>(*in++);
      const auto left = static_cast<std::size_t>(in_end - in);
      if (c < 0x80) {
        const std::size_t n = static_cast<std::size_t>(c) + 1;
        if (n > left) throw CodecError("rle: truncated literal run");
        if (n > max_out - pos) throw CodecError("rle: output exceeds limit");
        if (pos + n > out.size()) dst = grow_room(out, pos + n, max_out);
        put_literal(dst, pos, out.size(), in, left, n);
        in += n;
        pos += n;
      } else {
        if (left == 0) throw CodecError("rle: truncated repeat run");
        const std::size_t n = static_cast<std::size_t>(c - 0x80) + kRleMinRun;
        if (n > max_out - pos) throw CodecError("rle: output exceeds limit");
        if (pos + n > out.size()) dst = grow_room(out, pos + n, max_out);
        if (pos + n + kSlack <= out.size()) {
          fill_steps(dst + pos, *in++, n);
        } else {
          std::memset(dst + pos, *in++, n);
        }
        pos += n;
      }
    }
    out.resize(pos);
  }
};

class LzCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::Lz; }

  void encode_into(std::string_view raw, std::string_view, std::string& out) const override {
    out.clear();
    out.reserve(raw.size() / 2 + 16);
    const auto* data = reinterpret_cast<const unsigned char*>(raw.data());
    const std::size_t n = raw.size();

    std::size_t lit_start = 0;
    const auto flush_literals = [&](std::size_t end) {
      while (lit_start < end) {
        const std::size_t len = std::min(end - lit_start, kLzMaxLiteral);
        out.push_back(static_cast<char>(len - 1));
        out.append(raw.data() + lit_start, len);
        lit_start += len;
      }
    };
    if (n < kLzMinMatch) {  // nothing to match against; skip the table
      flush_literals(n);
      return;
    }

    // Hash table sized to the input (clamped to the window) and reused per
    // thread: the checkpoint engine encodes one small blob per variable per
    // commit, and a fresh 256 KiB zero-fill per call would dwarf the work
    // itself. The decoder never sees the table, so the sizing is free to vary.
    unsigned bits = 8;
    while ((std::size_t{1} << bits) < n && bits < kLzHashBits) ++bits;
    thread_local std::vector<std::int64_t> table;
    table.assign(std::size_t{1} << bits, -1);

    std::size_t i = 0;
    while (i + kLzMinMatch <= n) {
      const std::uint32_t h = lz_hash(data + i) >> (kLzHashBits - bits);
      const std::int64_t cand = table[h];
      table[h] = static_cast<std::int64_t>(i);
      if (cand >= 0 && i - static_cast<std::size_t>(cand) <= kLzWindow &&
          std::memcmp(data + cand, data + i, kLzMinMatch) == 0) {
        std::size_t len = kLzMinMatch;
        const std::size_t cap = std::min(kLzMaxMatch, n - i);
        while (len < cap && data[cand + len] == data[i + len]) ++len;
        flush_literals(i);
        out.push_back(static_cast<char>(0x80 + (len - kLzMinMatch)));
        const std::uint16_t dist = static_cast<std::uint16_t>(i - static_cast<std::size_t>(cand));
        out.push_back(static_cast<char>(dist & 0xFF));
        out.push_back(static_cast<char>(dist >> 8));
        i += len;
        lit_start = i;
      } else {
        ++i;
      }
    }
    flush_literals(n);
  }

  void decode_into(std::string_view payload, std::size_t max_out, std::string_view,
                   std::string& out) const override {
    // A 3-byte match token expands to at most kLzMaxMatch bytes.
    out.reserve(std::min(max_out, payload.size() * (kLzMaxMatch / 3) + 16) + kSlack);
    const char* in = payload.data();
    const char* const in_end = in + payload.size();
    char* dst = out.data();
    std::size_t pos = 0;
    while (in != in_end) {
      const auto c = static_cast<unsigned char>(*in++);
      const auto left = static_cast<std::size_t>(in_end - in);
      if (c < 0x80) {
        const std::size_t n = static_cast<std::size_t>(c) + 1;
        if (n > left) throw CodecError("lz: truncated literal run");
        if (n > max_out - pos) throw CodecError("lz: output exceeds limit");
        if (pos + n > out.size()) dst = grow_room(out, pos + n, max_out);
        put_literal(dst, pos, out.size(), in, left, n);
        in += n;
        pos += n;
      } else {
        if (left < 2) throw CodecError("lz: truncated match token");
        const std::size_t n = static_cast<std::size_t>(c - 0x80) + kLzMinMatch;
        const std::size_t dist = static_cast<unsigned char>(in[0]) |
                                 (static_cast<std::size_t>(static_cast<unsigned char>(in[1])) << 8);
        in += 2;
        if (dist == 0 || dist > pos) throw CodecError("lz: match distance out of window");
        if (n > max_out - pos) throw CodecError("lz: output exceeds limit");
        if (pos + n > out.size()) dst = grow_room(out, pos + n, max_out);
        char* to = dst + pos;
        const char* from = to - dist;
        if (pos + n + kSlack <= out.size()) {
          dist >= kStep ? copy_steps(to, from, n) : repeat_steps(to, dist, n);
        } else if (dist >= n) {
          std::memcpy(to, from, n);
        } else {
          // A match closer than a step feeds itself byte by byte.
          for (std::size_t k = 0; k < n; ++k) to[k] = from[k];
        }
        pos += n;
      }
    }
    out.resize(pos);
  }
};

}  // namespace

const char* codec_name(CodecId id) {
  switch (id) {
    case CodecId::Raw: return "raw";
    case CodecId::Xor: return "xor";
    case CodecId::Rle: return "rle";
    case CodecId::Lz: return "lz";
  }
  return "?";
}

const Codec& codec_for(CodecId id) {
  static const RawCodec raw;
  static const XorDeltaCodec xr;
  static const RleCodec rle;
  static const LzCodec lz;
  switch (id) {
    case CodecId::Raw: return raw;
    case CodecId::Xor: return xr;
    case CodecId::Rle: return rle;
    case CodecId::Lz: return lz;
  }
  throw CodecError(strf("unknown codec id %u", static_cast<unsigned>(id)));
}

CodecChain::CodecChain(std::vector<CodecId> stages) : stages_(std::move(stages)) {
  for (const CodecId id : stages_) codec_for(id);  // validate
}

CodecChain CodecChain::parse(const std::string& spec) {
  if (spec.empty() || spec == "raw") return CodecChain{};
  if (spec == "chain") return CodecChain{{CodecId::Xor, CodecId::Rle, CodecId::Lz}};
  std::vector<CodecId> stages;
  for (const std::string_view tok : split_view(spec, '+')) {
    if (tok == "xor") {
      stages.push_back(CodecId::Xor);
    } else if (tok == "rle") {
      stages.push_back(CodecId::Rle);
    } else if (tok == "lz") {
      stages.push_back(CodecId::Lz);
    } else if (tok == "raw") {
      // identity stage: allowed, contributes nothing
      stages.push_back(CodecId::Raw);
    } else {
      throw CodecError("unknown codec '" + std::string(tok) + "' in spec '" + spec +
                       "' (want raw, xor, rle, lz, or chain)");
    }
  }
  return CodecChain{std::move(stages)};
}

CodecChain CodecChain::from_ids(const std::uint8_t* ids, std::size_t count) {
  std::vector<CodecId> stages;
  stages.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (ids[i] > static_cast<std::uint8_t>(CodecId::Lz)) {
      throw CodecError(strf("bad codec id %u in record header", ids[i]));
    }
    stages.push_back(static_cast<CodecId>(ids[i]));
  }
  return CodecChain{std::move(stages)};
}

std::string CodecChain::str() const {
  if (stages_.empty()) return "raw";
  std::string out;
  for (const CodecId id : stages_) {
    if (!out.empty()) out += '+';
    out += codec_name(id);
  }
  return out;
}

std::string CodecChain::encode(std::string_view raw, std::string_view base) const {
  std::string out, scratch;
  encode_into(raw, base, out, scratch);
  return out;
}

std::string CodecChain::decode(std::string_view payload, std::size_t expect_raw_size,
                               std::string_view base) const {
  std::string out, scratch;
  decode_into(payload, expect_raw_size, base, out, scratch);
  return out;
}

void CodecChain::encode_into(std::string_view raw, std::string_view base, std::string& out,
                             std::string& scratch) const {
  if (stages_.empty()) {
    out.assign(raw);
    return;
  }
  // Alternate between the two caller buffers so stage s never reads the
  // buffer it writes; parity is chosen so the last stage lands in `out`.
  const std::size_t n = stages_.size();
  for (std::size_t s = 0; s < n; ++s) {
    const bool dst_is_out = (n - 1 - s) % 2 == 0;
    std::string& dst = dst_is_out ? out : scratch;
    const std::string_view src = s == 0 ? raw : std::string_view(dst_is_out ? scratch : out);
    codec_for(stages_[s]).encode_into(src, s == 0 ? base : std::string_view{}, dst);
  }
}

void CodecChain::decode_into(std::string_view payload, std::size_t expect_raw_size,
                             std::string_view base, std::string& out,
                             std::string& scratch) const {
  // Intermediate stages may legitimately be larger than the final raw size
  // (an RLE stream of an incompressible input), so the allocation guard gets
  // headroom compounded per stage: each RLE/LZ stage expands incompressible
  // input by at most 1 byte per 128 plus a trailing partial token, so
  // cap/64 + 512 per stage strictly dominates — even pathological stacked
  // chains (rle+rle+...) that encode successfully must decode successfully.
  std::size_t max_out = expect_raw_size;
  const std::size_t n = stages_.size();
  for (std::size_t s = 0; s < n; ++s) max_out += max_out / 64 + 512;
  if (n == 0) {
    out.assign(payload);
  } else {
    // Stages run in reverse; parity again steers the final write into `out`.
    for (std::size_t s = n; s-- > 0;) {
      std::string& dst = (s % 2 == 0) ? out : scratch;
      const std::string_view src =
          s == n - 1 ? payload : std::string_view((s % 2 == 0) ? scratch : out);
      codec_for(stages_[s]).decode_into(src, max_out, s == 0 ? base : std::string_view{}, dst);
    }
  }
  if (out.size() != expect_raw_size) {
    throw CodecError(strf("codec chain '%s' decoded %zu bytes, expected %zu", str().c_str(),
                          out.size(), expect_raw_size));
  }
}

// --- SIMD kernel dispatch ---------------------------------------------------

namespace {

/// The scalar transposes, with plane k of the shuffled side at k * pitch.
void shuffle_scalar(const unsigned char* in, std::size_t count, std::size_t stride,
                    unsigned char* out) {
  for (std::size_t plane = 0; plane < stride; ++plane) {
    unsigned char* dst = out + plane * count;
    for (std::size_t i = 0; i < count; ++i) dst[i] = in[i * stride + plane];
  }
}

void unshuffle_scalar(const unsigned char* in, std::size_t pitch, std::size_t count,
                      std::size_t stride, unsigned char* out) {
  for (std::size_t plane = 0; plane < stride; ++plane) {
    const unsigned char* src = in + plane * pitch;
    for (std::size_t i = 0; i < count; ++i) out[i * stride + plane] = src[i];
  }
}

/// Grow `out` by `n` bytes and return where they start.
unsigned char* append_room(std::string& out, std::size_t n) {
  const std::size_t old = out.size();
  out.resize(old + n);
  return reinterpret_cast<unsigned char*>(out.data() + old);
}

void check_shuffled_size(std::string_view bytes, std::size_t count, std::size_t stride) {
  if (bytes.size() != count * stride) {
    throw CodecError(strf("shuffled stream of %zu bytes, expected %zu x %zu", bytes.size(),
                          count, stride));
  }
}

}  // namespace

namespace scalar {

void shuffle_planes(const void* data, std::size_t count, std::size_t stride, std::string& out) {
  shuffle_scalar(static_cast<const unsigned char*>(data), count, stride,
                 append_room(out, count * stride));
}

void unshuffle_planes(std::string_view bytes, std::size_t count, std::size_t stride, void* out) {
  check_shuffled_size(bytes, count, stride);
  unshuffle_scalar(reinterpret_cast<const unsigned char*>(bytes.data()), count, count, stride,
                   static_cast<unsigned char*>(out));
}

std::size_t rle_find_run(const unsigned char* p, std::size_t n) {
  if (n < 3) return n;
  for (std::size_t i = 0; i + 2 < n; ++i) {
    if (p[i] == p[i + 1] && p[i + 1] == p[i + 2]) return i;
  }
  return n;
}

std::size_t rle_run_length(const unsigned char* p, std::size_t n) {
  std::size_t i = 1;
  while (i < n && p[i] == p[0]) ++i;
  return i;
}

}  // namespace scalar

#ifdef AC_SIMD_X86
namespace {

// The Sse dispatch level is gated on SSSE3 (for pshufb); the plain unpack
// networks below only need the x86-64 SSE2 baseline, so they carry no target
// attribute. Each kernel handles its own scalar tail.

// AoS -> SoA, 4-byte elements, 16 at a time: pshufb gathers each element's
// bytes by plane, then a 4x4 u32 transpose turns per-element planes into
// per-plane elements.
__attribute__((target("ssse3"))) void shuffle4_sse(const unsigned char* in, std::size_t count,
                                                   unsigned char* out) {
  const __m128i mask =
      _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const unsigned char* src = in + i * 4;
    __m128i v0 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src)), mask);
    __m128i v1 =
        _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 16)), mask);
    __m128i v2 =
        _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 32)), mask);
    __m128i v3 =
        _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 48)), mask);
    const __m128i t0 = _mm_unpacklo_epi32(v0, v1);
    const __m128i t1 = _mm_unpackhi_epi32(v0, v1);
    const __m128i t2 = _mm_unpacklo_epi32(v2, v3);
    const __m128i t3 = _mm_unpackhi_epi32(v2, v3);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 0 * count + i), _mm_unpacklo_epi64(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 1 * count + i), _mm_unpackhi_epi64(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2 * count + i), _mm_unpacklo_epi64(t1, t3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 3 * count + i), _mm_unpackhi_epi64(t1, t3));
  }
  for (; i < count; ++i) {
    for (std::size_t k = 0; k < 4; ++k) out[k * count + i] = in[i * 4 + k];
  }
}

// AoS -> SoA, 8-byte elements, 16 at a time: pshufb interleaves the two
// elements of each 16-byte load by plane, then three unpack levels
// (16/32/64-bit) widen the per-plane granule until each register holds one
// full plane of all 16 elements.
__attribute__((target("ssse3"))) void shuffle8_sse(const unsigned char* in, std::size_t count,
                                                   unsigned char* out) {
  const __m128i mask =
      _mm_setr_epi8(0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15);
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const unsigned char* src = in + i * 8;
    __m128i v[8];
    for (int j = 0; j < 8; ++j) {
      v[j] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 16 * j)), mask);
    }
    const __m128i t0 = _mm_unpacklo_epi16(v[0], v[1]);
    const __m128i t1 = _mm_unpackhi_epi16(v[0], v[1]);
    const __m128i t2 = _mm_unpacklo_epi16(v[2], v[3]);
    const __m128i t3 = _mm_unpackhi_epi16(v[2], v[3]);
    const __m128i t4 = _mm_unpacklo_epi16(v[4], v[5]);
    const __m128i t5 = _mm_unpackhi_epi16(v[4], v[5]);
    const __m128i t6 = _mm_unpacklo_epi16(v[6], v[7]);
    const __m128i t7 = _mm_unpackhi_epi16(v[6], v[7]);
    const __m128i s0 = _mm_unpacklo_epi32(t0, t2);
    const __m128i s1 = _mm_unpackhi_epi32(t0, t2);
    const __m128i s2 = _mm_unpacklo_epi32(t1, t3);
    const __m128i s3 = _mm_unpackhi_epi32(t1, t3);
    const __m128i s4 = _mm_unpacklo_epi32(t4, t6);
    const __m128i s5 = _mm_unpackhi_epi32(t4, t6);
    const __m128i s6 = _mm_unpacklo_epi32(t5, t7);
    const __m128i s7 = _mm_unpackhi_epi32(t5, t7);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 0 * count + i), _mm_unpacklo_epi64(s0, s4));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 1 * count + i), _mm_unpackhi_epi64(s0, s4));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2 * count + i), _mm_unpacklo_epi64(s1, s5));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 3 * count + i), _mm_unpackhi_epi64(s1, s5));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4 * count + i), _mm_unpacklo_epi64(s2, s6));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 5 * count + i), _mm_unpackhi_epi64(s2, s6));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 6 * count + i), _mm_unpacklo_epi64(s3, s7));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 7 * count + i), _mm_unpackhi_epi64(s3, s7));
  }
  for (; i < count; ++i) {
    for (std::size_t k = 0; k < 8; ++k) out[k * count + i] = in[i * 8 + k];
  }
}

// SoA -> AoS, 4-byte elements: two unpack levels (8-bit then 16-bit)
// re-interleave four plane registers, `pitch` bytes apart, back into element
// order.
void unshuffle4_sse(const unsigned char* in, std::size_t pitch, std::size_t count,
                    unsigned char* out) {
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 0 * pitch + i));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 1 * pitch + i));
    const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 2 * pitch + i));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 3 * pitch + i));
    const __m128i t0 = _mm_unpacklo_epi8(a, b);
    const __m128i t1 = _mm_unpackhi_epi8(a, b);
    const __m128i t2 = _mm_unpacklo_epi8(c, d);
    const __m128i t3 = _mm_unpackhi_epi8(c, d);
    unsigned char* dst = out + i * 4;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm_unpacklo_epi16(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16), _mm_unpackhi_epi16(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32), _mm_unpacklo_epi16(t1, t3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 48), _mm_unpackhi_epi16(t1, t3));
  }
  for (; i < count; ++i) {
    for (std::size_t k = 0; k < 4; ++k) out[i * 4 + k] = in[k * pitch + i];
  }
}

// SoA -> AoS, 8-byte elements: three unpack levels (8/16/32-bit) rebuild 16
// elements from eight plane registers.
void unshuffle8_sse(const unsigned char* in, std::size_t pitch, std::size_t count,
                    unsigned char* out) {
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    __m128i v[8];
    for (int k = 0; k < 8; ++k) {
      v[k] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(in + static_cast<std::size_t>(k) * pitch + i));
    }
    const __m128i t0 = _mm_unpacklo_epi8(v[0], v[1]);
    const __m128i t1 = _mm_unpackhi_epi8(v[0], v[1]);
    const __m128i t2 = _mm_unpacklo_epi8(v[2], v[3]);
    const __m128i t3 = _mm_unpackhi_epi8(v[2], v[3]);
    const __m128i t4 = _mm_unpacklo_epi8(v[4], v[5]);
    const __m128i t5 = _mm_unpackhi_epi8(v[4], v[5]);
    const __m128i t6 = _mm_unpacklo_epi8(v[6], v[7]);
    const __m128i t7 = _mm_unpackhi_epi8(v[6], v[7]);
    const __m128i s0 = _mm_unpacklo_epi16(t0, t2);
    const __m128i s1 = _mm_unpackhi_epi16(t0, t2);
    const __m128i s2 = _mm_unpacklo_epi16(t1, t3);
    const __m128i s3 = _mm_unpackhi_epi16(t1, t3);
    const __m128i s4 = _mm_unpacklo_epi16(t4, t6);
    const __m128i s5 = _mm_unpackhi_epi16(t4, t6);
    const __m128i s6 = _mm_unpacklo_epi16(t5, t7);
    const __m128i s7 = _mm_unpackhi_epi16(t5, t7);
    unsigned char* dst = out + i * 8;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 0), _mm_unpacklo_epi32(s0, s4));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16), _mm_unpackhi_epi32(s0, s4));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32), _mm_unpacklo_epi32(s1, s5));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 48), _mm_unpackhi_epi32(s1, s5));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 64), _mm_unpacklo_epi32(s2, s6));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 80), _mm_unpackhi_epi32(s2, s6));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 96), _mm_unpacklo_epi32(s3, s7));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 112), _mm_unpackhi_epi32(s3, s7));
  }
  for (; i < count; ++i) {
    for (std::size_t k = 0; k < 8; ++k) out[i * 8 + k] = in[k * pitch + i];
  }
}

// RLE scans (SSE2): 16 run-start candidates or 16 run-continuation bytes per
// compare.

std::size_t rle_find_run_sse(const unsigned char* p, std::size_t n) {
  std::size_t i = 0;
  while (i + 18 <= n) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i + 1));
    const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i + 2));
    const int m =
        _mm_movemask_epi8(_mm_and_si128(_mm_cmpeq_epi8(a, b), _mm_cmpeq_epi8(b, c)));
    if (m != 0) return i + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(m)));
    i += 16;
  }
  return i + scalar::rle_find_run(p + i, n - i);
}

std::size_t rle_run_length_sse(const unsigned char* p, std::size_t n) {
  const __m128i v = _mm_set1_epi8(static_cast<char>(p[0]));
  std::size_t i = 0;
  while (i + 16 <= n) {
    const int m = _mm_movemask_epi8(
        _mm_cmpeq_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i)), v));
    if (m != 0xFFFF) {
      return i + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(~m & 0xFFFF)));
    }
    i += 16;
  }
  while (i < n && p[i] == p[0]) ++i;
  return i;
}

}  // namespace
#endif  // AC_SIMD_X86

namespace {

SimdLevel cpu_simd_level() {
#ifdef AC_SIMD_X86
  static const SimdLevel cap = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("ssse3") ? SimdLevel::Sse : SimdLevel::Scalar;
  }();
  return cap;
#else
  return SimdLevel::Scalar;
#endif
}

std::atomic<SimdLevel>& simd_level_slot() {
  static std::atomic<SimdLevel> level{[] {
    const char* env = std::getenv("AC_NO_SIMD");
    if (env && *env && std::string_view(env) != "0") return SimdLevel::Scalar;
    return cpu_simd_level();
  }()};
  return level;
}

}  // namespace

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::Scalar: return "scalar";
    case SimdLevel::Sse: return "sse";
  }
  return "?";
}

SimdLevel active_simd_level() { return simd_level_slot().load(std::memory_order_relaxed); }

SimdLevel force_simd_level(SimdLevel level) {
  if (level > cpu_simd_level()) level = cpu_simd_level();
  return simd_level_slot().exchange(level, std::memory_order_relaxed);
}

void shuffle_planes(const void* data, std::size_t count, std::size_t stride, std::string& out) {
  const auto* in = static_cast<const unsigned char*>(data);
  unsigned char* dst = append_room(out, count * stride);
#ifdef AC_SIMD_X86
  if (active_simd_level() != SimdLevel::Scalar && (stride == 4 || stride == 8) && count >= 16) {
    stride == 4 ? shuffle4_sse(in, count, dst) : shuffle8_sse(in, count, dst);
    return;
  }
#endif
  shuffle_scalar(in, count, stride, dst);
}

void unshuffle_block(const char* planes, std::size_t pitch, std::size_t first, std::size_t count,
                     std::size_t stride, void* out) {
  const auto* in = reinterpret_cast<const unsigned char*>(planes) + first;
  auto* dst = static_cast<unsigned char*>(out);
#ifdef AC_SIMD_X86
  if (active_simd_level() != SimdLevel::Scalar && (stride == 4 || stride == 8) && count >= 16) {
    stride == 4 ? unshuffle4_sse(in, pitch, count, dst) : unshuffle8_sse(in, pitch, count, dst);
    return;
  }
#endif
  unshuffle_scalar(in, pitch, count, stride, dst);
}

void unshuffle_planes(std::string_view bytes, std::size_t count, std::size_t stride, void* out) {
  check_shuffled_size(bytes, count, stride);
  unshuffle_block(bytes.data(), count, 0, count, stride, out);
}

void zigzag_delta_encode(std::uint64_t* values, std::size_t n, std::uint64_t prev) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t cur = values[i];
    values[i] = zigzag_encode(cur - prev);
    prev = cur;
  }
}

void zigzag_delta_decode(std::uint64_t* values, std::size_t n, std::uint64_t prev) {
  for (std::size_t i = 0; i < n; ++i) {
    prev += zigzag_decode(values[i]);
    values[i] = prev;
  }
}

std::size_t rle_find_run(const unsigned char* p, std::size_t n) {
#ifdef AC_SIMD_X86
  if (active_simd_level() != SimdLevel::Scalar && n >= 18) return rle_find_run_sse(p, n);
#endif
  return scalar::rle_find_run(p, n);
}

std::size_t rle_run_length(const unsigned char* p, std::size_t n) {
#ifdef AC_SIMD_X86
  if (active_simd_level() != SimdLevel::Scalar && n >= 16) return rle_run_length_sse(p, n);
#endif
  return scalar::rle_run_length(p, n);
}

}  // namespace ac
