// Pluggable byte-stream codecs — the one serialization byte-path shared by
// the checkpoint engine (src/ckpt) and the binary trace container
// (src/trace/mctb.hpp).
//
// Grown out of the checkpoint codec layer (PR 3) and moved here so both
// serialization stacks run through exactly one implementation. The stages
// exploit the same structure in both worlds: mostly-zero high bytes after
// delta/XOR prediction, long runs after byte-plane shuffling.
//
//   RawCodec       identity;
//   XorDeltaCodec  XOR against an aligned base stream — unchanged bytes
//                  become zero (FTI-style differential compression; degrades
//                  to identity when no base is supplied);
//   RleCodec       PackBits-style run-length coding, built for those zeros;
//   LzCodec        a small self-contained LZ77 (64 KiB window, hash-chained
//                  greedy matcher) for the repeated patterns RLE misses;
//   CodecChain     an ordered stack, e.g. XOR -> RLE -> LZ, so each caller
//                  can trade encode cost against bytes independently.
//
// Every decode path validates its input and throws ac::CodecError on
// truncated payloads, malformed tokens, out-of-window matches, bad codec
// ids, or a decoded-size mismatch — corrupt bytes must never become UB.
// Callers wrap CodecError into their domain error (CheckpointError,
// TraceFormatError) at the container boundary.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ac {

enum class CodecId : std::uint8_t { Raw = 0, Xor = 1, Rle = 2, Lz = 3 };

const char* codec_name(CodecId id);

/// A byte-stream codec stage. Stateless; the singletons from codec_for() are
/// shared freely across threads.
class Codec {
 public:
  virtual ~Codec() = default;

  virtual CodecId id() const = 0;

  /// Encode `raw` into the codec's token stream. `base` is the aligned
  /// base byte stream (same layout as `raw`); only XOR reads it, and a short
  /// or empty base XORs the uncovered tail against zero.
  std::string encode(std::string_view raw, std::string_view base) const {
    std::string out;
    encode_into(raw, base, out);
    return out;
  }

  /// Decode the entire `payload` (tokens are self-terminating, so no raw
  /// size is needed up front). Throws CodecError on malformed input or when
  /// the output would exceed `max_out` (an allocation guard; pass the
  /// caller's known raw size with headroom).
  std::string decode(std::string_view payload, std::size_t max_out,
                     std::string_view base) const {
    std::string out;
    decode_into(payload, max_out, base, out);
    return out;
  }

  /// Scratch-reusing primitives: same bytes and same errors as encode()/
  /// decode(), but the result lands in a caller-owned string whose capacity
  /// survives across calls — the streaming MCTB paths decode millions of
  /// chunks without a fresh heap string per stage. `out` must not alias the
  /// input views.
  virtual void encode_into(std::string_view raw, std::string_view base,
                           std::string& out) const = 0;
  virtual void decode_into(std::string_view payload, std::size_t max_out,
                           std::string_view base, std::string& out) const = 0;
};

/// The shared singleton for `id`; throws CodecError on an unknown id.
const Codec& codec_for(CodecId id);

/// An ordered stack of codec stages. Empty = raw pass-through (the canonical
/// "no codec", serialized as zero stages). Encode applies stages in order;
/// decode applies them in reverse. The base stream is only meaningful for the
/// first stage (later stages see compressed bytes), so only stage 0
/// receives it.
class CodecChain {
 public:
  CodecChain() = default;
  explicit CodecChain(std::vector<CodecId> stages);

  /// Parse a '+'-separated spec: "raw", "rle", "lz", "xor+rle",
  /// "xor+rle+lz", or the alias "chain" (= xor+rle+lz). Throws CodecError on
  /// an unknown token.
  static CodecChain parse(const std::string& spec);

  /// Rebuild a chain from serialized stage ids, validating every id — the
  /// decode-side guard against corrupt headers. Throws CodecError.
  static CodecChain from_ids(const std::uint8_t* ids, std::size_t count);

  const std::vector<CodecId>& stages() const { return stages_; }
  bool raw() const { return stages_.empty(); }
  /// The parseable spec string, e.g. "xor+rle+lz"; "raw" for the empty chain.
  std::string str() const;

  std::string encode(std::string_view raw, std::string_view base = {}) const;
  /// Decode and verify the result is exactly `expect_raw_size` bytes.
  std::string decode(std::string_view payload, std::size_t expect_raw_size,
                     std::string_view base = {}) const;

  /// Scratch-reusing chain entry points: stages ping-pong between `out` and
  /// `scratch` (both caller-owned, capacity reused across calls) and the
  /// final stage always lands in `out`. Byte- and error-identical to
  /// encode()/decode(). Neither buffer may alias the input views.
  void encode_into(std::string_view raw, std::string_view base, std::string& out,
                   std::string& scratch) const;
  void decode_into(std::string_view payload, std::size_t expect_raw_size,
                   std::string_view base, std::string& out, std::string& scratch) const;

  bool operator==(const CodecChain&) const = default;

 private:
  std::vector<CodecId> stages_;
};

// --- SIMD kernel dispatch ---------------------------------------------------
//
// The byte-level kernels below (plane shuffle, RLE scan) sit under every MCTB
// decode and checkpoint encode. Each has a scalar reference implementation
// plus an SSSE3 variant selected once at startup from CPUID; setting the
// AC_NO_SIMD environment variable (to anything but "0") forces the scalar
// path. The dispatch level is a process-wide atomic so tests and benches can
// pin a level with force_simd_level() and compare outputs — the variants are
// bit-identical by contract, pinned in tests/test_simd.cpp. Zigzag-delta has
// one implementation, the scalar loop.

enum class SimdLevel : std::uint8_t { Scalar = 0, Sse = 1 };

/// "scalar", "sse".
const char* simd_level_name(SimdLevel level);

/// The dispatch level in effect: Sse on an SSSE3 CPU by default, Scalar
/// when AC_NO_SIMD is set in the environment.
SimdLevel active_simd_level();

/// Test/bench hook: pin the dispatch level (clamped to what the CPU actually
/// supports — requesting Sse on a CPU without SSSE3 yields Scalar). Returns
/// the previously active level so callers can restore it.
SimdLevel force_simd_level(SimdLevel level);

// --- fixed-stride helpers shared by the container formats -------------------

/// Byte-plane shuffle of `count` elements of `stride` bytes each (the
/// Blosc/HDF5 shuffle filter): all bytes 0, then all bytes 1, ... — after
/// delta/XOR prediction the high planes are almost entirely zero, handing RLE
/// kilobyte-long runs instead of isolated zero pairs. Strides 4 and 8 (the
/// container column widths) take the SIMD transpose path.
std::string shuffle_planes(const void* data, std::size_t count, std::size_t stride);

/// Inverse of shuffle_planes into `out` (count * stride bytes). Throws
/// CodecError when `bytes` is not exactly count * stride long.
void unshuffle_planes(std::string_view bytes, std::size_t count, std::size_t stride, void* out);

/// In-place delta + zigzag fold over a u64 column: values[i] becomes
/// zigzag_encode(values[i] - values[i-1]) with values[0] delta'd against
/// `prev`. Inverse of zigzag_delta_decode with the same `prev`.
void zigzag_delta_encode(std::uint64_t* values, std::size_t n, std::uint64_t prev = 0);

/// In-place zigzag unfold + running sum: values[i] becomes
/// prev + sum of zigzag_decode(values[0..i]).
void zigzag_delta_decode(std::uint64_t* values, std::size_t n, std::uint64_t prev = 0);

/// First index i in [0, n) with p[i] == p[i+1] == p[i+2] (the shortest run
/// the RLE tokenizer emits), or n when no run starts in the buffer.
std::size_t rle_find_run(const unsigned char* p, std::size_t n);

/// Length of the run of p[0] bytes at p, capped at n. n must be >= 1.
std::size_t rle_run_length(const unsigned char* p, std::size_t n);

/// Scalar reference implementations of the dispatched kernels above, exported
/// for equivalence tests and as the bench baseline. Semantics are identical.
namespace scalar {
std::string shuffle_planes(const void* data, std::size_t count, std::size_t stride);
void unshuffle_planes(std::string_view bytes, std::size_t count, std::size_t stride, void* out);
std::size_t rle_find_run(const unsigned char* p, std::size_t n);
std::size_t rle_run_length(const unsigned char* p, std::size_t n);
}  // namespace scalar

/// Zigzag fold of a signed delta so small magnitudes of either sign get
/// leading zero bytes: 0,-1,1,-2,2... -> 0,1,2,3,4...
inline std::uint64_t zigzag_encode(std::uint64_t delta) {
  const std::int64_t d = static_cast<std::int64_t>(delta);
  return (static_cast<std::uint64_t>(d) << 1) ^ static_cast<std::uint64_t>(d >> 63);
}
inline std::uint64_t zigzag_decode(std::uint64_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

}  // namespace ac
