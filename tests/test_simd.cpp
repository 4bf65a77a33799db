// The SIMD codec kernels must be bit-identical to their scalar references:
// equivalence properties over random / all-zero / incompressible buffers at
// odd lengths and misalignments, at every dispatch level the CPU supports,
// plus byte-identity of the RLE token stream against a forced-scalar encode.
// Zigzag-delta has one implementation; its fold is checked per element.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "support/codec.hpp"
#include "support/rng.hpp"

namespace ac {
namespace {

/// Pin a dispatch level for one scope, restoring the previous one on exit.
struct ScopedSimdLevel {
  explicit ScopedSimdLevel(SimdLevel level) : prev(force_simd_level(level)) {}
  ~ScopedSimdLevel() { force_simd_level(prev); }
  SimdLevel prev;
};

std::vector<SimdLevel> supported_levels() {
  // force_simd_level clamps to CPU support, so probing is side-effect free
  // (the previous level is restored immediately).
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  const SimdLevel prev = force_simd_level(SimdLevel::Sse);
  if (active_simd_level() == SimdLevel::Sse) levels.push_back(SimdLevel::Sse);
  force_simd_level(prev);
  return levels;
}

enum class Fill { Zero, Random, Incompressible, ShortRuns };

std::string make_buffer(std::size_t n, Fill fill, std::uint64_t seed) {
  std::string buf(n, '\0');
  SplitMix64 rng(seed);
  switch (fill) {
    case Fill::Zero:
      break;
    case Fill::Random:
      // Zero-heavy with scattered values: the shape shuffled planes feed RLE.
      for (auto& ch : buf) ch = rng.chance(0.7) ? '\0' : static_cast<char>(rng.next());
      break;
    case Fill::Incompressible:
      for (auto& ch : buf) ch = static_cast<char>(rng.next());
      break;
    case Fill::ShortRuns:
      // Run lengths hovering around the RLE thresholds (1..6).
      for (std::size_t i = 0; i < n;) {
        const char v = static_cast<char>(rng.below(4));
        std::size_t run = 1 + rng.below(6);
        for (; run > 0 && i < n; --run, ++i) buf[i] = v;
      }
      break;
  }
  return buf;
}

// Lengths straddling the 16/32-element vector widths, their tails, and odd
// remainders.
const std::size_t kLengths[] = {0, 1, 2, 3, 5, 15, 16, 17, 31, 32, 33, 47, 64, 100, 1000, 4097};

TEST(SimdKernels, ShufflePlanesMatchesScalarEveryLevelAndAlignment) {
  for (const SimdLevel level : supported_levels()) {
    ScopedSimdLevel scope(level);
    for (const std::size_t stride : {std::size_t{4}, std::size_t{8}}) {
      for (const std::size_t count : kLengths) {
        for (const std::size_t shift : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
          // Misalign the input start by `shift` bytes inside a slab.
          const std::string slab =
              make_buffer(count * stride + shift, Fill::Incompressible, count * 31 + shift);
          const char* in = slab.data() + shift;
          // Both append after what the buffer already holds.
          std::string simd = "head", ref = "head";
          shuffle_planes(in, count, stride, simd);
          scalar::shuffle_planes(in, count, stride, ref);
          ASSERT_EQ(ref, simd) << "level=" << simd_level_name(level) << " stride=" << stride
                               << " count=" << count << " shift=" << shift;

          // Round-trip through the (dispatched) unshuffle, also misaligned.
          ASSERT_EQ(simd.substr(0, 4), "head");
          simd.erase(0, 4);
          std::string back(count * stride + shift, '\0');
          unshuffle_planes(simd, count, stride, back.data() + shift);
          ASSERT_EQ(0, std::memcmp(back.data() + shift, in, count * stride))
              << "level=" << simd_level_name(level) << " stride=" << stride
              << " count=" << count << " shift=" << shift;

          std::string back_ref(count * stride, '\0');
          scalar::unshuffle_planes(simd, count, stride, back_ref.data());
          ASSERT_EQ(0, std::memcmp(back_ref.data(), in, count * stride));
        }
      }
    }
  }
}

TEST(ZigzagDelta, FoldsEachDeltaAndRoundTrips) {
  for (const std::size_t n : kLengths) {
    SplitMix64 rng(n * 977 + 5);
    std::vector<std::uint64_t> vals(n);
    for (auto& v : vals) {
      // Near-monotone stream with occasional wild jumps — the dyn_id shape.
      v = rng.chance(0.9) ? rng.below(1 << 20) : rng.next();
    }
    const std::uint64_t prev = rng.next();

    std::vector<std::uint64_t> work = vals;
    zigzag_delta_encode(work.data(), work.size(), prev);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(zigzag_encode(vals[i] - (i ? vals[i - 1] : prev)), work[i])
          << "n=" << n << " i=" << i;
    }
    zigzag_delta_decode(work.data(), work.size(), prev);
    ASSERT_EQ(vals, work) << "n=" << n;
  }
  // Small deltas of either sign fold to small codes.
  std::vector<std::uint64_t> ramp{10, 9, 11, 11};
  zigzag_delta_encode(ramp.data(), ramp.size(), 10);
  EXPECT_EQ(ramp, (std::vector<std::uint64_t>{0, 1, 4, 0}));
}

TEST(SimdKernels, RleScansMatchScalarEveryLevel) {
  for (const SimdLevel level : supported_levels()) {
    ScopedSimdLevel scope(level);
    for (const Fill fill : {Fill::Zero, Fill::Random, Fill::Incompressible, Fill::ShortRuns}) {
      for (const std::size_t n : kLengths) {
        if (n == 0) continue;
        const std::string buf = make_buffer(n, fill, n * 7919 + static_cast<int>(fill));
        const auto* p = reinterpret_cast<const unsigned char*>(buf.data());
        ASSERT_EQ(scalar::rle_find_run(p, n), rle_find_run(p, n))
            << "level=" << simd_level_name(level) << " n=" << n;
        ASSERT_EQ(scalar::rle_run_length(p, n), rle_run_length(p, n))
            << "level=" << simd_level_name(level) << " n=" << n;
        // Scans inside the buffer too, so runs straddle vector boundaries.
        for (std::size_t off = 1; off < n && off < 40; off += 3) {
          ASSERT_EQ(scalar::rle_find_run(p + off, n - off), rle_find_run(p + off, n - off));
          ASSERT_EQ(scalar::rle_run_length(p + off, n - off), rle_run_length(p + off, n - off));
        }
      }
    }
  }
}

TEST(SimdKernels, RleEncodeByteIdenticalToForcedScalar) {
  const CodecChain rle = CodecChain::parse("rle");
  for (const Fill fill : {Fill::Zero, Fill::Random, Fill::Incompressible, Fill::ShortRuns}) {
    for (const std::size_t n : kLengths) {
      const std::string buf = make_buffer(n, fill, n * 131 + static_cast<int>(fill) * 7);
      std::string scalar_tokens;
      {
        ScopedSimdLevel scope(SimdLevel::Scalar);
        scalar_tokens = rle.encode(buf);
      }
      for (const SimdLevel level : supported_levels()) {
        ScopedSimdLevel scope(level);
        const std::string tokens = rle.encode(buf);
        ASSERT_EQ(scalar_tokens, tokens)
            << "level=" << simd_level_name(level) << " fill=" << static_cast<int>(fill)
            << " n=" << n;
        ASSERT_EQ(buf, rle.decode(tokens, buf.size()));
      }
    }
  }
}

TEST(SimdKernels, ForceLevelClampsAndRestores) {
  const SimdLevel active = active_simd_level();
  const SimdLevel prev = force_simd_level(SimdLevel::Sse);
  EXPECT_EQ(prev, active);
  // Whatever Sse clamped to, Scalar is always available.
  force_simd_level(SimdLevel::Scalar);
  EXPECT_EQ(SimdLevel::Scalar, active_simd_level());
  force_simd_level(active);
  EXPECT_EQ(active, active_simd_level());
}

TEST(SimdKernels, LevelNamesAreStable) {
  EXPECT_STREQ("scalar", simd_level_name(SimdLevel::Scalar));
  EXPECT_STREQ("sse", simd_level_name(SimdLevel::Sse));
}

}  // namespace
}  // namespace ac
