// Checkpoint codec layer: round-trip property tests for every codec and
// chain over random / all-zero / all-distinct / empty / single-cell /
// adversarial incompressible cell buffers, decode-side rejection of
// truncated payloads and bad codec ids (CodecError from the shared layer in
// support/codec.hpp, CheckpointError from the cell entry points — never UB),
// the RLE and LZ decoders on every token shape under every truncation and
// single-byte change, CRC-32 against its bitwise definition, and the
// compression behavior each codec exists for (zero-run RLE, XOR-vs-base
// zeroing, LZ pattern matching).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "ckpt/codec.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace ac::ckpt {
namespace {

std::vector<Cell> random_cells(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Cell> cells(n);
  for (auto& c : cells) {
    c.payload = rng.next();
    c.kind = static_cast<std::uint8_t>(rng.below(4));
  }
  return cells;
}

std::vector<Cell> zero_cells(std::size_t n) { return std::vector<Cell>(n); }

std::vector<Cell> distinct_cells(std::size_t n) {
  std::vector<Cell> cells(n);
  for (std::size_t i = 0; i < n; ++i) {
    cells[i].payload = i * 0x9E3779B97F4A7C15ull + 1;
    cells[i].kind = static_cast<std::uint8_t>(i % 5);
  }
  return cells;
}

/// High-entropy bytes in every plane — the adversarial case no codec can
/// shrink; round-trip and bounded expansion are what matter.
std::vector<Cell> incompressible_cells(std::size_t n) { return random_cells(n, 0xBADC0DE); }

// "rle+rle" is deliberately redundant: stacked stages each add worst-case
// literal-framing overhead, and the chain decode's allocation guard must
// compound its headroom per stage rather than reject what encode produced.
const std::vector<std::string> kChainSpecs = {"raw",     "xor",    "rle",        "lz",
                                              "xor+rle", "rle+lz", "xor+rle+lz", "rle+rle"};

struct NamedBuffer {
  const char* name;
  std::vector<Cell> cells;
};

std::vector<NamedBuffer> buffer_families() {
  return {
      {"empty", {}},
      {"single", {Cell{0x0123456789ABCDEFull, 3}}},
      {"all_zero", zero_cells(1000)},
      {"all_distinct", distinct_cells(777)},
      {"random", random_cells(500, 42)},
      {"incompressible", incompressible_cells(2048)},
  };
}

// ---------------------------------------------------------------------------
// Cell-span shuffle serialization
// ---------------------------------------------------------------------------

TEST(CodecCells, ShuffleRoundTrip) {
  for (const auto& buf : buffer_families()) {
    const std::string bytes = cells_to_bytes(buf.cells.data(), buf.cells.size());
    EXPECT_EQ(bytes.size(), buf.cells.size() * 9) << buf.name;
    EXPECT_EQ(cells_from_bytes(bytes), buf.cells) << buf.name;
  }
}

/// The byte layout every stored record depends on: payload byte plane 0 (the
/// low byte) of every cell, then planes 1..7, then the kind tags.
TEST(CodecCells, LayoutIsPayloadPlanesThenKinds) {
  const std::vector<Cell> cells = {
      {0x0123456789ABCDEFull, 3}, {0x1122334455667788ull, 0}, {0xFFull, 7}};
  const unsigned char want[] = {0xEF, 0x88, 0xFF, 0xCD, 0x77, 0x00, 0xAB, 0x66, 0x00,
                                0x89, 0x55, 0x00, 0x67, 0x44, 0x00, 0x45, 0x33, 0x00,
                                0x23, 0x22, 0x00, 0x01, 0x11, 0x00, 0x03, 0x00, 0x07};
  EXPECT_EQ(cells_to_bytes(cells.data(), cells.size()),
            std::string(reinterpret_cast<const char*>(want), sizeof(want)));
  EXPECT_EQ(cells_from_bytes(std::string(reinterpret_cast<const char*>(want), sizeof(want))),
            cells);

  // Spans long enough for a vectorized transpose keep the same layout.
  const std::vector<Cell> many = distinct_cells(37);
  const std::string bytes = cells_to_bytes(many.data(), many.size());
  ASSERT_EQ(bytes.size(), many.size() * 9);
  for (std::size_t i = 0; i < many.size(); ++i) {
    for (std::size_t plane = 0; plane < 8; ++plane) {
      EXPECT_EQ(static_cast<unsigned char>(bytes[plane * many.size() + i]),
                (many[i].payload >> (plane * 8)) & 0xFF)
          << "cell " << i << " plane " << plane;
    }
    EXPECT_EQ(static_cast<unsigned char>(bytes[8 * many.size() + i]), many[i].kind) << i;
  }
}

TEST(CodecCells, RejectsMisalignedStream) {
  EXPECT_THROW(cells_from_bytes(std::string(10, 'x')), CheckpointError);
  EXPECT_THROW(cells_from_bytes(std::string(8, 'x')), CheckpointError);
  EXPECT_TRUE(cells_from_bytes("").empty());
}

// ---------------------------------------------------------------------------
// Round-trip property: every chain x every buffer family x base variants
// ---------------------------------------------------------------------------

TEST(CodecRoundTrip, EveryChainEveryBufferEveryBase) {
  for (const auto& spec : kChainSpecs) {
    const CodecChain chain = CodecChain::parse(spec);
    for (const auto& buf : buffer_families()) {
      const std::size_t n = buf.cells.size();
      // Base variants: none, identical, drifted, shorter than the span.
      const std::vector<Cell> same = buf.cells;
      std::vector<Cell> drift = buf.cells;
      for (std::size_t i = 0; i < drift.size(); i += 3) drift[i].payload += 1;
      const std::vector<Cell> shorter(buf.cells.begin(),
                                      buf.cells.begin() + static_cast<std::ptrdiff_t>(n / 2));
      const std::vector<std::pair<const char*, const std::vector<Cell>*>> bases = {
          {"no_base", nullptr}, {"same", &same}, {"drift", &drift}, {"short", &shorter}};
      for (const auto& [bname, base] : bases) {
        const Cell* bdata = base ? base->data() : nullptr;
        const std::size_t bn = base ? base->size() : 0;
        const std::string enc = encode_cells(chain, buf.cells.data(), n, bdata, bn);
        const std::vector<Cell> back = decode_cells(chain, enc, n, bdata, bn);
        EXPECT_EQ(back, buf.cells) << spec << " / " << buf.name << " / " << bname;
      }
    }
  }
}

TEST(CodecRoundTrip, IncompressibleExpansionIsBounded) {
  // PackBits-style literal framing costs at most 1 byte per 128 (plus LZ's
  // identical bound); high-entropy input must not blow up.
  const auto cells = incompressible_cells(4096);
  const std::string raw = cells_to_bytes(cells.data(), cells.size());
  for (const auto& spec : kChainSpecs) {
    const CodecChain chain = CodecChain::parse(spec);
    const std::string enc = chain.encode(raw, {});
    EXPECT_LE(enc.size(), raw.size() + raw.size() / 32 + 64) << spec;
    EXPECT_EQ(chain.decode(enc, raw.size(), {}), raw) << spec;
  }
}

// ---------------------------------------------------------------------------
// Decode-side rejection: truncation, bad ids, wrong sizes
// ---------------------------------------------------------------------------

TEST(CodecReject, TruncatedPayloadsThrow) {
  // Every proper prefix of a valid payload decodes to fewer bytes than the
  // declared cell count (or trips a token bounds check) — either way the
  // decode must throw CheckpointError, never read out of bounds.
  const auto cells = random_cells(256, 7);
  for (const auto& spec : kChainSpecs) {
    const CodecChain chain = CodecChain::parse(spec);
    const std::string enc = encode_cells(chain, cells.data(), cells.size(), nullptr, 0);
    ASSERT_FALSE(enc.empty());
    for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, enc.size() / 2, enc.size() - 1}) {
      EXPECT_THROW(decode_cells(chain, enc.substr(0, cut), cells.size(), nullptr, 0),
                   CheckpointError)
          << spec << " cut=" << cut;
    }
  }
}

TEST(CodecReject, RleTruncatedTokens) {
  const Codec& rle = codec_for(CodecId::Rle);
  // Literal control byte promising 4 bytes, only 2 present.
  EXPECT_THROW(rle.decode(std::string("\x03\x61\x62", 3), 1024, {}), CodecError);
  // Repeat control byte with no value byte.
  EXPECT_THROW(rle.decode(std::string("\x85", 1), 1024, {}), CodecError);
  // Output cap enforced.
  EXPECT_THROW(rle.decode(std::string("\xFF\x00", 2), 8, {}), CodecError);
}

TEST(CodecReject, LzMalformedTokens) {
  const Codec& lz = codec_for(CodecId::Lz);
  // Match token referencing data before the start of the output.
  EXPECT_THROW(lz.decode(std::string("\x80\x05\x00", 3), 1024, {}), CodecError);
  // Truncated match token (control byte only).
  EXPECT_THROW(lz.decode(std::string("\x01\x61\x62\x80", 4), 1024, {}), CodecError);
  // Zero distance is never valid.
  EXPECT_THROW(lz.decode(std::string("\x01\x61\x62\x80\x00\x00", 6), 1024, {}), CodecError);
}

TEST(CodecReject, BadCodecIdsThrow) {
  const std::uint8_t bad[] = {0, 2, 9};
  EXPECT_THROW(CodecChain::from_ids(bad, 3), CodecError);
  EXPECT_THROW(CodecChain::parse("zstd"), CodecError);
  EXPECT_THROW(CodecChain::parse("xor+bogus"), CodecError);
  EXPECT_THROW(codec_for(static_cast<CodecId>(200)), CodecError);
}

TEST(CodecReject, DecodedSizeMismatchThrows) {
  const auto cells = random_cells(64, 11);
  const CodecChain chain = CodecChain::parse("rle");
  const std::string enc = encode_cells(chain, cells.data(), cells.size(), nullptr, 0);
  // Declaring a different cell count than was encoded must be caught.
  EXPECT_THROW(decode_cells(chain, enc, cells.size() - 1, nullptr, 0), CheckpointError);
  EXPECT_THROW(decode_cells(chain, enc, cells.size() + 1, nullptr, 0), CheckpointError);
}

// ---------------------------------------------------------------------------
// The compression each codec exists for
// ---------------------------------------------------------------------------

TEST(CodecBehavior, RleCrushesZeroRuns) {
  const auto cells = zero_cells(1000);  // 9000 raw bytes, one giant zero run
  const CodecChain rle = CodecChain::parse("rle");
  const std::string enc = encode_cells(rle, cells.data(), cells.size(), nullptr, 0);
  EXPECT_LT(enc.size(), 160u);  // ~2 bytes per 130-byte run
}

TEST(CodecBehavior, XorAgainstIdenticalBaseYieldsZeros) {
  const auto cells = random_cells(300, 99);
  const CodecChain x = CodecChain::parse("xor");
  const std::string enc = encode_cells(x, cells.data(), cells.size(), cells.data(), cells.size());
  for (const char b : enc) EXPECT_EQ(b, 0);
  // ... which the chained RLE then collapses.
  const CodecChain xr = CodecChain::parse("xor+rle");
  const std::string enc2 =
      encode_cells(xr, cells.data(), cells.size(), cells.data(), cells.size());
  EXPECT_LT(enc2.size(), 64u);
}

TEST(CodecBehavior, LzFindsRepeatedPatterns) {
  // A 64-cell pattern tiled 32 times: RLE sees no byte runs, LZ sees it all.
  const auto pattern = random_cells(64, 5);
  std::vector<Cell> tiled;
  for (int i = 0; i < 32; ++i) tiled.insert(tiled.end(), pattern.begin(), pattern.end());
  const std::string raw = cells_to_bytes(tiled.data(), tiled.size());
  const CodecChain lz = CodecChain::parse("lz");
  const std::string enc = lz.encode(raw, {});
  EXPECT_LT(enc.size(), raw.size() / 8);
  EXPECT_EQ(lz.decode(enc, raw.size(), {}), raw);
}

// ---------------------------------------------------------------------------
// The decoders on every token shape, under truncation and byte changes
// ---------------------------------------------------------------------------

/// Raw bytes whose RLE tokens are literal runs of every length 1-128, each
/// followed by a repeat run of a length from 3-130, and whose LZ tokens hold
/// matches at every distance 1-16: each d-byte pattern is repeated.
std::string token_payload() {
  std::string out;
  unsigned next = 0;
  for (std::size_t n = 1; n <= 128; ++n) {
    // Literal bytes climb through 1..250, so no three in a row are equal and
    // none is the run byte 0.
    for (std::size_t k = 0; k < n; ++k) out += static_cast<char>(1 + next++ % 250);
    out.append(n + 2, '\0');
  }
  SplitMix64 rng(26);
  for (std::size_t d = 1; d <= 16; ++d) {
    std::string pattern;
    for (std::size_t k = 0; k < d; ++k) pattern += static_cast<char>(rng.below(256));
    for (std::size_t k = 0; k < 48; ++k) out += pattern[k % d];
    out += static_cast<char>(0xA5);
  }
  return out;
}

/// Long-distance matches: a random 32-byte marker, zeros, and the marker
/// again at distances from 1,000 to 65,535 (the window's edge). The zeros
/// keep the encoded stream, and so a decode per mutation, small.
constexpr std::size_t kFarDistances[] = {1000, 4096, 30000, 65535};

std::string far_payload() {
  std::string out;
  SplitMix64 rng(65535);
  for (const std::size_t d : kFarDistances) {
    std::string marker;
    for (int k = 0; k < 32; ++k) marker += static_cast<char>(rng.below(256));
    out += marker;
    out.append(d - marker.size(), '\0');
    out += marker;
  }
  return out;
}

/// The distance of every LZ match token in `tokens`.
std::set<std::size_t> lz_match_distances(const std::string& tokens) {
  std::set<std::size_t> out;
  for (std::size_t i = 0; i < tokens.size();) {
    const auto c = static_cast<unsigned char>(tokens[i++]);
    if (c < 0x80) {
      i += c + 1u;
    } else {
      out.insert(static_cast<unsigned char>(tokens[i]) |
                 static_cast<std::size_t>(static_cast<unsigned char>(tokens[i + 1])) << 8);
      i += 2;
    }
  }
  return out;
}

/// Every truncation of `enc` throws CodecError; every single-byte change
/// (each position XORed with 0x01, 0x80 and 0xFF: a literal byte, a token's
/// kind bit, the whole byte) decodes to exactly `raw.size()` bytes — `raw`
/// itself when the change leaves the stream's meaning intact — or throws
/// CodecError. Nothing else escapes, and the sanitizer job checks that no
/// decode reads or writes out of bounds.
void expect_mutations_safe(const CodecChain& chain, const std::string& enc,
                           const std::string& raw) {
  ASSERT_EQ(chain.decode(enc, raw.size()), raw) << chain.str();
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    EXPECT_THROW(chain.decode(enc.substr(0, cut), raw.size()), CodecError)
        << chain.str() << " cut=" << cut;
  }
  std::string changed = enc;
  for (std::size_t i = 0; i < enc.size(); ++i) {
    for (const unsigned char x : {0x01, 0x80, 0xFF}) {
      changed[i] = static_cast<char>(enc[i] ^ x);
      try {
        EXPECT_EQ(chain.decode(changed, raw.size()).size(), raw.size());
      } catch (const CodecError&) {
      }
      changed[i] = enc[i];
    }
  }
}

TEST(CodecDecode, EveryTokenShapeSurvivesTruncationAndByteChanges) {
  const std::string tokens = token_payload();
  const std::string far = far_payload();
  // The payloads reach the token shapes they are built for.
  const std::set<std::size_t> near = lz_match_distances(CodecChain::parse("lz").encode(tokens));
  for (std::size_t d = 1; d <= 16; ++d) EXPECT_EQ(near.count(d), 1u) << "distance " << d;
  const std::set<std::size_t> far_d = lz_match_distances(CodecChain::parse("lz").encode(far));
  for (const std::size_t d : kFarDistances) EXPECT_EQ(far_d.count(d), 1u) << "distance " << d;
  for (const char* spec : {"rle", "lz", "rle+lz"}) {
    const CodecChain chain = CodecChain::parse(spec);
    for (const std::string* raw : {&tokens, &far}) {
      SCOPED_TRACE(std::string(spec) + (raw == &tokens ? " tokens" : " far"));
      expect_mutations_safe(chain, chain.encode(*raw), *raw);
    }
  }
}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// CRC-32 by its bitwise definition (reflected, polynomial 0xEDB88320).
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t n, std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
  }
  return ~c;
}

TEST(Crc32, MatchesTheBitwiseDefinition) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32_bitwise(reinterpret_cast<const unsigned char*>("123456789"), 9, 0),
            0xCBF43926u);
  SplitMix64 rng(32);
  unsigned char data[64];
  for (auto& b : data) b = static_cast<unsigned char>(rng.next());
  // Every length 0-17 (the 8-byte body and each tail) at every alignment,
  // seeded with the CRC of the bytes before it, as a chained caller does.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 17; ++len) {
      const std::uint32_t seed = crc32(data, offset);
      EXPECT_EQ(crc32(data + offset, len, seed), crc32_bitwise(data + offset, len, seed))
          << "offset=" << offset << " len=" << len;
      EXPECT_EQ(crc32(data + offset, len, seed), crc32(data, offset + len));
    }
  }
}

TEST(CodecChainApi, SpecParseAndStr) {
  EXPECT_TRUE(CodecChain::parse("raw").raw());
  EXPECT_TRUE(CodecChain::parse("").raw());
  EXPECT_EQ(CodecChain::parse("raw").str(), "raw");
  EXPECT_EQ(CodecChain::parse("chain").str(), "xor+rle+lz");
  EXPECT_EQ(CodecChain::parse("xor+rle+lz"), CodecChain::parse("chain"));
  EXPECT_EQ(CodecChain::parse("rle").str(), "rle");
  EXPECT_NE(CodecChain::parse("rle"), CodecChain::parse("lz"));
  // from_ids round-trips through the serialized stage bytes.
  const std::uint8_t ids[] = {1, 2, 3};
  EXPECT_EQ(CodecChain::from_ids(ids, 3), CodecChain::parse("chain"));
}

}  // namespace
}  // namespace ac::ckpt
