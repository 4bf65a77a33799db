// The analysis-service wire protocol ("ACNP"): the versioned, explicit frame
// vocabulary spoken between tracing clients (trace::RemoteSink, the autocheck
// --connect thin client) and the acd daemon (net/server.hpp). In the spirit
// of the ConfFuzz monitor/guest protocol: a tiny handshake, then
// length-prefixed typed frames — nothing implicit, every field validated.
//
//   client                             server (acd)
//     | -- Hello {magic, version} ---------->|
//     | <- HelloAck {magic, version} --------|      (or Error + close)
//     | -- TraceChunk (MCTB container) ----->|  +
//     | -- TraceChunk ---------------------->|  |  decoded + merged
//     | -- Flush --------------------------->|  |  incrementally
//     | <- FlushAck -------------------------|  +
//     | -- ReportRequest {region, opts} ----->|      runs analysis::Session
//     | <- Report {json|text} ---------------|      (or Error)
//     | -- MetricsRequest ------------------->|
//     | <- Metrics {MetricsRegistry JSON} ---|
//     | -- Goodbye -------------------------->|      connection closes
//
// Frame layout (16-byte header, little-endian, then the payload):
//
//   u32 type         FrameType below; unknown values are a ProtocolError
//   u32 payload_crc  CRC32 of the encoded type word followed by the payload
//                    bytes — a flipped type bit cannot silently turn one
//                    frame kind into another. FrameReader checks it before
//                    it returns the frame.
//   u64 payload_len  capped by max_frame_bytes — a forged length can never
//                    trigger a giant allocation
//
// A TraceChunk payload is a complete, self-contained MCTB container
// (trace/mctb.hpp) holding the next run of records, and decode reuses the
// full MCTB validation matrix (magic/version/bounds/section CRCs/codec
// ids/opcodes/symbol ids/flags) — a malformed chunk is a clean
// ProtocolError/TraceFormatError and a torn-down connection, never UB and
// never a dead daemon.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/region.hpp"
#include "analysis/preprocess.hpp"

namespace ac::net {

/// Protocol magic "ACNP" (little-endian) and the one version this build
/// speaks. Version bumps are explicit wire breaks: both sides compare
/// numbers, there is no silent fallback.
constexpr std::uint32_t kProtocolMagic = 0x504E4341u;
constexpr std::uint32_t kProtocolVersion = 2;

/// Default cap on a single frame's payload. A 64Ki-record chunk encodes to a
/// few MiB at worst; 256 MiB leaves generous headroom while bounding what a
/// forged header can make either side allocate.
constexpr std::uint64_t kDefaultMaxFrameBytes = 256ull << 20;

enum class FrameType : std::uint32_t {
  Hello = 1,
  HelloAck = 2,
  TraceChunk = 3,
  Flush = 4,
  FlushAck = 5,
  ReportRequest = 6,
  Report = 7,
  MetricsRequest = 8,
  Metrics = 9,
  Error = 10,
  Goodbye = 11,
};

/// True for every value a conforming peer may put on the wire.
bool is_known_frame_type(std::uint32_t t);
const char* frame_type_name(FrameType t);

constexpr std::size_t kFrameHeaderSize = 16;

struct Frame {
  FrameType type = FrameType::Error;
  std::string payload;
};

/// Serialize one frame (header + payload, CRC filled in).
std::string encode_frame(FrameType type, std::string_view payload);

/// Incremental frame slicer over a byte stream. feed() appends raw bytes;
/// next() pops the earliest complete frame. Header validation (known type,
/// payload_len <= max_frame_bytes) happens as soon as a header is complete,
/// so an oversized or unknown frame is rejected before its payload is
/// buffered; the CRC is checked once the payload is, so every frame next()
/// returns is intact. All three failures throw ProtocolError.
class FrameReader {
 public:
  explicit FrameReader(std::uint64_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const char* data, std::size_t n);
  std::optional<Frame> next();

  /// Bytes buffered but not yet returned as frames.
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::uint64_t max_frame_bytes_;
  std::string buf_;
  std::size_t pos_ = 0;
};

// --- typed payloads ---------------------------------------------------------

/// Hello / HelloAck payload: who is speaking and which protocol version.
/// Chunk codecs need no negotiation — each MCTB container names its own.
struct Hello {
  std::uint32_t magic = kProtocolMagic;
  std::uint32_t version = kProtocolVersion;

  std::string encode() const;
  /// Throws ProtocolError on truncation, bad magic, or a version this build
  /// does not speak (the two failure modes get distinct messages).
  static Hello decode(std::string_view payload);
};

/// How the client wants its Report frame rendered.
enum class ReportFormat : std::uint32_t { Json = 0, Text = 1 };

/// ReportRequest payload: the MCL region plus the analysis options that
/// affect verdicts/rendering. Thread budgets stay server-side policy, and so
/// does the DDG: neither report format carries one, so the daemon never
/// builds it.
struct ReportSpec {
  analysis::MclRegion region;
  analysis::MliMode mli_mode = analysis::MliMode::AddressResolved;
  /// Omit the timings object from JSON reports, making the bytes a pure
  /// function of the trace + region — what the loopback identity tests and
  /// the CI byte-for-byte diff pin.
  bool with_timings = true;
  ReportFormat format = ReportFormat::Json;

  std::string encode() const;
  /// Throws ProtocolError on truncation or out-of-range fields (lines,
  /// mli_mode, format).
  static ReportSpec decode(std::string_view payload);
};

}  // namespace ac::net
