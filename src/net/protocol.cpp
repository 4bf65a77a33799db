#include "net/protocol.hpp"

#include <cstring>

#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace ac::net {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), 4);
}
void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), 8);
}

/// Bounds-checked little-endian reader (the MCTB Cursor discipline applied to
/// frame payloads).
struct Cursor {
  std::string_view data;
  std::size_t pos = 0;
  const char* what;

  std::uint32_t u32() {
    need(4);
    std::uint32_t v;
    std::memcpy(&v, data.data() + pos, 4);
    pos += 4;
    return v;
  }
  std::string_view bytes(std::size_t n) {
    need(n);
    const std::string_view v = data.substr(pos, n);
    pos += n;
    return v;
  }
  void need(std::size_t n) const {
    if (pos + n > data.size()) {
      throw ProtocolError(strf("truncated %s payload (%zu bytes)", what, data.size()));
    }
  }
  void done() const {
    if (pos != data.size()) {
      throw ProtocolError(strf("%s payload holds %zu trailing bytes", what, data.size() - pos));
    }
  }
};

}  // namespace

bool is_known_frame_type(std::uint32_t t) {
  return t >= static_cast<std::uint32_t>(FrameType::Hello) &&
         t <= static_cast<std::uint32_t>(FrameType::Goodbye);
}

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::Hello: return "Hello";
    case FrameType::HelloAck: return "HelloAck";
    case FrameType::TraceChunk: return "TraceChunk";
    case FrameType::Flush: return "Flush";
    case FrameType::FlushAck: return "FlushAck";
    case FrameType::ReportRequest: return "ReportRequest";
    case FrameType::Report: return "Report";
    case FrameType::MetricsRequest: return "MetricsRequest";
    case FrameType::Metrics: return "Metrics";
    case FrameType::Error: return "Error";
    case FrameType::Goodbye: return "Goodbye";
  }
  return "?";
}

namespace {

/// The frame CRC covers the encoded type word *and* the payload: the type
/// field sits outside the payload, and without this a single flipped type bit
/// would yield a valid frame of a different kind (found by the fuzz
/// campaign's forge/flip mutations over encoded frames).
std::uint32_t frame_crc(FrameType type, std::string_view payload) {
  const std::uint32_t t = static_cast<std::uint32_t>(type);
  return crc32(payload.data(), payload.size(), crc32(&t, 4));
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  put_u32(out, static_cast<std::uint32_t>(type));
  put_u32(out, frame_crc(type, payload));
  put_u64(out, payload.size());
  out.append(payload);
  return out;
}

void FrameReader::feed(const char* data, std::size_t n) {
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (64u << 10))) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

std::optional<Frame> FrameReader::next() {
  if (buf_.size() - pos_ < kFrameHeaderSize) return std::nullopt;
  std::uint32_t type, crc;
  std::uint64_t len;
  std::memcpy(&type, buf_.data() + pos_, 4);
  std::memcpy(&crc, buf_.data() + pos_ + 4, 4);
  std::memcpy(&len, buf_.data() + pos_ + 8, 8);
  // Header validation fires as soon as the header is complete — an unknown
  // type or forged length is rejected before any payload is buffered.
  if (!is_known_frame_type(type)) {
    throw ProtocolError(strf("unknown frame type %u", type));
  }
  if (len > max_frame_bytes_) {
    throw ProtocolError(strf("%s frame declares %llu payload bytes (cap %llu)",
                             frame_type_name(static_cast<FrameType>(type)),
                             static_cast<unsigned long long>(len),
                             static_cast<unsigned long long>(max_frame_bytes_)));
  }
  if (buf_.size() - pos_ - kFrameHeaderSize < len) return std::nullopt;
  Frame f;
  f.type = static_cast<FrameType>(type);
  f.payload.assign(buf_, pos_ + kFrameHeaderSize, static_cast<std::size_t>(len));
  pos_ += kFrameHeaderSize + static_cast<std::size_t>(len);
  const std::uint32_t actual = frame_crc(f.type, f.payload);
  if (actual != crc) {
    throw ProtocolError(strf("%s frame payload CRC mismatch (header 0x%08x, payload 0x%08x)",
                             frame_type_name(f.type), crc, actual));
  }
  return f;
}

// --- Hello ------------------------------------------------------------------

std::string Hello::encode() const {
  std::string out;
  put_u32(out, magic);
  put_u32(out, version);
  return out;
}

Hello Hello::decode(std::string_view payload) {
  Cursor cur{payload, 0, "Hello"};
  Hello h;
  h.magic = cur.u32();
  if (h.magic != kProtocolMagic) {
    throw ProtocolError(strf("bad handshake magic 0x%08x (want 0x%08x — not an ACNP peer)",
                             h.magic, kProtocolMagic));
  }
  h.version = cur.u32();
  if (h.version != kProtocolVersion) {
    throw ProtocolError(strf("protocol version mismatch: peer speaks %u, this build speaks %u",
                             h.version, kProtocolVersion));
  }
  cur.done();
  return h;
}

// --- ReportSpec -------------------------------------------------------------

std::string ReportSpec::encode() const {
  std::string out;
  put_u32(out, with_timings ? 1u : 0u);
  put_u32(out, static_cast<std::uint32_t>(mli_mode));
  put_u32(out, static_cast<std::uint32_t>(format));
  put_u32(out, static_cast<std::uint32_t>(region.begin_line));
  put_u32(out, static_cast<std::uint32_t>(region.end_line));
  put_u32(out, static_cast<std::uint32_t>(region.function.size()));
  out.append(region.function);
  return out;
}

ReportSpec ReportSpec::decode(std::string_view payload) {
  Cursor cur{payload, 0, "ReportRequest"};
  ReportSpec s;
  const std::uint32_t flags = cur.u32();
  if ((flags & ~1u) != 0) {
    throw ProtocolError(strf("ReportRequest declares unknown flag bits 0x%x", flags));
  }
  s.with_timings = flags != 0;
  const std::uint32_t mode = cur.u32();
  if (mode > static_cast<std::uint32_t>(analysis::MliMode::PaperNameMatch)) {
    throw ProtocolError(strf("ReportRequest declares unknown MLI mode %u", mode));
  }
  s.mli_mode = static_cast<analysis::MliMode>(mode);
  const std::uint32_t fmt = cur.u32();
  if (fmt > static_cast<std::uint32_t>(ReportFormat::Text)) {
    throw ProtocolError(strf("ReportRequest declares unknown report format %u", fmt));
  }
  s.format = static_cast<ReportFormat>(fmt);
  const std::uint32_t begin = cur.u32();
  const std::uint32_t end = cur.u32();
  if (begin == 0 || begin > 0x7fffffffu || end < begin || end > 0x7fffffffu) {
    throw ProtocolError(strf("ReportRequest region lines [%u, %u] are invalid", begin, end));
  }
  s.region.begin_line = static_cast<int>(begin);
  s.region.end_line = static_cast<int>(end);
  const std::uint32_t fn_len = cur.u32();
  if (fn_len == 0 || fn_len > (1u << 16)) {
    throw ProtocolError(strf("ReportRequest function name length %u is invalid", fn_len));
  }
  s.region.function.assign(cur.bytes(fn_len));
  cur.done();
  return s;
}

}  // namespace ac::net
