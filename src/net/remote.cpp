#include "net/remote.hpp"

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace ac::net {

namespace {
constexpr std::size_t kReadChunk = 64u << 10;
}

// --- BlockingFrameStream ----------------------------------------------------

std::optional<Frame> BlockingFrameStream::next() {
  // CRC verification is the consumer's job (RemoteSource / the daemon
  // worker) — this layer only slices and validates headers.
  char buf[kReadChunk];
  for (;;) {
    if (auto f = reader_.next()) return f;
    const std::size_t n = read_some(fd_, buf, sizeof buf, timeout_ms_);
    if (n == 0) {
      if (reader_.buffered() > 0) {
        throw ProtocolError(strf("peer hung up mid-frame (%zu bytes buffered)",
                                 reader_.buffered()));
      }
      return std::nullopt;
    }
    reader_.feed(buf, n);
  }
}

void BlockingFrameStream::send(FrameType type, std::string_view payload) {
  const std::string frame = encode_frame(type, payload);
  write_all(fd_, frame.data(), frame.size());
}

// --- RemoteSink -------------------------------------------------------------

RemoteSink::RemoteSink(const std::string& host, std::uint16_t port, RemoteSinkOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.chunk_records == 0) opts_.chunk_records = 1;
  ConnectRetry retry;
  retry.timeout_ms = opts_.connect_timeout_ms;
  retry.retries = opts_.connect_retries;
  retry.backoff_ms = opts_.connect_backoff_ms;
  sock_ = connect_tcp_retry(host, port, retry);
  Hello hello;
  hello.codec = opts_.codec;
  send_frame(FrameType::Hello, hello.encode());
  Hello::decode(expect(FrameType::HelloAck).payload);  // throws on a malformed ack
}

RemoteSink::~RemoteSink() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; the explicit close() path reports failures.
  }
}

void RemoteSink::send_frame(FrameType type, std::string_view payload) {
  const std::string frame = encode_frame(type, payload);
  write_all(sock_.fd(), frame.data(), frame.size());
  wire_bytes_ += frame.size();
}

Frame RemoteSink::expect(FrameType want) {
  char buf[kReadChunk];
  for (;;) {
    if (auto f = reader_.next()) {
      f->verify_crc();
      if (f->type == FrameType::Error) {
        throw ProtocolError("server: " + f->payload);
      }
      if (f->type != want) {
        throw ProtocolError(strf("expected %s frame, got %s", frame_type_name(want),
                                 frame_type_name(f->type)));
      }
      return std::move(*f);
    }
    const std::size_t n = read_some(sock_.fd(), buf, sizeof buf, opts_.io_timeout_ms);
    if (n == 0) {
      throw ProtocolError(strf("server hung up while %s frame was expected",
                               frame_type_name(want)));
    }
    reader_.feed(buf, n);
  }
}

void RemoteSink::append(const trace::TraceRecord& rec) {
  staging_.append(rec);
  after_append();
}

void RemoteSink::append(const trace::RecordView& rec) {
  staging_.append(rec);
  after_append();
}

void RemoteSink::after_append() {
  ++total_records_;
  if (staging_.size() >= opts_.chunk_records) send_staged_chunk();
}

void RemoteSink::send_staged_chunk() {
  if (staging_.empty()) return;
  AC_SPAN("net.send_chunk");
  trace::MctbOptions mopts;
  mopts.codec = opts_.codec;
  mopts.chunk_records = opts_.chunk_records;
  // The streaming writer lands the container in a member buffer whose
  // capacity survives across chunks — one allocation for the whole stream
  // instead of a fresh heap string per flush.
  trace::mctb_encode_into(staging_, mopts, container_);
  send_frame(FrameType::TraceChunk, container_);
  static auto& chunks = telemetry::metrics().counter("net.client.chunks_sent");
  static auto& bytes = telemetry::metrics().counter("net.client.chunk_bytes_sent");
  chunks.add(1);
  bytes.add(container_.size());
  // Fresh staging buffer: chunk containers are self-contained (each carries
  // its own symbol table), exactly like MCTB file chunks reset predictors.
  staging_ = trace::TraceBuffer();
}

void RemoteSink::flush() {
  send_staged_chunk();
  send_frame(FrameType::Flush, {});
  expect(FrameType::FlushAck);
}

std::string RemoteSink::fetch_report(const ReportSpec& spec) {
  AC_SPAN("net.fetch_report");
  flush();
  send_frame(FrameType::ReportRequest, spec.encode());
  return expect(FrameType::Report).payload;
}

std::string RemoteSink::fetch_metrics() {
  send_frame(FrameType::MetricsRequest, {});
  return expect(FrameType::Metrics).payload;
}

void RemoteSink::close() {
  if (closed_ || !sock_.valid()) return;
  closed_ = true;
  send_staged_chunk();
  send_frame(FrameType::Goodbye, {});
  sock_.close();
}

// --- RemoteSource -----------------------------------------------------------

RemoteSource::RemoteSource(FrameStream& stream) : stream_(&stream) {}

void RemoteSource::merge_chunk(const Frame& frame) {
  AC_SPAN("net.decode_chunk");
  WallTimer timer;
  // The full MCTB validation matrix runs here — section CRCs, bounds, codec
  // ids, opcodes, symbol ids, flags — so a malformed chunk throws a clean
  // TraceFormatError before a single record lands in the buffer. Each frame
  // holds one extraction chunk; serial decode is the parallelism-free granule
  // (connections are the concurrency axis server-side). The decode scratch
  // stays warm on this thread across the connection's frames.
  trace::MctbReadOptions mopts;
  mopts.num_threads = 1;
  const trace::TraceBuffer decoded = trace::read_mctb(frame.payload, mopts);
  buffer_.append_buffer(decoded);
  decode_seconds_ += timer.seconds();
  ++chunks_merged_;
  payload_bytes_ += frame.payload.size();
  static auto& chunks = telemetry::metrics().counter("net.chunks_merged");
  static auto& bytes = telemetry::metrics().counter("net.chunk_bytes_received");
  static auto& records = telemetry::metrics().counter("net.records_merged");
  chunks.add(1);
  bytes.add(frame.payload.size());
  records.add(decoded.size());
}

std::optional<ReportSpec> RemoteSource::wait_request() {
  if (done_) return std::nullopt;
  for (;;) {
    std::optional<Frame> f = stream_->next();
    if (!f) {
      done_ = true;
      return std::nullopt;
    }
    f->verify_crc();
    switch (f->type) {
      case FrameType::TraceChunk:
        merge_chunk(*f);
        break;
      case FrameType::Flush:
        // Barrier semantics: every chunk before the Flush is merged by now
        // (this pump is the only consumer), so the ack is immediate.
        stream_->send(FrameType::FlushAck, {});
        break;
      case FrameType::MetricsRequest:
        stream_->send(FrameType::Metrics, telemetry::metrics().to_json());
        break;
      case FrameType::ReportRequest:
        return ReportSpec::decode(f->payload);
      case FrameType::Goodbye:
        done_ = true;
        return std::nullopt;
      case FrameType::Error:
        throw ProtocolError("peer error: " + f->payload);
      default:
        throw ProtocolError(strf("unexpected %s frame mid-stream",
                                 frame_type_name(f->type)));
    }
  }
}

}  // namespace ac::net
