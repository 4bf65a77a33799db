// The two transport endpoints of analysis-as-a-service:
//
//   RemoteSink    a trace::TraceSink that streams records to an acd daemon as
//                 length-prefixed MCTB chunk frames while the app runs — the
//                 network twin of write_mctb_file, plus report/metrics
//                 fetches.
//   RemoteSource  a trace::TraceSource fed from decoded frames — how a
//                 daemon-side analysis::Session analyzes a socket exactly the
//                 way a local Session analyzes a file. One instance
//                 accumulates a connection's chunks incrementally (decode +
//                 pool-merge per frame, overlapped with network receipt) and
//                 serves the merged TraceBuffer to any number of
//                 ReportRequests on that connection.
//
// Both speak net/protocol.hpp; both reuse the MCTB container validation for
// every chunk, so the trust boundary is identical to reading a trace file.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "trace/mctb.hpp"
#include "trace/source.hpp"
#include "trace/writer.hpp"

namespace ac::net {

/// Where a server-side session gets its frames and sends its replies — the
/// seam between RemoteSource and the transport. The daemon feeds it from
/// bounded per-connection queues; BlockingFrameStream reads a socket
/// directly (tests, single-connection tools).
class FrameStream {
 public:
  virtual ~FrameStream() = default;
  /// Next frame, blocking. nullopt = orderly end of stream (EOF). Throws
  /// ProtocolError on transport/framing failures.
  virtual std::optional<Frame> next() = 0;
  virtual void send(FrameType type, std::string_view payload) = 0;
};

/// FrameStream over a connected socket fd (borrowed, not owned).
class BlockingFrameStream final : public FrameStream {
 public:
  explicit BlockingFrameStream(int fd, std::uint64_t max_frame_bytes = kDefaultMaxFrameBytes,
                               int timeout_ms = -1)
      : fd_(fd), timeout_ms_(timeout_ms), reader_(max_frame_bytes) {}

  std::optional<Frame> next() override;
  void send(FrameType type, std::string_view payload) override;

 private:
  int fd_;
  int timeout_ms_;
  FrameReader reader_;
};

/// Client-side knobs.
struct RemoteSinkOptions {
  /// Records per TraceChunk frame — mirrors MctbOptions::chunk_records, and
  /// lands 1:1 on the daemon's decode/merge granule.
  std::size_t chunk_records = std::size_t{1} << 16;
  /// MCTB section codec for the chunk containers.
  CodecChain codec = trace::MctbOptions{}.codec;
  /// Fail a read that stalls longer than this (ms); <0 = wait forever.
  int io_timeout_ms = 120000;
  /// Bound each TCP connect attempt (ms); <0 = the OS default.
  int connect_timeout_ms = 10000;
  /// Extra connect attempts after the first, with exponential backoff
  /// (connect_backoff_ms, doubled per attempt, capped at 2 s) — rides out a
  /// daemon that is still starting up.
  int connect_retries = 0;
  int connect_backoff_ms = 100;
};

/// Streams records to an acd daemon: records are interned into a staging
/// TraceBuffer (the same packing every local sink uses) and shipped as a
/// self-contained MCTB container per chunk_records. close() flushes the tail
/// and says Goodbye. fetch_report()/fetch_metrics() are the request side of
/// the connection; an Error frame from the daemon surfaces as ProtocolError
/// carrying the server's message.
class RemoteSink final : public trace::TraceSink {
 public:
  /// Connect + handshake. Throws ProtocolError on refusal or version/magic
  /// mismatch.
  RemoteSink(const std::string& host, std::uint16_t port, RemoteSinkOptions opts = {});
  ~RemoteSink() override;
  RemoteSink(const RemoteSink&) = delete;
  RemoteSink& operator=(const RemoteSink&) = delete;

  void append(const trace::RecordView& rec) override;
  /// An owning record, packed into the same staging buffer (kept for
  /// clients that replay materialized records).
  void append(const trace::TraceRecord& rec);
  std::uint64_t count() const override { return total_records_; }
  /// Wire bytes shipped so far (frame headers + encoded containers).
  std::uint64_t bytes() const override { return wire_bytes_; }

  /// Ship the staged partial chunk (if any), then barrier on a Flush /
  /// FlushAck round-trip: on return every record sent so far is decoded and
  /// merged server-side.
  void flush();

  /// flush(), then ReportRequest -> the rendered report (JSON or text per
  /// spec.format). The daemon analyzes everything streamed on this
  /// connection so far.
  std::string fetch_report(const ReportSpec& spec);

  /// The daemon's MetricsRegistry::to_json() snapshot.
  std::string fetch_metrics();

  /// Flush staged records + Goodbye + drop the connection. Idempotent.
  void close() override;

 private:
  void send_frame(FrameType type, std::string_view payload);
  void after_append();
  void send_staged_chunk();
  Frame expect(FrameType want);

  RemoteSinkOptions opts_;
  Socket sock_;
  FrameReader reader_;
  trace::TraceBuffer staging_;
  std::string container_;  ///< reused per-chunk encode buffer (streaming writer target)
  std::uint64_t total_records_ = 0;
  std::uint64_t wire_bytes_ = 0;
  bool closed_ = false;
};

/// Server-side trace source: pumps a FrameStream, decoding every TraceChunk
/// through the validating MCTB read and bulk-merging it (pool remap) into the
/// accumulated buffer — record order and first-appearance symbol order are
/// exactly what a local single-pass parse of the same stream would produce,
/// which is why socket-path verdicts are bit-identical to the file path.
class RemoteSource final : public trace::TraceSource {
 public:
  explicit RemoteSource(FrameStream& stream);

  /// Pump frames (chunks, Flush, MetricsRequest are handled internally) until
  /// a ReportRequest arrives (returns its spec) or the peer says Goodbye /
  /// hangs up (returns nullopt). Throws ProtocolError/TraceFormatError on
  /// malformed input — the caller tears the connection down.
  std::optional<ReportSpec> wait_request();

  const trace::TraceBuffer& buffer() override { return buffer_; }
  double read_seconds() const override { return decode_seconds_; }

  std::uint64_t chunks_merged() const { return chunks_merged_; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }

 private:
  void merge_chunk(const Frame& frame);

  FrameStream* stream_;
  trace::TraceBuffer buffer_;
  double decode_seconds_ = 0;
  std::uint64_t chunks_merged_ = 0;
  std::uint64_t payload_bytes_ = 0;
  bool done_ = false;
};

}  // namespace ac::net
