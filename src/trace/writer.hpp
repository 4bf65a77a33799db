// Trace sinks. Replays of a TraceBuffer hand a sink its views, and so does the
// VM; a sink never sees an owning record. Benchmarks stream text to a file
// (measuring trace size / generation time for Table II), the analysis keeps
// records interned in memory (BufferSink), and in a live Session the
// streaming analysis is itself the sink (analysis::DepAnalyzer). An MCTB file
// is a BufferSink's buffer written by write_mctb_file (trace/mctb.hpp): the
// container's column encoding needs the finished arrays.
//
// A sink that stores records in a TraceBuffer of its own names it through
// target(), and the VM then writes each record straight into that buffer:
// site templates intern into its pool and operands land in its arrays, so
// nothing is copied or remapped. Every other sink gets append(view) over a
// one-record staging buffer the VM owns.
#pragma once

#include <cstdio>
#include <string>

#include "trace/buffer.hpp"
#include "trace/mctb.hpp"

namespace ac::trace {

/// On-disk trace formats the writers/readers speak: the LLVM-Tracer text
/// block format, and the binary SoA container (trace/mctb.hpp).
enum class TraceFormat { Text, Mctb };

/// "text" / "mctb"; throws ac::Error on anything else.
TraceFormat parse_trace_format(const std::string& name);
const char* trace_format_name(TraceFormat f);

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// One record over the emitter's pool, valid only for the duration of the
  /// call: a sink that keeps it interns or renders it before returning.
  virtual void append(const RecordView& rec) = 0;
  /// Number of records written so far.
  virtual std::uint64_t count() const = 0;
  /// Make the stream durable and release resources early (otherwise the
  /// destructor does, eating errors). No-op for in-memory sinks.
  virtual void close() {}
  /// Bytes written to durable storage so far (0 for in-memory sinks; the
  /// trace size column of Table II for file sinks).
  virtual std::uint64_t bytes() const { return 0; }
  /// The buffer an emitter may append records to directly, bypassing
  /// append(): the emitter interns into its pool and pushes onto its arrays,
  /// and must leave it exactly as append(view) of each record would. nullptr
  /// (the default) for a sink that does not keep a TraceBuffer.
  virtual TraceBuffer* target() { return nullptr; }
};

/// Interns records into a compact TraceBuffer as they are emitted — the
/// allocation-free input for the analysis. It is the VM's target: the VM
/// writes each record into buffer() itself, so a traced run copies and
/// remaps nothing; append() serves replays and other emitters.
class BufferSink final : public TraceSink {
 public:
  void append(const RecordView& rec) override { buffer_.append(rec); }
  std::uint64_t count() const override { return buffer_.size(); }
  TraceBuffer* target() override { return &buffer_; }

  TraceBuffer& buffer() { return buffer_; }
  const TraceBuffer& buffer() const { return buffer_; }
  /// Move the finished buffer out (the sink is empty afterwards).
  TraceBuffer take() { return std::move(buffer_); }

 private:
  TraceBuffer buffer_;
};

/// Writes LLVM-Tracer text blocks to a file with buffered I/O.
class FileSink final : public TraceSink {
 public:
  explicit FileSink(const std::string& path);
  ~FileSink() override;
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  void append(const RecordView& rec) override;
  std::uint64_t count() const override { return count_; }

  /// Bytes written so far (trace size column of Table II).
  std::uint64_t bytes() const override { return bytes_; }

  /// Flush and close, throwing ac::Error (naming the file) when a write or
  /// the final flush fails — e.g. ENOSPC, which stdio may only report at
  /// fclose. Otherwise the destructor closes, eating errors.
  void close() override;

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::uint64_t count_ = 0;
  std::uint64_t bytes_ = 0;

  void flush();
  static constexpr std::size_t kFlushThreshold = 1 << 20;  // 1 MiB write batches
};

}  // namespace ac::trace
