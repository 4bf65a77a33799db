// Trace sinks. The VM emits RecordViews over its own symbol pool through this
// interface, and replays of a TraceBuffer hand over its views; a sink never
// sees an owning record. Benchmarks stream to a file (measuring trace size /
// generation time for Table II), the analysis keeps records interned in
// memory, and the live Session forwards each view to its streaming passes.
#pragma once

#include <cstdio>
#include <memory>
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
};

/// Discards records but counts them (used to time pure execution).
class NullSink final : public TraceSink {
 public:
  void append(const RecordView&) override { ++count_; }
  std::uint64_t count() const override { return count_; }

 private:
  std::uint64_t count_ = 0;
};

/// Interns records into a compact TraceBuffer as they are emitted — the
/// allocation-free input for the analysis (the VM's strings are packed and
/// dropped record by record; nothing per-record survives on the heap).
class BufferSink final : public TraceSink {
 public:
  void append(const RecordView& rec) override { buffer_.append(rec); }
  std::uint64_t count() const override { return buffer_.size(); }

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

  /// Flush and close early (otherwise the destructor does).
  void close() override;

 private:
  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::uint64_t count_ = 0;
  std::uint64_t bytes_ = 0;

  void flush();
  static constexpr std::size_t kFlushThreshold = 1 << 20;  // 1 MiB write batches
};

/// Writes the binary MCTB container (trace/mctb.hpp): records are interned
/// into a TraceBuffer as they are emitted (the same packing the analysis
/// replays, so nothing per-record survives on the heap) and the container is
/// serialized on close() through the streaming writer — sections are encoded
/// and flushed chunk-at-a-time, so peak serialize memory is one chunk + codec
/// scratch on top of the interned buffer. The column/delta encoding needs the
/// finished arrays, so the file appears atomically at close (temp + fsync +
/// rename), not incrementally.
class MctbFileSink final : public TraceSink {
 public:
  explicit MctbFileSink(std::string path, MctbOptions opts = {});
  ~MctbFileSink() override;
  MctbFileSink(const MctbFileSink&) = delete;
  MctbFileSink& operator=(const MctbFileSink&) = delete;

  void append(const RecordView& rec) override { buffer_.append(rec); }
  std::uint64_t count() const override { return buffer_.size(); }

  /// Container bytes written (0 until close()).
  std::uint64_t bytes() const override { return bytes_; }

  /// Serialize + write the container (otherwise the destructor does, eating
  /// errors; call close() to see them).
  void close() override;

 private:
  std::string path_;
  MctbOptions opts_;
  TraceBuffer buffer_;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

/// Factory over the two file sinks; `codec` only applies to Mctb.
std::unique_ptr<TraceSink> make_file_sink(TraceFormat format, const std::string& path,
                                          const CodecChain& codec = MctbOptions{}.codec);

}  // namespace ac::trace
