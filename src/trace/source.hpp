// Trace sources: where an analysis gets its record stream from.
//
// The polymorphic counterpart of trace/writer.hpp's TraceSink family: a
// TraceSource abstracts over the three ways a trace reaches the analysis —
// a trace file on disk (the paper's workflow, with the §V-A parallel read),
// records already materialized in memory, and a live instrumented execution
// that re-produces the stream on demand (the paper's §IX future work).
// analysis::Session consumes any of them through this one interface.
//
// The one materialized form is the interned SoA TraceBuffer
// (trace/buffer.hpp): buffer() is what the analysis pipeline replays, and a
// TraceSource implementation only has to produce it.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "trace/buffer.hpp"
#include "trace/record.hpp"
#include "trace/writer.hpp"

namespace ac::trace {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Human-readable origin, e.g. "file:/tmp/cg.trace", "memory", "live".
  virtual std::string describe() const = 0;

  /// True when each pass re-produces records from an execution instead of
  /// replaying memory; such sources cannot materialize the stream.
  virtual bool live() const { return false; }

  /// Worker budget for materialization (FileSource parses in parallel when
  /// > 1); sources that never parse ignore it.
  virtual void set_read_threads(int) {}

  /// Materialize the full stream as the compact interned buffer — the
  /// analysis pipeline's native input. Cached: repeated calls return the same
  /// buffer. Throws ac::Error for live sources.
  virtual const TraceBuffer& buffer() = 0;

  /// One ordered pass over the stream, callable repeatedly (passes are
  /// identical). Batch sources replay buffer() record views materialized one
  /// at a time; live sources re-execute.
  virtual void for_each(const std::function<void(const TraceRecord&)>& fn);

  /// Seconds spent producing records in the most recent materialization or
  /// pass — attributed to the pre-processing phase, as the paper attributes
  /// trace parsing.
  virtual double read_seconds() const { return 0; }

  /// Records produced by the most recent materialization or pass.
  virtual std::uint64_t record_count() const = 0;
};

/// A trace file — the LLVM-Tracer text block format or the binary MCTB
/// container (trace/mctb.hpp), auto-detected by the magic bytes. The file is
/// mmap()ed (with a read-to-EOF fallback for pipes and other non-regular
/// files) and materialized zero-copy into
/// the interned buffer on first access: text parses serially or with the
/// §V-A block-aligned pipelined parallel decomposition when the read-thread
/// budget exceeds one; MCTB goes through the validating chunked binary read
/// (parallel under the same budget). The mapping is dropped as soon as the
/// read finishes (the pool owns the name bytes).
class FileSource final : public TraceSource {
 public:
  /// `read_threads` <= 1 parses serially; 0 keeps whatever set_read_threads()
  /// later decides (Session forwards AnalysisOptions there).
  explicit FileSource(std::string path, int read_threads = 0);

  std::string describe() const override { return "file:" + path_; }
  void set_read_threads(int n) override { read_threads_ = n; }
  const TraceBuffer& buffer() override;
  double read_seconds() const override { return read_seconds_; }
  std::uint64_t record_count() const override { return buffer_.size(); }

  const std::string& path() const { return path_; }
  /// "text" or "mctb" once buffer() has run ("unread" before).
  const char* format() const { return format_; }

 private:
  std::string path_;
  int read_threads_ = 0;
  bool loaded_ = false;
  double read_seconds_ = 0;
  const char* format_ = "unread";
  TraceBuffer buffer_;
};

/// A stream already in memory: an interned TraceBuffer, moved in.
class MemorySource final : public TraceSource {
 public:
  explicit MemorySource(TraceBuffer&& buffer) : buffer_(std::move(buffer)) {}

  std::string describe() const override { return "memory"; }
  const TraceBuffer& buffer() override { return buffer_; }
  std::uint64_t record_count() const override { return buffer_.size(); }

 private:
  TraceBuffer buffer_;
};

/// A live instrumented execution: the generator runs the program once,
/// emitting every record into the provided sink. Each for_each() pass invokes
/// the generator again — deterministic programs replay identically, so the
/// two-pass streaming analysis never materializes the trace.
class LiveSource final : public TraceSource {
 public:
  using Generator = std::function<void(TraceSink&)>;
  explicit LiveSource(Generator gen) : gen_(std::move(gen)) {}

  std::string describe() const override { return "live"; }
  bool live() const override { return true; }
  /// Throws ac::Error: a live stream is never materialized.
  const TraceBuffer& buffer() override;
  void for_each(const std::function<void(const TraceRecord&)>& fn) override;
  double read_seconds() const override { return pass_seconds_; }
  std::uint64_t record_count() const override { return pass_records_; }

 private:
  Generator gen_;
  double pass_seconds_ = 0;
  std::uint64_t pass_records_ = 0;
};

}  // namespace ac::trace
