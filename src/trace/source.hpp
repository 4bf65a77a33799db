// Trace sources: where a batch analysis gets its stored trace from.
//
// A TraceSource abstracts over the ways a whole trace reaches the analysis —
// a trace file on disk (the paper's workflow, with the §V-A parallel read), a
// buffer already in memory, or the chunks a daemon connection received
// (net::RemoteSource). analysis::Session consumes any of them through this
// one interface. A live execution is not a source: Session::live() runs its
// generator into the streaming passes, and no trace is stored.
//
// The one materialized form is the interned SoA TraceBuffer
// (trace/buffer.hpp): buffer() is what the analysis pipeline replays, and a
// TraceSource implementation only has to produce it.
#pragma once

#include <string>

#include "trace/buffer.hpp"

namespace ac::trace {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Human-readable origin, e.g. "file:/tmp/cg.trace", "memory".
  virtual std::string describe() const = 0;

  /// Worker budget for materialization (FileSource parses in parallel when
  /// > 1); sources that never parse ignore it.
  virtual void set_read_threads(int) {}

  /// Materialize the full stream as the compact interned buffer — the
  /// analysis pipeline's native input. Cached: repeated calls return the same
  /// buffer.
  virtual const TraceBuffer& buffer() = 0;

  /// Seconds spent producing the buffer — attributed to the pre-processing
  /// phase, as the paper attributes trace parsing.
  virtual double read_seconds() const { return 0; }
};

/// A trace file — the LLVM-Tracer text block format or the binary MCTB
/// container (trace/mctb.hpp), auto-detected by the magic bytes. The file is
/// mmap()ed (with a read-to-EOF fallback for pipes and other non-regular
/// files) and materialized zero-copy into the interned buffer on first
/// access: text goes through read_trace_buffer's §V-A block-aligned parse on
/// the read-thread budget, MCTB through the validating chunked binary read
/// on the same budget. The mapping is dropped as soon as the read finishes
/// (the pool owns the name bytes).
class FileSource final : public TraceSource {
 public:
  /// `read_threads` <= 1 parses on the calling thread; 0 keeps whatever
  /// set_read_threads() later decides (Session forwards AnalysisOptions there).
  explicit FileSource(std::string path, int read_threads = 0);

  std::string describe() const override { return "file:" + path_; }
  void set_read_threads(int n) override { read_threads_ = n; }
  const TraceBuffer& buffer() override;
  double read_seconds() const override { return read_seconds_; }

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

 private:
  TraceBuffer buffer_;
};

}  // namespace ac::trace
