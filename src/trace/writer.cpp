#include "trace/writer.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include "support/error.hpp"

namespace ac::trace {

TraceFormat parse_trace_format(const std::string& name) {
  if (name == "text") return TraceFormat::Text;
  if (name == "mctb") return TraceFormat::Mctb;
  throw Error("unknown trace format '" + name + "' (want text or mctb)");
}

const char* trace_format_name(TraceFormat f) {
  return f == TraceFormat::Mctb ? "mctb" : "text";
}

FileSink::FileSink(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (!file_) throw Error("cannot open trace file for writing: " + path);
  buffer_.reserve(kFlushThreshold + 4096);
}

FileSink::~FileSink() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; a failed final flush loses trailing records
    // but the explicit close() path reports it.
  }
}

// Formats straight into the batch buffer — no per-record temporary string
// between the record and the 1 MiB write batches.
void FileSink::append(const RecordView& rec) {
  rec.append_text(buffer_);
  ++count_;
  if (buffer_.size() >= kFlushThreshold) flush();
}

void FileSink::flush() {
  if (buffer_.empty() || !file_) return;
  // fwrite may stop short when a signal lands mid-write (SIGPIPE is ignored
  // process-wide once any net entry point ran, but SIGINT/SIGCHLD etc. still
  // interrupt); retry the remainder and only treat zero progress as fatal.
  const char* data = buffer_.data();
  std::size_t left = buffer_.size();
  while (left > 0) {
    const std::size_t n = std::fwrite(data, 1, left, file_);
    if (n == 0) {
      if (errno == EINTR) {
        std::clearerr(file_);
        continue;
      }
      throw Error("short write to trace file: " + path_);
    }
    data += n;
    left -= n;
    bytes_ += n;
  }
  buffer_.clear();
}

void FileSink::close() {
  if (!file_) return;
  try {
    flush();
  } catch (...) {
    std::fclose(std::exchange(file_, nullptr));
    throw;
  }
  // stdio may hold the last bytes until fclose, so only its result says
  // whether they reached the file (a small trace on a full disk fails here).
  if (std::fclose(std::exchange(file_, nullptr)) != 0) {
    throw Error("cannot write trace file " + path_ + ": " + std::strerror(errno));
  }
}

}  // namespace ac::trace
