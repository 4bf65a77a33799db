#include "trace/writer.hpp"

#include <cerrno>

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

FileSink::FileSink(const std::string& path) {
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
      throw Error("short write to trace file");
    }
    data += n;
    left -= n;
    bytes_ += n;
  }
  buffer_.clear();
}

void FileSink::close() {
  if (!file_) return;
  flush();
  std::fclose(file_);
  file_ = nullptr;
}

MctbFileSink::MctbFileSink(std::string path, MctbOptions opts)
    : path_(std::move(path)), opts_(std::move(opts)) {}

MctbFileSink::~MctbFileSink() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; the explicit close() path reports failures.
  }
}

void MctbFileSink::close() {
  if (closed_) return;
  closed_ = true;
  bytes_ = write_mctb_file(buffer_, path_, opts_);
}

std::unique_ptr<TraceSink> make_file_sink(TraceFormat format, const std::string& path,
                                          const CodecChain& codec) {
  if (format == TraceFormat::Mctb) {
    MctbOptions opts;
    opts.codec = codec;
    return std::make_unique<MctbFileSink>(path, std::move(opts));
  }
  return std::make_unique<FileSink>(path);
}

}  // namespace ac::trace
