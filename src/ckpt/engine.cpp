#include "ckpt/engine.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <optional>
#include <random>
#include <sys/stat.h>
#include <unistd.h>

#include "analysis/autocheck.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/file.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "trace/mctb.hpp"
#include "vm/memory.hpp"

namespace ac::ckpt {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}
void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  std::string_view bytes(std::size_t n) {
    need(n);
    const std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;

  void need(std::size_t n) {
    if (pos_ + n > data_.size()) throw CheckpointError("truncated engine record");
  }
  template <typename T>
  T read() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
};

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

// --- Logs -------------------------------------------------------------------
//
// Every level is one log of MCTA frames (trace/mctb.hpp), one frame per
// record. The frame's seq field carries the record's seq (0 for a full
// record) and its aux field the iteration, so a walk over frame headers
// alone sees where each chain starts and how far it reaches.

/// The frame `kind` tag of engine records (MCTB section kinds 1..3 name
/// container sections; the logs use a disjoint value). 0x10 tagged the
/// earlier layout, whose records wrapped a second header and CRC in the
/// payload: a walk stops at such a frame.
constexpr std::uint32_t kLogFrameKind = 0x11;

/// A log read whole, with the frames a header walk finds in it. The walk
/// stops at the first entry that is not a whole engine frame — a torn tail,
/// garbage, a pre-frame `[len][crc]` entry — and `end` is where it stopped.
struct Log {
  struct Frame {
    std::size_t pos = 0;     // offset in `bytes`
    std::uint32_t seq = 0;   // the record's seq: 0 starts a chain
    std::int64_t iteration = -1;
  };
  std::string bytes;
  std::vector<Frame> frames;
  std::size_t end = 0;
};

/// A missing or unreadable file reads as an empty log.
Log read_log(const std::string& path) {
  Log log;
  try {
    log.bytes = read_file_bytes(path);
  } catch (const Error&) {
    return log;
  }
  trace::MctbFrameView f;
  while (trace::read_mctb_frame_header(log.bytes, log.end, f) && f.kind == kLogFrameKind) {
    log.frames.push_back({log.end, f.seq, static_cast<std::int64_t>(f.aux)});
    log.end += f.frame_size;
  }
  return log;
}

/// Closes its descriptor on every path out, injected throws included.
struct FileDescriptor {
  int fd;
  explicit FileDescriptor(int f) : fd(f) {}
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  ~FileDescriptor() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

void append_frame(const std::string& path, std::string_view frame) {
  const FileDescriptor file(::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644));
  if (file.fd < 0) throw CheckpointError("cannot open log: " + path);
  const std::size_t want = AC_FAULT_IO("ckpt.archive.append", frame.size());
  for (std::size_t done = 0; done < want;) {
    const ssize_t n = ::write(file.fd, frame.data() + done, want - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw CheckpointError("cannot write log: " + path);
    done += static_cast<std::size_t>(n);
  }
  if (want != frame.size()) throw CheckpointError("short write to log: " + path);
  // A kill here leaves a record that may not be durable; a throw is a
  // failed sync, which fails the commit like a failed fdatasync.
  AC_FAULT("ckpt.writeback.sync");
  if (::fdatasync(file.fd) != 0) throw CheckpointError("log sync failed: " + path);
}

// ---------------------------------------------------------------------------
// Record serialization
// ---------------------------------------------------------------------------

std::uint64_t DeltaPatch::cell_count() const {
  std::uint64_t n = 0;
  for (const auto& v : vars) {
    for (const auto& r : v.runs) n += r.cells.size();
  }
  return n;
}

namespace {

/// The base-image cells a delta variable's runs XOR against, aligned
/// element-for-element with the concatenated run cells; none without a base.
/// Indices past the base snapshot (or a variable absent from it) align
/// against zero cells, which XOR leaves verbatim — both sides of the codec
/// build this the same way, so the transform stays invertible no matter how
/// the shapes disagree.
std::vector<Cell> xor_base_cells(const std::string& name,
                                 const std::vector<std::pair<std::uint32_t, std::uint32_t>>& runs,
                                 const CheckpointImage* base) {
  std::vector<Cell> out;
  if (base == nullptr) return out;
  const VarSnapshot* snap = base->find(name);
  for (const auto& [index, count] : runs) {
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::size_t idx = static_cast<std::size_t>(index) + i;
      out.push_back(snap && idx < snap->cells.size() ? snap->cells[idx] : Cell{});
    }
  }
  return out;
}

bool chain_has_xor(const CodecChain& chain) {
  for (const CodecId id : chain.stages()) {
    if (id == CodecId::Xor) return true;
  }
  return false;
}

}  // namespace

CheckpointImage EngineRecord::image() const {
  CheckpointImage img;
  img.set_iteration(iteration);
  for (const auto& v : cells.vars) {
    std::vector<Cell> all;
    for (const auto& r : v.runs) all.insert(all.end(), r.cells.begin(), r.cells.end());
    img.add(v.name, std::move(all));
  }
  return img;
}

std::string EngineRecord::to_frame(const CodecChain& chain, const CheckpointImage* base,
                                   EncodedSizes* sizes) const {
  const CheckpointImage* ref = full() ? nullptr : base;
  std::string payload;
  put_u64(payload, base_id);
  put_u32(payload, static_cast<std::uint32_t>(cells.vars.size()));
  EncodedSizes sz;
  for (const auto& v : cells.vars) {
    put_u32(payload, static_cast<std::uint32_t>(v.name.size()));
    payload += v.name;
    put_u32(payload, static_cast<std::uint32_t>(v.runs.size()));
    std::vector<Cell> run_cells;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> run_spans;
    for (const auto& r : v.runs) {
      put_u32(payload, r.index);
      put_u32(payload, static_cast<std::uint32_t>(r.cells.size()));
      run_spans.emplace_back(r.index, static_cast<std::uint32_t>(r.cells.size()));
      run_cells.insert(run_cells.end(), r.cells.begin(), r.cells.end());
    }
    const std::vector<Cell> bcells = xor_base_cells(v.name, run_spans, ref);
    const std::string enc =
        encode_cells(chain, run_cells.data(), run_cells.size(), bcells.data(), bcells.size());
    sz.raw += run_cells.size() * 9;
    sz.encoded += enc.size();
    put_u32(payload, static_cast<std::uint32_t>(enc.size()));
    payload += enc;
  }
  if (sizes) *sizes = sz;
  return trace::mctb_frame(kLogFrameKind, seq, static_cast<std::uint64_t>(iteration), payload,
                           chain);
}

EngineRecord EngineRecord::from_frame(const trace::MctbFrameView& frame,
                                      const CheckpointImage* base) {
  if (frame.kind != kLogFrameKind) {
    throw CheckpointError(strf("frame kind 0x%x is not an engine record", frame.kind));
  }
  EngineRecord rec;
  rec.seq = frame.seq;
  rec.iteration = static_cast<std::int64_t>(frame.aux);
  const CheckpointImage* ref = rec.full() ? nullptr : base;
  if (!rec.full() && base == nullptr && chain_has_xor(frame.codec)) {
    throw CheckpointError("xor-coded delta record needs its base image to decode");
  }
  Cursor cur(frame.payload);
  rec.base_id = cur.u64();
  for (std::uint32_t nvars = cur.u32(); rec.cells.vars.size() < nvars;) {
    DeltaVar& v = rec.cells.vars.emplace_back();
    v.name = std::string(cur.bytes(cur.u32()));
    std::vector<std::pair<std::uint32_t, std::uint32_t>> run_spans;
    std::size_t total_cells = 0;
    for (std::uint32_t nruns = cur.u32(); run_spans.size() < nruns;) {
      const std::uint32_t index = cur.u32();
      const std::uint32_t ncells = cur.u32();
      if (rec.full() && index != total_cells) {
        throw CheckpointError("full record runs do not tile variable: " + v.name);
      }
      run_spans.emplace_back(index, ncells);
      total_cells += ncells;
    }
    const std::string_view enc = cur.bytes(cur.u32());
    const std::vector<Cell> bcells = xor_base_cells(v.name, run_spans, ref);
    const std::vector<Cell> all =
        decode_cells(frame.codec, enc, total_cells, bcells.data(), bcells.size());
    auto next = all.begin();
    for (const auto& [index, ncells] : run_spans) {
      v.runs.push_back(DeltaRun{index, std::vector<Cell>(next, next + ncells)});
      next += ncells;
    }
  }
  if (!cur.done()) throw CheckpointError("trailing bytes in engine record");
  return rec;
}

void apply_delta(CheckpointImage& base, const DeltaPatch& patch, std::int64_t iteration) {
  CheckpointImage next;
  next.set_iteration(iteration);
  for (const auto& snap : base.vars()) {
    std::vector<Cell> cells = snap.cells;
    for (const auto& dv : patch.vars) {
      if (dv.name != snap.name) continue;
      for (const auto& run : dv.runs) {
        if (run.index + run.cells.size() > cells.size()) {
          throw CheckpointError("delta run out of range for variable: " + dv.name);
        }
        for (std::size_t i = 0; i < run.cells.size(); ++i) {
          cells[run.index + i] = run.cells[i];
        }
      }
    }
    next.add(snap.name, std::move(cells));
  }
  for (const auto& dv : patch.vars) {
    if (!base.find(dv.name)) {
      throw CheckpointError("delta for variable absent from base image: " + dv.name);
    }
  }
  base = std::move(next);
}

namespace {

/// An engine's first base id. Random, so two runs over the same logs never
/// share one: the walk checks base_id to keep a restarted run's full record
/// from adopting a killed run's deltas in the other log.
std::uint64_t first_base_id() {
  std::random_device rd;
  return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
}

/// Log bytes of the full record the default raw chain writes for `regions`:
/// the frame header, base_id and the variable count, then per variable its
/// name length, the name, the run count, its one run's index and cell count,
/// the encoded length and 9 bytes a cell.
std::uint64_t full_raw_frame_bytes(const std::vector<ProtectedRegion>& regions) {
  std::uint64_t bytes = trace::kMctbFrameHeaderBytes + 8 + 4;
  for (const auto& r : regions) {
    bytes += 4 + r.name.size() + 4 + 8 + 4 + (r.bytes / vm::kCellBytes) * 9;
  }
  return bytes;
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine lifecycle
// ---------------------------------------------------------------------------

CheckpointEngine::CheckpointEngine(EngineConfig cfg)
    : cfg_(std::move(cfg)), base_id_(first_base_id()) {
  AC_CHECK(!cfg_.dir.empty(), "engine: dir is required");
  if (cfg_.level >= EngineLevel::L2) {
    AC_CHECK(!cfg_.partner_dir.empty(), "engine: partner_dir is required for L2/L3");
    // A replica in the local directory is the same log under the same name:
    // zero redundancy, and the partner write would clobber the local log.
    // Refuse rather than silently degrade below L1.
    AC_CHECK(std::filesystem::weakly_canonical(cfg_.partner_dir) !=
                 std::filesystem::weakly_canonical(cfg_.dir),
             "engine: partner_dir must differ from dir for L2/L3");
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg_.dir, ec);
  if (!cfg_.partner_dir.empty()) std::filesystem::create_directories(cfg_.partner_dir, ec);
  if (cfg_.deltas_per_full < 0) cfg_.deltas_per_full = 0;
  if (!cfg_.policy) cfg_.policy = std::make_shared<FixedIntervalPolicy>(1);
  if (cfg_.async) writer_ = std::thread([this] { writer_loop(); });
}

CheckpointEngine::~CheckpointEngine() {
  if (writer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    writer_.join();
  }
}

std::string CheckpointEngine::log_path(EngineLevel level) const {
  switch (level) {
    case EngineLevel::L1:
      return cfg_.dir + "/" + cfg_.tag + ".eng";
    case EngineLevel::L2:
      return cfg_.partner_dir.empty() ? std::string() : cfg_.partner_dir + "/" + cfg_.tag + ".eng";
    case EngineLevel::L3:
      break;
  }
  return cfg_.dir + "/" + cfg_.tag + ".pack";
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

void CheckpointEngine::protect(const std::string& name) {
  for (const auto& n : names_) {
    if (n == name) return;
  }
  names_.push_back(name);
}

void CheckpointEngine::register_report(const analysis::Report& report) {
  for (const auto& name : report.critical_names()) protect(name);
}

void CheckpointEngine::register_report_json(const std::string& json) {
  for (const auto& name : names_from_json(json)) protect(name);
}

std::vector<std::string> CheckpointEngine::names_from_json(const std::string& json) {
  // Minimal scanner for Report::to_json(): locate the "critical" array and
  // pull each entry's "name" string, honouring escapes and string bounds.
  const std::size_t key = json.find("\"critical\"");
  if (key == std::string::npos) throw CheckpointError("report JSON has no \"critical\" array");
  std::size_t i = json.find('[', key);
  if (i == std::string::npos) throw CheckpointError("malformed \"critical\" array");

  std::vector<std::string> names;
  int depth = 0;
  bool in_string = false;
  std::string current;
  bool capturing = false;   // inside the value string of a "name" key
  std::string last_string;  // most recently completed string literal
  bool last_was_name_key = false;

  for (; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\' && i + 1 < json.size()) {
        const char esc = json[++i];
        current += (esc == 'n' ? '\n' : esc == 't' ? '\t' : esc);
        continue;
      }
      if (c == '"') {
        in_string = false;
        if (capturing) names.push_back(current);
        capturing = false;
        last_string = current;
        continue;
      }
      current += c;
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        current.clear();
        capturing = last_was_name_key;
        last_was_name_key = false;
        break;
      case ':':
        last_was_name_key = last_string == "name";
        break;
      case '[':
      case '{':
        ++depth;
        break;
      case ']':
      case '}':
        --depth;
        if (depth == 0) return names;  // closed the "critical" array
        break;
      default:
        break;
    }
  }
  throw CheckpointError("unterminated \"critical\" array in report JSON");
}

// ---------------------------------------------------------------------------
// Capture (VM thread)
// ---------------------------------------------------------------------------

EngineRecord CheckpointEngine::capture(std::int64_t iter, vm::Arena& arena,
                                       const std::vector<ProtectedRegion>& regions) {
  AC_SPAN("ckpt.capture");
  EngineRecord rec;
  rec.iteration = iter;
  const bool full = !have_base_ || commits_since_full_ >= cfg_.deltas_per_full;
  if (full) {
    rec.base_id = ++base_id_;
    rec.seq = 0;
    next_seq_ = 1;
    commits_since_full_ = 0;
  } else {
    rec.base_id = base_id_;
    rec.seq = next_seq_++;
    rec.xor_base = base_image_;
    ++commits_since_full_;
  }
  // A full record takes every cell, a delta the cells written since the last
  // capture; both as runs of consecutive cells.
  for (const auto& r : regions) {
    DeltaVar dv;
    dv.name = r.name;
    for (std::uint64_t off = 0; off < r.bytes; off += vm::kCellBytes) {
      const std::uint64_t addr = r.addr + off;
      if (!full && !arena.dirty_since(addr, delta_epoch_)) continue;
      const std::uint32_t index = static_cast<std::uint32_t>(off / vm::kCellBytes);
      const vm::Arena::RawCell raw = arena.read_raw(addr);
      if (dv.runs.empty() || dv.runs.back().index + dv.runs.back().cells.size() != index) {
        dv.runs.push_back(DeltaRun{index, {}});
      }
      dv.runs.back().cells.push_back(Cell{raw.payload, static_cast<std::uint8_t>(raw.kind)});
    }
    if (full || !dv.runs.empty()) rec.cells.vars.push_back(std::move(dv));
  }
  if (full) {
    // The pristine full image is the XOR reference of the deltas that
    // follow; shared so the async writer can encode them without racing the
    // next capture.
    base_image_ = std::make_shared<const CheckpointImage>(rec.image());
    have_base_ = true;
  }

  // Everything up to the current epoch is captured; cells written from the
  // next epoch on are dirty relative to this snapshot.
  delta_epoch_ = arena.advance_epoch();
  return rec;
}

bool CheckpointEngine::on_iteration(std::int64_t completed_iter, vm::Arena& arena,
                                    const std::vector<ProtectedRegion>& regions) {
  if (iter_timer_live_) cfg_.policy->observe_iteration(iter_timer_.seconds());
  iter_timer_.reset();
  iter_timer_live_ = true;

  if (regions.empty()) return false;
  if (!cfg_.policy->due(completed_iter, last_commit_iter_)) return false;

  WallTimer cost;
  EngineRecord rec = capture(completed_iter, arena, regions);
  last_commit_iter_ = completed_iter;

  // Stats that belong to capture time (the writer owns the byte counters).
  const std::uint64_t full_equiv = full_raw_frame_bytes(regions);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.checkpoints;
    ++(rec.full() ? stats_.full_checkpoints : stats_.delta_checkpoints);
    stats_.cells_captured += rec.cells.cell_count();
    stats_.full_equiv_bytes += full_equiv;
  }
  {
    // Registry mirror of the capture-side EngineStats (the struct stays the
    // programmatic API; the registry feeds --metrics and the acd daemon).
    static auto& ckpts = telemetry::metrics().counter("ckpt.checkpoints");
    ckpts.add(1);
  }

  commit(std::move(rec));
  cfg_.policy->observe_checkpoint(cost.seconds());
  return true;
}

// ---------------------------------------------------------------------------
// Writeback
// ---------------------------------------------------------------------------

void CheckpointEngine::commit(EngineRecord rec) {
  if (!cfg_.async) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      check_writer_error();
    }
    try {
      persist(rec);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      writer_error_ = std::current_exception();
      throw;
    }
    return;
  }
  static auto& depth = telemetry::metrics().gauge("ckpt.queue_depth");
  static auto& stalls = telemetry::metrics().counter("ckpt.async_stalls");
  std::unique_lock<std::mutex> lock(mu_);
  check_writer_error();
  // Double buffering: one record being written + one queued. A third capture
  // stalls the VM until the writer frees a slot.
  if (!queue_.empty()) {
    ++stats_.async_stalls;
    stalls.add(1);
    cv_.wait(lock, [this] { return queue_.empty() || writer_error_; });
    check_writer_error();
  }
  queue_.push_back(std::move(rec));
  depth.set(static_cast<std::int64_t>(queue_.size()));
  cv_.notify_all();
}

void CheckpointEngine::writer_loop() {
  for (;;) {
    EngineRecord rec;
    bool failed = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with nothing pending
      rec = std::move(queue_.front());
      queue_.pop_front();
      static auto& depth = telemetry::metrics().gauge("ckpt.queue_depth");
      depth.set(static_cast<std::int64_t>(queue_.size()));
      writing_ = true;
      failed = writer_error_ != nullptr;
    }
    // The slot freed at pop time: wake a stalled producer now, not after the
    // I/O — that is what makes the buffering double rather than single.
    cv_.notify_all();
    // After a failed commit the record is dropped: it would extend a chain
    // the failure broke, and no commit after a failure may succeed.
    std::exception_ptr error;
    if (!failed) {
      try {
        persist(rec);
      } catch (...) {
        error = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      writing_ = false;
      if (error && !writer_error_) writer_error_ = error;
    }
    cv_.notify_all();
  }
}

void CheckpointEngine::persist(const EngineRecord& rec) {
  AC_SPAN("ckpt.writeback");
  const CheckpointImage* xor_base = rec.xor_base.get();
  EncodedSizes l1_sizes;
  AC_FAULT("ckpt.writeback.encode");
  const std::string l1 = [&] {
    AC_SPAN("ckpt.encode");
    return rec.to_frame(cfg_.l1_codec, xor_base, &l1_sizes);
  }();
  // Each level writes its own codec chain's frame; a chain equal to L1's
  // reuses the L1 frame instead of encoding twice.
  const auto level_frame = [&](const CodecChain& chain) {
    return chain == cfg_.l1_codec ? l1 : rec.to_frame(chain, xor_base);
  };
  const bool full = rec.full();

  // A full record starts fresh L1 and L2 logs; a delta extends them. The
  // partner copy is written after the local one, so a kill between the two
  // leaves logs whose records the walk tells apart by base_id and seq.
  write_log(EngineLevel::L1, l1, full);
  std::uint64_t l2_size = 0;
  if (cfg_.level >= EngineLevel::L2) {
    const std::string l2 = level_frame(cfg_.l2_codec);
    l2_size = l2.size();
    AC_FAULT("ckpt.writeback.l2");
    write_log(EngineLevel::L2, l2, full);
  }
  // The archive only grows: every record of every chain, in commit order.
  std::uint64_t l3_size = 0;
  if (cfg_.level >= EngineLevel::L3) {
    const std::string l3 = level_frame(cfg_.l3_codec);
    l3_size = l3.size();
    AC_FAULT("ckpt.writeback.l3_append");
    write_log(EngineLevel::L3, l3, /*rotate=*/false);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.l1_bytes += l1.size();
    if (!full) stats_.l1_delta_bytes += l1.size();
    stats_.payload_raw_bytes += l1_sizes.raw;
    stats_.payload_encoded_bytes += l1_sizes.encoded;
    stats_.l2_bytes += l2_size;
    stats_.l3_bytes += l3_size;
    stats_.last_persisted_iteration = std::max(stats_.last_persisted_iteration, rec.iteration);
  }
  // Registry mirrors of the writer-side byte counters.
  static auto& l1_counter = telemetry::metrics().counter("ckpt.l1_bytes");
  static auto& l1d = telemetry::metrics().counter("ckpt.l1_delta_bytes");
  static auto& raw = telemetry::metrics().counter("ckpt.payload_raw_bytes");
  static auto& enc = telemetry::metrics().counter("ckpt.payload_encoded_bytes");
  l1_counter.add(l1.size());
  if (!full) l1d.add(l1.size());
  raw.add(l1_sizes.raw);
  enc.add(l1_sizes.encoded);
  if (cfg_.level >= EngineLevel::L2) {
    static auto& l2 = telemetry::metrics().counter("ckpt.l2_bytes");
    l2.add(l2_size);
  }
  if (cfg_.level >= EngineLevel::L3) {
    static auto& l3 = telemetry::metrics().counter("ckpt.l3_bytes");
    l3.add(l3_size);
  }
}

void CheckpointEngine::write_log(EngineLevel level, const std::string& frame, bool rotate) {
  const std::string path = log_path(level);
  bool& trimmed = log_trimmed_[static_cast<int>(level) - 1];
  if (rotate) {
    // Atomic replace: a kill at any step leaves either the old log or the
    // new one durably named, never a torn log.
    const std::string tmp = path + ".tmp";
    std::remove(tmp.c_str());  // left behind by a rotation that was killed
    append_frame(tmp, frame);
    AC_FAULT("ckpt.writeback.pre_rename");
    if (std::rename(tmp.c_str(), path.c_str()) != 0) throw CheckpointError("cannot commit: " + path);
    AC_FAULT("ckpt.writeback.post_rename");
    trace::fsync_parent_dir(path);
    trimmed = true;
    return;
  }
  bool created = false;
  if (!trimmed) {
    // This engine's first append to a log it did not write: cut the file
    // back to the end of its last whole frame, where every walk stops, or
    // the records appended from here on would sit behind a torn tail.
    created = !file_exists(path);
    if (!created) {
      const Log log = read_log(path);
      if (log.end < log.bytes.size() && ::truncate(path.c_str(), static_cast<off_t>(log.end)) != 0) {
        throw CheckpointError("cannot trim torn log tail: " + path);
      }
    }
    trimmed = true;
  }
  append_frame(path, frame);
  if (created) trace::fsync_parent_dir(path);
}

void CheckpointEngine::drain() const {
  if (!cfg_.async) return;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return (queue_.empty() && !writing_) || writer_error_; });
}

void CheckpointEngine::check_writer_error() const {
  if (writer_error_) std::rethrow_exception(writer_error_);
}

void CheckpointEngine::flush() {
  drain();
  std::lock_guard<std::mutex> lock(mu_);
  check_writer_error();
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

namespace {

/// The longest valid chain in `logs`, which hold the same records in the
/// same order (a local log and its partner replica, or the archive alone),
/// so record k of a chain sits at frame start+k in each. The chain starts at
/// the last full record that decodes; each later record comes from the first
/// log whose copy passes its frame CRC and decodes as the next delta of that
/// base (next seq, same base_id), and the chain ends at the first record no
/// log holds. Returns nothing when no full record decodes, or — judged on frame
/// headers alone, before any payload is decoded — when the last chain does
/// not reach past iteration `beat`.
std::optional<CheckpointImage> longest_chain(const std::vector<Log>& logs, std::int64_t beat) {
  std::size_t depth = 0;
  for (const Log& log : logs) depth = std::max(depth, log.frames.size());
  // Frame i's header from the first log that holds it.
  const auto header = [&](std::size_t i) -> const Log::Frame* {
    for (const Log& log : logs) {
      if (i < log.frames.size()) return &log.frames[i];
    }
    return nullptr;
  };
  // Frame i decoded from the first log whose copy is record `seq` of the
  // chain: its full record (seq 0) or a delta of `full`, XORed against
  // `base`, the full record's image.
  const auto decode = [&](std::size_t i, std::uint32_t seq, const EngineRecord* full,
                          const CheckpointImage* base) -> std::optional<EngineRecord> {
    for (const Log& log : logs) {
      trace::MctbFrameView f;
      if (i >= log.frames.size() || !trace::read_mctb_frame(log.bytes, log.frames[i].pos, f) ||
          f.seq != seq) {
        continue;
      }
      try {
        EngineRecord rec = EngineRecord::from_frame(f, base);
        if (!full || rec.base_id == full->base_id) return rec;
      } catch (const CheckpointError&) {
        // A copy that does not decode is a missing copy.
      }
    }
    return std::nullopt;
  };

  bool promised = false;
  for (std::size_t start = depth; start-- > 0;) {
    const Log::Frame* head = header(start);
    if (head->seq != 0) continue;
    if (!promised) {
      std::int64_t reach = head->iteration;
      for (std::uint32_t k = 1; const Log::Frame* h = header(start + k); ++k) {
        if (h->seq != k) break;
        reach = h->iteration;
      }
      if (reach <= beat) return std::nullopt;
      promised = true;
    }
    const std::optional<EngineRecord> full = decode(start, 0, nullptr, nullptr);
    if (!full) continue;  // start from the previous full record
    // The pristine base stays the XOR reference of every delta; `img`
    // accumulates the patches.
    const CheckpointImage base = full->image();
    CheckpointImage img = base;
    for (std::uint32_t k = 1;; ++k) {
      const std::optional<EngineRecord> delta = decode(start + k, k, &*full, &base);
      if (!delta) break;
      apply_delta(img, delta->cells, delta->iteration);
    }
    return img;
  }
  return std::nullopt;
}

}  // namespace

bool CheckpointEngine::has_checkpoint() const {
  drain();
  return file_exists(log_path(EngineLevel::L1)) ||
         (cfg_.level >= EngineLevel::L2 && file_exists(log_path(EngineLevel::L2))) ||
         (cfg_.level >= EngineLevel::L3 && file_exists(log_path(EngineLevel::L3)));
}

CheckpointImage CheckpointEngine::recover() const {
  drain();
  std::vector<Log> logs(1);
  try {
    AC_FAULT("ckpt.recover.local");
    logs[0] = read_log(log_path(EngineLevel::L1));
  } catch (const CheckpointError&) {
    // An injected read failure: every record must come from the partner.
  }
  if (cfg_.level >= EngineLevel::L2) logs.push_back(read_log(log_path(EngineLevel::L2)));
  std::optional<CheckpointImage> best = longest_chain(logs, -1);

  // The archive wins only by reaching a later iteration, and a routine
  // restart whose local chain is whole decodes none of its history.
  if (cfg_.level >= EngineLevel::L3) {
    const std::vector<Log> archive{read_log(log_path(EngineLevel::L3))};
    std::optional<CheckpointImage> packed = longest_chain(archive, best ? best->iteration() : -1);
    if (packed && (!best || packed->iteration() > best->iteration())) best = std::move(packed);
  }
  if (!best) throw CheckpointError("no recoverable checkpoint for tag: " + cfg_.tag);
  return std::move(*best);
}

void CheckpointEngine::reset() {
  flush();
  for (const EngineLevel level : {EngineLevel::L1, EngineLevel::L2, EngineLevel::L3}) {
    const std::string path = log_path(level);
    if (path.empty()) continue;
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }

  std::lock_guard<std::mutex> lock(mu_);
  stats_ = EngineStats{};
  have_base_ = false;
  base_image_.reset();
  next_seq_ = 1;
  last_commit_iter_ = 0;
  commits_since_full_ = 0;
  iter_timer_live_ = false;
  for (bool& trimmed : log_trimmed_) trimmed = false;
}

EngineStats CheckpointEngine::stats() const {
  drain();
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ac::ckpt
