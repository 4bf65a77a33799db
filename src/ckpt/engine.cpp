#include "ckpt/engine.hpp"

#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <sys/stat.h>
#include <unistd.h>

#include "analysis/autocheck.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "trace/mctb.hpp"
#include "vm/memory.hpp"

namespace ac::ckpt {

namespace {

constexpr char kMagic[4] = {'A', 'C', 'E', 'G'};
// Version 2: codec-chain stage ids in the header and chain-encoded payload
// blobs. Version 1 (raw cells inline, before the codec layer) is rejected.
constexpr std::uint32_t kVersion = 2;
// Fixed-offset record header: magic, version, kind, base_id, seq, iteration.
constexpr std::size_t kHeaderBytes = 4 + 4 + 1 + 8 + 8 + 8;

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
  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::string str(std::size_t n) {
    need(n);
    std::string s(data_.substr(pos_, n));
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

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw CheckpointError("cannot open: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string data(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  if (size > 0 && std::fread(data.data(), 1, data.size(), f) != data.size()) {
    std::fclose(f);
    throw CheckpointError("short read: " + path);
  }
  std::fclose(f);
  return data;
}

void write_file(const std::string& path, const std::string& data, bool sync = false) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw CheckpointError("cannot write: " + path);
  const std::size_t want = AC_FAULT_IO("ckpt.write_file.io", data.size());
  bool ok = std::fwrite(data.data(), 1, want, f) == want && want == data.size();
  if (ok && sync) ok = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) throw CheckpointError("short write: " + path);
}

/// fsync the directory containing `path` so a just-renamed entry survives
/// power loss, not only process death.
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw CheckpointError("cannot open dir for fsync: " + dir);
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) throw CheckpointError("dir fsync failed: " + dir);
}

/// Atomic replace: write to `tmp`, fsync, rename over `path`, fsync the
/// directory — a kill at any step leaves either the previous good record or
/// the new one durably named, never a torn file.
void commit_file(const std::string& tmp, const std::string& path, const std::string& data,
                 bool sync) {
  write_file(tmp, data, sync);
  AC_FAULT("ckpt.writeback.pre_rename");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw CheckpointError("cannot commit: " + path);
  }
  AC_FAULT("ckpt.writeback.post_rename");
  if (sync) fsync_parent_dir(path);
}

// --- L3 packed-archive framing ---------------------------------------------
//
// The archive appends one MCTA frame per record (trace/mctb.hpp):
// self-delimiting, per-frame CRC, codec-chain stage ids in the header as
// self-description of the encoded EngineRecord payload. The recovery walks
// stop at the first entry that is not a whole frame.

/// The frame `kind` tag for archive entries (MCTB section kinds 1..3 name
/// container sections; the archive uses a disjoint value).
constexpr std::uint32_t kPackFrameKind = 0x10;

}  // namespace

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
/// element-for-element with the concatenated run cells. Indices past the
/// base snapshot (or a variable absent from it) align against zero cells,
/// which XOR leaves verbatim — both sides of the codec build this the same
/// way, so the transform stays invertible no matter how the shapes disagree.
std::vector<Cell> xor_base_cells(const std::string& name,
                                 const std::vector<std::pair<std::uint32_t, std::uint32_t>>& runs,
                                 const CheckpointImage* base) {
  std::vector<Cell> out;
  const VarSnapshot* snap = base ? base->find(name) : nullptr;
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

std::string EngineRecord::to_bytes(const CodecChain& chain, const CheckpointImage* base,
                                   EncodedSizes* sizes) const {
  AC_CHECK(chain.stages().size() < 256, "codec chain too long for the record header");
  std::string body;
  put_u32(body, kVersion);
  body.push_back(static_cast<char>(kind));
  put_u64(body, base_id);
  put_u64(body, seq);
  put_u64(body, static_cast<std::uint64_t>(iteration));
  body.push_back(static_cast<char>(chain.stages().size()));
  for (const CodecId id : chain.stages()) body.push_back(static_cast<char>(id));

  EncodedSizes sz;
  if (kind == Kind::Full) {
    const std::string img = full.to_bytes();
    const std::string enc = chain.encode(img, {});
    sz.raw += img.size();
    sz.encoded += enc.size();
    put_u64(body, img.size());
    put_u32(body, static_cast<std::uint32_t>(enc.size()));
    body += enc;
  } else {
    put_u32(body, static_cast<std::uint32_t>(delta.vars.size()));
    for (const auto& v : delta.vars) {
      put_u32(body, static_cast<std::uint32_t>(v.name.size()));
      body += v.name;
      put_u32(body, static_cast<std::uint32_t>(v.runs.size()));
      std::vector<Cell> cells;
      std::vector<std::pair<std::uint32_t, std::uint32_t>> run_spans;
      for (const auto& r : v.runs) {
        put_u32(body, r.index);
        put_u32(body, static_cast<std::uint32_t>(r.cells.size()));
        run_spans.emplace_back(r.index, static_cast<std::uint32_t>(r.cells.size()));
        cells.insert(cells.end(), r.cells.begin(), r.cells.end());
      }
      const std::vector<Cell> bcells = xor_base_cells(v.name, run_spans, base);
      const std::string enc =
          encode_cells(chain, cells.data(), cells.size(), bcells.data(), bcells.size());
      sz.raw += cells.size() * 9;
      sz.encoded += enc.size();
      put_u32(body, static_cast<std::uint32_t>(enc.size()));
      body += enc;
    }
  }
  if (sizes) *sizes = sz;
  const std::uint32_t crc = crc32(body.data(), body.size());

  std::string out;
  out.append(kMagic, 4);
  out += body;
  out.append(reinterpret_cast<const char*>(&crc), 4);
  return out;
}

EngineRecord EngineRecord::from_bytes(const std::string& data, const CheckpointImage* base) {
  if (data.size() < 12 || std::memcmp(data.data(), kMagic, 4) != 0) {
    throw CheckpointError("bad engine record magic");
  }
  const std::string_view body(data.data() + 4, data.size() - 8);
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, data.data() + data.size() - 4, 4);
  if (crc32(body.data(), body.size()) != stored_crc) {
    throw CheckpointError("engine record CRC mismatch");
  }

  Cursor cur(body);
  const std::uint32_t version = cur.u32();
  if (version != kVersion) {
    throw CheckpointError(strf("unsupported engine record version %u", version));
  }
  EngineRecord rec;
  rec.kind = static_cast<Kind>(cur.u8());
  rec.base_id = cur.u64();
  rec.seq = cur.u64();
  rec.iteration = static_cast<std::int64_t>(cur.u64());

  const std::uint8_t nstages = cur.u8();
  std::vector<std::uint8_t> ids(nstages);
  for (auto& id : ids) id = cur.u8();
  try {
    rec.codec = CodecChain::from_ids(ids.data(), ids.size());
  } catch (const CodecError& e) {
    // The recovery fallbacks key on CheckpointError: a corrupt stage list
    // must look like any other corrupt record.
    throw CheckpointError(e.what());
  }

  if (rec.kind == Kind::Full) {
    const std::uint64_t raw_len = cur.u64();
    const std::uint32_t enc_len = cur.u32();
    const std::string enc = cur.str(enc_len);
    try {
      rec.full = CheckpointImage::from_bytes(
          rec.codec.decode(enc, static_cast<std::size_t>(raw_len), {}));
    } catch (const CodecError& e) {
      throw CheckpointError(e.what());
    }
  } else if (rec.kind == Kind::Delta) {
    if (chain_has_xor(rec.codec) && base == nullptr) {
      throw CheckpointError("xor-coded delta record needs its base image to decode");
    }
    const std::uint32_t nvars = cur.u32();
    rec.delta.vars.resize(nvars);
    for (auto& v : rec.delta.vars) {
      v.name = cur.str(cur.u32());
      const std::uint32_t nruns = cur.u32();
      v.runs.resize(nruns);
      std::vector<std::pair<std::uint32_t, std::uint32_t>> run_spans;
      std::size_t total_cells = 0;
      for (auto& r : v.runs) {
        r.index = cur.u32();
        const std::uint32_t ncells = cur.u32();
        run_spans.emplace_back(r.index, ncells);
        total_cells += ncells;
      }
      const std::uint32_t enc_len = cur.u32();
      const std::string enc = cur.str(enc_len);
      const std::vector<Cell> bcells = xor_base_cells(v.name, run_spans, base);
      const std::vector<Cell> cells =
          decode_cells(rec.codec, enc, total_cells, bcells.data(), bcells.size());
      std::size_t pos = 0;
      for (std::size_t i = 0; i < v.runs.size(); ++i) {
        const std::uint32_t ncells = run_spans[i].second;
        v.runs[i].cells.assign(cells.begin() + static_cast<std::ptrdiff_t>(pos),
                               cells.begin() + static_cast<std::ptrdiff_t>(pos + ncells));
        pos += ncells;
      }
    }
  } else {
    throw CheckpointError("bad engine record kind");
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

/// Copy every cell of `regions` out of the arena into a CheckpointImage.
CheckpointImage snapshot_regions(const vm::Arena& arena,
                                 const std::vector<ProtectedRegion>& regions) {
  CheckpointImage img;
  for (const auto& r : regions) {
    std::vector<Cell> cells;
    cells.reserve(static_cast<std::size_t>(r.bytes / vm::kCellBytes));
    for (std::uint64_t off = 0; off < r.bytes; off += vm::kCellBytes) {
      const vm::Arena::RawCell raw = arena.read_raw(r.addr + off);
      cells.push_back(Cell{raw.payload, static_cast<std::uint8_t>(raw.kind)});
    }
    img.add(r.name, std::move(cells));
  }
  return img;
}

/// Bytes of the full record the default raw chain writes for `regions`: the
/// record header, stage count and length fields wrapped around the image's
/// to_bytes() (magic, version, iteration, var count, CRC; per variable a
/// name length, the name, a cell count and 9 bytes a cell), then the CRC.
std::uint64_t full_raw_record_bytes(const std::vector<ProtectedRegion>& regions) {
  std::uint64_t image = 4 + 4 + 8 + 4 + 4;
  for (const auto& r : regions) image += 4 + r.name.size() + 8 + (r.bytes / vm::kCellBytes) * 9;
  return kHeaderBytes + 1 + 8 + 4 + image + 4;
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine lifecycle
// ---------------------------------------------------------------------------

CheckpointEngine::CheckpointEngine(EngineConfig cfg) : cfg_(std::move(cfg)) {
  AC_CHECK(!cfg_.dir.empty(), "engine: dir is required");
  if (cfg_.level >= EngineLevel::L2) {
    AC_CHECK(!cfg_.partner_dir.empty(), "engine: partner_dir is required for L2/L3");
    // A replica in the local directory is the same file under the same name:
    // zero redundancy, and the partner write would clobber the committed
    // base. Refuse rather than silently degrade below L1.
    AC_CHECK(std::filesystem::weakly_canonical(cfg_.partner_dir) !=
                 std::filesystem::weakly_canonical(cfg_.dir),
             "engine: partner_dir must differ from dir for L2/L3");
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg_.dir, ec);
  if (!cfg_.partner_dir.empty()) std::filesystem::create_directories(cfg_.partner_dir, ec);
  if (cfg_.full_every < 1) cfg_.full_every = 1;
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

std::string CheckpointEngine::base_path(bool partner) const {
  return (partner ? cfg_.partner_dir : cfg_.dir) + "/" + cfg_.tag + ".base.eng";
}
std::string CheckpointEngine::delta_path(std::uint64_t seq, bool partner) const {
  return (partner ? cfg_.partner_dir : cfg_.dir) + "/" + cfg_.tag +
         strf(".delta.%llu.eng", static_cast<unsigned long long>(seq));
}
std::string CheckpointEngine::pack_path() const { return cfg_.dir + "/" + cfg_.tag + ".pack"; }
std::string CheckpointEngine::tmp_path(bool partner) const {
  return (partner ? cfg_.partner_dir : cfg_.dir) + "/" + cfg_.tag + ".eng.tmp";
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

  const bool full = !cfg_.incremental || !have_base_ ||
                    commits_since_full_ >= cfg_.full_every;
  if (full) {
    rec.kind = EngineRecord::Kind::Full;
    rec.base_id = ++base_id_;
    rec.seq = 0;
    rec.full = snapshot_regions(arena, regions);
    rec.full.set_iteration(iter);
    // Keep a pristine copy as the XOR reference for the deltas that follow;
    // shared so the async writer can encode without racing the next capture.
    // (The copy is deliberate: the record is moved into the writeback queue,
    // so sharing would need a shared_ptr-valued EngineRecord::full — not
    // worth the API churn for one extra cell sweep every full_every commits.)
    base_image_ = std::make_shared<CheckpointImage>(rec.full);
    have_base_ = true;
    next_seq_ = 1;
    commits_since_full_ = 0;
  } else {
    rec.kind = EngineRecord::Kind::Delta;
    rec.base_id = base_id_;
    rec.seq = next_seq_++;
    rec.xor_base = base_image_;
    for (const auto& r : regions) {
      DeltaVar dv;
      dv.name = r.name;
      for (std::uint64_t off = 0; off < r.bytes; off += vm::kCellBytes) {
        const std::uint64_t addr = r.addr + off;
        if (!arena.dirty_since(addr, delta_epoch_)) continue;
        const std::uint32_t index = static_cast<std::uint32_t>(off / vm::kCellBytes);
        const vm::Arena::RawCell raw = arena.read_raw(addr);
        if (dv.runs.empty() || dv.runs.back().index + dv.runs.back().cells.size() != index) {
          dv.runs.push_back(DeltaRun{index, {}});
        }
        dv.runs.back().cells.push_back(Cell{raw.payload, static_cast<std::uint8_t>(raw.kind)});
      }
      if (!dv.runs.empty()) rec.delta.vars.push_back(std::move(dv));
    }
    ++commits_since_full_;
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
  const std::uint64_t full_equiv = full_raw_record_bytes(regions);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.checkpoints;
    if (rec.kind == EngineRecord::Kind::Full) {
      ++stats_.full_checkpoints;
      stats_.cells_captured += [&] {
        std::uint64_t n = 0;
        for (const auto& v : rec.full.vars()) n += v.cells.size();
        return n;
      }();
    } else {
      ++stats_.delta_checkpoints;
      stats_.cells_captured += rec.delta.cell_count();
    }
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
    persist(rec);
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
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with nothing pending
      rec = std::move(queue_.front());
      queue_.pop_front();
      static auto& depth = telemetry::metrics().gauge("ckpt.queue_depth");
      depth.set(static_cast<std::int64_t>(queue_.size()));
      writing_ = true;
    }
    // The slot freed at pop time: wake a stalled producer now, not after the
    // I/O — that is what makes the buffering double rather than single.
    cv_.notify_all();
    std::exception_ptr error;
    try {
      persist(rec);
    } catch (...) {
      error = std::current_exception();
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
  const std::string bytes = [&] {
    AC_SPAN("ckpt.encode");
    return rec.to_bytes(cfg_.l1_codec, xor_base, &l1_sizes);
  }();
  const bool full = rec.kind == EngineRecord::Kind::Full;

  // L1: atomic replace for the base; deltas are fresh files (their chain is
  // validated by CRC + base_id + seq on recovery, so a torn delta only costs
  // the tail of the chain).
  const std::string local = full ? base_path(false) : delta_path(rec.seq, false);
  commit_file(tmp_path(false), local, bytes, cfg_.fsync_commits);
  if (full) {
    // A new base supersedes the previous chain: drop stale local deltas.
    namespace fs = std::filesystem;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(cfg_.dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(cfg_.tag + ".delta.", 0) == 0) fs::remove(entry.path(), ec);
    }
  }

  // L2: partner replica, written after the local commit. Each
  // level encodes through its own codec chain; identical chains reuse the L1
  // serialization instead of encoding twice.
  std::uint64_t l2_size = 0;
  if (cfg_.level >= EngineLevel::L2) {
    const std::string l2_bytes =
        cfg_.l2_codec == cfg_.l1_codec ? bytes : rec.to_bytes(cfg_.l2_codec, xor_base);
    l2_size = l2_bytes.size();
    AC_FAULT("ckpt.writeback.l2");
    commit_file(tmp_path(true), full ? base_path(true) : delta_path(rec.seq, true), l2_bytes,
                cfg_.fsync_commits);
    if (full) {
      namespace fs = std::filesystem;
      std::error_code ec;
      for (const auto& entry : fs::directory_iterator(cfg_.partner_dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(cfg_.tag + ".delta.", 0) == 0) fs::remove(entry.path(), ec);
      }
    }
  }

  // L3: append one MCTA frame to the packed archive. The frame is built in
  // memory and shipped as a single fwrite, so a kill mid-append leaves at
  // worst one torn frame at the tail, which the recovery walk drops cleanly.
  std::uint64_t l3_size = 0;
  if (cfg_.level >= EngineLevel::L3) {
    const std::string l3_bytes =
        cfg_.l3_codec == cfg_.l1_codec ? bytes : rec.to_bytes(cfg_.l3_codec, xor_base);
    const std::string frame =
        trace::mctb_frame(kPackFrameKind, static_cast<std::uint32_t>(rec.seq),
                          static_cast<std::uint64_t>(rec.iteration), l3_bytes, cfg_.l3_codec);
    l3_size = frame.size();
    AC_FAULT("ckpt.writeback.l3_append");
    std::FILE* f = std::fopen(pack_path().c_str(), "ab");
    if (!f) throw CheckpointError("cannot append to archive: " + pack_path());
    const std::size_t want = AC_FAULT_IO("ckpt.archive.append", frame.size());
    bool ok = std::fwrite(frame.data(), 1, want, f) == want && want == frame.size();
    if (std::fclose(f) != 0) ok = false;
    if (!ok) throw CheckpointError("short append to archive: " + pack_path());
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.l1_bytes += bytes.size();
    if (!full) stats_.l1_delta_bytes += bytes.size();
    stats_.payload_raw_bytes += l1_sizes.raw;
    stats_.payload_encoded_bytes += l1_sizes.encoded;
    if (cfg_.level >= EngineLevel::L2) stats_.l2_bytes += l2_size;
    if (cfg_.level >= EngineLevel::L3) stats_.l3_bytes += l3_size;  // whole frames
    stats_.last_persisted_iteration = std::max(stats_.last_persisted_iteration, rec.iteration);
  }
  // Registry mirrors of the writer-side byte counters.
  static auto& l1 = telemetry::metrics().counter("ckpt.l1_bytes");
  static auto& l1d = telemetry::metrics().counter("ckpt.l1_delta_bytes");
  static auto& raw = telemetry::metrics().counter("ckpt.payload_raw_bytes");
  static auto& enc = telemetry::metrics().counter("ckpt.payload_encoded_bytes");
  l1.add(bytes.size());
  if (!full) l1d.add(bytes.size());
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

bool CheckpointEngine::has_checkpoint() const {
  drain();
  return file_exists(base_path(false)) ||
         (cfg_.level >= EngineLevel::L2 && file_exists(base_path(true))) ||
         (cfg_.level >= EngineLevel::L3 && file_exists(pack_path()));
}

EngineRecord CheckpointEngine::load_record(const std::string& local, const std::string& partner,
                                           const CheckpointImage* base) const {
  try {
    AC_FAULT("ckpt.recover.local");
    return EngineRecord::from_bytes(read_file(local), base);
  } catch (const CheckpointError&) {
    if (cfg_.level < EngineLevel::L2) throw;
    return EngineRecord::from_bytes(read_file(partner), base);
  }
}

CheckpointImage CheckpointEngine::recover_from_files() const {
  EngineRecord base = load_record(base_path(false), base_path(true), nullptr);
  if (base.kind != EngineRecord::Kind::Full) throw CheckpointError("base record is not full");
  // The pristine base stays the XOR reference for every delta in the chain;
  // `img` accumulates the patches.
  const CheckpointImage base_img = base.full;
  CheckpointImage img = std::move(base.full);

  // Apply the delta chain in sequence order; any gap, CRC failure or base_id
  // mismatch ends the recoverable prefix (later deltas depend on every
  // earlier one, so they are unusable).
  std::uint64_t expect_seq = 1;
  for (;;) {
    EngineRecord delta;
    try {
      delta = load_record(delta_path(expect_seq, false), delta_path(expect_seq, true), &base_img);
    } catch (const CheckpointError&) {
      break;
    }
    if (delta.kind != EngineRecord::Kind::Delta || delta.base_id != base.base_id ||
        delta.seq != expect_seq) {
      break;
    }
    apply_delta(img, delta.delta, delta.iteration);
    ++expect_seq;
  }
  return img;
}

std::int64_t CheckpointEngine::pack_best_iteration() const {
  std::string data;
  try {
    data = read_file(pack_path());
  } catch (const CheckpointError&) {
    return -1;
  }

  // Same frame walk as recover_from_pack, but reading only the fixed-offset
  // record header (magic, version, kind, base_id, seq, iteration) and
  // skipping both payload decode AND the per-frame CRC. That makes the estimate
  // optimistic under corruption — an entry with a clean header but rotten
  // payload counts — which is safe: recover() only adopts the pack after the
  // real (CRC-checked) decode confirms it beats the file chain, so an
  // overestimate merely costs one wasted decode, and corruption that
  // scrambles the header itself stops both walks alike.
  struct Head {
    EngineRecord::Kind kind;
    std::uint64_t base_id, seq;
    std::int64_t iteration;
  };
  std::vector<Head> heads;
  trace::MctbFrameView frame;
  for (std::size_t pos = 0; trace::read_mctb_frame_header(data, pos, frame);
       pos += frame.frame_size) {
    const char* chunk = frame.payload.data();
    if (frame.payload.size() < kHeaderBytes + 4 || std::memcmp(chunk, kMagic, 4) != 0) break;
    std::uint32_t version;
    std::memcpy(&version, chunk + 4, 4);
    if (version != kVersion) break;
    Head h;
    h.kind = static_cast<EngineRecord::Kind>(chunk[8]);
    std::memcpy(&h.base_id, chunk + 9, 8);
    std::memcpy(&h.seq, chunk + 17, 8);
    std::uint64_t iter;
    std::memcpy(&iter, chunk + 25, 8);
    h.iteration = static_cast<std::int64_t>(iter);
    heads.push_back(h);
  }

  std::ptrdiff_t last_full = -1;
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(heads.size()) - 1; i >= 0; --i) {
    if (heads[static_cast<std::size_t>(i)].kind == EngineRecord::Kind::Full) {
      last_full = i;
      break;
    }
  }
  if (last_full < 0) return -1;

  std::int64_t best = heads[static_cast<std::size_t>(last_full)].iteration;
  std::uint64_t expect_seq = 1;
  for (std::size_t i = static_cast<std::size_t>(last_full) + 1; i < heads.size(); ++i) {
    const Head& h = heads[i];
    if (h.kind != EngineRecord::Kind::Delta ||
        h.base_id != heads[static_cast<std::size_t>(last_full)].base_id ||
        h.seq != expect_seq) {
      break;
    }
    best = h.iteration;
    ++expect_seq;
  }
  return best;
}

CheckpointImage CheckpointEngine::recover_from_pack() const {
  const std::string data = read_file(pack_path());
  std::vector<EngineRecord> records;
  // Records are appended in commit order, so each delta's full base precedes
  // it in the archive — track the latest full image as the XOR reference.
  // read_mctb_frame verifies each frame's CRC: corruption stops the walk.
  std::shared_ptr<const CheckpointImage> cur_base;
  trace::MctbFrameView frame;
  for (std::size_t pos = 0; trace::read_mctb_frame(data, pos, frame); pos += frame.frame_size) {
    try {
      records.push_back(EngineRecord::from_bytes(std::string(frame.payload), cur_base.get()));
    } catch (const CheckpointError&) {
      break;
    }
    if (records.back().kind == EngineRecord::Kind::Full) {
      cur_base = std::make_shared<CheckpointImage>(records.back().full);
    }
  }

  // Reassemble from the last full record forward.
  std::ptrdiff_t last_full = -1;
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(records.size()) - 1; i >= 0; --i) {
    if (records[static_cast<std::size_t>(i)].kind == EngineRecord::Kind::Full) {
      last_full = i;
      break;
    }
  }
  if (last_full < 0) throw CheckpointError("archive holds no full checkpoint: " + pack_path());

  const EngineRecord& base = records[static_cast<std::size_t>(last_full)];
  CheckpointImage img = base.full;
  std::uint64_t expect_seq = 1;
  for (std::size_t i = static_cast<std::size_t>(last_full) + 1; i < records.size(); ++i) {
    const EngineRecord& delta = records[i];
    if (delta.kind != EngineRecord::Kind::Delta || delta.base_id != base.base_id ||
        delta.seq != expect_seq) {
      break;
    }
    apply_delta(img, delta.delta, delta.iteration);
    ++expect_seq;
  }
  return img;
}

CheckpointImage CheckpointEngine::recover() const {
  drain();
  // Level-by-level, as documented: per-file L1 -> L2 fallback happens inside
  // load_record; here the L3 archive competes with the file-based chain. A
  // delta corrupted in both directories silently truncates the file chain
  // (recover_from_files returns an earlier iteration without throwing), so
  // "archive as last resort" must mean "whichever source recovers further",
  // not "only when the files are gone".
  std::exception_ptr files_error;
  CheckpointImage best;
  bool have_best = false;
  try {
    best = recover_from_files();
    have_best = true;
  } catch (const CheckpointError&) {
    files_error = std::current_exception();
  }
  if (cfg_.level >= EngineLevel::L3 && file_exists(pack_path())) {
    // Header-only peek first: reading the archive is unavoidable (it is the
    // only way to know whether it can beat the file chain), but CRC-scanning
    // and codec-decoding every checkpoint ever taken is not — a routine
    // restart with a healthy file chain skips all of that.
    const std::int64_t pack_iter = pack_best_iteration();
    if (pack_iter >= 0 && (!have_best || pack_iter > best.iteration())) {
      try {
        CheckpointImage packed = recover_from_pack();
        if (!have_best || packed.iteration() > best.iteration()) {
          best = std::move(packed);
          have_best = true;
        }
      } catch (const CheckpointError&) {
        // The files-based result (or the files error) stands.
      }
    }
  }
  if (!have_best) {
    if (files_error) std::rethrow_exception(files_error);
    throw CheckpointError("no recoverable checkpoint for tag: " + cfg_.tag);
  }
  return best;
}

void CheckpointEngine::reset() {
  flush();
  namespace fs = std::filesystem;
  std::error_code ec;
  const auto sweep = [&](const std::string& dir) {
    if (dir.empty()) return;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(cfg_.tag + ".", 0) == 0) fs::remove(entry.path(), ec);
    }
  };
  sweep(cfg_.dir);
  sweep(cfg_.partner_dir);

  std::lock_guard<std::mutex> lock(mu_);
  stats_ = EngineStats{};
  have_base_ = false;
  base_image_.reset();
  base_id_ = 0;
  next_seq_ = 1;
  last_commit_iter_ = 0;
  commits_since_full_ = 0;
  iter_timer_live_ = false;
}

EngineStats CheckpointEngine::stats() const {
  drain();
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ac::ckpt
