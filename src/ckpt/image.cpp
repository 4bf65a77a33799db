#include "ckpt/image.hpp"

#include <cstring>

#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace ac::ckpt {

namespace {

constexpr char kMagic[4] = {'A', 'C', 'C', 'P'};
constexpr std::uint32_t kVersion = 1;

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
  Cursor(const std::string& data) : data_(data) {}
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::string str(std::size_t n) {
    need(n);
    std::string s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  std::size_t pos() const { return pos_; }

 private:
  const std::string& data_;
  std::size_t pos_ = 0;

  void need(std::size_t n) {
    if (pos_ + n > data_.size()) throw CheckpointError("truncated checkpoint file");
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

}  // namespace

void CheckpointImage::add(std::string name, std::vector<Cell> cells) {
  vars_.push_back(VarSnapshot{std::move(name), std::move(cells)});
}

const VarSnapshot* CheckpointImage::find(const std::string& name) const {
  for (const auto& v : vars_) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

std::uint64_t CheckpointImage::byte_size() const {
  std::uint64_t total = 0;
  for (const auto& v : vars_) {
    total += v.name.size() + 8 /* count field */ + v.cells.size() * 9;
  }
  return total;
}

std::string CheckpointImage::to_bytes() const {
  std::string body;
  put_u32(body, kVersion);
  put_u64(body, static_cast<std::uint64_t>(iteration_));
  put_u32(body, static_cast<std::uint32_t>(vars_.size()));
  for (const auto& v : vars_) {
    put_u32(body, static_cast<std::uint32_t>(v.name.size()));
    body += v.name;
    put_u64(body, v.cells.size());
    for (const auto& c : v.cells) {
      put_u64(body, c.payload);
      body.push_back(static_cast<char>(c.kind));
    }
  }
  const std::uint32_t crc = crc32(body.data(), body.size());

  std::string out;
  out.append(kMagic, 4);
  out += body;
  out.append(reinterpret_cast<const char*>(&crc), 4);
  return out;
}

CheckpointImage CheckpointImage::from_bytes(const std::string& data) {
  if (data.size() < 12 || std::memcmp(data.data(), kMagic, 4) != 0) {
    throw CheckpointError("bad checkpoint magic");
  }
  const std::string body = data.substr(4, data.size() - 8);
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, data.data() + data.size() - 4, 4);
  if (crc32(body.data(), body.size()) != stored_crc) {
    throw CheckpointError("checkpoint CRC mismatch (corrupt data)");
  }

  Cursor cur(body);
  const std::uint32_t version = cur.u32();
  if (version != kVersion) throw CheckpointError(strf("unsupported checkpoint version %u", version));
  CheckpointImage img;
  img.iteration_ = static_cast<std::int64_t>(cur.u64());
  const std::uint32_t nvars = cur.u32();
  for (std::uint32_t i = 0; i < nvars; ++i) {
    const std::uint32_t name_len = cur.u32();
    VarSnapshot snap;
    snap.name = cur.str(name_len);
    const std::uint64_t ncells = cur.u64();
    snap.cells.resize(ncells);
    for (auto& c : snap.cells) {
      c.payload = cur.u64();
      c.kind = cur.u8();
    }
    img.vars_.push_back(std::move(snap));
  }
  // The CRC already vouches for the bytes, but a codec-decoded blob of the
  // wrong length must not pass silently with trailing garbage.
  if (cur.pos() != body.size()) throw CheckpointError("trailing bytes in checkpoint");
  return img;
}

}  // namespace ac::ckpt
