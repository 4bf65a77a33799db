#include "ckpt/codec.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace ac::ckpt {

namespace {

constexpr std::size_t kCellStride = 9;  // 8 payload planes + 1 kind plane

}  // namespace

std::string cells_to_bytes(const Cell* cells, std::size_t count) {
  std::vector<std::uint64_t> payloads(count);
  for (std::size_t i = 0; i < count; ++i) payloads[i] = cells[i].payload;
  std::string out;
  out.reserve(count * kCellStride);
  shuffle_planes(payloads.data(), count, 8, out);
  for (std::size_t i = 0; i < count; ++i) out.push_back(static_cast<char>(cells[i].kind));
  return out;
}

std::vector<Cell> cells_from_bytes(std::string_view bytes) {
  if (bytes.size() % kCellStride != 0) {
    throw CheckpointError(strf("cell stream of %zu bytes is not a multiple of %zu", bytes.size(),
                               kCellStride));
  }
  const std::size_t count = bytes.size() / kCellStride;
  std::vector<std::uint64_t> payloads(count);
  unshuffle_planes(bytes.substr(0, 8 * count), count, 8, payloads.data());
  const std::string_view kinds = bytes.substr(8 * count);
  std::vector<Cell> cells(count);
  for (std::size_t i = 0; i < count; ++i) {
    cells[i] = Cell{payloads[i], static_cast<std::uint8_t>(kinds[i])};
  }
  return cells;
}

std::string encode_cells(const CodecChain& chain, const Cell* cells, std::size_t count,
                         const Cell* base, std::size_t base_count) {
  const std::string raw = cells_to_bytes(cells, count);
  if (chain.raw() || base == nullptr || base_count == 0) {
    return chain.encode(raw, {});
  }
  return chain.encode(raw, cells_to_bytes(base, std::min(count, base_count)));
}

std::vector<Cell> decode_cells(const CodecChain& chain, std::string_view payload,
                               std::size_t expect_cells, const Cell* base,
                               std::size_t base_count) {
  std::string base_bytes;
  if (!chain.raw() && base != nullptr && base_count != 0) {
    base_bytes = cells_to_bytes(base, std::min(expect_cells, base_count));
  }
  try {
    return cells_from_bytes(chain.decode(payload, expect_cells * kCellStride, base_bytes));
  } catch (const CodecError& e) {
    // The engine's recovery fallbacks key on CheckpointError: a corrupt
    // payload must look like any other corrupt checkpoint record.
    throw CheckpointError(e.what());
  }
}

}  // namespace ac::ckpt
