#include "ckpt/image.hpp"

namespace ac::ckpt {

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

}  // namespace ac::ckpt
