// Checkpoint image: an ordered set of named variable snapshots.
//
// This is the unit the checkpoint store exchanges with the VM: the
// CheckpointEngine recovers an image of the AutoCheck-identified variables
// (application-level checkpointing, as the paper does with FTI L1) and hands
// it to vm::RunOptions::restore. (The system-level Table IV baseline,
// BlcrSim, sizes the whole machine instead.) An image has no byte format of
// its own: the engine stores its cells in its records (engine.hpp).
//
// Each 8-byte cell carries its ValueKind tag so restored doubles/pointers
// keep their kind.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ac::ckpt {

struct Cell {
  std::uint64_t payload = 0;
  std::uint8_t kind = 0;  // trace::ValueKind numeric value

  bool operator==(const Cell&) const = default;
};

struct VarSnapshot {
  std::string name;
  std::vector<Cell> cells;

  bool operator==(const VarSnapshot&) const = default;
};

class CheckpointImage {
 public:
  void add(std::string name, std::vector<Cell> cells);

  const std::vector<VarSnapshot>& vars() const { return vars_; }
  const VarSnapshot* find(const std::string& name) const;
  bool empty() const { return vars_.empty(); }

  /// Metadata: which loop iteration this snapshot closed.
  void set_iteration(std::int64_t it) { iteration_ = it; }
  std::int64_t iteration() const { return iteration_; }

  /// Payload bytes: 8 data bytes + 1 kind byte per cell plus, per variable,
  /// its name and an 8-byte cell count.
  std::uint64_t byte_size() const;

  bool operator==(const CheckpointImage&) const = default;

 private:
  std::vector<VarSnapshot> vars_;
  std::int64_t iteration_ = -1;
};

}  // namespace ac::ckpt
