// BlcrSim: system-level checkpoint cost model (the paper's Table IV baseline,
// Berkeley Lab Checkpoint/Restart).
//
// BLCR snapshots the entire process image. Our equivalent snapshots the
// entire VM machine state: every allocated arena cell with its kind tag,
// every live frame's register file and slot table, and scheduler metadata.
// The point of Table IV is the storage *ratio* against AutoCheck's selective
// variable checkpoint, which this model preserves.
#pragma once

#include <cstdint>

namespace ac::ckpt {

/// Machine-state measurements supplied by the VM at a checkpoint boundary.
struct MachineState {
  std::uint64_t arena_bytes = 0;   // allocated memory (globals + live stack)
  std::uint64_t num_frames = 0;    // call depth
  std::uint64_t total_regs = 0;    // live virtual registers across frames
  std::uint64_t total_slots = 0;   // live variable slots across frames
};

/// A system-level checkpoint stores the whole process image, not just the
/// application arrays: program text, heap metadata, thread stacks and mapped
/// libraries all land in the file. This constant models that floor (BLCR
/// images of trivial processes are already megabytes); it is what separates
/// the paper's Table IV by orders of magnitude from the variable-selective
/// checkpoint even when the application state itself is small.
constexpr std::uint64_t kProcessImageBase = 8ull << 20;  // 8 MiB

struct BlcrFootprint {
  std::uint64_t memory_bytes = 0;    // arena payload + kind plane
  std::uint64_t machine_bytes = 0;   // registers, slot tables, frame metadata
  std::uint64_t process_bytes = kProcessImageBase;  // text/stack/library pages
  std::uint64_t total() const { return memory_bytes + machine_bytes + process_bytes; }
};

class BlcrSim {
 public:
  /// Cost of one full-system checkpoint for the given machine state.
  static BlcrFootprint footprint(const MachineState& st);
};

}  // namespace ac::ckpt
