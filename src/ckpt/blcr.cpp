#include "ckpt/blcr.hpp"

namespace ac::ckpt {

BlcrFootprint BlcrSim::footprint(const MachineState& st) {
  BlcrFootprint fp;
  // 8 payload bytes + 1 kind byte per cell.
  fp.memory_bytes = st.arena_bytes + st.arena_bytes / 8;
  // Registers are tagged 9-byte values; slot tables hold 8-byte addresses;
  // each frame carries pc / function id / stack mark (24 bytes).
  fp.machine_bytes = st.total_regs * 9 + st.total_slots * 8 + st.num_frames * 24;
  return fp;
}

}  // namespace ac::ckpt
