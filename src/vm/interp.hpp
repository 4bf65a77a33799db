// The tracing interpreter: executes a mini-IR module and emits a dynamic
// instruction execution trace in the LLVM-Tracer block format.
//
// Emission model: every static record site — one per (function,
// instruction), one per (function, parameter) for the argument-binding
// stores, one per global Alloca — gets a template on its first traced
// execution. The template holds the record's static part (func and bb ids,
// opcode, each operand's slot, index, is_reg flag and name id), interned into
// the interpreter's SymbolPool in pack_record's order. Every later execution
// copies the template into a reused scratch record, fills in the operand
// values and dyn_id, and hands the sink a RecordView. Without a sink nothing
// of a record is built: the dispatch loop only counts steps.
//
// Besides plain execution it provides the three capabilities the paper's
// validation methodology needs (§VI-B):
//   * main-computation-loop (MCL) iteration tracking — a conditional branch
//     at the MCL header line delimits iterations;
//   * checkpointing — at every iteration boundary the attached
//     ckpt::CheckpointEngine sees the protected variables' arena ranges and
//     commits per its policy (the paper inserts FTI calls at the bottom of
//     the loop; the boundary is the same program point);
//   * fail-stop injection and restore-at-loop-entry — the paper raises
//     SIGTERM inside the loop and restarts reading checkpoints right before
//     the main loop.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/blcr.hpp"
#include "ckpt/engine.hpp"
#include "ckpt/image.hpp"
#include "ir/ir.hpp"
#include "trace/writer.hpp"
#include "vm/memory.hpp"

namespace ac::vm {

/// Identifies the main computation loop by host function + source line range
/// (the MCLR column of Table II). begin_line must be the loop-header line.
struct MclRegion {
  std::string function = "main";
  int begin_line = 0;
  int end_line = 0;
};

/// Thrown (and caught internally by run()) when fail-stop injection fires.
struct FailStop {
  int iteration = 0;
};

struct RunOptions {
  /// Trace output; nullptr = do not trace.
  trace::TraceSink* sink = nullptr;

  /// Loop instrumentation (checkpoint/failure/restore need this).
  std::optional<MclRegion> mcl;

  /// Called at every iteration boundary with the live machine state
  /// (BLCR-style full-image cost measurements).
  std::function<void(const ckpt::MachineState&)> on_machine_state;

  /// The checkpoint store: at every iteration boundary the engine's
  /// registered variables — resolved against the MCL host function's locals,
  /// then module globals — are bound to their arena ranges, and the engine
  /// decides (per its policy, e.g. every N completed iterations: the paper's
  /// "periodically ... with a certain interval", §II-B) whether to capture
  /// an incremental or full snapshot.
  ckpt::CheckpointEngine* engine = nullptr;

  /// Inject a fail-stop when this iteration is about to start (1-based);
  /// -1 disables. The failure fires after iteration N-1's checkpoint.
  int fail_at_iteration = -1;

  /// Restore this image when execution first reaches the MCL header
  /// (restart path). Variables resolve like the engine's registrations.
  const ckpt::CheckpointImage* restore = nullptr;

  /// Runaway guard.
  std::uint64_t max_steps = 2'000'000'000ull;
};

struct RunResult {
  std::string output;           // concatenated print_int/print_float lines
  std::int64_t exit_code = 0;   // main's return value
  std::uint64_t steps = 0;      // dynamic instructions executed
  std::uint64_t peak_memory = 0;
  int iterations_started = 0;   // MCL header evaluations that entered the body
  bool failed = false;          // fail-stop injection fired
};

class Interpreter {
 public:
  explicit Interpreter(const ir::Module& module);

  /// Execute main() to completion (or injected failure). Reusable only once.
  RunResult run(const RunOptions& opts);

 private:
  struct Frame {
    const ir::Function* fn = nullptr;
    std::size_t site_base = 0;  // trace site id of fn's first instruction
    std::vector<std::uint64_t> slot_addr;
    std::vector<Value> regs;
    int pc = 0;
    std::uint64_t stack_mark = 0;
    int pending_dst = -1;  // caller-side register awaiting our Ret value
  };

  const ir::Module& module_;
  Arena arena_;
  std::vector<std::uint64_t> global_addr_;
  std::vector<Frame> frames_;
  const RunOptions* opts_ = nullptr;
  RunResult result_;
  double timer_counter_ = 0.0;
  const ir::Function* mcl_fn_ = nullptr;  // MCL host function, resolved once per run
  int mcl_line_ = 0;
  int iteration_ = 0;      // completed header evaluations
  bool restored_ = false;
  // Engine registrations bound once at the first iteration boundary — the
  // MCL frame stays live across iterations, so the addresses are invariant.
  std::vector<ckpt::ProtectedRegion> engine_regions_;
  bool engine_regions_bound_ = false;

  // Trace emission (see the file comment).
  struct SiteTemplate {
    trace::PackedRecord rec;  // op_offset/op_count index site_ops_
    bool built = false;
  };
  /// A trace operand name: `text`, or `prefix` + `number` when number >= 0
  /// ("7" for register 7, "arg2"). Formatted only when a template is built.
  struct OperandName {
    std::string_view text;
    const char* prefix = "";
    long number = -1;
  };
  static OperandName reg_name(int reg) { return {{}, "", reg}; }

  trace::TraceSink* sink_ = nullptr;  // opts_->sink
  trace::SymbolPool pool_;
  std::vector<std::size_t> site_base_;  // per function: its first site id
  std::size_t num_sites_ = 0;           // globals' sites come last
  std::vector<SiteTemplate> sites_;
  std::vector<trace::PackedOperand> site_ops_;
  SiteTemplate* site_ = nullptr;  // the record being emitted
  bool building_ = false;         // ... on its site's first traced execution
  std::vector<trace::PackedOperand> scratch_ops_;

  Frame& top() { return frames_.back(); }

  /// Count one dynamic instruction (dyn_id == steps - 1); enforces max_steps.
  void step();
  std::size_t instr_site(const Frame& f, const ir::Instr& in) const {
    return f.site_base + static_cast<std::size_t>(&in - f.fn->instrs.data());
  }
  void trace_begin(std::size_t site, std::string_view func, int line, trace::Opcode opcode);
  void trace_operand(trace::OperandSlot slot, int index, bool is_reg, const OperandName& name,
                     const Value& v);
  void trace_input(int index, const Value& v, bool is_reg, const OperandName& name) {
    trace_operand(trace::OperandSlot::Input, index, is_reg, name, v);
  }
  void trace_result(const Value& v, const OperandName& name) {
    trace_operand(trace::OperandSlot::Result, 0, true, name, v);
  }
  /// An IR operand as input `index`: registers and variables are named.
  void trace_opnd(const Frame& f, const ir::Opnd& o, int index, const Value& v);
  void trace_end();
  OperandName opnd_name(const Frame& f, const ir::Opnd& o) const;

  void emit_global_allocas();

  Value eval(const Frame& f, const ir::Opnd& o) const;
  std::uint64_t slot_address(const Frame& f, int slot, bool is_global) const;

  void push_frame(const ir::Function& fn, const std::vector<Value>& args, int pending_dst);
  void pop_frame(const Value* ret_value);

  void exec_instr(const ir::Instr& in);
  void exec_alloca(const ir::Instr& in);
  void exec_load(const ir::Instr& in);
  void exec_store(const ir::Instr& in);
  void exec_gep(const ir::Instr& in);
  void exec_bin(const ir::Instr& in);
  void exec_cast(const ir::Instr& in);
  void exec_br(const ir::Instr& in);
  void exec_call(const ir::Instr& in);
  void exec_ret(const ir::Instr& in);

  /// The builtin's result, or nullopt for the print builtins.
  std::optional<Value> run_builtin(const ir::Instr& in, const std::vector<Value>& args);

  // MCL instrumentation at a conditional header-line branch.
  void on_header_evaluation();
  std::vector<ckpt::ProtectedRegion>
  resolve_protected(const std::vector<std::string>& names) const;
  void apply_restore(const ckpt::CheckpointImage& img);
  ckpt::MachineState machine_state() const;
};

/// Convenience: compile-free single-shot execution of a prepared module.
RunResult run_module(const ir::Module& module, const RunOptions& opts);

}  // namespace ac::vm
