// Named fault-injection points — the hook layer under the fuzz campaign
// driver (src/fuzz) and the targeted robustness tests.
//
// An instrumentation site names the failure it can simulate:
//
//   void append_frame(...) {
//     ... write the frame ...
//     AC_FAULT("ckpt.writeback.sync");   // a kill here => record not durable?
//     ... fdatasync ...
//   }
//
// A controller (test or campaign child process) arms points by name:
//
//   fault::arm_from_spec("ckpt.writeback.pre_rename=kill:skip=1");
//
// and the armed action fires on the matching hit: throw a typed ac::Error,
// clamp an I/O size (short write), kill the process (fail-stop), or delay.
// Names follow the telemetry span scheme, `layer.what[.detail]` — the layer
// prefix picks the default exception domain (ckpt.* -> CheckpointError,
// mctb.*/trace.* -> TraceFormatError, net.* -> ProtocolError).
//
// Disarmed (the default, and the only production state) a site costs one
// relaxed atomic load — the same discipline as AC_SPAN, and covered by the
// same bench_micro overhead gate. Point names must be string literals, and
// every one is declared once, in AC_FAULT_POINTS below: a site (or a
// campaign crash scenario) naming a point missing from the list fails to
// compile.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ac::fault {

// V(name, site): every AC_FAULT/AC_FAULT_IO point compiled into the binary,
// with where it sits. catalog() (`--list-fault-points`) is this list.
#define AC_FAULT_POINTS(V)                                                                     \
  V("ckpt.writeback.encode", "engine.cpp persist(): before record encode")                     \
  V("ckpt.writeback.pre_rename",                                                               \
    "engine.cpp write_log(): rotation, after the temp log's fdatasync, before rename")         \
  V("ckpt.writeback.post_rename",                                                              \
    "engine.cpp write_log(): rotation, after rename, before the dir fsync")                    \
  V("ckpt.writeback.l2", "engine.cpp persist(): before the L2 partner write")                  \
  V("ckpt.writeback.l3_append", "engine.cpp persist(): before the L3 archive append")          \
  V("ckpt.writeback.sync", "engine.cpp append_frame(): after the write, before its fdatasync") \
  V("ckpt.archive.append",                                                                     \
    "engine.cpp append_frame(): write byte count, every level's log (short-write site)")       \
  V("ckpt.recover.local", "engine.cpp recover(): before the walk reads the local log")         \
  V("fs.sync_dir", "mctb.cpp fsync_parent_dir(): before the directory fsync")                  \
  V("mctb.encode.section", "mctb.cpp encode_container(): per encoded section, all sinks")      \
  V("mctb.stream.encode_section",                                                              \
    "mctb.cpp encode_container(): per section on the streaming file-writer path")              \
  V("mctb.decode.section", "mctb.cpp decode_payload(): per decoded section")                   \
  V("mctb.stream.decode_slot", "mctb.cpp read_mctb(): per chunk slot of the decode")           \
  V("exec.chunk.claim", "executor.cpp run_chunks(): after a worker claims a chunk")            \
  V("net.write", "socket.cpp write_all(): before the send loop")                               \
  V("net.read", "socket.cpp read_some(): before the poll/recv")                                \
  V("net.server.render", "server.cpp conn_worker(): before report render")

enum class Action : std::uint8_t {
  Throw,       // throw the domain's error type ("injected fault at <point>")
  ShortWrite,  // AC_FAULT_IO sites: clamp the byte count to frac * n
  Kill,        // std::_Exit(kKillExitCode) — a fail-stop mid-operation
  Delay,       // sleep delay_ms (hang/latency injection)
};

/// Exception type an armed Throw raises. Auto resolves from the point name's
/// layer prefix.
enum class Domain : std::uint8_t { Auto, Generic, Checkpoint, Trace, Protocol, Codec };

/// Exit code of Action::Kill, so a campaign parent can tell an injected
/// fail-stop from a genuine crash.
constexpr int kKillExitCode = 86;

struct FaultSpec {
  Action action = Action::Throw;
  Domain domain = Domain::Auto;
  int skip = 0;        // let this many hits pass before the first trigger
  int count = -1;      // trigger at most this many times; -1 = unlimited
  int delay_ms = 50;   // Action::Delay
  double frac = 0.5;   // Action::ShortWrite: fraction of bytes let through
};

// --- controller API (tests, campaign driver) -------------------------------

void arm(const std::string& point, const FaultSpec& spec);
/// True when the point was armed.
bool disarm(const std::string& point);
void disarm_all();
std::vector<std::string> armed_points();
/// Times an armed `point` has triggered (not merely been hit while skipping).
std::uint64_t trigger_count(const std::string& point);

/// Parse "action[:key=val,...]" — actions throw|short|kill|delay, keys
/// skip=N, count=N, ms=N, frac=F, domain=checkpoint|trace|protocol|codec|
/// generic. Throws ac::Error on malformed specs.
FaultSpec parse_fault_spec(const std::string& spec);
/// Arm from "point=action[:key=val,...]".
void arm_from_spec(const std::string& spec);

struct PointInfo {
  const char* name;
  const char* site;
};

inline constexpr PointInfo kPoints[] = {
#define AC_FAULT_POINT_INFO(name, site) {name, site},
    AC_FAULT_POINTS(AC_FAULT_POINT_INFO)
#undef AC_FAULT_POINT_INFO
};

/// Every AC_FAULT site compiled into this binary, with its location — the
/// `--list-fault-points` catalog.
inline std::span<const PointInfo> catalog() { return kPoints; }

/// Whether AC_FAULT_POINTS lists `name` (the sites' compile-time check).
constexpr bool is_point(std::string_view name) {
  for (const PointInfo& p : kPoints) {
    if (name == p.name) return true;
  }
  return false;
}

// --- test-only weakened checks ---------------------------------------------
// Named validation checks that can be switched off so a campaign self-test
// can prove it finds the resulting (planted) bug. Sourced from the
// AC_FUZZ_WEAKEN env var (comma-separated names, read once) or overridden
// programmatically. Never set outside tests.
bool weakened(const char* check);
void set_weakened(const std::string& comma_separated);

// --- instrumentation internals (via the AC_FAULT macros) -------------------

extern std::atomic<int> g_armed;
inline bool any_armed() { return g_armed.load(std::memory_order_relaxed) != 0; }
/// Out of line: consult the armed table and perform the action (throw, kill,
/// delay; ShortWrite is a no-op at non-IO sites).
void hit(const char* point);
/// AC_FAULT_IO: the clamped byte count for an I/O of `n` bytes (ShortWrite),
/// other actions behave as at an AC_FAULT site.
std::size_t clamped_io(const char* point, std::size_t n);

#define AC_FAULT_CHECK_POINT(point) \
  static_assert(::ac::fault::is_point(point), "fault point not in AC_FAULT_POINTS: " point)

/// Fault-injection site. `point` must be a string literal listed in
/// AC_FAULT_POINTS.
#define AC_FAULT(point)                                     \
  do {                                                      \
    AC_FAULT_CHECK_POINT(point);                            \
    if (::ac::fault::any_armed()) ::ac::fault::hit(point);  \
  } while (0)

/// I/O-size fault site: evaluates to the (possibly clamped) byte count for an
/// operation of `n` bytes. `n` must be side-effect free (evaluated twice).
#define AC_FAULT_IO(point, n)                \
  ([] { AC_FAULT_CHECK_POINT(point); }(),    \
   ::ac::fault::any_armed() ? ::ac::fault::clamped_io((point), (n)) : (n))

}  // namespace ac::fault
