#include "support/faultpoint.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "support/error.hpp"

namespace ac::fault {

std::atomic<int> g_armed{0};

namespace {

struct Armed {
  FaultSpec spec;
  int skipped = 0;          // hits let through so far
  int fired = 0;            // triggers so far
};

std::mutex g_mu;
std::map<std::string, Armed>& table() {
  static std::map<std::string, Armed> t;
  return t;
}

Domain domain_for(const char* point) {
  if (std::strncmp(point, "ckpt.", 5) == 0) return Domain::Checkpoint;
  if (std::strncmp(point, "mctb.", 5) == 0) return Domain::Trace;
  if (std::strncmp(point, "trace.", 6) == 0) return Domain::Trace;
  if (std::strncmp(point, "net.", 4) == 0) return Domain::Protocol;
  if (std::strncmp(point, "codec.", 6) == 0) return Domain::Codec;
  return Domain::Generic;
}

[[noreturn]] void throw_injected(const char* point, Domain domain) {
  if (domain == Domain::Auto) domain = domain_for(point);
  const std::string what = std::string("injected fault at ") + point;
  switch (domain) {
    case Domain::Checkpoint: throw CheckpointError(what);
    case Domain::Trace: throw TraceFormatError(what);
    case Domain::Protocol: throw ProtocolError(what);
    case Domain::Codec: throw CodecError(what);
    default: throw Error(what);
  }
}

// Decide under the lock whether this hit triggers; perform the action outside.
// Returns true (with a copy of the spec) when the point fires.
bool should_fire(const char* point, FaultSpec* out) {
  std::lock_guard<std::mutex> lk(g_mu);
  auto it = table().find(point);
  if (it == table().end()) return false;
  Armed& a = it->second;
  if (a.skipped < a.spec.skip) {
    ++a.skipped;
    return false;
  }
  if (a.spec.count >= 0 && a.fired >= a.spec.count) return false;
  ++a.fired;
  *out = a.spec;
  return true;
}

}  // namespace

void hit(const char* point) {
  FaultSpec spec;
  if (!should_fire(point, &spec)) return;
  switch (spec.action) {
    case Action::Throw:
      throw_injected(point, spec.domain);
    case Action::Kill:
      std::_Exit(kKillExitCode);
    case Action::Delay:
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.delay_ms));
      return;
    case Action::ShortWrite:
      return;  // only meaningful at AC_FAULT_IO sites
  }
}

std::size_t clamped_io(const char* point, std::size_t n) {
  FaultSpec spec;
  if (!should_fire(point, &spec)) return n;
  switch (spec.action) {
    case Action::Throw:
      throw_injected(point, spec.domain);
    case Action::Kill:
      std::_Exit(kKillExitCode);
    case Action::Delay:
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.delay_ms));
      return n;
    case Action::ShortWrite:
      return static_cast<std::size_t>(static_cast<double>(n) * spec.frac);
  }
  return n;
}

void arm(const std::string& point, const FaultSpec& spec) {
  std::lock_guard<std::mutex> lk(g_mu);
  auto [it, inserted] = table().insert_or_assign(point, Armed{spec, 0, 0});
  (void)it;
  if (inserted) g_armed.fetch_add(1, std::memory_order_relaxed);
}

bool disarm(const std::string& point) {
  std::lock_guard<std::mutex> lk(g_mu);
  if (table().erase(point) == 0) return false;
  g_armed.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void disarm_all() {
  std::lock_guard<std::mutex> lk(g_mu);
  g_armed.fetch_sub(static_cast<int>(table().size()), std::memory_order_relaxed);
  table().clear();
}

std::vector<std::string> armed_points() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<std::string> out;
  out.reserve(table().size());
  for (const auto& [name, a] : table()) out.push_back(name);
  return out;
}

std::uint64_t trigger_count(const std::string& point) {
  std::lock_guard<std::mutex> lk(g_mu);
  auto it = table().find(point);
  return it == table().end() ? 0 : static_cast<std::uint64_t>(it->second.fired);
}

FaultSpec parse_fault_spec(const std::string& spec) {
  FaultSpec out;
  const auto colon = spec.find(':');
  const std::string action = spec.substr(0, colon);
  if (action == "throw") {
    out.action = Action::Throw;
  } else if (action == "short") {
    out.action = Action::ShortWrite;
  } else if (action == "kill") {
    out.action = Action::Kill;
  } else if (action == "delay") {
    out.action = Action::Delay;
  } else {
    throw Error("fault spec: unknown action '" + action +
                "' (expected throw|short|kill|delay)");
  }
  if (colon == std::string::npos) return out;
  std::string rest = spec.substr(colon + 1);
  std::size_t pos = 0;
  while (pos < rest.size()) {
    auto end = rest.find(',', pos);
    if (end == std::string::npos) end = rest.size();
    const std::string kv = rest.substr(pos, end - pos);
    pos = end + 1;
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= kv.size())
      throw Error("fault spec: malformed option '" + kv + "' (expected key=value)");
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    try {
      if (key == "skip") {
        out.skip = std::stoi(val);
      } else if (key == "count") {
        out.count = std::stoi(val);
      } else if (key == "ms") {
        out.delay_ms = std::stoi(val);
      } else if (key == "frac") {
        out.frac = std::stod(val);
      } else if (key == "domain") {
        if (val == "checkpoint") out.domain = Domain::Checkpoint;
        else if (val == "trace") out.domain = Domain::Trace;
        else if (val == "protocol") out.domain = Domain::Protocol;
        else if (val == "codec") out.domain = Domain::Codec;
        else if (val == "generic") out.domain = Domain::Generic;
        else throw Error("fault spec: unknown domain '" + val + "'");
      } else {
        throw Error("fault spec: unknown option '" + key + "'");
      }
    } catch (const std::invalid_argument&) {
      throw Error("fault spec: bad value for '" + key + "': " + val);
    } catch (const std::out_of_range&) {
      throw Error("fault spec: bad value for '" + key + "': " + val);
    }
  }
  if (out.skip < 0 || out.frac < 0.0 || out.frac > 1.0 || out.delay_ms < 0)
    throw Error("fault spec: option out of range");
  return out;
}

void arm_from_spec(const std::string& spec) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos || eq == 0)
    throw Error("fault spec: expected point=action[:options], got '" + spec + "'");
  arm(spec.substr(0, eq), parse_fault_spec(spec.substr(eq + 1)));
}

const std::vector<PointInfo>& catalog() {
  // Keep in sync with the AC_FAULT/AC_FAULT_IO sites; test_fuzz arms each
  // entry and asserts it actually fires on its layer's hot path.
  static const std::vector<PointInfo> points = {
      {"ckpt.writeback.encode", "engine.cpp persist(): before record encode"},
      {"ckpt.writeback.pre_rename",
       "engine.cpp write_log(): rotation, after the temp log's fdatasync, before rename"},
      {"ckpt.writeback.post_rename",
       "engine.cpp write_log(): rotation, after rename, before the dir fsync"},
      {"ckpt.writeback.l2", "engine.cpp persist(): before the L2 partner write"},
      {"ckpt.writeback.l3_append", "engine.cpp persist(): before the L3 archive append"},
      {"ckpt.writeback.sync", "engine.cpp append_frame(): after the write, before its fdatasync"},
      {"ckpt.archive.append",
       "engine.cpp append_frame(): write byte count, every level's log (short-write site)"},
      {"ckpt.recover.local", "engine.cpp recover(): before the walk reads the local log"},
      {"fs.sync_dir", "mctb.cpp fsync_parent_dir(): before the directory fsync"},
      {"mctb.encode.section", "mctb.cpp encode_container(): per encoded section, all sinks"},
      {"mctb.stream.encode_section",
       "mctb.cpp encode_container(): per section on the streaming file-writer path"},
      {"mctb.decode.section", "mctb.cpp decode_payload(): per decoded section"},
      {"mctb.stream.decode_slot",
       "mctb.cpp read_mctb(): per chunk slot of the decode"},
      {"exec.chunk.claim", "executor.cpp run_chunks(): after a worker claims a chunk"},
      {"net.write", "socket.cpp write_all(): before the send loop"},
      {"net.read", "socket.cpp read_some(): before the poll/recv"},
      {"net.server.render", "server.cpp conn_worker(): before report render"},
  };
  return points;
}

namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    auto end = s.find(',', pos);
    if (end == std::string::npos) end = s.size();
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

std::mutex g_weak_mu;
std::atomic<bool> g_any_weak{false};
std::vector<std::string>& weak_names() {
  static std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>();
    if (const char* env = std::getenv("AC_FUZZ_WEAKEN")) *v = split_commas(env);
    g_any_weak.store(!v->empty(), std::memory_order_relaxed);
    return v;
  }();
  return *names;
}

}  // namespace

bool weakened(const char* check) {
  std::lock_guard<std::mutex> lk(g_weak_mu);
  if (!g_any_weak.load(std::memory_order_relaxed)) {
    weak_names();  // first call: pick up AC_FUZZ_WEAKEN
    if (!g_any_weak.load(std::memory_order_relaxed)) return false;
  }
  for (const auto& n : weak_names())
    if (n == check) return true;
  return false;
}

void set_weakened(const std::string& comma_separated) {
  std::lock_guard<std::mutex> lk(g_weak_mu);
  weak_names() = split_commas(comma_separated);
  g_any_weak.store(!weak_names().empty(), std::memory_order_relaxed);
}

}  // namespace ac::fault
