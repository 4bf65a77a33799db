#include "analysis/autocheck.hpp"

#include "support/json.hpp"
#include "support/strings.hpp"

namespace ac::analysis {

std::vector<std::string> Report::critical_names() const {
  std::vector<std::string> out;
  for (const auto& cv : verdicts.critical) out.push_back(cv.name);
  return out;
}

const CriticalVar* Report::find_critical(const std::string& name) const {
  for (const auto& cv : verdicts.critical) {
    if (cv.name == name) return &cv;
  }
  return nullptr;
}

std::string Report::render() const {
  std::string out;
  out += strf("MCL region: %s lines %d-%d, %d iterations observed\n", region.function.c_str(),
              region.begin_line, region.end_line, dep.iterations);
  out += "MLI variables:";
  for (const auto& m : pre.mli) out += " " + m.name;
  out += "\nCritical variables:\n";
  for (const auto& cv : verdicts.critical) {
    out += strf("  %-24s %-8s (decl line %d, %llu bytes)\n", cv.name.c_str(),
                dep_type_name(cv.type), cv.decl_line,
                static_cast<unsigned long long>(cv.bytes));
    if (!cv.reason.empty()) out += strf("    why: %s\n", cv.reason.c_str());
  }
  out += strf("Timings: pre-processing %.4fs, dependency analysis %.4fs, identify %.4fs\n",
              timings.preprocessing, timings.dep_analysis, timings.identify);
  return out;
}

std::string Report::to_json(bool with_timings) const {
  // Emitted through the shared JsonWriter: unlike the emitter this replaces,
  // every symbol name and reason string gets full json_escape() treatment
  // (control characters included, not just quote/backslash).
  std::string out;
  JsonWriter w(&out);
  w.begin_object();

  w.key("region").begin_object();
  w.field("function", region.function);
  w.field("begin_line", region.begin_line);
  w.field("end_line", region.end_line);
  w.end_object();

  w.key("mli").begin_array();
  for (const auto& m : pre.mli) w.value(m.name);
  w.end_array();

  w.key("critical").begin_array();
  for (const CriticalVar& cv : verdicts.critical) {
    w.begin_object();
    w.field("name", cv.name);
    w.field("type", dep_type_name(cv.type));
    w.field("decl_line", cv.decl_line);
    w.field("bytes", cv.bytes);
    w.field("reason", cv.reason);
    w.end_object();
  }
  w.end_array();

  w.key("stats").begin_object();
  w.field("records", pre.records_scanned);
  w.field("iterations", dep.iterations);
  w.field("stores", dep.stores_seen);
  w.field("pointer_assignments", dep.pointer_assignments);
  w.field("events", static_cast<std::uint64_t>(dep.events.size()));
  w.end_object();

  if (with_timings) {
    // Keep the historical fixed-point "%.6f" second format for timings.
    w.key("timings").begin_object();
    w.raw_field("preprocessing", strf("%.6f", timings.preprocessing));
    w.raw_field("dep_analysis", strf("%.6f", timings.dep_analysis));
    w.raw_field("identify", strf("%.6f", timings.identify));
    w.raw_field("total", strf("%.6f", timings.total()));
    w.end_object();
  }

  w.end_object();
  out += '\n';
  return out;
}

std::string Report::render_events(std::size_t max_events) const {
  std::string out;
  std::size_t n = 0;
  for (const auto& ev : dep.events) {
    if (n >= max_events) {
      out += "...";
      break;
    }
    const VarDef& def = pre.vars.def(ev.var);
    out += strf("%zu: %s-%s; ", n + 1, def.name.c_str(), ev.is_write ? "Write" : "Read");
    ++n;
  }
  return out;
}

}  // namespace ac::analysis
