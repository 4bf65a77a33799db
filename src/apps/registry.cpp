#include "apps/app.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace ac::apps {

std::string App::source(const Params& params) const {
  Params merged = params;
  // Fall back to defaults for knobs the caller did not override.
  for (const auto& kv : default_params) {
    bool present = false;
    for (const auto& given : merged) present = present || given.first == kv.first;
    if (!present) merged.push_back(kv);
  }
  return substitute(source_template, merged);
}

analysis::MclRegion App::mcl() const { return analysis::find_mcl_region(source_template); }

Params App::scaled_params(const Params& base, int scale) const {
  if (scale <= 1) return base;
  Params out = base;
  // Knobs the caller did not pass scale from their defaults.
  for (const auto& kv : default_params) {
    bool present = false;
    for (const auto& given : out) present = present || given.first == kv.first;
    if (!present) out.push_back(kv);
  }
  for (auto& [key, value] : out) {
    bool scalable = false;
    for (const auto& knob : scale_knobs) scalable = scalable || knob == key;
    if (scalable) value = strf("%lld", static_cast<long long>(parse_i64(value)) * scale);
  }
  return out;
}

const std::vector<App>& registry() {
  static const std::vector<App> apps = {
      make_himeno(), make_hpccg(), make_cg(), make_mg(), make_ft(),
      make_sp(), make_ep(), make_is(), make_bt(), make_lu(),
      make_comd(), make_miniamr(), make_amg(), make_hacc(),
  };
  return apps;
}

const App& find_app(const std::string& name) {
  for (const App& app : registry()) {
    if (app.name == name) return app;
  }
  throw Error("unknown benchmark: " + name);
}

}  // namespace ac::apps
