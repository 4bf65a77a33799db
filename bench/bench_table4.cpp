// Table IV reproduction: checkpoint storage cost — the BLCR-style full
// machine image versus AutoCheck's selective variable checkpoint (one full
// L1 engine record on disk, as the paper's FTI L1 file), at each benchmark's
// larger Table IV input. Exits 1 unless every benchmark's selective
// checkpoint exists and is smaller than its system-level image.
#include <cstdio>

#include "apps/harness.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

using namespace ac;

int main() {
  std::printf("=== Table IV: storage cost for checkpointing ===\n\n");
  TextTable table({"Name", "BLCR-style full image", "AutoCheck checkpoint", "Ratio"});

  double min_ratio = 1e300;
  std::vector<std::string> not_smaller;
  for (const auto& app : apps::registry()) {
    const apps::AnalysisRun run = apps::analyze_app(app, app.table4_params);
    const apps::StorageResult st =
        apps::measure_storage(app, app.table4_params, run.report.critical_names(), "/tmp");
    const double ratio =
        st.autocheck_bytes ? static_cast<double>(st.blcr_bytes) / st.autocheck_bytes : 0.0;
    min_ratio = std::min(min_ratio, ratio);
    if (st.autocheck_bytes == 0 || st.autocheck_bytes >= st.blcr_bytes) {
      not_smaller.push_back(app.name);
    }
    table.add_row({app.name, human_bytes(st.blcr_bytes), human_bytes(st.autocheck_bytes),
                   strf("%.1fx", ratio)});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("Shape check vs the paper: the selective checkpoint is smaller than the\n"
              "system-level image on every benchmark (paper: up to 7 orders of magnitude\n"
              "on production-size inputs; our inputs are laptop-scale). Min ratio: %.1fx\n",
              min_ratio);
  if (!not_smaller.empty()) {
    std::printf("FAIL: no selective checkpoint smaller than the system-level image on: %s\n",
                join(not_smaller, ", ").c_str());
    return 1;
  }
  return 0;
}
