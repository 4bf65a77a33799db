// minicc — compile and run a MiniC program under the tracing VM.
//
//   minicc <prog.mc> [--trace <file>] [--dump-ir] [--mcl-report]
//
// With --trace, the dynamic instruction execution trace (LLVM-Tracer block
// format) is written to <file> — the input `autocheck` consumes. With
// --mcl-report, the //@mcl-begin/--end markers are located and the region
// printed (to be passed to autocheck as --begin/--end).
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/region.hpp"
#include "minic/compiler.hpp"
#include "support/file.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: minicc <prog.mc> [--trace <file>] [--dump-ir] [--mcl-report]\n");
    return 2;
  }
  const std::string source_path = argv[1];
  std::string trace_path;
  bool dump_ir = false;
  bool mcl_report = false;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--dump-ir")) {
      dump_ir = true;
    } else if (!std::strcmp(argv[i], "--mcl-report")) {
      mcl_report = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return 2;
    }
  }

  try {
    const std::string source = ac::read_file_bytes(source_path);
    const ac::ir::Module module = ac::minic::compile(source);
    if (dump_ir) std::printf("%s", ac::ir::print_module(module).c_str());
    if (mcl_report) {
      const auto region = ac::analysis::find_mcl_region(source);
      std::printf("main computation loop: --function %s --begin %d --end %d\n",
                  region.function.c_str(), region.begin_line, region.end_line);
    }

    ac::vm::RunOptions opts;
    std::unique_ptr<ac::trace::FileSink> sink;
    if (!trace_path.empty()) {
      sink = std::make_unique<ac::trace::FileSink>(trace_path);
      opts.sink = sink.get();
    }
    const ac::vm::RunResult result = ac::vm::run_module(module, opts);
    std::fputs(result.output.c_str(), stdout);
    if (sink) {
      sink->close();
      std::fprintf(stderr, "trace: %llu records, %llu bytes -> %s\n",
                   static_cast<unsigned long long>(sink->count()),
                   static_cast<unsigned long long>(sink->bytes()), trace_path.c_str());
    }
    return static_cast<int>(result.exit_code);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "minicc: %s\n", e.what());
    return 1;
  }
}
