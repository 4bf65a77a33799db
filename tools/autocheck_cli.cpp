// The AutoCheck command-line tool — the paper's user-facing workflow:
//
//   autocheck <trace-file> --function <name> --begin <line> --end <line>
//             [--threads <n>] [--paper-mli] [--dot <out.dot>]
//             [--events <n>] [--json] [--emit-protect] [--ckpt-codec SPEC]
//
// Input: a dynamic instruction execution trace in the LLVM-Tracer block
// format (generate one with `minicc <prog.mc> --trace <file>`), plus the main
// computation loop's host function and source-line range.
// Output: the variables to checkpoint with their dependency types, their
// declaration lines, and the per-phase analysis cost (paper Table III).
//
// The tool is a thin shell over analysis::Session: one FileSource feeds every
// mode (--suggest included), and the output modes are ReportSinks.
// --threads N > 1 parallelizes the trace read (§V-A); the analysis after it
// is sequential.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include <vector>

#include "analysis/loopfinder.hpp"
#include "analysis/session.hpp"
#include "ckpt/codec.hpp"
#include "fuzz/campaign.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "trace/mctb.hpp"
#include "trace/source.hpp"
#include "trace/writer.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: autocheck <trace-file> --function <name> --begin <line> --end <line>\n"
               "                 [--threads <n>] [--paper-mli] [--dot <out.dot>]\n"
               "                 [--events <n>] [--json] [--emit-protect] [--ckpt-codec SPEC]\n"
               "       autocheck <trace-file> --suggest     # rank candidate main loops\n"
               "       autocheck <trace-file> --recode <out> [--trace-format text|mctb]\n"
               "                 [--trace-codec SPEC] [--threads <n>]\n"
               "  input trace files may be LLVM-Tracer text or binary MCTB (auto-detected)\n"
               "  --recode OUT        convert the trace to OUT in --trace-format (default\n"
               "                      mctb) and print the size ratio\n"
               "  --trace-codec SPEC  MCTB section codec chain: raw | rle | lz | rle+lz\n"
               "                      (default rle+lz)\n"
               "  --ckpt-codec SPEC   checkpoint payload codec chain for the --emit-protect\n"
               "                      snippet: raw | rle | lz | xor+rle | chain (= xor+rle+lz)\n"
               "  --profile OUT.json  record telemetry spans and write a Chrome trace-event\n"
               "                      profile (chrome://tracing / Perfetto)\n"
               "  --metrics OUT.json  write the flat metrics registry JSON\n"
               "  --connect HOST:PORT stream the trace to an acd analysis daemon and print\n"
               "                      the report it serves instead of analyzing locally\n"
               "  --connect-timeout-ms MS  bound each TCP connect attempt (default 10000)\n"
               "  --connect-retries N      extra connect attempts with exponential backoff\n"
               "                      (default 0; rides out a daemon still starting)\n"
               "  --no-timings        omit the timings object from --json output\n"
               "                      (deterministic bytes for diffing)\n"
               "       autocheck --fuzz-campaign [--budget 45s|N] [--seed S] [--corpus DIR]\n"
               "                 [--apps CSV] [--kinds mctb,ckpt,frame,crash] [--codecs CSV]\n"
               "                 [--replay FILE] [--replay-corpus DIR] [--list-fault-points]\n"
               "                 [--timeout MS] [--no-shrink] [-v]\n"
               "                      fault-injection / byte-mutation campaign over the\n"
               "                      ckpt/MCTB/net stack (see src/fuzz/campaign.hpp)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A dying pipe reader (autocheck ... | head) or daemon must surface as a
  // write error, never kill the process.
  ac::net::ignore_sigpipe();
  if (argc < 2) return usage();
  if (std::string(argv[1]) == "--fuzz-campaign") {
    try {
      return ac::fuzz::fuzz_main(std::vector<std::string>(argv + 2, argv + argc));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "autocheck: %s\n", e.what());
      return 2;
    }
  }
  std::string trace_path = argv[1];
  ac::analysis::MclRegion region;
  ac::analysis::AnalysisOptions opts;
  ac::net::HostPort connect_to;
  ac::net::RemoteSinkOptions connect_opts;
  bool connect = false;
  bool with_timings = true;
  std::string dot_path;
  int show_events = 0;
  bool suggest = false;
  bool json = false;
  bool emit_protect = false;
  std::string ckpt_codec;
  std::string recode_path;
  std::string profile_path;
  std::string metrics_path;
  ac::trace::TraceFormat recode_format = ac::trace::TraceFormat::Mctb;
  ac::trace::MctbOptions mctb_opts;

  // Every bad option value (numbers, formats, codecs, HOST:PORT) is an
  // ac::Error naming the flag; it exits 2.
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--function") {
        region.function = next();
      } else if (arg == "--begin") {
        region.begin_line = ac::parse_int_arg(arg, next(), 1);
      } else if (arg == "--end") {
        region.end_line = ac::parse_int_arg(arg, next(), 1);
      } else if (arg == "--threads") {
        opts.threads = ac::parse_int_arg(arg, next(), 1);
      } else if (arg == "--paper-mli") {
        opts.mli_mode = ac::analysis::MliMode::PaperNameMatch;
      } else if (arg == "--dot") {
        dot_path = next();
      } else if (arg == "--events") {
        show_events = ac::parse_int_arg(arg, next(), 0);  // 0 = suppress the event dump
      } else if (arg == "--suggest") {
        suggest = true;
      } else if (arg == "--json") {
        json = true;
      } else if (arg == "--emit-protect") {
        emit_protect = true;
      } else if (arg == "--recode") {
        recode_path = next();
      } else if (arg == "--trace-format") {
        recode_format = ac::trace::parse_trace_format(next());
      } else if (arg == "--trace-codec") {
        mctb_opts.codec = ac::CodecChain::parse(next());
      } else if (arg == "--connect") {
        // Checked HOST:PORT parse: trailing garbage ('8080x'), out-of-range or
        // negative ports are hard errors, same discipline as parse_int_arg.
        connect_to = ac::net::parse_host_port(next());
        if (connect_to.host.empty()) connect_to.host = "127.0.0.1";
        connect = true;
      } else if (arg == "--connect-timeout-ms") {
        connect_opts.connect_timeout_ms = ac::parse_int_arg(arg, next(), 1);
      } else if (arg == "--connect-retries") {
        connect_opts.connect_retries = ac::parse_int_arg(arg, next(), 0);
      } else if (arg == "--no-timings") {
        with_timings = false;
      } else if (arg == "--profile") {
        profile_path = next();
      } else if (arg == "--metrics") {
        metrics_path = next();
      } else if (arg == "--ckpt-codec") {
        ckpt_codec = next();
        ac::CodecChain::parse(ckpt_codec);  // validate before emitting
      } else {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "autocheck: %s\n", e.what());
    return 2;
  }

  if (!profile_path.empty() || !metrics_path.empty()) {
    opts.telemetry = true;
    ac::telemetry::telemetry().enable();
  }
  const auto export_telemetry = [&] {
    if (!profile_path.empty()) {
      ac::telemetry::telemetry().write_chrome_trace(profile_path);
      std::fprintf(stderr, "telemetry profile written to %s\n", profile_path.c_str());
    }
    if (!metrics_path.empty()) {
      ac::telemetry::metrics().write_json(metrics_path);
      std::fprintf(stderr, "metrics written to %s\n", metrics_path.c_str());
    }
  };

  try {
    // One source serves every mode; the read (serial or parallel mmap parse)
    // happens exactly once.
    auto source = std::make_shared<ac::trace::FileSource>(trace_path);
    source->set_read_threads(opts.threads);

    if (!recode_path.empty()) {
      // Trace conversion: materialize the interned buffer (text parse or MCTB
      // decode, auto-detected) and serialize it back in the requested format.
      const ac::trace::TraceBuffer& buf = source->buffer();
      std::uint64_t out_bytes = 0;
      if (recode_format == ac::trace::TraceFormat::Mctb) {
        ac::trace::write_mctb_file(buf, recode_path, mctb_opts);
        struct stat st{};
        if (::stat(recode_path.c_str(), &st) == 0) {
          out_bytes = static_cast<std::uint64_t>(st.st_size);
        }
      } else {
        ac::trace::FileSink sink(recode_path);
        // Stream record views through the sink's batch buffer; no owning
        // TraceRecord representation of the trace is ever built.
        for (std::size_t i = 0; i < buf.size(); ++i) sink.append(buf.view(i));
        sink.close();
        out_bytes = sink.bytes();
      }
      struct stat in_st{};
      const std::uint64_t in_bytes =
          ::stat(trace_path.c_str(), &in_st) == 0 ? static_cast<std::uint64_t>(in_st.st_size)
                                                  : 0;
      std::printf("recoded %llu records: %s (%s, %s) -> %s (%s, %s)%s\n",
                  static_cast<unsigned long long>(buf.size()), trace_path.c_str(),
                  source->format(), ac::human_bytes(in_bytes).c_str(), recode_path.c_str(),
                  ac::trace::trace_format_name(recode_format),
                  ac::human_bytes(out_bytes).c_str(),
                  in_bytes && out_bytes
                      ? ac::strf(" (%.2fx %s)",
                                 out_bytes < in_bytes
                                     ? static_cast<double>(in_bytes) /
                                           static_cast<double>(out_bytes)
                                     : static_cast<double>(out_bytes) /
                                           static_cast<double>(in_bytes),
                                 out_bytes < in_bytes ? "smaller" : "larger")
                            .c_str()
                      : "");
      export_telemetry();
      return 0;
    }

    if (suggest) {
      // The interned buffer feeds the suggestion scan directly — no owning
      // TraceRecord materialization for --suggest either.
      const auto candidates = ac::analysis::suggest_loops(source->buffer());
      std::printf("%s", ac::analysis::render_suggestions(candidates).c_str());
      export_telemetry();
      return 0;
    }
    if (region.begin_line <= 0 || region.end_line < region.begin_line) return usage();

    if (connect) {
      // Thin-client mode: stream the local trace to the daemon and print the
      // report it serves. Rendering happens server-side, so the local-only
      // output modes don't compose.
      if (emit_protect || !dot_path.empty() || show_events > 0) {
        std::fprintf(stderr,
                     "autocheck: --emit-protect/--dot/--events are local output modes and do "
                     "not combine with --connect\n");
        return 2;
      }
      AC_SPAN("net.thin_client");
      ac::net::RemoteSink remote(connect_to.host, connect_to.port, connect_opts);
      const ac::trace::TraceBuffer& buf = source->buffer();
      for (std::size_t i = 0; i < buf.size(); ++i) remote.append(buf.view(i));
      ac::net::ReportSpec spec;
      spec.region = region;
      spec.mli_mode = opts.mli_mode;
      spec.with_timings = with_timings;
      spec.format = json ? ac::net::ReportFormat::Json : ac::net::ReportFormat::Text;
      const std::string body = remote.fetch_report(spec);
      std::fwrite(body.data(), 1, body.size(), stdout);
      remote.close();
      export_telemetry();
      return 0;
    }

    ac::analysis::Session session;
    session.source(source).region(region).options(opts);
    if (emit_protect) {
      auto sink = std::make_shared<ac::analysis::ProtectSink>(stdout);
      if (!ckpt_codec.empty()) sink->codec_spec(ckpt_codec);
      session.sink(sink);
    } else if (json) {
      auto sink = std::make_shared<ac::analysis::JsonSink>(stdout);
      sink->with_timings(with_timings);
      session.sink(std::move(sink));
    } else {
      session.sink(std::make_shared<ac::analysis::TextSink>(stdout));
    }
    if (!dot_path.empty()) session.sink(std::make_shared<ac::analysis::DotSink>(dot_path));

    const ac::analysis::Report report = session.run();
    if (show_events > 0) {
      std::printf("\nR/W dependency sequence (first %d events):\n%s\n", show_events,
                  report.render_events(static_cast<std::size_t>(show_events)).c_str());
    }
    if (!dot_path.empty()) {
      std::printf("contracted DDG written to %s\n", dot_path.c_str());
    }
    export_telemetry();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "autocheck: %s\n", e.what());
    return 1;
  }
  return 0;
}
