// acd — the AutoCheck analysis daemon. Listens for ACNP connections
// (net/protocol.hpp), runs one streaming analysis session per client on a
// thread of its own, and serves reports/metrics over the socket. Loopback
// quickstart:
//
//   acd --listen 127.0.0.1:0 --port-file /tmp/acd.port &
//   autocheck app.trace --connect 127.0.0.1:$(cat /tmp/acd.port) \
//       --function main --begin 17 --end 25 --json
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/server.hpp"
#include "net/socket.hpp"
#include "support/file.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"

namespace {

ac::net::Server* g_server = nullptr;

// Async-signal-safe: request_stop is an atomic store plus a pipe write.
void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int usage() {
  std::fprintf(stderr,
               "usage: acd [options]\n"
               "\n"
               "AutoCheck analysis daemon: accepts ACNP clients (autocheck --connect,\n"
               "RemoteSink) and serves critical-variable reports over the socket. Each\n"
               "connection is served by a thread of its own; a client that sends faster\n"
               "than its thread reads is held back by TCP flow control.\n"
               "\n"
               "  --listen HOST:PORT   listen address (default 127.0.0.1:7433; port 0 =\n"
               "                       ephemeral, see --port-file)\n"
               "  --port-file PATH     write the bound port to PATH once listening\n"
               "  --idle-timeout MS    drop a connection that sends nothing for MS ms\n"
               "                       while the daemon waits for it; 0 disables\n"
               "                       (default 300000)\n"
               "  --drain-timeout MS   on SIGTERM/SIGINT, wait up to MS ms for in-flight\n"
               "                       requests before closing sockets; 0 waits without a\n"
               "                       deadline (default 10000)\n"
               "  --max-frame-mb N     per-frame payload cap in MiB (default 256)\n"
               "  --metrics-dump [P]   on shutdown, write MetricsRegistry JSON to P\n"
               "                       (default stdout)\n"
               "  --profile PATH       enable telemetry; write Chrome trace on shutdown\n"
               "  --quiet              no startup/shutdown banner\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ac::net::ignore_sigpipe();

  std::string listen_spec = "127.0.0.1:7433";
  std::string port_file;
  std::string metrics_dump;
  std::string profile_path;
  bool want_metrics_dump = false;
  bool quiet = false;
  ac::net::ServerOptions opts;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "acd: %s expects a value\n", arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--listen") {
        listen_spec = next();
      } else if (arg == "--port-file") {
        port_file = next();
      } else if (arg == "--idle-timeout") {
        opts.idle_timeout_ms = ac::parse_int_arg(arg, next(), 0);
      } else if (arg == "--drain-timeout") {
        opts.drain_timeout_ms = ac::parse_int_arg(arg, next(), 0);
      } else if (arg == "--max-frame-mb") {
        opts.max_frame_bytes = static_cast<std::uint64_t>(ac::parse_int_arg(arg, next(), 1)) << 20;
      } else if (arg == "--metrics-dump") {
        want_metrics_dump = true;
        if (i + 1 < argc && argv[i + 1][0] != '-') metrics_dump = argv[++i];
      } else if (arg == "--profile") {
        profile_path = next();
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        std::fprintf(stderr, "acd: unknown option '%s'\n", arg.c_str());
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acd: %s\n", e.what());
    return 2;
  }

  try {
    const ac::net::HostPort hp = ac::net::parse_host_port(listen_spec);
    opts.host = hp.host.empty() ? "127.0.0.1" : hp.host;
    opts.port = hp.port;

    if (!profile_path.empty()) ac::telemetry::telemetry().enable();

    ac::net::Server server(opts);
    g_server = &server;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_signal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    if (!port_file.empty()) {
      ac::write_file(port_file, ac::strf("%u\n", static_cast<unsigned>(server.port())));
    }
    if (!quiet) {
      std::fprintf(stderr, "acd: listening on %s:%u\n", opts.host.c_str(),
                   static_cast<unsigned>(server.port()));
    }

    server.run();
    g_server = nullptr;

    if (!quiet) {
      std::fprintf(stderr, "acd: shutting down (%llu connections, %llu reports served)\n",
                   static_cast<unsigned long long>(server.connections_accepted()),
                   static_cast<unsigned long long>(server.reports_served()));
    }
    if (want_metrics_dump) {
      if (metrics_dump.empty() || metrics_dump == "-") {
        const std::string json = ac::telemetry::metrics().to_json();
        std::fwrite(json.data(), 1, json.size(), stdout);
      } else {
        ac::telemetry::metrics().write_json(metrics_dump);
      }
    }
    if (!profile_path.empty()) {
      ac::telemetry::telemetry().write_chrome_trace(profile_path);
      if (!quiet) std::fprintf(stderr, "acd: wrote profile to %s\n", profile_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acd: %s\n", e.what());
    return 1;
  }
  return 0;
}
