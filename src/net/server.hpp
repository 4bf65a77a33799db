// The acd analysis daemon core: accept concurrent tracing clients and run
// each connection's streaming analysis session on a thread of its own.
//
// Threading model — one accept thread, one worker per connection:
//
//   accept thread      polls only the listen socket and a wake pipe; accepts
//                      each client, starts its worker, and joins workers that
//                      have finished.
//   conn worker        reads and writes its own socket through a FrameStream:
//                      validates the handshake, then drives a RemoteSource
//                      that decodes + merges each chunk as it is read, and
//                      runs an analysis::Session over the accumulated buffer
//                      for each ReportRequest — the exact local pipeline, so
//                      verdicts are bit-identical to analyzing the same
//                      records from a file.
//
// Backpressure is TCP's own: a worker that is not reading (it is decoding or
// analyzing) leaves bytes in the kernel receive buffer, the TCP window
// closes, and the client stalls instead of growing daemon memory.
//
// Failure containment: malformed frames or a corrupt MCTB chunk surface as
// ProtocolError/TraceFormatError in that connection's worker, which sends a
// best-effort Error frame and tears the connection down; the daemon and every
// other connection keep running. Analysis errors (e.g. a region that never
// executes) are answered with an Error frame without dropping the connection.
// A worker whose read waits longer than ServerOptions::idle_timeout_ms gets
// the same treatment.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace ac::net {

struct ServerOptions {
  /// Listen address; port 0 binds an ephemeral port (see Server::port()).
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Per-frame payload cap enforced at header-parse time.
  std::uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Drop a connection whose worker waits this long for its next bytes (a
  /// report being computed does not count); <= 0 disables.
  int idle_timeout_ms = 300000;
  /// Graceful-drain bound on shutdown: workers get this long to finish the
  /// frames already sent and answer pending ReportRequests before their
  /// sockets are force-shut (SHUT_RDWR, so blocked peers fail fast instead of
  /// hanging the exit). <= 0 waits for the drain without a deadline.
  int drain_timeout_ms = 10000;
};

class Server {
 public:
  /// Binds + listens immediately (throws ProtocolError), so port() is valid
  /// before run()/start().
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves port 0).
  std::uint16_t port() const { return bound_port_; }

  /// Blocking accept loop; returns after stop(). Call from main() (acd) or
  /// via start() for an in-process daemon (tests, bench_net).
  void run();

  /// run() on a background thread.
  void start();

  /// Signal shutdown and join: stops accepting, lets every worker finish the
  /// frames already sent and an in-flight report, then closes all
  /// connections. Idempotent.
  void stop();

  /// Async-signal-safe shutdown request (atomic store + pipe write, no
  /// locks/joins) — what acd's SIGINT/SIGTERM handlers call; the blocked
  /// run() then returns and main() finishes the teardown.
  void request_stop();

  std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t reports_served() const {
    return reports_served_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;

  void accept_ready();
  void reap_done(bool join_all);
  void wake();
  void conn_worker(Conn& c);
  std::string render_report(const std::shared_ptr<class RemoteSource>& src,
                            const ReportSpec& spec);

  ServerOptions opts_;
  Socket listen_sock_;
  std::uint16_t bound_port_ = 0;
  int wake_rd_ = -1, wake_wr_ = -1;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  bool thread_started_ = false;

  std::list<std::unique_ptr<Conn>> conns_;  // accept-thread owned
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> reports_served_{0};
};

}  // namespace ac::net
