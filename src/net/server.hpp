// The acd analysis daemon core: accept many concurrent tracing clients and
// multiplex each connection onto its own streaming analysis session.
//
// Threading model — one poll()-driven I/O thread, one worker per connection:
//
//   poll thread        accepts, reads sockets, slices frames (FrameReader),
//                      pushes them onto the connection's bounded queue. A
//                      full queue deregisters the fd from POLLIN: the kernel
//                      receive buffer fills, the TCP window closes, and the
//                      client stalls — backpressure reaches the producer
//                      instead of growing daemon memory.
//   conn worker        validates the handshake, then drives a RemoteSource
//                      over the queue: chunks decode + merge incrementally as
//                      they arrive (overlapped with network receipt), and
//                      each ReportRequest runs an analysis::Session over the
//                      accumulated buffer — the exact local pipeline, so
//                      verdicts are bit-identical to analyzing the same
//                      records from a file.
//
// Failure containment: malformed frames or a corrupt MCTB chunk surface as
// ProtocolError/TraceFormatError in that connection's worker, which sends a
// best-effort Error frame and tears the connection down; the daemon and every
// other connection keep running. Analysis errors (e.g. a region that never
// executes) are answered with an Error frame without dropping the connection.
// Idle connections are reaped after ServerOptions::idle_timeout_ms.
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
  /// Bounded per-connection frame queue (the backpressure knob): the poll
  /// thread stops reading a connection whose queue is full.
  std::size_t queue_depth = 8;
  /// Per-frame payload cap enforced at header-parse time.
  std::uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Reap a connection with no inbound traffic for this long; <= 0 disables.
  int idle_timeout_ms = 300000;
  /// Graceful-drain bound on shutdown: workers get this long to finish
  /// queued frames and answer pending ReportRequests before their sockets
  /// are force-shut (SHUT_RDWR, so blocked peers fail fast instead of
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

  /// Blocking accept/IO loop; returns after stop(). Call from main() (acd)
  /// or via start() for an in-process daemon (tests, bench_net).
  void run();

  /// run() on a background thread.
  void start();

  /// Signal shutdown and join: stops accepting, lets every worker drain its
  /// queue and finish an in-flight report, then closes all connections.
  /// Idempotent.
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
  class QueueStream;

  void accept_ready();
  void read_ready(Conn& c);
  void fail_conn(Conn& c, const std::string& error);
  void sweep_idle();
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

  std::list<std::unique_ptr<Conn>> conns_;  // poll-thread owned
  std::uint64_t next_conn_id_ = 1;
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> reports_served_{0};
};

}  // namespace ac::net
