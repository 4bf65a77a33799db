#include "net/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "analysis/session.hpp"
#include "net/remote.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"

namespace ac::net {

using Clock = std::chrono::steady_clock;

/// One accepted client. The worker owns all I/O on the socket; the accept
/// thread only shuts it down during a drain, and closes it after the join.
struct Server::Conn {
  Socket sock;
  std::atomic<bool> done{false};  // worker finished; safe to join + reap
  std::thread worker;
};

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  ignore_sigpipe();
  listen_sock_ = listen_tcp(opts_.host, opts_.port, /*backlog=*/64, &bound_port_);
  set_nonblocking(listen_sock_.fd(), true);
  int fds[2];
  if (::pipe(fds) != 0) {
    throw ProtocolError(strf("pipe: %s", std::strerror(errno)));
  }
  wake_rd_ = fds[0];
  wake_wr_ = fds[1];
  set_nonblocking(wake_rd_, true);
  set_nonblocking(wake_wr_, true);
}

Server::~Server() {
  try {
    stop();
  } catch (...) {
  }
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

void Server::wake() {
  const char byte = 1;
  // Non-blocking and best-effort: a full pipe already guarantees a wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &byte, 1);
}

void Server::start() {
  thread_ = std::thread([this] { run(); });
  thread_started_ = true;
}

void Server::request_stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

void Server::stop() {
  request_stop();
  if (thread_started_ && thread_.joinable()) thread_.join();
  thread_started_ = false;
}

void Server::run() {
  AC_SPAN("net.server.run");
  // The wake pipe signals a stop request or a finished worker to reap.
  pollfd pfds[2] = {{wake_rd_, POLLIN, 0}, {listen_sock_.fd(), POLLIN, 0}};
  while (!stop_.load(std::memory_order_acquire)) {
    const int rc = ::poll(pfds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(strf("poll: %s", std::strerror(errno)));
    }
    if (pfds[0].revents != 0) {
      char drain[256];
      while (::read(wake_rd_, drain, sizeof drain) > 0) {
      }
    }
    if (pfds[1].revents != 0) accept_ready();
    reap_done(/*join_all=*/false);
  }

  // Graceful drain: stop accepting, close the inbound side of every
  // connection (a worker waiting for bytes then reads EOF), and let each
  // worker answer a ReportRequest it is already serving. Past
  // drain_timeout_ms, force-shutdown lingering sockets so a worker blocked
  // on a dead peer's TCP window fails fast instead of wedging the exit. (A
  // worker mid-analysis still completes its compute — threads are joined,
  // never cancelled.)
  listen_sock_.close();
  for (auto& up : conns_) ::shutdown(up->sock.fd(), SHUT_RD);
  if (opts_.drain_timeout_ms > 0) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(opts_.drain_timeout_ms);
    bool all_done = false;
    while (!all_done && Clock::now() < deadline) {
      all_done = true;
      for (auto& up : conns_) {
        if (!up->done.load(std::memory_order_acquire)) {
          all_done = false;
          break;
        }
      }
      if (!all_done) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (auto& up : conns_) {
      if (!up->done.load(std::memory_order_acquire)) ::shutdown(up->sock.fd(), SHUT_RDWR);
    }
  }
  reap_done(/*join_all=*/true);
}

void Server::accept_ready() {
  for (;;) {
    // The accepted fd is blocking (O_NONBLOCK is not inherited): its worker
    // waits in FrameStream reads and writes.
    const int fd = ::accept(listen_sock_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN = drained the backlog; anything else is transient — a failed
      // accept must never take the daemon down.
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto conn = std::make_unique<Conn>();
    conn->sock = Socket(fd);

    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    static auto& accepted = telemetry::metrics().counter("net.server.connections");
    accepted.add(1);

    Conn& ref = *conn;
    conns_.push_back(std::move(conn));
    ref.worker = std::thread([this, &ref] { conn_worker(ref); });
  }
}

void Server::reap_done(bool join_all) {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& c = **it;
    if (join_all || c.done.load(std::memory_order_acquire)) {
      if (c.worker.joinable()) c.worker.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::conn_worker(Conn& c) {
  AC_SPAN("net.connection");
  FrameStream stream(c.sock.fd(), opts_.max_frame_bytes,
                     opts_.idle_timeout_ms > 0 ? opts_.idle_timeout_ms : -1);
  try {
    std::optional<Frame> first = stream.next();
    if (first) {
      if (first->type != FrameType::Hello) {
        throw ProtocolError(
            strf("expected Hello frame, got %s", frame_type_name(first->type)));
      }
      Hello::decode(first->payload);  // throws on a bad magic or version
      stream.send(FrameType::HelloAck, Hello{}.encode());

      auto src = std::make_shared<RemoteSource>(stream);
      while (std::optional<ReportSpec> spec = src->wait_request()) {
        std::string body;
        try {
          body = render_report(src, *spec);
        } catch (const ProtocolError&) {
          throw;
        } catch (const Error& e) {
          // Analysis failures (e.g. a region the trace never enters) are the
          // request's problem, not the connection's: answer and keep serving.
          stream.send(FrameType::Error, e.what());
          continue;
        }
        // Count before the send: an observer who has received the report
        // must already see it in reports_served().
        reports_served_.fetch_add(1, std::memory_order_relaxed);
        static auto& reports = telemetry::metrics().counter("net.server.reports");
        reports.add(1);
        stream.send(FrameType::Report, body);
      }
    }
  } catch (const std::exception& e) {
    static auto& errors = telemetry::metrics().counter("net.server.conn_errors");
    errors.add(1);
    try {
      stream.send(FrameType::Error, e.what());
    } catch (...) {
      // The peer may already be gone; the teardown below is all that is left.
    }
  }
  // Unblock the peer but leave the fd open: a draining accept thread may
  // still shut it down, and a closed fd number could already belong to the
  // next accepted client. The Socket destructor closes it after the join in
  // reap_done().
  ::shutdown(c.sock.fd(), SHUT_RDWR);
  c.done.store(true, std::memory_order_release);
  wake();
}

std::string Server::render_report(const std::shared_ptr<RemoteSource>& src,
                                  const ReportSpec& spec) {
  AC_SPAN("net.session");
  AC_FAULT("net.server.render");
  analysis::AnalysisOptions aopts;
  aopts.mli_mode = spec.mli_mode;
  aopts.build_ddg = false;
  const analysis::Report report =
      analysis::Session().source(src).region(spec.region).options(aopts).run();
  return spec.format == ReportFormat::Text ? report.render()
                                           : report.to_json(spec.with_timings);
}

}  // namespace ac::net
