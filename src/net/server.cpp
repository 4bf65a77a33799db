#include "net/server.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>

#include "analysis/session.hpp"
#include "net/remote.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"

namespace ac::net {

using Clock = std::chrono::steady_clock;

/// One accepted client. The poll thread owns the socket's read side and the
/// FrameReader; the worker thread owns everything downstream of the queue
/// (handshake, RemoteSource, Session runs, all writes). `queue`, `rx_closed`
/// and `rx_error` are the only shared state, guarded by `mu`.
struct Server::Conn {
  explicit Conn(std::uint64_t max_frame_bytes) : reader(max_frame_bytes) {}

  std::uint64_t id = 0;
  Socket sock;
  std::string peer;
  FrameReader reader;  // poll thread only

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Frame> queue;
  bool rx_closed = false;   // no more frames will be pushed
  std::string rx_error;     // framing failure to surface to the worker

  std::atomic<bool> done{false};  // worker finished; safe to join + reap
  Clock::time_point last_activity;  // poll thread only
  std::thread worker;
};

/// The daemon-side FrameStream: next() pops the connection's bounded queue
/// (re-arming the poll loop when it transitions from full), send() writes the
/// socket directly from the worker thread.
class Server::QueueStream final : public FrameStream {
 public:
  QueueStream(Server& srv, Conn& conn) : srv_(srv), conn_(conn) {}

  std::optional<Frame> next() override {
    std::unique_lock<std::mutex> lk(conn_.mu);
    conn_.cv.wait(lk, [&] { return !conn_.queue.empty() || conn_.rx_closed; });
    if (!conn_.queue.empty()) {
      const bool was_full = conn_.queue.size() >= srv_.opts_.queue_depth;
      Frame f = std::move(conn_.queue.front());
      conn_.queue.pop_front();
      lk.unlock();
      // Draining a full queue frees backpressure: tell poll() to re-register
      // this fd for POLLIN.
      if (was_full) srv_.wake();
      return f;
    }
    // Closed and drained. A framing error still waits here so every frame
    // parsed *before* the malformed bytes gets processed first.
    if (!conn_.rx_error.empty()) throw ProtocolError(conn_.rx_error);
    return std::nullopt;
  }

  void send(FrameType type, std::string_view payload) override {
    const std::string frame = encode_frame(type, payload);
    write_all(conn_.sock.fd(), frame.data(), frame.size());
  }

 private:
  Server& srv_;
  Conn& conn_;
};

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  ignore_sigpipe();
  if (opts_.queue_depth == 0) opts_.queue_depth = 1;
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
  std::vector<pollfd> pfds;
  std::vector<Conn*> pconns;
  while (!stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    pconns.clear();
    pfds.push_back({wake_rd_, POLLIN, 0});
    pfds.push_back({listen_sock_.fd(), POLLIN, 0});
    for (auto& up : conns_) {
      Conn& c = *up;
      if (c.done.load(std::memory_order_acquire)) continue;
      bool want_read;
      {
        std::lock_guard<std::mutex> lk(c.mu);
        // Backpressure: a full queue keeps the fd out of the poll set, the
        // kernel receive buffer fills, and TCP stalls the sender.
        want_read = !c.rx_closed && c.queue.size() < opts_.queue_depth;
      }
      if (want_read) {
        pfds.push_back({c.sock.fd(), POLLIN, 0});
        pconns.push_back(&c);
      }
    }
    const int timeout_ms = opts_.idle_timeout_ms > 0 ? 1000 : -1;
    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
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
    for (std::size_t i = 2; i < pfds.size(); ++i) {
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_ready(*pconns[i - 2]);
    }
    sweep_idle();
    reap_done(/*join_all=*/false);
  }

  // Graceful drain: stop accepting, close the inbound side of every
  // connection, and let each worker finish its queued frames and answer any
  // pending ReportRequest. Past drain_timeout_ms, force-shutdown lingering
  // sockets so a worker blocked on a dead peer's TCP window fails fast
  // instead of wedging the exit. (A worker mid-analysis still completes its
  // compute — threads are joined, never cancelled.)
  listen_sock_.close();
  for (auto& up : conns_) {
    ::shutdown(up->sock.fd(), SHUT_RD);
    std::lock_guard<std::mutex> lk(up->mu);
    up->rx_closed = true;
    up->cv.notify_all();
  }
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
    sockaddr_storage ss{};
    socklen_t slen = sizeof ss;
    const int fd = ::accept(listen_sock_.fd(), reinterpret_cast<sockaddr*>(&ss), &slen);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN = drained the backlog; anything else is transient — a failed
      // accept must never take the daemon down.
      return;
    }
    set_nonblocking(fd, true);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto conn = std::make_unique<Conn>(opts_.max_frame_bytes);
    conn->sock = Socket(fd);
    conn->id = next_conn_id_++;
    char host[NI_MAXHOST] = "?";
    char serv[NI_MAXSERV] = "?";
    ::getnameinfo(reinterpret_cast<sockaddr*>(&ss), slen, host, sizeof host, serv, sizeof serv,
                  NI_NUMERICHOST | NI_NUMERICSERV);
    conn->peer = strf("%s:%s#%llu", host, serv, static_cast<unsigned long long>(conn->id));
    conn->last_activity = Clock::now();

    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    static auto& accepted = telemetry::metrics().counter("net.server.connections");
    accepted.add(1);

    Conn& ref = *conn;
    conns_.push_back(std::move(conn));
    ref.worker = std::thread([this, &ref] { conn_worker(ref); });
  }
}

void Server::read_ready(Conn& c) {
  char buf[64 << 10];
  bool progressed = false;
  // Cap the reads per wakeup so one fast client cannot starve the others.
  for (int budget = 4; budget > 0;) {
    {
      // Backpressure gates the *recv*, never the parse: every complete frame
      // already buffered must reach the queue now, because a client that has
      // finished sending (and is waiting for our reply) will never trigger
      // another POLLIN to flush reader leftovers. The queue may transiently
      // exceed depth by one read's worth of frames — still bounded.
      std::lock_guard<std::mutex> lk(c.mu);
      if (c.queue.size() >= opts_.queue_depth) break;
    }
    const ssize_t n = ::recv(c.sock.fd(), buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      fail_conn(c, strf("recv from %s: %s", c.peer.c_str(), std::strerror(errno)));
      return;
    }
    if (n == 0) {
      // EOF. Bytes stuck mid-frame make it a tear, not an orderly close.
      std::lock_guard<std::mutex> lk(c.mu);
      if (c.reader.buffered() > 0 && c.rx_error.empty()) {
        c.rx_error = strf("peer hung up mid-frame (%zu bytes buffered)", c.reader.buffered());
      }
      c.rx_closed = true;
      c.cv.notify_all();
      return;
    }
    --budget;
    progressed = true;
    c.reader.feed(buf, static_cast<std::size_t>(n));
    try {
      while (auto f = c.reader.next()) {
        std::lock_guard<std::mutex> lk(c.mu);
        c.queue.push_back(std::move(*f));
        c.cv.notify_one();
      }
    } catch (const ProtocolError& e) {
      // Malformed header (unknown type, oversize length): relay via the
      // worker, which sends the Error frame and tears the connection down.
      fail_conn(c, e.what());
      return;
    }
  }
  if (progressed) c.last_activity = Clock::now();
}

void Server::fail_conn(Conn& c, const std::string& error) {
  std::lock_guard<std::mutex> lk(c.mu);
  if (c.rx_error.empty()) c.rx_error = error;
  c.rx_closed = true;
  c.cv.notify_all();
}

void Server::sweep_idle() {
  if (opts_.idle_timeout_ms <= 0) return;
  const auto now = Clock::now();
  for (auto& up : conns_) {
    Conn& c = *up;
    if (c.done.load(std::memory_order_acquire)) continue;
    {
      std::lock_guard<std::mutex> lk(c.mu);
      if (c.rx_closed) continue;
    }
    const auto idle_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - c.last_activity).count();
    if (idle_ms >= opts_.idle_timeout_ms) {
      fail_conn(c, strf("idle timeout: no traffic for %lld ms", static_cast<long long>(idle_ms)));
      ::shutdown(c.sock.fd(), SHUT_RD);
    }
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
  QueueStream stream(*this, c);
  try {
    std::optional<Frame> first = stream.next();
    if (first) {
      first->verify_crc();
      if (first->type != FrameType::Hello) {
        throw ProtocolError(
            strf("expected Hello frame, got %s", frame_type_name(first->type)));
      }
      const Hello client = Hello::decode(first->payload);
      Hello ack;
      ack.caps = client.caps & kSupportedCaps;
      stream.send(FrameType::HelloAck, ack.encode());

      auto src = std::make_shared<RemoteSource>(stream, c.peer);
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
  // Unblock the peer but leave the fd open: the poll thread may still hold it
  // in its poll set. The Socket destructor closes it after the join in
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
  aopts.build_ddg = spec.build_ddg;
  std::string out;
  analysis::Session session;
  session.source(src).region(spec.region).options(aopts);
  if (spec.format == ReportFormat::Text) {
    session.sink(std::make_shared<analysis::TextSink>(&out));
  } else {
    auto sink = std::make_shared<analysis::JsonSink>(&out);
    sink->with_timings(spec.with_timings);
    session.sink(std::move(sink));
  }
  session.run();
  return out;
}

}  // namespace ac::net
