// Thin POSIX socket layer under the analysis-service wire protocol
// (net/protocol.hpp). Everything here is deliberately boring: RAII fd
// ownership, EINTR/EAGAIN/short-write-safe I/O loops, and a checked
// HOST:PORT parser — the same "reject garbage loudly" discipline the CLI
// numeric-argument parsing follows.
//
// All I/O helpers work on blocking *and* non-blocking fds: on EAGAIN they
// poll() for readiness instead of spinning. A peer dying mid-stream surfaces
// as ProtocolError (or EOF), never SIGPIPE — call ignore_sigpipe() once at
// process startup and every send uses MSG_NOSIGNAL.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ac::net {

/// Ignore SIGPIPE process-wide (idempotent). Daemons and CLIs that touch
/// sockets or pipes call this first thing in main(): a client dying
/// mid-stream must surface as a write error, not kill the process.
void ignore_sigpipe();

/// Move-only owning fd wrapper.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Give up ownership (the fd is no longer closed by this object).
  int release();
  void close();

 private:
  int fd_ = -1;
};

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Parse "HOST:PORT", "PORT", or "[v6addr]:PORT". The port must be a pure
/// decimal in [0, 65535] — trailing garbage ("8080x", "8080 "), negative or
/// overflowing values all throw ProtocolError instead of truncating the way
/// atoi-style parsing would. An empty host means "any/loopback default"
/// (filled in by the caller).
HostPort parse_host_port(const std::string& spec);

/// Connect to host:port over TCP (IPv4/IPv6 via getaddrinfo), with
/// TCP_NODELAY set. Throws ProtocolError on resolution/connect failure.
/// `timeout_ms` >= 0 bounds each address's connect attempt (non-blocking
/// connect + poll); < 0 blocks until the kernel gives up.
Socket connect_tcp(const std::string& host, std::uint16_t port, int timeout_ms = -1);

/// Bounded exponential-backoff retry around connect_tcp: `retries` extra
/// attempts after the first, sleeping backoff_ms, 2*backoff_ms, ... (capped
/// at 2 s) between them. A refused/timed-out final attempt throws
/// ProtocolError naming the attempt count.
struct ConnectRetry {
  int timeout_ms = -1;  // per-attempt connect timeout; < 0 = OS default
  int retries = 0;      // extra attempts after the first
  int backoff_ms = 100; // initial sleep between attempts (doubles, capped 2 s)
};
Socket connect_tcp_retry(const std::string& host, std::uint16_t port, const ConnectRetry& retry);

/// Bind + listen on host:port (port 0 = ephemeral); the actually bound port
/// is returned through `bound_port`. Throws ProtocolError on failure.
Socket listen_tcp(const std::string& host, std::uint16_t port, int backlog,
                  std::uint16_t* bound_port);

/// Set/clear O_NONBLOCK. Throws ProtocolError on fcntl failure.
void set_nonblocking(int fd, bool on);

/// Write all `n` bytes, looping over EINTR, short writes and (for
/// non-blocking fds) EAGAIN via poll(POLLOUT). Throws ProtocolError when the
/// peer is gone (EPIPE/ECONNRESET) or on any other write failure.
void write_all(int fd, const void* data, std::size_t n);

/// Read up to `n` bytes, retrying EINTR and waiting out EAGAIN via
/// poll(POLLIN). Returns 0 on EOF; throws ProtocolError on read failure or
/// when `timeout_ms` >= 0 elapses with no data.
std::size_t read_some(int fd, void* buf, std::size_t n, int timeout_ms = -1);

}  // namespace ac::net
