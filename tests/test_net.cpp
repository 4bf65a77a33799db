// Tests for the analysis-service stack (src/net): wire protocol encode/decode
// hardening, the checked HOST:PORT parser, and live loopback daemons —
// handshake rejection, malformed/truncated/CRC-corrupt frames, mid-stream
// disconnects, idle timeouts (the daemon must survive them all), and the
// headline guarantee: reports served over the socket are byte-identical to
// local analysis.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "analysis/session.hpp"
#include "apps/app.hpp"
#include "helpers.hpp"
#include "net/protocol.hpp"
#include "net/remote.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "trace/mctb.hpp"

namespace {

using namespace ac;
using namespace ac::net;

// --- parse_host_port --------------------------------------------------------

TEST(HostPortTest, ParsesHostColonPort) {
  const HostPort hp = parse_host_port("127.0.0.1:8080");
  EXPECT_EQ(hp.host, "127.0.0.1");
  EXPECT_EQ(hp.port, 8080);
}

TEST(HostPortTest, ParsesBarePort) {
  const HostPort hp = parse_host_port("9091");
  EXPECT_TRUE(hp.host.empty());
  EXPECT_EQ(hp.port, 9091);
}

TEST(HostPortTest, ParsesBracketedV6) {
  const HostPort hp = parse_host_port("[::1]:7000");
  EXPECT_EQ(hp.host, "::1");
  EXPECT_EQ(hp.port, 7000);
}

TEST(HostPortTest, RejectsGarbage) {
  // The satellite fix: trailing garbage and out-of-range values must throw,
  // not silently truncate the way atoi would.
  EXPECT_THROW(parse_host_port("localhost:8080x"), ProtocolError);
  EXPECT_THROW(parse_host_port("localhost:80 "), ProtocolError);
  EXPECT_THROW(parse_host_port("localhost:-1"), ProtocolError);
  EXPECT_THROW(parse_host_port("localhost:65536"), ProtocolError);
  EXPECT_THROW(parse_host_port("localhost:"), ProtocolError);
  EXPECT_THROW(parse_host_port(""), ProtocolError);
  EXPECT_THROW(parse_host_port("12junk"), ProtocolError);
}

// --- frame layer ------------------------------------------------------------

TEST(FrameTest, RoundTripsThroughReaderBytewise) {
  const std::string payload = "hello analysis service";
  const std::string wire = encode_frame(FrameType::Report, payload);
  FrameReader reader;
  // Worst-case fragmentation: one byte per feed.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_FALSE(reader.next().has_value());
    reader.feed(wire.data() + i, 1);
  }
  auto f = reader.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::Report);
  EXPECT_EQ(f->payload, payload);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameTest, SlicesBackToBackFrames) {
  std::string wire = encode_frame(FrameType::Flush, {});
  wire += encode_frame(FrameType::Goodbye, {});
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  auto a = reader.next();
  auto b = reader.next();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->type, FrameType::Flush);
  EXPECT_EQ(b->type, FrameType::Goodbye);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(FrameTest, RejectsUnknownTypeAtHeaderTime) {
  std::string wire = encode_frame(FrameType::Flush, {});
  const std::uint32_t bogus = 99;
  std::memcpy(wire.data(), &bogus, 4);
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  EXPECT_THROW(reader.next(), ProtocolError);
}

TEST(FrameTest, RejectsOversizedDeclaredLengthBeforePayloadArrives) {
  // Only the 16-byte header is fed; the forged length alone must reject.
  std::string header = encode_frame(FrameType::TraceChunk, {});
  const std::uint64_t huge = 1ull << 40;
  std::memcpy(header.data() + 8, &huge, 8);
  FrameReader reader(/*max_frame_bytes=*/1 << 20);
  reader.feed(header.data(), kFrameHeaderSize);
  EXPECT_THROW(reader.next(), ProtocolError);
}

TEST(FrameTest, CrcMismatchDetected) {
  std::string wire = encode_frame(FrameType::Report, "payload");
  wire[kFrameHeaderSize] ^= 0x01;  // flip one payload bit, keep the header CRC
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  EXPECT_THROW(reader.next(), ProtocolError);
}

// --- typed payloads ---------------------------------------------------------

TEST(HandshakeTest, HelloRoundTrip) {
  const Hello back = Hello::decode(Hello{}.encode());
  EXPECT_EQ(back.magic, kProtocolMagic);
  EXPECT_EQ(back.version, kProtocolVersion);
}

TEST(HandshakeTest, RejectsBadMagicAndVersion) {
  Hello h;
  h.magic = 0xDEADBEEF;
  EXPECT_THROW(Hello::decode(h.encode()), ProtocolError);
  Hello v;
  v.version = kProtocolVersion + 7;
  EXPECT_THROW(Hello::decode(v.encode()), ProtocolError);
  EXPECT_THROW(Hello::decode("short"), ProtocolError);
}

TEST(ReportSpecTest, RoundTripAndValidation) {
  ReportSpec s;
  s.region.function = "main";
  s.region.begin_line = 17;
  s.region.end_line = 25;
  s.mli_mode = analysis::MliMode::PaperNameMatch;
  s.with_timings = false;
  s.format = ReportFormat::Text;
  const ReportSpec back = ReportSpec::decode(s.encode());
  EXPECT_EQ(back.region.function, "main");
  EXPECT_EQ(back.region.begin_line, 17);
  EXPECT_EQ(back.region.end_line, 25);
  EXPECT_EQ(back.mli_mode, analysis::MliMode::PaperNameMatch);
  EXPECT_FALSE(back.with_timings);
  EXPECT_EQ(back.format, ReportFormat::Text);

  std::string wire = s.encode();
  wire.resize(wire.size() - 1);  // truncate the function name
  EXPECT_THROW(ReportSpec::decode(wire), ProtocolError);
  std::string trailing = s.encode() + "x";
  EXPECT_THROW(ReportSpec::decode(trailing), ProtocolError);
}

// --- loopback daemon fixtures ----------------------------------------------

/// Run an in-process daemon on an ephemeral loopback port.
struct LoopbackServer {
  explicit LoopbackServer(ServerOptions opts = {}) : server(std::move(opts)) {
    server.start();
  }
  ~LoopbackServer() { server.stop(); }
  Server server;
};

/// Raw-socket client speaking hand-crafted bytes — for the malformed-input
/// tests RemoteSink refuses to produce.
struct RawClient {
  explicit RawClient(std::uint16_t port)
      : sock(connect_tcp("127.0.0.1", port)), stream(sock.fd(), kDefaultMaxFrameBytes, 30000) {}

  void handshake() {
    stream.send(FrameType::Hello, Hello{}.encode());
    auto ack = stream.next();
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->type, FrameType::HelloAck);
  }

  /// The server's next frame, expected to be an Error carrying `needle`.
  void expect_error(const std::string& needle) {
    auto f = stream.next();
    ASSERT_TRUE(f.has_value()) << "server closed without an Error frame";
    ASSERT_EQ(f->type, FrameType::Error) << "got " << frame_type_name(f->type);
    EXPECT_NE(f->payload.find(needle), std::string::npos)
        << "error was: " << f->payload;
  }

  Socket sock;
  FrameStream stream;
};

trace::TraceBuffer fig4_buffer() {
  trace::BufferSink sink;
  ac::test::run_source(ac::test::fig4_source(), &sink);
  return sink.take();
}

ReportSpec fig4_spec() {
  ReportSpec spec;
  spec.region = analysis::find_mcl_region(ac::test::fig4_source());
  spec.with_timings = false;
  return spec;
}

TEST(DaemonTest, HandshakeVersionMismatchRejected) {
  LoopbackServer lb;
  RawClient c(lb.server.port());
  Hello h;
  h.version = kProtocolVersion + 1;
  c.stream.send(FrameType::Hello, h.encode());
  c.expect_error("version mismatch");
}

TEST(DaemonTest, HandshakeBadMagicRejected) {
  LoopbackServer lb;
  RawClient c(lb.server.port());
  Hello h;
  h.magic = 0x41414141;
  c.stream.send(FrameType::Hello, h.encode());
  c.expect_error("magic");
}

TEST(DaemonTest, NonHelloFirstFrameRejected) {
  LoopbackServer lb;
  RawClient c(lb.server.port());
  c.stream.send(FrameType::Flush, {});
  c.expect_error("expected Hello");
}

TEST(DaemonTest, UnknownFrameTypeRejected) {
  LoopbackServer lb;
  RawClient c(lb.server.port());
  c.handshake();
  std::string wire = encode_frame(FrameType::Flush, {});
  const std::uint32_t bogus = 4242;
  std::memcpy(wire.data(), &bogus, 4);
  write_all(c.sock.fd(), wire.data(), wire.size());
  c.expect_error("unknown frame type");
}

TEST(DaemonTest, OversizedFrameRejected) {
  ServerOptions opts;
  opts.max_frame_bytes = 1 << 20;
  LoopbackServer lb(opts);
  RawClient c(lb.server.port());
  c.handshake();
  std::string header = encode_frame(FrameType::TraceChunk, {});
  const std::uint64_t huge = 8ull << 20;
  std::memcpy(header.data() + 8, &huge, 8);
  write_all(c.sock.fd(), header.data(), header.size());
  c.expect_error("cap");
}

TEST(DaemonTest, FrameCrcCorruptionRejected) {
  LoopbackServer lb;
  RawClient c(lb.server.port());
  c.handshake();
  std::string wire = encode_frame(FrameType::ReportRequest, fig4_spec().encode());
  wire[kFrameHeaderSize] ^= 0x40;  // payload no longer matches the header CRC
  write_all(c.sock.fd(), wire.data(), wire.size());
  c.expect_error("CRC mismatch");
}

TEST(DaemonTest, CorruptMctbChunkRejected) {
  LoopbackServer lb;
  RawClient c(lb.server.port());
  c.handshake();
  // A structurally valid frame (frame CRC recomputed over the corrupted
  // bytes) around a corrupt container: the MCTB validation matrix inside the
  // daemon must catch it.
  std::string container = trace::mctb_to_bytes(fig4_buffer(), {});
  container[container.size() / 2] ^= 0x10;
  const std::string wire = encode_frame(FrameType::TraceChunk, container);
  write_all(c.sock.fd(), wire.data(), wire.size());
  c.expect_error("");  // TraceFormatError text varies by corrupted section
}

TEST(DaemonTest, DaemonErrorIdenticalToLocalDecode) {
  // The acceptance property: a corrupt MCTB chunk raises a byte-identical
  // error — type + message — under serial decode, parallel decode, and the
  // daemon path (whose Error frame carries e.what() verbatim).
  std::string container = trace::mctb_to_bytes(fig4_buffer(), {});
  container[container.size() / 2] ^= 0x10;

  std::string local_what;
  try {
    trace::MctbReadOptions opts;
    opts.num_threads = 1;
    trace::read_mctb(container, opts);
    FAIL() << "local serial decode accepted the corrupt container";
  } catch (const TraceFormatError& e) {
    local_what = e.what();
  }
  try {
    trace::MctbReadOptions opts;
    opts.num_threads = 4;
    trace::read_mctb(container, opts);
    FAIL() << "local parallel decode accepted the corrupt container";
  } catch (const TraceFormatError& e) {
    EXPECT_STREQ(local_what.c_str(), e.what());
  }

  LoopbackServer lb;
  RawClient c(lb.server.port());
  c.handshake();
  const std::string wire = encode_frame(FrameType::TraceChunk, container);
  write_all(c.sock.fd(), wire.data(), wire.size());
  auto f = c.stream.next();
  ASSERT_TRUE(f.has_value()) << "server closed without an Error frame";
  ASSERT_EQ(f->type, FrameType::Error) << "got " << frame_type_name(f->type);
  EXPECT_EQ(local_what, f->payload);
}

TEST(DaemonTest, TruncatedChunkRejected) {
  LoopbackServer lb;
  RawClient c(lb.server.port());
  c.handshake();
  const std::string container = trace::mctb_to_bytes(fig4_buffer(), {});
  const std::string truncated = container.substr(0, container.size() / 2);
  const std::string wire = encode_frame(FrameType::TraceChunk, truncated);
  write_all(c.sock.fd(), wire.data(), wire.size());
  c.expect_error("");
}

TEST(DaemonTest, SurvivesMidStreamDisconnect) {
  LoopbackServer lb;
  {
    RawClient c(lb.server.port());
    c.handshake();
    // Half a frame, then vanish.
    const std::string wire = encode_frame(FrameType::TraceChunk, std::string(4096, 'x'));
    write_all(c.sock.fd(), wire.data(), wire.size() / 2);
  }
  // The daemon must still accept and serve a full session afterwards.
  RemoteSink sink("127.0.0.1", lb.server.port());
  const trace::TraceBuffer buf = fig4_buffer();
  for (std::size_t i = 0; i < buf.size(); ++i) sink.append(buf.view(i));
  const std::string remote_json = sink.fetch_report(fig4_spec());
  sink.close();
  EXPECT_NE(remote_json.find("\"critical\""), std::string::npos);
  EXPECT_GE(lb.server.connections_accepted(), 2u);
}

TEST(DaemonTest, ErrorConnectionDoesNotPoisonOthers) {
  LoopbackServer lb;
  // Healthy client mid-stream...
  RemoteSink good("127.0.0.1", lb.server.port());
  const trace::TraceBuffer buf = fig4_buffer();
  for (std::size_t i = 0; i < buf.size() / 2; ++i) good.append(buf.view(i));
  good.flush();
  // ...while another connection dies on malformed bytes.
  {
    RawClient bad(lb.server.port());
    bad.handshake();
    std::string wire = encode_frame(FrameType::Flush, {});
    const std::uint32_t bogus = 777;
    std::memcpy(wire.data(), &bogus, 4);
    write_all(bad.sock.fd(), wire.data(), wire.size());
    bad.expect_error("unknown frame type");
  }
  for (std::size_t i = buf.size() / 2; i < buf.size(); ++i) good.append(buf.view(i));
  const std::string remote_json = good.fetch_report(fig4_spec());
  good.close();

  const analysis::Report local = analysis::Session()
                                     .buffer(fig4_buffer())
                                     .region(fig4_spec().region)
                                     .run();
  EXPECT_EQ(remote_json, local.to_json(/*with_timings=*/false));
}

TEST(DaemonTest, MetricsRequestServesRegistryJson) {
  LoopbackServer lb;
  RemoteSink sink("127.0.0.1", lb.server.port());
  const trace::TraceBuffer buf = fig4_buffer();
  for (std::size_t i = 0; i < buf.size(); ++i) sink.append(buf.view(i));
  sink.flush();
  const std::string json = sink.fetch_metrics();
  sink.close();
  EXPECT_NE(json.find("net.chunks_merged"), std::string::npos);
}

TEST(DaemonTest, AnalysisErrorKeepsConnectionAlive) {
  LoopbackServer lb;
  RemoteSink sink("127.0.0.1", lb.server.port());
  const trace::TraceBuffer buf = fig4_buffer();
  for (std::size_t i = 0; i < buf.size(); ++i) sink.append(buf.view(i));
  ReportSpec bogus = fig4_spec();
  bogus.region.function = "no_such_function";
  EXPECT_THROW(sink.fetch_report(bogus), ProtocolError);
  // Same connection, valid request: still served.
  const std::string remote_json = sink.fetch_report(fig4_spec());
  sink.close();
  EXPECT_NE(remote_json.find("\"critical\""), std::string::npos);
}

// --- verdict identity: socket path vs local path ----------------------------

/// Local JSON (no timings) for a compiled+traced app — the reference bytes.
std::string local_json(const trace::TraceBuffer& buf, const analysis::MclRegion& region) {
  trace::TraceBuffer copy;
  copy.append_buffer(buf);
  const analysis::Report report =
      analysis::Session().buffer(std::move(copy)).region(region).run();
  return report.to_json(/*with_timings=*/false);
}

/// Remote JSON for the same records, streamed in small chunks so the daemon
/// exercises multi-chunk decode+merge.
std::string remote_json(const trace::TraceBuffer& buf, const analysis::MclRegion& region,
                        std::uint16_t port) {
  RemoteSinkOptions ropts;
  ropts.chunk_records = 512;  // force many chunks even for small app traces
  RemoteSink sink("127.0.0.1", port, ropts);
  for (std::size_t i = 0; i < buf.size(); ++i) sink.append(buf.view(i));
  ReportSpec spec;
  spec.region = region;
  spec.with_timings = false;
  const std::string json = sink.fetch_report(spec);
  sink.close();
  return json;
}

TEST(IdentityTest, AllFourteenMiniAppsByteIdentical) {
  LoopbackServer lb;
  for (const apps::App& app : apps::registry()) {
    SCOPED_TRACE(app.name);
    trace::BufferSink sink;
    ac::test::run_source(app.source(), &sink);
    const trace::TraceBuffer buf = sink.take();
    const std::string expected = local_json(buf, app.mcl());
    const std::string got = remote_json(buf, app.mcl(), lb.server.port());
    EXPECT_EQ(got, expected);
  }
  EXPECT_EQ(lb.server.reports_served(), apps::registry().size());
}

TEST(IdentityTest, ConcurrentClientsStayIsolated) {
  LoopbackServer lb;
  const std::vector<std::string> names = {"CG", "EP", "IS", "HPCCG"};
  std::vector<std::string> expected(names.size()), got(names.size());
  std::vector<trace::TraceBuffer> bufs(names.size());
  std::vector<analysis::MclRegion> regions(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const apps::App& app = apps::find_app(names[i]);
    trace::BufferSink sink;
    ac::test::run_source(app.source(), &sink);
    bufs[i] = sink.take();
    regions[i] = app.mcl();
    expected[i] = local_json(bufs[i], regions[i]);
  }
  // All four clients stream at once: per-connection sessions must not bleed
  // records or verdicts into each other.
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < names.size(); ++i) {
    clients.emplace_back([&, i] { got[i] = remote_json(bufs[i], regions[i], lb.server.port()); });
  }
  for (auto& t : clients) t.join();
  for (std::size_t i = 0; i < names.size(); ++i) {
    SCOPED_TRACE(names[i]);
    EXPECT_EQ(got[i], expected[i]);
  }
}

// --- connect timeout + retry ------------------------------------------------

/// Grab an ephemeral loopback port and release it — a port that is very
/// likely free for the next few milliseconds.
std::uint16_t reserve_port() {
  std::uint16_t port = 0;
  Socket l = listen_tcp("127.0.0.1", 0, 1, &port);
  return port;
}

TEST(ConnectRetryTest, DeadAddressFailsFastNamingTheAttemptCount) {
  const std::uint16_t port = reserve_port();  // nobody is listening here now
  ConnectRetry retry;
  retry.timeout_ms = 250;
  retry.retries = 2;
  retry.backoff_ms = 10;
  try {
    connect_tcp_retry("127.0.0.1", port, retry);
    FAIL() << "connect to a dead port succeeded";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("after 3 attempts"), std::string::npos)
        << e.what();
  }
}

TEST(ConnectRetryTest, BackoffRidesOutALateStartingListener) {
  const std::uint16_t port = reserve_port();
  std::thread listener([port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::uint16_t bound = 0;
    Socket l = listen_tcp("127.0.0.1", port, 1, &bound);
    Socket conn(::accept(l.fd(), nullptr, nullptr));
    EXPECT_TRUE(conn.valid());
  });
  ConnectRetry retry;
  retry.timeout_ms = 1000;
  retry.retries = 30;
  retry.backoff_ms = 25;
  Socket s = connect_tcp_retry("127.0.0.1", port, retry);
  EXPECT_TRUE(s.valid());
  s.close();
  listener.join();
}

TEST(ConnectRetryTest, RemoteSinkSurfacesExhaustedRetries) {
  const std::uint16_t port = reserve_port();
  RemoteSinkOptions opts;
  opts.connect_timeout_ms = 250;
  opts.connect_retries = 1;
  opts.connect_backoff_ms = 10;
  EXPECT_THROW(RemoteSink("127.0.0.1", port, opts), ProtocolError);
}

// --- graceful drain ---------------------------------------------------------

TEST(DaemonTest, StopDrainsInFlightReportBeforeClosing) {
  // A stop request landing mid-render (the delay fault holds the render for
  // 500 ms) must still let the in-flight report reach the client.
  ServerOptions opts;
  opts.drain_timeout_ms = 10000;
  LoopbackServer lb(opts);

  fault::FaultSpec spec;
  spec.action = fault::Action::Delay;
  spec.delay_ms = 500;
  spec.count = 1;
  fault::arm("net.server.render", spec);

  std::string body;
  std::thread client([&] {
    RemoteSink sink("127.0.0.1", lb.server.port());
    const trace::TraceBuffer buf = fig4_buffer();
    for (std::size_t i = 0; i < buf.size(); ++i) sink.append(buf.view(i));
    body = sink.fetch_report(fig4_spec());
    sink.close();
  });
  // Let the request land and enter the delayed render, then ask for shutdown.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  lb.server.request_stop();
  client.join();
  fault::disarm_all();
  EXPECT_NE(body.find("\"critical\""), std::string::npos);
}

// --- idle timeout -----------------------------------------------------------

TEST(DaemonTest, IdleConnectionGetsATimeoutErrorAndOthersAreServed) {
  ServerOptions opts;
  opts.idle_timeout_ms = 200;
  LoopbackServer lb(opts);
  RawClient idle(lb.server.port());
  idle.handshake();
  const auto idle_since = std::chrono::steady_clock::now();

  // While the silent client waits out its timeout, another one is served.
  const trace::TraceBuffer buf = fig4_buffer();
  EXPECT_EQ(remote_json(buf, fig4_spec().region, lb.server.port()),
            local_json(buf, fig4_spec().region));

  idle.expect_error("timed out after 200 ms");
  const auto waited = std::chrono::steady_clock::now() - idle_since;
  EXPECT_GE(waited, std::chrono::milliseconds(150));
  EXPECT_LT(waited, std::chrono::seconds(10));
}

TEST(DaemonTest, ReportSlowerThanTheIdleTimeoutStillArrives) {
  // The timeout bounds the wait for the client's bytes, not the daemon's own
  // work: a render held for three timeouts must still reach the client.
  ServerOptions opts;
  opts.idle_timeout_ms = 200;
  LoopbackServer lb(opts);

  fault::FaultSpec spec;
  spec.action = fault::Action::Delay;
  spec.delay_ms = 600;
  spec.count = 1;
  fault::arm("net.server.render", spec);
  const trace::TraceBuffer buf = fig4_buffer();
  const std::string got = remote_json(buf, fig4_spec().region, lb.server.port());
  EXPECT_EQ(fault::trigger_count("net.server.render"), 1u);
  fault::disarm_all();
  EXPECT_EQ(got, local_json(buf, fig4_spec().region));
}

}  // namespace
