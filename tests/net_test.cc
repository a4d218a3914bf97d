// Transport-layer tests: frame codec hostile-input discipline, the loopback
// and TCP backends, and the SsiClient retry/deadline semantics. The failure
// paths — peer closing mid-frame, a server that never replies, transient
// errors that resolve on retry — are each pinned here because the engine's
// graceful-degradation story depends on the exact Status codes the channel
// surface maps them to.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "net/byzantine.h"
#include "net/faulty.h"
#include "net/frame.h"
#include "net/loopback.h"
#include "net/sharded_client.h"
#include "net/ssi_client.h"
#include "net/ssi_node.h"
#include "net/ssi_wire.h"
#include "net/tcp.h"
#include "obs/metrics.h"

namespace tcells::net {
namespace {

Bytes MakeBytes(std::initializer_list<uint8_t> b) { return Bytes(b); }

bool IsCorruption(const Status& s) { return s.IsCorruption(); }
bool IsNotFound(const Status& s) { return s.IsNotFound(); }
bool IsUnavailable(const Status& s) { return s.IsUnavailable(); }
bool IsDeadlineExceeded(const Status& s) { return s.IsDeadlineExceeded(); }
bool IsInvalidArgument(const Status& s) { return s.IsInvalidArgument(); }

// ---------------------------------------------------------------------------
// Frame codec.

TEST(FrameTest, RoundTrip) {
  Bytes wire;
  Bytes payload = MakeBytes({1, 2, 3, 4, 5});
  AppendFrame(&wire, payload);
  EXPECT_EQ(wire.size(), FrameWireSize(payload.size()));
  ByteReader reader(wire);
  auto decoded = DecodeFrame(&reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  Bytes wire;
  AppendFrame(&wire, Bytes());
  ByteReader reader(wire);
  auto decoded = DecodeFrame(&reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(FrameTest, RejectsLengthBeyondCapBeforeAllocation) {
  // A 4-byte header claiming ~4 GiB must be rejected up front — if the
  // decoder tried to reserve that much first, a peer could drive huge
  // allocations with tiny writes.
  Bytes wire = MakeBytes({0xff, 0xff, 0xff, 0xff});
  ByteReader reader(wire);
  auto decoded = DecodeFrame(&reader);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(IsCorruption(decoded.status()));
}

TEST(FrameTest, RejectsLengthJustAboveCap) {
  uint32_t n = static_cast<uint32_t>(kMaxFramePayload) + 1;
  Bytes wire;
  ByteWriter writer(&wire);
  writer.PutU32(n);
  ByteReader reader(wire);
  EXPECT_TRUE(IsCorruption(DecodeFrame(&reader).status()));
}

TEST(FrameTest, RejectsLengthBeyondRemaining) {
  // Claims 100 payload bytes, provides 3.
  Bytes wire;
  ByteWriter writer(&wire);
  writer.PutU32(100);
  wire.push_back(9);
  wire.push_back(9);
  wire.push_back(9);
  ByteReader reader(wire);
  EXPECT_TRUE(IsCorruption(DecodeFrame(&reader).status()));
}

TEST(FrameTest, TryExtractNeedsWholeHeader) {
  Bytes buf = MakeBytes({5, 0});  // half a length prefix
  Bytes frame;
  Status error;
  EXPECT_FALSE(TryExtractFrame(&buf, &frame, &error));
  EXPECT_TRUE(error.ok());
  EXPECT_EQ(buf.size(), 2u);  // nothing consumed
}

TEST(FrameTest, TryExtractNeedsWholePayload) {
  Bytes buf;
  AppendFrame(&buf, MakeBytes({1, 2, 3}));
  buf.pop_back();  // last payload byte still in flight
  Bytes frame;
  Status error;
  EXPECT_FALSE(TryExtractFrame(&buf, &frame, &error));
  EXPECT_TRUE(error.ok());
}

TEST(FrameTest, TryExtractConsumesExactlyOneFrame) {
  Bytes buf;
  AppendFrame(&buf, MakeBytes({1, 2}));
  AppendFrame(&buf, MakeBytes({3}));
  Bytes frame;
  Status error;
  ASSERT_TRUE(TryExtractFrame(&buf, &frame, &error));
  EXPECT_EQ(frame, MakeBytes({1, 2}));
  ASSERT_TRUE(TryExtractFrame(&buf, &frame, &error));
  EXPECT_EQ(frame, MakeBytes({3}));
  EXPECT_TRUE(buf.empty());
  EXPECT_FALSE(TryExtractFrame(&buf, &frame, &error));
  EXPECT_TRUE(error.ok());
}

TEST(FrameTest, TryExtractRejectsHostileLengthBeforeBuffering) {
  // The stream decoder must flag Corruption as soon as the header is
  // readable, not wait for 4 GiB that will never arrive.
  Bytes buf = MakeBytes({0xff, 0xff, 0xff, 0xff, 0x00});
  Bytes frame;
  Status error;
  EXPECT_FALSE(TryExtractFrame(&buf, &frame, &error));
  EXPECT_TRUE(IsCorruption(error));
}

TEST(TransportKindTest, NameRoundTrip) {
  EXPECT_STREQ(TransportKindToString(TransportKind::kLoopback), "loopback");
  EXPECT_STREQ(TransportKindToString(TransportKind::kTcp), "tcp");
  EXPECT_EQ(*TransportKindFromName("loopback"), TransportKind::kLoopback);
  EXPECT_EQ(*TransportKindFromName("tcp"), TransportKind::kTcp);
  EXPECT_TRUE(IsInvalidArgument(TransportKindFromName("smoke").status()));
}

// ---------------------------------------------------------------------------
// Loopback backend.

TEST(LoopbackTest, EchoRoundTripsThroughFrameCodec) {
  LoopbackTransport transport([](const Bytes& req) -> Result<Bytes> {
    Bytes reply = req;
    reply.push_back(0xAB);
    return reply;
  });
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  auto reply = (*channel)->Call(MakeBytes({1, 2, 3}), CallOptions{});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, MakeBytes({1, 2, 3, 0xAB}));
}

TEST(LoopbackTest, InjectedFailuresSurfaceThenClear) {
  size_t handled = 0;
  LoopbackTransport transport([&](const Bytes& req) -> Result<Bytes> {
    ++handled;
    return req;
  });
  transport.InjectFailures(2, Status::Unavailable("injected"));
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  EXPECT_TRUE(IsUnavailable(
      (*channel)->Call(MakeBytes({7}), CallOptions{}).status()));
  EXPECT_TRUE(IsUnavailable(
      (*channel)->Call(MakeBytes({7}), CallOptions{}).status()));
  EXPECT_EQ(handled, 0u);  // injected failures never reach the handler
  EXPECT_TRUE((*channel)->Call(MakeBytes({7}), CallOptions{}).ok());
  EXPECT_EQ(handled, 1u);
}

// ---------------------------------------------------------------------------
// TCP backend: the happy path and every documented failure mapping.

TEST(TcpTest, EchoOverRealSocket) {
  TcpServer server;
  ASSERT_TRUE(server.Start([](const Bytes& req) -> Result<Bytes> {
                return req;
              }).ok());
  ASSERT_GT(server.port(), 0);
  TcpTransport transport("127.0.0.1", server.port());
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  // Several calls on one connection, including a payload larger than the
  // client's receive chunk, so reassembly across recv() boundaries runs.
  Bytes big(100 * 1024);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i);
  for (const Bytes& payload : {MakeBytes({1, 2, 3}), Bytes(), big}) {
    auto reply = (*channel)->Call(payload, CallOptions{});
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, payload);
  }
}

TEST(TcpTest, ConnectToClosedPortIsUnavailable) {
  TcpServer server;
  ASSERT_TRUE(server.Start([](const Bytes& req) -> Result<Bytes> {
                return req;
              }).ok());
  uint16_t port = server.port();
  server.Stop();
  TcpTransport transport("127.0.0.1", port);
  auto channel = transport.Connect();
  if (!channel.ok()) {
    EXPECT_TRUE(IsUnavailable(channel.status()));
    return;
  }
  // Some kernels accept the connect and reset on first use.
  auto reply = (*channel)->Call(MakeBytes({1}), CallOptions{});
  EXPECT_TRUE(IsUnavailable(reply.status()));
}

/// Raw localhost listener for scripting byte-level server misbehavior that
/// TcpServer itself would never produce.
class RawListener {
 public:
  RawListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~RawListener() {
    if (conn_ >= 0) ::close(conn_);
    if (fd_ >= 0) ::close(fd_);
  }

  uint16_t port() const { return port_; }

  int Accept() {
    conn_ = ::accept(fd_, nullptr, nullptr);
    return conn_;
  }

  void DrainRequest() {
    // Read until the client's single request frame is fully here.
    uint8_t header[4];
    size_t got = 0;
    while (got < 4) {
      ssize_t n = ::recv(conn_, header + got, 4 - got, 0);
      ASSERT_GT(n, 0);
      got += static_cast<size_t>(n);
    }
    uint32_t body = 0;
    std::memcpy(&body, header, 4);
    std::vector<uint8_t> scratch(body);
    got = 0;
    while (got < body) {
      ssize_t n = ::recv(conn_, scratch.data() + got, body - got, 0);
      ASSERT_GT(n, 0);
      got += static_cast<size_t>(n);
    }
  }

  void Send(const Bytes& bytes) {
    ASSERT_EQ(::send(conn_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  void CloseConn() {
    ::close(conn_);
    conn_ = -1;
  }

 private:
  int fd_ = -1;
  int conn_ = -1;
  uint16_t port_ = 0;
};

TEST(TcpTest, PeerClosingMidFrameIsUnavailable) {
  RawListener listener;
  std::thread peer([&] {
    ASSERT_GE(listener.Accept(), 0);
    listener.DrainRequest();
    // Reply frame claims 100 payload bytes, delivers 3, then slams the
    // connection: the client must see Unavailable (retryable), never hang
    // waiting for the rest and never treat the truncated frame as complete.
    Bytes partial;
    ByteWriter writer(&partial);
    writer.PutU32(100);
    partial.push_back(1);
    partial.push_back(2);
    partial.push_back(3);
    listener.Send(partial);
    listener.CloseConn();
  });
  TcpTransport transport("127.0.0.1", listener.port());
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  auto reply = (*channel)->Call(MakeBytes({42}), CallOptions{});
  peer.join();
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(IsUnavailable(reply.status())) << reply.status().ToString();
}

TEST(TcpTest, SilentPeerHitsDeadline) {
  RawListener listener;
  std::thread peer([&] {
    ASSERT_GE(listener.Accept(), 0);
    listener.DrainRequest();
    // Never reply; hold the connection open until the client gives up.
  });
  TcpTransport transport("127.0.0.1", listener.port());
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  CallOptions opts;
  opts.deadline_seconds = 0.05;
  auto reply = (*channel)->Call(MakeBytes({42}), opts);
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(IsDeadlineExceeded(reply.status())) << reply.status().ToString();
  peer.join();
}

TEST(TcpTest, HostileReplyLengthIsCorruption) {
  RawListener listener;
  std::thread peer([&] {
    ASSERT_GE(listener.Accept(), 0);
    listener.DrainRequest();
    // A length prefix beyond the cap: fatal, not retryable — the stream can
    // never be re-synchronized.
    listener.Send(MakeBytes({0xff, 0xff, 0xff, 0xff}));
  });
  TcpTransport transport("127.0.0.1", listener.port());
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  auto reply = (*channel)->Call(MakeBytes({42}), CallOptions{});
  peer.join();
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(IsCorruption(reply.status())) << reply.status().ToString();
}

TEST(TcpTest, PipelinedRequestsBackpressuredNotDropped) {
  // A peer may write many frames before reading any reply. With buffer caps
  // far below the pipelined volume the server must stop reading / defer
  // serving while the reply backlog is full (bounding its memory), yet still
  // answer every frame in order once the peer starts draining.
  TcpServer server;
  server.set_buffer_caps(/*max_in=*/4096, /*max_out_backlog=*/4096);
  ASSERT_TRUE(server.Start([](const Bytes& req) -> Result<Bytes> {
                Bytes reply = req;
                reply.push_back(0x5A);
                return reply;
              }).ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  constexpr size_t kCalls = 64;
  constexpr size_t kPayload = 1024;
  Bytes wire;
  for (size_t i = 0; i < kCalls; ++i) {
    AppendFrame(&wire, Bytes(kPayload, static_cast<uint8_t>(i)));
  }
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                       MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }

  for (size_t i = 0; i < kCalls; ++i) {
    Bytes reply(FrameWireSize(kPayload + 1));
    size_t got = 0;
    while (got < reply.size()) {
      ssize_t n = ::recv(fd, reply.data() + got, reply.size() - got, 0);
      ASSERT_GT(n, 0) << "reply " << i << " truncated";
      got += static_cast<size_t>(n);
    }
    ByteReader reader(reply);
    auto payload = DecodeFrame(&reader);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    ASSERT_EQ(payload->size(), kPayload + 1);
    EXPECT_EQ((*payload)[0], static_cast<uint8_t>(i));
    EXPECT_EQ(payload->back(), 0x5A);
  }
  ::close(fd);
}

TEST(TcpTest, ServerDropsConnectionOnHandlerFailure) {
  // A handler that cannot decode the request signals an unsynchronizable
  // stream; the server's only safe move is to cut the connection, which the
  // client surfaces as retryable Unavailable.
  TcpServer server;
  ASSERT_TRUE(server.Start([](const Bytes&) -> Result<Bytes> {
                return Status::Corruption("bad frame");
              }).ok());
  TcpTransport transport("127.0.0.1", server.port());
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  auto reply = (*channel)->Call(MakeBytes({1}), CallOptions{});
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(IsUnavailable(reply.status())) << reply.status().ToString();
}

// ---------------------------------------------------------------------------
// SsiClient retry semantics.

TEST(SsiClientTest, TransientFailuresRetriedThenSucceed) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  obs::MetricsRegistry metrics;
  VirtualClock vclock;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_seconds = 0.05;
  policy.clock = &vclock;
  SsiClient client(&transport, policy, &metrics);

  transport.InjectFailures(2, Status::Unavailable("blip"));
  auto n = client.NumAcknowledged(1);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 0u);
  EXPECT_EQ(metrics.snapshot().counters.at("net.retries"), 2u);
  // Exact backoff schedule, no timing margins: first retry sleeps the base,
  // the second doubles it.
  EXPECT_EQ(vclock.sleeps(), (std::vector<double>{0.05, 0.1}));
}

TEST(SsiClientTest, RetriesExhaustedReturnsLastTransportError) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  VirtualClock vclock;
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_seconds = 0.05;
  policy.clock = &vclock;
  SsiClient client(&transport, policy);

  transport.InjectFailures(10, Status::Unavailable("down"));
  EXPECT_TRUE(IsUnavailable(client.NumAcknowledged(1).status()));
  // 10 injected - 2 attempts consumed = 8 left; drain to prove exactly two
  // attempts were made.
  size_t drained = 0;
  for (; drained < 10; ++drained) {
    if (client.NumAcknowledged(1).ok()) break;
  }
  // 8 remaining failures cover attempts for ceil(8/2)=4 more calls.
  EXPECT_EQ(drained, 4u);
  // Each failing call slept exactly once (one retry per call, base backoff —
  // the schedule resets between calls).
  EXPECT_EQ(vclock.sleeps(), (std::vector<double>{0.05, 0.05, 0.05, 0.05, 0.05}));
}

TEST(SsiClientTest, DeadlineHitsAreCountedAndRetried) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  obs::MetricsRegistry metrics;
  VirtualClock vclock;
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_seconds = 0.05;
  policy.clock = &vclock;
  SsiClient client(&transport, policy, &metrics);

  transport.InjectFailures(1, Status::DeadlineExceeded("slow"));
  ASSERT_TRUE(client.NumAcknowledged(1).ok());
  auto counters = metrics.snapshot().counters;
  EXPECT_EQ(counters.at("net.deadline_hits"), 1u);
  EXPECT_EQ(counters.at("net.retries"), 1u);
  EXPECT_EQ(vclock.sleeps(), (std::vector<double>{0.05}));
}

TEST(SsiClientTest, BackoffScheduleIsExponentialAndCapped) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  VirtualClock vclock;
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.backoff_seconds = 0.05;
  policy.backoff_cap_seconds = 0.25;
  policy.clock = &vclock;
  SsiClient client(&transport, policy);

  transport.InjectFailures(6, Status::Unavailable("down"));
  EXPECT_TRUE(IsUnavailable(client.NumAcknowledged(1).status()));
  // Doubling from the base, clamped at the cap once 0.4 would exceed it.
  EXPECT_EQ(vclock.sleeps(),
            (std::vector<double>{0.05, 0.1, 0.2, 0.25, 0.25}));
}

TEST(SsiClientTest, DeadlineAbandonedReplyNeverPoisonsLaterCalls) {
  // Regression: a call that hits its deadline abandons a reply that is
  // still in flight. If the client kept the connection, the retry and every
  // later exchange on it would consume stale replies one position behind —
  // silently decoding another call's envelope. The client must re-dial
  // after DeadlineExceeded, exactly as after Unavailable.
  std::atomic<uint64_t> handled{0};
  TcpServer server;
  ASSERT_TRUE(server
                  .Start([&](const Bytes&) -> Result<Bytes> {
                    uint64_t n = ++handled;
                    if (n == 1) {
                      // Sit on the first reply until far past the deadline.
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(200));
                    }
                    Bytes body;
                    ByteWriter(&body).PutU64(n);
                    return EncodeReplyOk(body);
                  })
                  .ok());
  TcpTransport transport("127.0.0.1", server.port());
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.deadline_seconds = 0.05;
  policy.backoff_seconds = 0.0001;
  SsiClient client(&transport, policy);

  // First call: the server stalls past every attempt's deadline. Whether it
  // fails or a retry squeaks through, no stale reply may survive it.
  (void)client.NumAcknowledged(1);
  // Let the server finish the delayed handler and flush the abandoned
  // replies; on the pre-fix client they now sit buffered on the connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto n = client.NumAcknowledged(1);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, handled.load());  // pre-fix: a stale earlier counter value
}

TEST(SsiClientTest, ApplicationErrorsAreNeverRetried) {
  size_t calls = 0;
  SsiNode node;
  LoopbackTransport transport([&](const Bytes& req) -> Result<Bytes> {
    ++calls;
    return node.Handle(req);
  });
  RetryPolicy policy;
  policy.max_attempts = 5;
  SsiClient client(&transport, policy);

  // FetchPartition for a query nothing staged: a NotFound application error
  // rides inside an OK transport exchange and must not burn retry budget.
  auto partition = client.FetchPartition(/*query_id=*/99, /*token=*/0);
  EXPECT_TRUE(IsNotFound(partition.status())) << partition.status().ToString();
  EXPECT_EQ(calls, 1u);
}

TEST(SsiClientTest, FramesAndBytesAreCounted) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  obs::MetricsRegistry metrics;
  SsiClient client(&transport, RetryPolicy{}, &metrics);
  ASSERT_TRUE(client.NumAcknowledged(1).ok());
  auto counters = metrics.snapshot().counters;
  EXPECT_EQ(counters.at("net.frames_sent"), 1u);
  EXPECT_EQ(counters.at("net.frames_received"), 1u);
  EXPECT_GT(counters.at("net.bytes_sent"), 0u);
  EXPECT_GT(counters.at("net.bytes_received"), 0u);
}

// ---------------------------------------------------------------------------
// SsiNode RPC surface: the transfer state behind the channel.

ssi::EncryptedItem MakeItem(uint8_t fill, bool tagged) {
  ssi::EncryptedItem item;
  item.blob = Bytes(8, fill);
  if (tagged) item.routing_tag = Bytes(4, static_cast<uint8_t>(fill ^ 0xFF));
  return item;
}

TEST(SsiNodeTest, PartitionStageFetchUploadTakeCycle) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);

  ssi::Partition partition;
  partition.items = {MakeItem(1, true), MakeItem(2, false)};
  ASSERT_TRUE(client.StagePartition(7, /*token=*/0, partition).ok());

  // Staged partitions survive a fetch (a re-dispatched TDS downloads again).
  for (int round = 0; round < 2; ++round) {
    auto fetched = client.FetchPartition(7, 0);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    ASSERT_EQ(fetched->items.size(), 2u);
    EXPECT_EQ(fetched->items[0].blob, partition.items[0].blob);
    EXPECT_EQ(fetched->items[0].routing_tag, partition.items[0].routing_tag);
    EXPECT_EQ(fetched->items[1].routing_tag, std::nullopt);
  }

  std::vector<ssi::EncryptedItem> output = {MakeItem(9, false)};
  ASSERT_TRUE(client.UploadRoundOutput(7, 0, output).ok());
  auto taken = client.TakeRoundOutput(7, 0);
  ASSERT_TRUE(taken.ok());
  ASSERT_EQ(taken->size(), 1u);
  EXPECT_EQ((*taken)[0].blob, output[0].blob);

  // Take is destructive: both the output and the staged partition are gone.
  EXPECT_TRUE(IsNotFound(client.TakeRoundOutput(7, 0).status()));
  EXPECT_TRUE(IsNotFound(client.FetchPartition(7, 0).status()));
}

/// Wraps an SsiNode handler so that requests of `duplicated_type` are
/// delivered to the node twice, with the first reply "lost" — exactly what a
/// transport-level retry after a dropped reply does to the server.
LoopbackTransport DuplicatingTransport(SsiNode* node, MsgType duplicated_type) {
  return LoopbackTransport([node, duplicated_type](
                               const Bytes& req) -> Result<Bytes> {
    if (!req.empty() && req[0] == static_cast<uint8_t>(duplicated_type)) {
      (void)node->Handle(req);
    }
    return node->Handle(req);
  });
}

TEST(SsiNodeTest, DuplicateCollectionUploadIsNotDoubleCounted) {
  // kUploadCollection must be idempotent per (query, TDS): a retry after a
  // lost reply replays the first delivery's accept bit instead of appending
  // the contribution a second time and skewing the query result.
  SsiNode node;
  LoopbackTransport transport =
      DuplicatingTransport(&node, MsgType::kUploadCollection);
  SsiClient client(&transport);

  ssi::QueryPost post;
  post.query_id = 5;
  ASSERT_TRUE(client.PostGlobal(post).ok());

  std::vector<ssi::EncryptedItem> items = {MakeItem(1, false),
                                           MakeItem(2, false)};
  auto accepted = client.UploadCollection(5, /*tds_id=*/3, items);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_TRUE(*accepted);
  auto n = client.NumAcknowledged(5);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  auto collected = client.TakeCollected(5);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->size(), 2u);  // pre-fix: 4 (contribution duplicated)
}

TEST(SsiNodeTest, RoundOutputTakeSurvivesDuplicateDelivery) {
  // The round-output take is two-phase: the fetch is a re-downloadable read
  // (a retry after a lost reply sees the same bytes, instead of NotFound
  // dropping an already-uploaded output as lost), and only the client's ack
  // afterwards erases the transfer state.
  SsiNode node;
  LoopbackTransport transport =
      DuplicatingTransport(&node, MsgType::kTakeRoundOutput);
  SsiClient client(&transport);

  std::vector<ssi::EncryptedItem> output = {MakeItem(9, true)};
  ASSERT_TRUE(client.UploadRoundOutput(7, 0, output).ok());
  auto taken = client.TakeRoundOutput(7, 0);
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();  // pre-fix: NotFound
  ASSERT_EQ(taken->size(), 1u);
  EXPECT_EQ((*taken)[0].blob, output[0].blob);
  // The ack ran once the items were in hand: the state is gone for good.
  EXPECT_TRUE(IsNotFound(client.TakeRoundOutput(7, 0).status()));
}

TEST(SsiNodeTest, ResultFetchIsIdempotentUntilRetire) {
  // A re-fetch after a lost reply must see the same result (the final
  // download is retry-safe); only Retire removes it.
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);

  std::vector<ssi::EncryptedItem> result = {MakeItem(3, false),
                                            MakeItem(4, true)};
  ASSERT_TRUE(client.DeliverResult(11, result).ok());
  for (int fetch = 0; fetch < 2; ++fetch) {
    auto fetched = client.FetchResult(11);
    ASSERT_TRUE(fetched.ok());
    ASSERT_EQ(fetched->size(), 2u);
    EXPECT_EQ((*fetched)[1].routing_tag, result[1].routing_tag);
  }
}

TEST(SsiNodeTest, RetireClearsTransferState) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);

  ssi::Partition partition;
  partition.items = {MakeItem(5, false)};
  ASSERT_TRUE(client.StagePartition(21, 0, partition).ok());
  ASSERT_TRUE(client.DeliverResult(21, partition.items).ok());
  // Query 21 was never posted to the hub, so Retire reports NotFound — but
  // the transfer remnants must be dropped regardless, so lost partitions
  // cannot outlive their query inside the SSI.
  EXPECT_TRUE(IsNotFound(client.Retire(21)));
  EXPECT_TRUE(IsNotFound(client.FetchPartition(21, 0).status()));
  EXPECT_TRUE(IsNotFound(client.FetchResult(21).status()));
}

TEST(SsiNodeTest, GarbageRequestFrameIsCorruption) {
  SsiNode node;
  auto reply = node.Handle(MakeBytes({0xEE, 0x01, 0x02}));
  EXPECT_TRUE(IsCorruption(reply.status())) << reply.status().ToString();
}

// The same node is reachable over a real socket: the full client surface
// against a TCP server, including an error envelope crossing the wire.
TEST(SsiNodeTest, ServesOverTcp) {
  SsiNode node;
  TcpServer server;
  ASSERT_TRUE(server.Start(node.handler()).ok());
  TcpTransport transport("127.0.0.1", server.port());
  RetryPolicy policy;
  policy.deadline_seconds = 5.0;
  SsiClient client(&transport, policy);

  ssi::Partition partition;
  partition.items = {MakeItem(6, true)};
  ASSERT_TRUE(client.StagePartition(31, 2, partition).ok());
  auto fetched = client.FetchPartition(31, 2);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  ASSERT_EQ(fetched->items.size(), 1u);
  EXPECT_EQ(fetched->items[0].blob, partition.items[0].blob);
  EXPECT_TRUE(IsNotFound(client.FetchPartition(31, 99).status()));
}

// ---------------------------------------------------------------------------
// FaultyTransport: the deterministic fault-injection decorator.

/// A scripted plan that injects `kind` on the nth call of `type` (per-type
/// counter), with everything probabilistic turned off.
FaultPlan ScriptOne(MsgType type, FaultKind kind, uint64_t nth = 1,
                    uint64_t repeat = 1) {
  FaultPlan plan;
  ScriptedFault fault;
  fault.type = type;
  fault.kind = kind;
  fault.scope = ScriptedFault::Scope::kPerType;
  fault.nth = nth;
  fault.repeat = repeat;
  plan.script.push_back(fault);
  return plan;
}

TEST(FaultyTransportTest, DroppedRequestIsRetriedAndCounted) {
  SsiNode node;
  LoopbackTransport inner(node.handler());
  FaultyTransport faulty(&inner,
                         ScriptOne(MsgType::kNumAcknowledged,
                                   FaultKind::kDropRequest));
  obs::MetricsRegistry metrics;
  VirtualClock vclock;
  RetryPolicy policy;
  policy.clock = &vclock;
  SsiClient client(&faulty, policy, &metrics);

  auto n = client.NumAcknowledged(1);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(metrics.snapshot().counters.at("net.retries"), 1u);
  EXPECT_EQ(faulty.injected_count(), 1u);
  ASSERT_EQ(faulty.events().size(), 1u);
  EXPECT_EQ(faulty.events()[0].kind, FaultKind::kDropRequest);
}

TEST(FaultyTransportTest, DroppedReplyStillReachesTheServer) {
  // drop_reply models the server processing the request but the reply frame
  // dying on the way back: the acknowledgement must be counted exactly once
  // even though the client retried.
  SsiNode node;
  LoopbackTransport inner(node.handler());
  FaultyTransport faulty(&inner,
                         ScriptOne(MsgType::kAcknowledge,
                                   FaultKind::kDropReply));
  obs::MetricsRegistry metrics;
  VirtualClock vclock;
  RetryPolicy policy;
  policy.clock = &vclock;
  SsiClient client(&faulty, policy, &metrics);

  ssi::QueryPost post;
  post.query_id = 1;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  ASSERT_TRUE(client.Acknowledge(/*tds_id=*/3, /*query_id=*/1).ok());
  auto n = client.NumAcknowledged(1);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);  // processed once, not twice
  EXPECT_EQ(metrics.snapshot().counters.at("net.retries"), 1u);
}

TEST(FaultyTransportTest, TruncatedReplyIsCorruption) {
  SsiNode node;
  LoopbackTransport inner(node.handler());
  FaultyTransport faulty(&inner,
                         ScriptOne(MsgType::kNumAcknowledged,
                                   FaultKind::kTruncate));
  SsiClient client(&faulty);
  auto n = client.NumAcknowledged(1);
  ASSERT_FALSE(n.ok());
  EXPECT_TRUE(IsCorruption(n.status())) << n.status().ToString();
}

TEST(FaultyTransportTest, DuplicateDeliveryDoesNotDoubleCountMetrics) {
  // Satellite regression: a duplicated kUploadCollection reaches the node
  // twice; the accept bit must be replayed, the contribution stored once,
  // and net.retries untouched (the client made a single call).
  SsiNode node;
  LoopbackTransport inner(node.handler());
  FaultyTransport faulty(&inner,
                         ScriptOne(MsgType::kUploadCollection,
                                   FaultKind::kDuplicate));
  obs::MetricsRegistry metrics;
  SsiClient client(&faulty, RetryPolicy{}, &metrics);

  ssi::QueryPost post;
  post.query_id = 5;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  std::vector<ssi::EncryptedItem> items = {MakeItem(1, false),
                                           MakeItem(2, false)};
  auto accepted = client.UploadCollection(5, /*tds_id=*/3, items);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_TRUE(*accepted);
  auto n = client.NumAcknowledged(5);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  auto collected = client.TakeCollected(5);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->size(), 2u);
  EXPECT_EQ(metrics.snapshot().counters.count("net.retries"), 0u);
}

TEST(FaultyTransportTest, DuplicatedCollectionTakeReplaysTheSameBytes) {
  // Regression for a campaign-discovered bug: kTakeCollected drains the
  // storage, so a duplicated delivery used to hand the client the second
  // (empty) reply — the whole collection silently vanished. The node now
  // replays the first take's bytes.
  SsiNode node;
  LoopbackTransport inner(node.handler());
  FaultyTransport faulty(&inner,
                         ScriptOne(MsgType::kTakeCollected,
                                   FaultKind::kDuplicate));
  SsiClient client(&faulty);

  ssi::QueryPost post;
  post.query_id = 5;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  std::vector<ssi::EncryptedItem> items = {MakeItem(1, false),
                                           MakeItem(2, false)};
  ASSERT_TRUE(client.UploadCollection(5, 3, items).ok());
  auto collected = client.TakeCollected(5);
  ASSERT_TRUE(collected.ok()) << collected.status().ToString();
  EXPECT_EQ(collected->size(), 2u);  // pre-fix: 0 (drained by the duplicate)
}

TEST(FaultyTransportTest, StaleReplayServesThePreviousReply) {
  SsiNode node;
  LoopbackTransport inner(node.handler());
  FaultyTransport faulty(&inner,
                         ScriptOne(MsgType::kNumAcknowledged,
                                   FaultKind::kStaleReplay, /*nth=*/2));
  SsiClient client(&faulty);

  ssi::QueryPost post;
  post.query_id = 1;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  ASSERT_TRUE(client.Acknowledge(3, 1).ok());
  auto first = client.NumAcknowledged(1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);
  ASSERT_TRUE(client.Acknowledge(4, 1).ok());
  // The second read is replayed from the first: the server's new state is
  // hidden from the client.
  auto second = client.NumAcknowledged(1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 1u);
  // The third read goes through for real.
  auto third = client.NumAcknowledged(1);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, 2u);
}

TEST(FaultyTransportTest, DisconnectKillsTheChannelUntilRedial) {
  SsiNode node;
  LoopbackTransport inner(node.handler());
  FaultyTransport faulty(&inner,
                         ScriptOne(MsgType::kNumAcknowledged,
                                   FaultKind::kDisconnect));
  obs::MetricsRegistry metrics;
  VirtualClock vclock;
  RetryPolicy policy;
  policy.clock = &vclock;
  SsiClient client(&faulty, policy, &metrics);

  // The client re-dials on Unavailable, so the retry lands on a fresh
  // channel and succeeds.
  auto n = client.NumAcknowledged(1);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(metrics.snapshot().counters.at("net.retries"), 1u);
}

TEST(FaultyTransportTest, BitFlipIsDeterministicForTheSameSeed) {
  // Two transports with identical plans corrupt identical bits; a different
  // seed picks a different fault schedule. The decision is a pure function
  // of (seed, type, key, attempt) — never of arrival order.
  FaultPlan plan;
  plan.seed = 42;
  plan.per_type[MsgType::kNumAcknowledged].bit_flip = 1.0;

  std::string logs[2];
  for (int run = 0; run < 2; ++run) {
    SsiNode node;
    LoopbackTransport inner(node.handler());
    FaultyTransport faulty(&inner, plan);
    SsiClient client(&faulty);
    (void)client.NumAcknowledged(1);
    (void)client.NumAcknowledged(2);
    logs[run] = faulty.CanonicalLog();
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_FALSE(logs[0].empty());
}

TEST(FaultyTransportTest, DelayConsumesVirtualTimeOnly) {
  FaultPlan plan = ScriptOne(MsgType::kNumAcknowledged, FaultKind::kDelay);
  plan.delay_seconds = 0.5;
  SsiNode node;
  LoopbackTransport inner(node.handler());
  VirtualClock vclock;
  FaultyTransport faulty(&inner, plan, &vclock);
  RetryPolicy policy;
  policy.clock = &vclock;
  SsiClient client(&faulty, policy);

  auto n = client.NumAcknowledged(1);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_DOUBLE_EQ(vclock.total_slept_seconds(), 0.5);
}

// ---------------------------------------------------------------------------
// ByzantineProxy: application-level lies from a hostile SSI.

TEST(ByzantineProxyTest, ForgedAcceptByteLeavesServerUntouched) {
  SsiNode node;
  TamperPlan plan;
  plan.forge_accept_byte = true;
  ByzantineProxy proxy(node.handler(), plan);
  LoopbackTransport transport(proxy.handler());
  SsiClient client(&transport);

  ssi::QueryPost post;
  post.query_id = 5;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  std::vector<ssi::EncryptedItem> items = {MakeItem(1, false)};
  auto accepted = client.UploadCollection(5, 3, items);
  ASSERT_TRUE(accepted.ok());
  // The proxy lies "rejected"; the server actually stored the contribution.
  EXPECT_FALSE(*accepted);
  EXPECT_EQ(proxy.stats().forged_accepts, 1u);
  auto collected = client.TakeCollected(5);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->size(), 1u);
}

TEST(ByzantineProxyTest, ReplayedRoundOutputIsServedOnLaterTakes) {
  SsiNode node;
  TamperPlan plan;
  plan.replay_round_output = true;
  ByzantineProxy proxy(node.handler(), plan);
  LoopbackTransport transport(proxy.handler());
  SsiClient client(&transport);

  std::vector<ssi::EncryptedItem> round1 = {MakeItem(1, false)};
  ASSERT_TRUE(client.UploadRoundOutput(7, 0, round1).ok());
  auto take1 = client.TakeRoundOutput(7, 0);  // acks internally
  ASSERT_TRUE(take1.ok());

  std::vector<ssi::EncryptedItem> round2 = {MakeItem(2, false)};
  ASSERT_TRUE(client.UploadRoundOutput(7, 0, round2).ok());
  auto take2 = client.TakeRoundOutput(7, 0);
  ASSERT_TRUE(take2.ok());
  // The proxy served round 1's recorded bytes instead of round 2's upload —
  // exactly what the engine's digest check must catch.
  ASSERT_EQ(take2->size(), 1u);
  EXPECT_EQ((*take2)[0].blob, round1[0].blob);
  EXPECT_EQ(proxy.stats().replayed_round_outputs, 1u);
}

// ---------------------------------------------------------------------------
// Batch envelope wire format.

TEST(BatchWireTest, RoundTrip) {
  std::vector<BatchCall> calls;
  calls.push_back(BatchCall{7, MakeBytes({1, 2, 3})});
  calls.push_back(BatchCall{9, Bytes()});
  calls.push_back(BatchCall{0xFFFFFFFFFFFFFFFFULL, MakeBytes({4})});
  Bytes frame = EncodeBatchFrame(calls);
  EXPECT_TRUE(IsBatchFrame(frame));
  auto decoded = DecodeBatchFrame(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 3u);
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ((*decoded)[i].correlation_id, calls[i].correlation_id);
    EXPECT_EQ((*decoded)[i].payload, calls[i].payload);
  }
}

TEST(BatchWireTest, SingleCallFramesAreNotBatchFrames) {
  // Every MsgType and reply StatusCode is below kBatchMagic, so legacy
  // frames can never be mistaken for a batch envelope.
  Bytes request;
  ByteWriter(&request).PutU8(static_cast<uint8_t>(MsgType::kFetchPosts));
  EXPECT_FALSE(IsBatchFrame(request));
  Bytes reply = EncodeReplyOk(MakeBytes({1}));
  EXPECT_FALSE(IsBatchFrame(reply));
  EXPECT_TRUE(IsCorruption(DecodeBatchFrame(request).status()));
}

TEST(BatchWireTest, RejectsHostileCountBeforeAllocation) {
  // A count claiming 4 billion calls inside a 10-byte frame must be rejected
  // by arithmetic on the remaining length, never by attempting the reserve.
  Bytes frame;
  ByteWriter w(&frame);
  w.PutU8(kBatchMagic);
  w.PutU8(kBatchVersion);
  w.PutU32(0xFFFFFFFFu);
  EXPECT_TRUE(IsCorruption(DecodeBatchFrame(frame).status()));
}

TEST(BatchWireTest, RejectsCountBeyondBatchCap) {
  // Enough real bytes to back the claimed count, but over kMaxCallsPerBatch:
  // rejected before any per-call decode.
  Bytes frame;
  ByteWriter w(&frame);
  w.PutU8(kBatchMagic);
  w.PutU8(kBatchVersion);
  const uint32_t count = kMaxCallsPerBatch + 1;
  w.PutU32(count);
  Bytes backing(static_cast<size_t>(count) * 12, 0);
  w.PutRaw(backing.data(), backing.size());
  auto decoded = DecodeBatchFrame(frame);
  ASSERT_TRUE(IsCorruption(decoded.status()));
  EXPECT_NE(decoded.status().ToString().find("kMaxCallsPerBatch"),
            std::string::npos);
}

TEST(BatchWireTest, RejectsEmptyVersionedAndTrailingGarbage) {
  Bytes empty;
  ByteWriter we(&empty);
  we.PutU8(kBatchMagic);
  we.PutU8(kBatchVersion);
  we.PutU32(0);
  EXPECT_TRUE(IsCorruption(DecodeBatchFrame(empty).status()));

  std::vector<BatchCall> calls = {BatchCall{1, MakeBytes({1})}};
  Bytes versioned = EncodeBatchFrame(calls);
  versioned[1] = kBatchVersion + 1;
  EXPECT_TRUE(IsCorruption(DecodeBatchFrame(versioned).status()));

  Bytes trailing = EncodeBatchFrame(calls);
  trailing.push_back(0x00);
  EXPECT_TRUE(IsCorruption(DecodeBatchFrame(trailing).status()));
}

// ---------------------------------------------------------------------------
// Batched, pipelined client submission.

BatchOptions TestBatch(size_t max_calls, size_t inflight = 4) {
  BatchOptions batch;
  batch.max_calls_per_frame = max_calls;
  batch.max_inflight_frames = inflight;
  return batch;
}

Bytes NumAckedRequest(uint64_t query_id) {
  Bytes req;
  ByteWriter w(&req);
  w.PutU8(static_cast<uint8_t>(MsgType::kNumAcknowledged));
  w.PutU64(query_id);
  return req;
}

TEST(SsiClientBatchTest, QueuedCallsCoalesceIntoOneFrame) {
  SsiNode node;
  size_t handler_frames = 0;
  LoopbackTransport transport([&](const Bytes& req) -> Result<Bytes> {
    ++handler_frames;
    return node.Handle(req);
  });
  obs::MetricsRegistry metrics;
  SsiClient client(&transport, RetryPolicy{}, &metrics, TestBatch(16));

  std::vector<SsiClient::CallToken> tokens;
  for (int i = 0; i < 16; ++i) tokens.push_back(client.CallAsync(NumAckedRequest(1)));
  for (SsiClient::CallToken token : tokens) {
    auto body = client.Await(token);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    auto n = ByteReader(*body).GetU64();
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 0u);
  }
  EXPECT_EQ(handler_frames, 1u);
  auto snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.counters.at("net.frames_sent"), 1u);
  EXPECT_EQ(snapshot.counters.at("net.calls_sent"), 16u);
  const auto& per_frame = snapshot.histograms.at("net.calls_per_frame");
  EXPECT_EQ(per_frame.count, 1u);
  EXPECT_EQ(per_frame.sum, 16.0);
}

TEST(SsiClientBatchTest, OutOfOrderRepliesAreMatchedByCorrelationId) {
  // An echoing server that completes the batch in reverse order: only
  // correlation-ID matching can hand each caller its own bytes back.
  LoopbackTransport transport([&](const Bytes& req) -> Result<Bytes> {
    TCELLS_ASSIGN_OR_RETURN(std::vector<BatchCall> calls,
                            DecodeBatchFrame(req));
    std::vector<BatchCall> replies;
    for (BatchCall& call : calls) {
      replies.push_back(BatchCall{call.correlation_id,
                                  EncodeReplyOk(call.payload)});
    }
    std::reverse(replies.begin(), replies.end());
    return EncodeBatchFrame(replies);
  });
  SsiClient client(&transport, RetryPolicy{}, nullptr, TestBatch(8));

  std::vector<SsiClient::CallToken> tokens;
  std::vector<Bytes> payloads;
  for (uint8_t i = 0; i < 8; ++i) {
    payloads.push_back(Bytes(4, i));
    tokens.push_back(client.CallAsync(payloads.back()));
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    auto body = client.Await(tokens[i]);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    EXPECT_EQ(*body, payloads[i]);
  }
}

TEST(SsiClientBatchTest, UnknownAndDuplicateCorrelationIdsAreDropped) {
  // The reply batch answers call 0 twice and invents an ID nobody asked for;
  // call 0 keeps the first answer, call 1 fails loudly (its reply is
  // missing), and nothing is silently cross-wired.
  obs::MetricsRegistry metrics;
  LoopbackTransport transport([&](const Bytes& req) -> Result<Bytes> {
    TCELLS_ASSIGN_OR_RETURN(std::vector<BatchCall> calls,
                            DecodeBatchFrame(req));
    std::vector<BatchCall> replies;
    replies.push_back(BatchCall{calls[0].correlation_id,
                                EncodeReplyOk(MakeBytes({1}))});
    replies.push_back(BatchCall{calls[0].correlation_id,
                                EncodeReplyOk(MakeBytes({2}))});
    replies.push_back(BatchCall{calls[0].correlation_id + 1000000,
                                EncodeReplyOk(MakeBytes({3}))});
    return EncodeBatchFrame(replies);
  });
  RetryPolicy policy;
  policy.max_attempts = 1;
  SsiClient client(&transport, policy, &metrics, TestBatch(2));

  SsiClient::CallToken a = client.CallAsync(MakeBytes({0xAA}));
  SsiClient::CallToken b = client.CallAsync(MakeBytes({0xBB}));
  auto reply_a = client.Await(a);
  ASSERT_TRUE(reply_a.ok()) << reply_a.status().ToString();
  EXPECT_EQ(*reply_a, MakeBytes({1}));  // first answer wins
  auto reply_b = client.Await(b);
  EXPECT_TRUE(IsCorruption(reply_b.status())) << reply_b.status().ToString();
  EXPECT_EQ(metrics.snapshot().counters.at("net.stale_replies_dropped"), 2u);
}

TEST(SsiClientBatchTest, BatchMixesSuccessesAndFailures) {
  // One frame carrying one servable call and one application error: each
  // call completes with its own verdict, the error does not poison the
  // frame.
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport, RetryPolicy{}, nullptr, TestBatch(4));

  ssi::Partition partition;
  partition.items = {MakeItem(1, false)};
  ASSERT_TRUE(client.StagePartition(7, /*token=*/0, partition).ok());

  auto make_fetch = [](uint64_t query_id) {
    Bytes req;
    ByteWriter w(&req);
    w.PutU8(static_cast<uint8_t>(MsgType::kFetchPartition));
    w.PutU64(query_id);
    w.PutU64(0);
    return req;
  };
  SsiClient::CallToken hit = client.CallAsync(make_fetch(7));
  SsiClient::CallToken miss = client.CallAsync(make_fetch(99));
  auto fetched = client.Await(hit);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  auto decoded = ssi::Partition::Decode(*fetched);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->items.size(), 1u);
  EXPECT_TRUE(IsNotFound(client.Await(miss).status()));
}

TEST(SsiClientBatchTest, WholeFrameStaleReplayIsRetriedWithFreshIds) {
  // FaultyTransport replays frame 1's reply for frame 2. The replayed batch
  // carries frame 1's correlation IDs, which match nothing in frame 2's
  // attempt — the client must treat the exchange as Unavailable and retry
  // with fresh IDs rather than consume the stale bytes.
  SsiNode node;
  LoopbackTransport loopback(node.handler());
  FaultPlan plan;
  ScriptedFault fault;
  fault.type = static_cast<MsgType>(kBatchMagic);
  fault.kind = FaultKind::kStaleReplay;
  fault.scope = ScriptedFault::Scope::kPerKey;
  fault.nth = 2;
  plan.script.push_back(fault);
  VirtualClock vclock;
  FaultyTransport faulty(&loopback, plan, &vclock);
  obs::MetricsRegistry metrics;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.clock = &vclock;
  SsiClient client(&faulty, policy, &metrics, TestBatch(16));

  auto first = client.NumAcknowledged(1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = client.NumAcknowledged(2);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(faulty.injected_count(), 1u);
  auto counters = metrics.snapshot().counters;
  EXPECT_EQ(counters.at("net.retries"), 1u);
  EXPECT_GE(counters.at("net.stale_replies_dropped"), 1u);
  // calls_sent counts physical attempts, so the invariant
  // frames_sent <= calls_sent survives the retry.
  EXPECT_EQ(counters.at("net.frames_sent"), 3u);
  EXPECT_EQ(counters.at("net.calls_sent"), 3u);
}

TEST(SsiClientBatchTest, DetachedAckFlushesWithLaterTraffic) {
  // In batched mode nobody waits for TakeRoundOutput's ack: it rides a
  // later frame instead of costing its own round trip, and the server state
  // is still erased once it lands.
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport, RetryPolicy{}, nullptr, TestBatch(8));

  std::vector<ssi::EncryptedItem> output = {MakeItem(3, false)};
  ASSERT_TRUE(client.UploadRoundOutput(7, 0, output).ok());
  auto taken = client.TakeRoundOutput(7, 0);
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(taken->size(), 1u);
  client.Flush();  // pushes the detached ack out
  // The ack erased the transfer state: a re-take finds nothing.
  EXPECT_TRUE(IsNotFound(client.TakeRoundOutput(7, 0).status()));
}

TEST(SsiClientBatchTest, GroupCommitAcrossThreadsKeepsEveryCallIntact) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  obs::MetricsRegistry metrics;
  SsiClient client(&transport, RetryPolicy{}, &metrics, TestBatch(64, 2));

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        auto n = client.NumAcknowledged(1);
        if (!n.ok() || *n != 0) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  auto snapshot = metrics.snapshot();
  const uint64_t calls = snapshot.counters.at("net.calls_sent");
  const uint64_t frames = snapshot.counters.at("net.frames_sent");
  EXPECT_EQ(calls, static_cast<uint64_t>(kThreads * kCallsPerThread));
  EXPECT_LE(frames, calls);
  EXPECT_GE(frames, 1u);
  const auto& per_frame = snapshot.histograms.at("net.calls_per_frame");
  EXPECT_EQ(per_frame.count, frames);
  EXPECT_EQ(per_frame.sum, static_cast<double>(calls));
}

TEST(SsiClientBatchTest, SingleCallModeKeepsLegacyWireFormat) {
  // max_calls_per_frame == 1: the request bytes ARE the frame — no batch
  // envelope, no correlation IDs, bit-identical to the pre-batching client.
  Bytes seen;
  LoopbackTransport transport([&](const Bytes& req) -> Result<Bytes> {
    seen = req;
    Bytes body;
    ByteWriter(&body).PutU64(0);
    return EncodeReplyOk(body);
  });
  SsiClient client(&transport, RetryPolicy{}, nullptr, TestBatch(1));
  ASSERT_TRUE(client.NumAcknowledged(5).ok());
  EXPECT_EQ(seen, NumAckedRequest(5));
  EXPECT_FALSE(IsBatchFrame(seen));
}

TEST(SsiNodeTest, ServesBatchFramesInOrder) {
  // The node decodes a batch envelope, dispatches in frame order under one
  // mutex hold, and replies with a batch frame carrying the same IDs.
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient poster(&transport);
  ssi::QueryPost post;
  post.query_id = 1;
  ASSERT_TRUE(poster.PostGlobal(post).ok());

  std::vector<BatchCall> calls;
  Bytes ack;
  ByteWriter wa(&ack);
  wa.PutU8(static_cast<uint8_t>(MsgType::kAcknowledge));
  wa.PutU64(3);  // tds_id
  wa.PutU64(1);  // query_id
  calls.push_back(BatchCall{10, ack});
  calls.push_back(BatchCall{11, NumAckedRequest(1)});
  auto reply = node.Handle(EncodeBatchFrame(calls));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(IsBatchFrame(*reply));
  auto replies = DecodeBatchFrame(*reply);
  ASSERT_TRUE(replies.ok());
  ASSERT_EQ(replies->size(), 2u);
  EXPECT_EQ((*replies)[0].correlation_id, 10u);
  EXPECT_EQ((*replies)[1].correlation_id, 11u);
  // The ack executed before the count in the same frame: NumAcknowledged
  // already sees it.
  auto body = DecodeReply((*replies)[1].payload);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  auto n = ByteReader(*body).GetU64();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
}

/// True when `frame` (single-call or batch) carries a call of `type`.
bool CarriesCall(const Bytes& frame, MsgType type) {
  if (!IsBatchFrame(frame)) {
    return !frame.empty() && frame[0] == static_cast<uint8_t>(type);
  }
  auto calls = DecodeBatchFrame(frame);
  if (!calls.ok()) return false;
  for (const BatchCall& call : *calls) {
    if (!call.payload.empty() &&
        call.payload[0] == static_cast<uint8_t>(type)) {
      return true;
    }
  }
  return false;
}

TEST(SsiClientBatchTest, LateRoundOutputAckCannotEraseTheNextRound) {
  // Round outputs are acked without a round trip, and the next round reuses
  // the token. With several frames in flight, the frame carrying the ack
  // can be overtaken on the wire by the next round's StagePartition and
  // UploadRoundOutput for the same token. The transport below holds the ack
  // frame until two later frames were served (or a timeout passes, which is
  // what happens when the client waits for its ack before reusing the
  // token). An ack landing late would erase the next round's partition and
  // output.
  SsiNode node;
  std::mutex mu;
  std::condition_variable cv;
  bool ack_held = false;
  size_t served_behind_ack = 0;
  LoopbackTransport transport([&](const Bytes& req) -> Result<Bytes> {
    const bool ack = CarriesCall(req, MsgType::kAckRoundOutput);
    if (ack) {
      std::unique_lock<std::mutex> lock(mu);
      ack_held = true;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(1),
                  [&] { return served_behind_ack >= 2; });
    }
    Result<Bytes> reply = node.Handle(req);
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!ack && ack_held) ++served_behind_ack;
    }
    cv.notify_all();
    return reply;
  });
  SsiClient client(&transport, RetryPolicy{}, nullptr,
                   TestBatch(8, /*inflight=*/4));

  // Round 1 on token 0, ending with the take (and its outstanding ack).
  ssi::Partition round1;
  round1.items = {MakeItem(1, false)};
  ASSERT_TRUE(client.StagePartition(7, 0, round1).ok());
  ASSERT_TRUE(client.FetchPartition(7, 0).ok());
  ASSERT_TRUE(client.UploadRoundOutput(7, 0, {MakeItem(2, false)}).ok());
  ASSERT_TRUE(client.TakeRoundOutput(7, 0).ok());

  // Another thread ships the ack; the transport holds it.
  std::thread flusher([&] { client.Flush(); });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return ack_held; }));
  }

  // Round 2 reuses token 0.
  ssi::Partition round2;
  round2.items = {MakeItem(3, true), MakeItem(4, false)};
  std::vector<ssi::EncryptedItem> output2 = {MakeItem(5, true)};
  Status staged = client.StagePartition(7, 0, round2);
  Status uploaded = client.UploadRoundOutput(7, 0, output2);
  flusher.join();
  ASSERT_TRUE(staged.ok()) << staged.ToString();
  ASSERT_TRUE(uploaded.ok()) << uploaded.ToString();

  auto fetched = client.FetchPartition(7, 0);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();  // pre-fix: NotFound
  EXPECT_EQ(fetched->items, round2.items);
  auto taken = client.TakeRoundOutput(7, 0);
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(*taken, output2);
}

// ---------------------------------------------------------------------------
// Shard router fan-out: per-shard work runs concurrently, and nothing the
// router returns may depend on the order the shards finish in.

/// The node and loopback transport behind one ScriptedShard; a base class
/// so they are built before the SsiClient that talks to them.
struct ShardBackend {
  SsiNode node;
  LoopbackTransport transport{node.handler()};
};

/// A router shard: an SsiClient over its own SsiNode whose fan-out verbs
/// first sleep `delay`, so shards given decreasing delays finish a
/// concurrent fan-out in reverse index order. Chosen verbs can be scripted
/// to fail.
class ScriptedShard : private ShardBackend, public SsiClient {
 public:
  explicit ScriptedShard(std::chrono::milliseconds delay)
      : SsiClient(&transport), delay_(delay) {}

  std::optional<Status> fail_post;
  std::optional<Status> fail_upload;
  std::optional<Status> fail_take;
  std::optional<Status> fail_retire;
  std::atomic<int> retires{0};

  Status PostGlobal(const ssi::QueryPost& post) override {
    Pause();
    if (fail_post) return *fail_post;
    return SsiClient::PostGlobal(post);
  }
  std::vector<Result<std::vector<ssi::QueryPost>>> FetchPostsBatch(
      const std::vector<uint64_t>& tds_ids) override {
    Pause();
    return SsiClient::FetchPostsBatch(tds_ids);
  }
  Status Acknowledge(uint64_t tds_id, uint64_t query_id) override {
    Pause();
    return SsiClient::Acknowledge(tds_id, query_id);
  }
  Result<uint64_t> NumAcknowledged(uint64_t query_id) override {
    Pause();
    return SsiClient::NumAcknowledged(query_id);
  }
  std::vector<Result<bool>> UploadCollectionBatch(
      const std::vector<CollectionUpload>& uploads) override {
    Pause();
    if (fail_upload) {
      return std::vector<Result<bool>>(uploads.size(), *fail_upload);
    }
    return SsiClient::UploadCollectionBatch(uploads);
  }
  Result<std::vector<ssi::EncryptedItem>> TakeCollected(
      uint64_t query_id) override {
    Pause();
    if (fail_take) return *fail_take;
    return SsiClient::TakeCollected(query_id);
  }
  Result<ssi::AdversaryView> GetAdversaryView(uint64_t query_id) override {
    Pause();
    return SsiClient::GetAdversaryView(query_id);
  }
  Status Retire(uint64_t query_id) override {
    Pause();
    retires.fetch_add(1);
    if (fail_retire) return *fail_retire;
    return SsiClient::Retire(query_id);
  }

 private:
  void Pause() {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
  }

  std::chrono::milliseconds delay_;
};

constexpr size_t kRouterShards = 4;

/// Four shards; `reverse` gives shard i a delay of (3 - i) * 3 ms, so a
/// concurrent fan-out completes shard 3 first and shard 0 last.
std::vector<std::unique_ptr<ScriptedShard>> MakeShards(bool reverse) {
  std::vector<std::unique_ptr<ScriptedShard>> shards;
  for (size_t i = 0; i < kRouterShards; ++i) {
    auto delay = std::chrono::milliseconds(
        reverse ? 3 * static_cast<int>(kRouterShards - 1 - i) : 0);
    shards.push_back(std::make_unique<ScriptedShard>(delay));
  }
  return shards;
}

std::vector<SsiApi*> Apis(
    const std::vector<std::unique_ptr<ScriptedShard>>& shards) {
  std::vector<SsiApi*> apis;
  for (const auto& shard : shards) apis.push_back(shard.get());
  return apis;
}

/// 40 uploads of 1-2 items (54 items) for query `query_id`, TDS ids 0..39.
std::vector<CollectionUpload> MakeUploads(uint64_t query_id) {
  std::vector<CollectionUpload> uploads;
  for (uint8_t id = 0; id < 40; ++id) {
    CollectionUpload u;
    u.query_id = query_id;
    u.tds_id = id;
    u.items = {MakeItem(id, id % 2 == 0)};
    if (id % 3 == 0) u.items.push_back(MakeItem(id + 100, false));
    uploads.push_back(std::move(u));
  }
  return uploads;
}

std::string Describe(const Result<bool>& r) {
  if (!r.ok()) return r.status().ToString();
  return *r ? "accepted" : "dropped";
}

/// Everything the router returns over one global query's collection, as
/// comparable lines.
std::vector<std::string> RouterTranscript(ShardedSsiClient* router) {
  std::vector<std::string> out;
  ssi::QueryPost post;
  post.query_id = 1;
  post.size_max_tuples = 40;  // closes the storage area mid-batch
  out.push_back("post " + router->PostGlobal(post).ToString());
  std::vector<uint64_t> ids(40);
  std::iota(ids.begin(), ids.end(), 0);
  for (const auto& fetched : router->FetchPostsBatch(ids)) {
    out.push_back(fetched.ok() ? "posts " + std::to_string(fetched->size())
                               : fetched.status().ToString());
  }
  for (const auto& accepted : router->UploadCollectionBatch(MakeUploads(1))) {
    out.push_back("upload " + Describe(accepted));
  }
  auto acked = router->NumAcknowledged(1);
  out.push_back(acked.ok() ? "acked " + std::to_string(*acked)
                           : acked.status().ToString());
  auto taken = router->TakeCollected(1);
  if (taken.ok()) {
    for (const auto& item : *taken) {
      out.push_back("item " + std::to_string(item.blob[0]));
    }
  } else {
    out.push_back(taken.status().ToString());
  }
  auto view = router->GetAdversaryView(1);
  if (view.ok()) {
    Bytes encoded;
    view->EncodeTo(&encoded);
    out.push_back("view " + std::to_string(encoded.size()) + " " +
                  std::to_string(view->collection_items));
  } else {
    out.push_back(view.status().ToString());
  }
  out.push_back("retire " + router->Retire(1).ToString());
  return out;
}

TEST(ShardRouterFanOutTest, ReverseCompletionMatchesInOrderCompletion) {
  auto in_order = MakeShards(/*reverse=*/false);
  ShardedSsiClient in_order_router(Apis(in_order));
  auto reversed = MakeShards(/*reverse=*/true);
  ShardedSsiClient reversed_router(Apis(reversed));

  std::vector<std::string> want = RouterTranscript(&in_order_router);
  EXPECT_EQ(RouterTranscript(&reversed_router), want);
  // The SIZE bound cut the batch: some uploads were dropped unforwarded.
  EXPECT_NE(std::find(want.begin(), want.end(), "upload dropped"),
            want.end());

  // And one shard (the router as a pass-through) agrees on every accept
  // bit and on the collected order.
  auto single = MakeShards(/*reverse=*/false);
  single.resize(1);
  ShardedSsiClient single_router(Apis(single));
  EXPECT_EQ(RouterTranscript(&single_router), want);
}

TEST(ShardRouterFanOutTest, FailingShardKeepsItsErrorAndRollsBackItsLog) {
  for (bool reverse : {false, true}) {
    SCOPED_TRACE(reverse ? "reverse completion" : "in-order completion");
    auto shards = MakeShards(reverse);
    const Status down = Status::Unavailable("shard 2 down");
    shards[2]->fail_upload = down;
    ShardedSsiClient router(Apis(shards));

    ssi::QueryPost post;
    post.query_id = 1;
    post.size_max_tuples = 40;
    ASSERT_TRUE(router.PostGlobal(post).ok());
    std::vector<CollectionUpload> uploads = MakeUploads(1);
    std::vector<Result<bool>> accepts = router.UploadCollectionBatch(uploads);
    ASSERT_EQ(accepts.size(), uploads.size());

    // The router predicted every forwarded upload accepted, so the bound
    // cut the batch as if shard 2 had accepted; shard 2's slots then carry
    // its own error and nothing else changes.
    std::vector<ssi::EncryptedItem> want_items;
    uint64_t accepted_items = 0, failed = 0, dropped = 0;
    for (size_t i = 0; i < uploads.size(); ++i) {
      const bool on_failing = router.ShardOfTds(uploads[i].tds_id) == 2;
      if (!accepts[i].ok()) {
        EXPECT_TRUE(on_failing);
        EXPECT_EQ(accepts[i].status().ToString(), down.ToString());
        ++failed;
        continue;
      }
      if (!*accepts[i]) {
        ++dropped;
        continue;
      }
      EXPECT_FALSE(on_failing);
      accepted_items += uploads[i].items.size();
      want_items.insert(want_items.end(), uploads[i].items.begin(),
                        uploads[i].items.end());
    }
    EXPECT_GT(failed, 0u);
    EXPECT_GT(dropped, 0u);
    ASSERT_LT(accepted_items, 40u);
    // The failed uploads left the upload log: the global count fell back
    // below the bound, and the drain holds exactly the accepted items in
    // submission order.
    auto reached = router.SizeReached(1);
    ASSERT_TRUE(reached.ok());
    EXPECT_FALSE(*reached);
    auto taken = router.TakeCollected(1);
    ASSERT_TRUE(taken.ok()) << taken.status().ToString();
    EXPECT_EQ(*taken, want_items);
    auto acked = router.NumAcknowledged(1);
    ASSERT_TRUE(acked.ok());
    EXPECT_EQ(*acked, uploads.size() - failed);
  }
}

TEST(ShardRouterFanOutTest, LowestIndexShardErrorWins) {
  // Shards 1 and 3 fail; with reverse completion shard 3 fails first, yet
  // the router must report shard 1's error every time.
  auto shards = MakeShards(/*reverse=*/true);
  ShardedSsiClient router(Apis(shards));
  const Status err1 = Status::Internal("shard 1 failed");
  const Status err3 = Status::Internal("shard 3 failed");

  // PostGlobal: every shard that accepted the post is rolled back.
  shards[1]->fail_post = err1;
  shards[3]->fail_post = err3;
  ssi::QueryPost post;
  post.query_id = 1;
  EXPECT_EQ(router.PostGlobal(post).ToString(), err1.ToString());
  for (size_t i = 0; i < kRouterShards; ++i) {
    EXPECT_EQ(shards[i]->retires.load(), (i == 0 || i == 2) ? 1 : 0) << i;
    for (uint64_t tds = 0; tds < 8; ++tds) {
      auto posts = shards[i]->FetchPosts(tds);
      ASSERT_TRUE(posts.ok());
      EXPECT_TRUE(posts->empty());
    }
  }
  shards[1]->fail_post.reset();
  shards[3]->fail_post.reset();

  post.query_id = 2;
  ASSERT_TRUE(router.PostGlobal(post).ok());
  for (const auto& accepted : router.UploadCollectionBatch(MakeUploads(2))) {
    ASSERT_TRUE(accepted.ok() && *accepted);
  }
  shards[1]->fail_take = err1;
  shards[3]->fail_take = err3;
  EXPECT_EQ(router.TakeCollected(2).status().ToString(), err1.ToString());
  shards[1]->fail_retire = err1;
  shards[3]->fail_retire = err3;
  EXPECT_EQ(router.Retire(2).ToString(), err1.ToString());
}

}  // namespace
}  // namespace tcells::net
