/// Loopback TCP transport tests: SocketListener + SocketChannel carrying
/// the frame protocol, and the PlacementServer accept loop end to end.
/// Everything binds 127.0.0.1 on an ephemeral port — no fixed ports, no
/// external network.

#include "net/socket.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/socket.h>

#ifdef __linux__
#include <linux/tcp.h>
#include <netinet/in.h>
#endif

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/service.hpp"

namespace nubb {
namespace {

ServiceConfig small_config() {
  ServiceConfig cfg;
  cfg.capacities = {1, 1, 4, 4};
  cfg.seed = 7;
  return cfg;
}

/// Accept one connection, with enough poll ticks to not flake on a slow
/// machine. Returns the connected descriptor.
int accept_one(SocketListener& listener) {
  for (int tick = 0; tick < 100; ++tick) {
    const int fd = listener.accept_for(100);
    if (fd >= 0) return fd;
  }
  return -1;
}

/// A connected loopback pair: `client` from connect(), `server` accepted.
struct LoopbackPair {
  SocketListener listener{"127.0.0.1", 0};
  SocketChannel client = SocketChannel::connect("127.0.0.1", listener.port());
  SocketChannel server{accept_one(listener)};
};

/// The exact bytes a channel puts on the wire for `msg`.
template <typename Msg>
std::string frame_bytes(const Msg& msg) {
  std::stringstream wire;
  StreamChannel channel(wire, wire);
  send_message(channel, msg);
  return wire.str();
}

/// Write `bytes` with one raw send(), bypassing the channel's framing.
void send_raw(int fd, const std::string& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

/// Bytes the kernel holds for `fd` that no recv() has taken yet.
int kernel_readable_bytes(int fd) {
  int n = -1;
  EXPECT_EQ(::ioctl(fd, FIONREAD, &n), 0);
  return n;
}

/// The WireError receive_frame raises, or "" when it raises none.
std::string receive_error(Channel& channel) {
  Frame frame;
  try {
    (void)channel.receive_frame(frame);
  } catch (const WireError& e) {
    return e.what();
  }
  return "";
}

TEST(SocketTest, AcceptTimesOutWhenNobodyConnects) {
  SocketListener listener("127.0.0.1", 0);
  EXPECT_GT(listener.port(), 0u);
  EXPECT_EQ(listener.accept_for(10), -1);
}

TEST(SocketTest, FramesRoundTripOverLoopback) {
  SocketListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();

  // Server side: accept one session, echo every frame back verbatim.
  std::thread server([&] {
    const int fd = accept_one(listener);
    ASSERT_GE(fd, 0);
    SocketChannel channel(fd);
    Frame frame;
    while (channel.receive_frame(frame)) {
      channel.send_frame(frame.type, frame.payload);
    }
  });

  SocketChannel client = SocketChannel::connect("127.0.0.1", port);
  SnapshotResponse snap;
  snap.total_balls = 99;
  snap.counts = {1, 2, 96};
  send_message(client, snap);
  Frame frame;
  ASSERT_TRUE(client.receive_frame(frame));
  EXPECT_EQ(decode_message<SnapshotResponse>(frame), snap);

  // Half-close: the server sees clean EOF and its loop ends.
  client.shutdown_write();
  ASSERT_FALSE(client.receive_frame(frame));
  server.join();
}

TEST(SocketTest, ServiceSessionOverTcpMatchesDirectCalls) {
  PlacementService served(small_config());
  SocketListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();

  std::thread server([&] {
    const int fd = accept_one(listener);
    ASSERT_GE(fd, 0);
    SocketChannel channel(fd);
    served.serve(channel);
  });

  SocketChannel client = SocketChannel::connect("127.0.0.1", port);
  const auto batch =
      round_trip<BatchPlaceResponse>(client, BatchPlaceRequest{kNoTicket, 10, 1});
  EXPECT_EQ(batch.placed, 10u);
  const auto snap = round_trip<SnapshotResponse>(client, SnapshotRequest{});
  client.shutdown_write();
  server.join();

  // The same config driven directly (no sockets) must land identically.
  PlacementService direct(small_config());
  direct.batch_place(BatchPlaceRequest{kNoTicket, 10, 1});
  EXPECT_EQ(snap, direct.snapshot());
}

TEST(SocketTest, ServerErrorsTravelAsServeError) {
  PlacementService served(small_config());
  SocketListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();

  std::thread server([&] {
    const int fd = accept_one(listener);
    ASSERT_GE(fd, 0);
    SocketChannel channel(fd);
    served.serve(channel);
  });

  SocketChannel client = SocketChannel::connect("127.0.0.1", port);
  EXPECT_THROW((void)round_trip<LookupResponse>(client, LookupRequest{999}), ServeError);
  // The semantic error must not have killed the session.
  const auto ok = round_trip<LookupResponse>(client, LookupRequest{0});
  EXPECT_EQ(ok.bin, 0u);
  client.shutdown_write();
  server.join();
}

TEST(SocketTest, ConnectToUnboundPortFails) {
  // Bind and immediately release a port so nothing is listening on it.
  std::uint16_t dead_port = 0;
  { dead_port = SocketListener("127.0.0.1", 0).port(); }
  EXPECT_THROW((void)SocketChannel::connect("127.0.0.1", dead_port), WireError);
}

#ifdef __linux__
std::uint32_t data_segments_sent(int fd) {
  tcp_info info{};
  socklen_t len = sizeof(info);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_INFO, &info, &len), 0);
  return info.tcpi_data_segs_out;
}
#endif

TEST(SocketTest, SmallFrameLeavesAsOneSegment) {
#ifndef __linux__
  GTEST_SKIP() << "TCP_INFO segment counters are Linux-only";
#else
  LoopbackPair pair;
  const std::uint32_t before_request = data_segments_sent(pair.client.fd());
  send_message(pair.client, PlaceRequest{});
  EXPECT_EQ(data_segments_sent(pair.client.fd()) - before_request, 1u);

  Frame frame;
  ASSERT_TRUE(pair.server.receive_frame(frame));
  const PlaceResponse response{7, 3, 10};
  const std::uint32_t before_response = data_segments_sent(pair.server.fd());
  send_message(pair.server, response);
  EXPECT_EQ(data_segments_sent(pair.server.fd()) - before_response, 1u);
  ASSERT_TRUE(pair.client.receive_frame(frame));
  EXPECT_EQ(decode_message<PlaceResponse>(frame), response);
#endif
}

// --- framing edge cases over TCP (the StreamChannel matrix: test_channel.cpp) ---

TEST(SocketFraming, EightMebibyteSnapshotRoundTripsByteForByte) {
  LoopbackPair pair;
  // A small send buffer makes the sender block mid-frame, and the signals
  // below interrupt that sendmsg: the first returns a partial count, later
  // ones fail with EINTR. The write must resume exactly where it stopped.
  const int client_fd = pair.client.fd();
  const int send_buffer = 64 << 10;
  ASSERT_EQ(::setsockopt(client_fd, SOL_SOCKET, SO_SNDBUF, &send_buffer, sizeof(send_buffer)), 0);
  struct sigaction no_restart = {};
  no_restart.sa_handler = [](int) {};
  sigemptyset(&no_restart.sa_mask);
  struct sigaction previous = {};
  ASSERT_EQ(::sigaction(SIGUSR1, &no_restart, &previous), 0);

  SnapshotResponse snap;
  snap.counts.resize(std::size_t{1} << 20);
  for (std::size_t i = 0; i < snap.counts.size(); ++i) snap.counts[i] = i * 0x9E3779B97F4A7C15ull;
  snap.total_balls = 12345;
  WireWriter expected;
  snap.encode(expected);

  std::thread sender([&] {
    EXPECT_NO_THROW(send_message(pair.client, snap));
    pair.client.shutdown_write();  // a failed send then ends the receive, not hangs it
  });
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::pthread_kill(sender.native_handle(), SIGUSR1);
  }
  Frame frame;
  bool got = false;
  EXPECT_NO_THROW(got = pair.server.receive_frame(frame));
  sender.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  ASSERT_TRUE(got);
  EXPECT_EQ(frame.type, MessageType::kSnapshotResponse);
  EXPECT_TRUE(frame.payload == expected.bytes());
  EXPECT_EQ(decode_message<SnapshotResponse>(frame), snap);
}

TEST(SocketFraming, BackToBackFramesDecodeInOrderThenCleanEof) {
  LoopbackPair pair;
  const BatchPlaceRequest batch{kNoTicket, 5, 1};
  send_message(pair.client, LookupRequest{1});
  send_message(pair.client, batch);
  pair.client.shutdown_write();

  Frame frame;
  ASSERT_TRUE(pair.server.receive_frame(frame));
  EXPECT_EQ(decode_message<LookupRequest>(frame), LookupRequest{1});
  ASSERT_TRUE(pair.server.receive_frame(frame));
  EXPECT_EQ(decode_message<BatchPlaceRequest>(frame), batch);
  EXPECT_FALSE(pair.server.receive_frame(frame));
}

TEST(SocketFraming, FrameSentOneByteAtATimeDecodesTheSame) {
  LoopbackPair pair;
  const PlaceRequest request{42, 1};
  const std::string bytes = frame_bytes(request);
  std::thread sender([&] {
    for (const char byte : bytes) {
      send_raw(pair.client.fd(), std::string(1, byte));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  Frame frame;
  const bool got = pair.server.receive_frame(frame);
  sender.join();
  ASSERT_TRUE(got);
  EXPECT_EQ(decode_message<PlaceRequest>(frame), request);
}

TEST(SocketFraming, PeerClosingMidFrameRaisesTheStreamChannelError) {
  const std::string bytes = frame_bytes(LookupRequest{7});
  // Mid-header, between header and payload, mid-payload.
  for (const std::size_t cut : {std::size_t{5}, std::size_t{12}, bytes.size() - 3}) {
    SCOPED_TRACE(cut);
    std::istringstream in(bytes.substr(0, cut));
    std::ostringstream out;
    StreamChannel stream(in, out);
    const std::string expected = receive_error(stream);
    ASSERT_FALSE(expected.empty());

    SocketListener listener("127.0.0.1", 0);
    {
      SocketChannel peer = SocketChannel::connect("127.0.0.1", listener.port());
      send_raw(peer.fd(), bytes.substr(0, cut));
    }  // the peer closes mid-frame
    SocketChannel channel(accept_one(listener));
    EXPECT_EQ(receive_error(channel), expected);
  }
}

TEST(SocketFraming, MovedChannelYieldsTheFrameItBuffered) {
  LoopbackPair pair;
  send_message(pair.client, LookupRequest{1});
  send_message(pair.client, LookupRequest{2});
  pair.client.shutdown_write();

  // Let both frames reach the server's socket, so the first receive takes
  // the second one into the channel's buffer as well.
  const int both = static_cast<int>(2 * frame_bytes(LookupRequest{}).size());
  for (int tick = 0; tick < 500 && kernel_readable_bytes(pair.server.fd()) < both; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(kernel_readable_bytes(pair.server.fd()), both);
  Frame frame;
  ASSERT_TRUE(pair.server.receive_frame(frame));
  EXPECT_EQ(decode_message<LookupRequest>(frame), LookupRequest{1});
  ASSERT_EQ(kernel_readable_bytes(pair.server.fd()), 0);

  SocketChannel moved(std::move(pair.server));
  ASSERT_TRUE(moved.receive_frame(frame));
  EXPECT_EQ(decode_message<LookupRequest>(frame), LookupRequest{2});
  EXPECT_FALSE(moved.receive_frame(frame));
}

TEST(PlacementServerTest, ServesConcurrentClientsUntilShutdown) {
  PlacementService service(small_config());
  ServerConfig cfg;
  cfg.session_threads = 4;
  cfg.accept_poll_ms = 20;
  PlacementServer server(service, cfg);
  const std::uint16_t port = server.port();
  ASSERT_GT(port, 0u);

  std::uint64_t sessions_served = 0;
  std::thread daemon([&] { sessions_served = server.run(); });

  constexpr int kClients = 3;
  constexpr std::uint64_t kBallsEach = 2;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      SocketChannel channel = SocketChannel::connect("127.0.0.1", port);
      const auto resp =
          round_trip<BatchPlaceResponse>(channel, BatchPlaceRequest{kNoTicket, kBallsEach, 1});
      EXPECT_EQ(resp.placed, kBallsEach);
      channel.shutdown_write();
    });
  }
  for (std::thread& t : clients) t.join();

  // A served Shutdown request ends the accept loop; run() drains and returns.
  {
    SocketChannel channel = SocketChannel::connect("127.0.0.1", port);
    (void)round_trip<ShutdownResponse>(channel, ShutdownRequest{});
  }
  daemon.join();

  EXPECT_EQ(sessions_served, static_cast<std::uint64_t>(kClients) + 1);
  EXPECT_EQ(service.balls_placed(), kClients * kBallsEach);
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(PlacementServerTest, StopEndsRunWithoutAServedShutdown) {
  PlacementService service(small_config());
  ServerConfig cfg;
  cfg.accept_poll_ms = 10;
  PlacementServer server(service, cfg);
  std::thread daemon([&] { server.run(); });
  server.stop();
  daemon.join();
  EXPECT_FALSE(service.shutdown_requested());
}

}  // namespace
}  // namespace nubb
