#pragma once

/// \file socket.hpp
/// Blocking TCP transport for the frame protocol: a `SocketChannel` over a
/// connected stream socket plus the `SocketListener` the daemon accepts
/// from. Loopback-first: the daemon binds 127.0.0.1 by default and nothing
/// here speaks TLS — the serving protocol is an unauthenticated lab
/// instrument, not an internet endpoint (docs/serving.md).
///
/// Both classes are thin RAII wrappers over POSIX file descriptors; all
/// I/O is blocking with EINTR retried, so a session thread parks in
/// recv(2) between requests and the accept loop polls with a timeout in
/// order to notice shutdown.

#include <cstdint>
#include <string>
#include <vector>

#include "net/channel.hpp"

namespace nubb {

/// A connected TCP stream speaking the frame protocol. Use one per thread;
/// the framing state machine and the receive buffer are not reentrant
/// (same contract as StreamChannel).
///
/// Each frame goes out in one gathered `sendmsg`, and reads are served
/// from a per-connection buffer refilled by one `recv`, so a small frame
/// costs one segment and one wake-up on each side. The buffer can hold
/// bytes the kernel no longer reports as readable: code that polls `fd()`
/// for the next frame must first consume what is buffered.
class SocketChannel final : public Channel {
 public:
  /// Connect to host:port (numeric IPv4 dotted quad or a resolvable name).
  /// \throws WireError when resolution or connection fails.
  static SocketChannel connect(const std::string& host, std::uint16_t port,
                               std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// Adopt an already-connected descriptor (the accept path). Takes
  /// ownership; the descriptor is closed on destruction.
  explicit SocketChannel(int fd, std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// Carries the descriptor and any buffered, not yet consumed bytes.
  SocketChannel(SocketChannel&& other) noexcept;
  SocketChannel& operator=(SocketChannel&&) = delete;
  ~SocketChannel() override;

  int fd() const noexcept { return fd_; }

  /// Shut down the write side so the peer's next read sees EOF; reads keep
  /// draining. Lets a client signal "no more requests" without closing.
  void shutdown_write() noexcept;

 protected:
  void write_frame(std::span<const std::uint8_t> header,
                   std::span<const std::uint8_t> payload) override;
  std::size_t read_bytes(std::uint8_t* data, std::size_t size) override;

 private:
  /// One recv(2) into `data`, EINTR retried; 0 = orderly peer shutdown.
  std::size_t recv_some(std::uint8_t* data, std::size_t size);

  int fd_ = -1;
  std::vector<std::uint8_t> rbuf_;  // received, not yet consumed: [rpos_, rend_)
  std::size_t rpos_ = 0;
  std::size_t rend_ = 0;
};

/// A listening TCP socket bound to `host:port`. Port 0 requests an
/// ephemeral port; `port()` reports the bound one (the daemon prints it and
/// writes it to --port-file so scripts can find the server).
class SocketListener {
 public:
  /// \throws WireError when bind or listen fails.
  SocketListener(const std::string& host, std::uint16_t port, int backlog = 64);

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;
  ~SocketListener();

  /// The port actually bound (resolves ephemeral requests).
  std::uint16_t port() const noexcept { return port_; }

  /// Wait up to `timeout_ms` for a connection. Returns the connected
  /// descriptor, or -1 on timeout — the accept loop's chance to check its
  /// shutdown flag. \throws WireError on listener failure.
  int accept_for(int timeout_ms);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace nubb
