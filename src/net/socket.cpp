#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace nubb {

namespace {

/// Receive buffer per connection. A request or response frame is tens of
/// bytes, so one recv usually takes a whole frame, often several; reads of
/// at least this size (the bulk of a Snapshot payload) bypass the buffer.
constexpr std::size_t kReceiveBufferBytes = 32 << 10;

[[noreturn]] void throw_errno(const std::string& what) {
  throw WireError("socket: " + what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  // Request/response round trips are latency-bound; without this, Nagle
  // holds the final partial segment of every frame until the peer ACKs.
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

struct AddrInfoHolder {
  addrinfo* list = nullptr;
  ~AddrInfoHolder() {
    if (list != nullptr) ::freeaddrinfo(list);
  }
};

}  // namespace

SocketChannel SocketChannel::connect(const std::string& host, std::uint16_t port,
                                     std::uint32_t max_frame_bytes) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  AddrInfoHolder res;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res.list);
  if (rc != 0) {
    throw WireError("socket: cannot resolve " + host + ": " + ::gai_strerror(rc));
  }
  int last_errno = 0;
  for (const addrinfo* ai = res.list; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      return SocketChannel(fd, max_frame_bytes);
    }
    last_errno = errno;
    ::close(fd);
  }
  errno = last_errno;
  throw_errno("cannot connect to " + host + ":" + service);
}

SocketChannel::SocketChannel(int fd, std::uint32_t max_frame_bytes)
    : Channel(max_frame_bytes), fd_(fd), rbuf_(kReceiveBufferBytes) {
  set_nodelay(fd_);
}

SocketChannel::SocketChannel(SocketChannel&& other) noexcept
    : Channel(other.max_frame_bytes()),
      fd_(std::exchange(other.fd_, -1)),
      rbuf_(std::move(other.rbuf_)),
      rpos_(std::exchange(other.rpos_, 0)),
      rend_(std::exchange(other.rend_, 0)) {}

SocketChannel::~SocketChannel() {
  if (fd_ >= 0) ::close(fd_);
}

void SocketChannel::shutdown_write() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void SocketChannel::write_frame(std::span<const std::uint8_t> header,
                                std::span<const std::uint8_t> payload) {
  // Header and payload in one gathered write: with TCP_NODELAY two send()
  // calls put a small frame in two segments and can wake the peer for the
  // header alone. The payload is not copied (a Snapshot is megabytes).
  iovec iov[2] = {{const_cast<std::uint8_t*>(header.data()), header.size()},
                  {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  std::size_t left = header.size() + payload.size();
  for (;;) {
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send failed");
    }
    std::size_t sent = static_cast<std::size_t>(n);
    left -= sent;
    if (left == 0) return;
    // Partial write: drop the entries already sent, trim the one cut short.
    while (sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    msg.msg_iov->iov_base = static_cast<std::uint8_t*>(msg.msg_iov->iov_base) + sent;
    msg.msg_iov->iov_len -= sent;
  }
}

std::size_t SocketChannel::read_bytes(std::uint8_t* data, std::size_t size) {
  if (rpos_ == rend_) {
    if (size >= rbuf_.size()) return recv_some(data, size);
    rpos_ = 0;
    rend_ = recv_some(rbuf_.data(), rbuf_.size());
  }
  const std::size_t n = std::min(size, rend_ - rpos_);
  std::memcpy(data, rbuf_.data() + rpos_, n);
  rpos_ += n;
  return n;
}

std::size_t SocketChannel::recv_some(std::uint8_t* data, std::size_t size) {
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv failed");
    }
    return static_cast<std::size_t>(n);  // 0 = orderly peer shutdown
  }
}

SocketListener::SocketListener(const std::string& host, std::uint16_t port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("cannot create listener");

  int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw WireError("socket: listener host must be a numeric IPv4 address, got " + host);
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("cannot bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd_, backlog) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("cannot listen");
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("cannot read bound port");
  }
  port_ = ntohs(bound.sin_port);
}

SocketListener::~SocketListener() {
  if (fd_ >= 0) ::close(fd_);
}

int SocketListener::accept_for(int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return -1;  // treated as a timeout tick
    throw_errno("poll on listener failed");
  }
  if (ready == 0) return -1;
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return -1;
    throw_errno("accept failed");
  }
  return fd;
}

}  // namespace nubb
