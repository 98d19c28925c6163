#pragma once

/// \file channel.hpp
/// Transport abstraction of the serving subsystem: framed, versioned
/// binary messages over an arbitrary byte pipe.
///
/// A frame is a fixed 12-byte header followed by the payload:
///
///   magic   u32  0x4242554E ("NUBB" little-endian) — stream sync check
///   version u16  kWireVersion — both sides must speak the same major
///   type    u16  MessageType of the payload (net/protocol.hpp)
///   length  u32  payload byte count, checked against max_frame_bytes
///
/// `Channel` is the interface the daemon, the client, and every test
/// speak; `StreamChannel` runs it over caller-supplied iostreams (the
/// deterministic in-process transport), `SocketChannel`
/// (net/socket.hpp) over blocking TCP. Patterned on APSI's network
/// layer (channel / stream_channel / zmq_channel): the protocol layer
/// never knows which transport carries its frames.
///
/// Thread discipline: one channel belongs to one session thread. Two
/// threads may own the two ends of a connected pair, but a single end is
/// never shared without external locking.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "net/wire.hpp"

namespace nubb {

/// Frame magic: "NUBB" read as a little-endian u32.
inline constexpr std::uint32_t kFrameMagic = 0x4242554E;

/// Wire-format version. Bump on any incompatible header or message-layout
/// change; both sides refuse mismatched versions (docs/serving.md has the
/// compatibility rules).
inline constexpr std::uint16_t kWireVersion = 1;

/// Default receive-side payload ceiling. Large enough for a Snapshot of
/// ~8M bins; small enough that a corrupt length field cannot drive an
/// absurd allocation. Channels accept a custom limit for bigger arrays.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 64u << 20;

/// Message discriminator carried in every frame header. Requests occupy
/// the low range, responses the high range; kError can answer anything.
enum class MessageType : std::uint16_t {
  kPlaceRequest = 1,
  kBatchPlaceRequest = 2,
  kLookupRequest = 3,
  kSnapshotRequest = 4,
  kStatsRequest = 5,
  kShutdownRequest = 6,

  kPlaceResponse = 129,
  kBatchPlaceResponse = 130,
  kLookupResponse = 131,
  kSnapshotResponse = 132,
  kStatsResponse = 133,
  kShutdownResponse = 134,
  kErrorResponse = 255,
};

/// One received frame: the header's type plus the raw payload. The
/// protocol layer decodes the payload into a typed message.
struct Frame {
  MessageType type = MessageType::kErrorResponse;
  std::vector<std::uint8_t> payload;
};

/// Framed bidirectional message transport.
class Channel {
 public:
  explicit Channel(std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}
  virtual ~Channel() = default;

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Send one frame: the 12-byte header, then the payload; returns once
  /// the transport has taken every byte. Neither transport makes a frame
  /// atomic on the wire. `SocketChannel` hands header and payload to the
  /// kernel in one gathered write, so a frame that fits one TCP segment
  /// leaves as one, but a larger one can reach the peer in pieces, which
  /// `receive_frame` reassembles. `StreamChannel` writes both to its
  /// ostream, then flushes.
  /// \throws WireError when the payload exceeds max_frame_bytes or the
  ///         transport fails.
  void send_frame(MessageType type, const std::vector<std::uint8_t>& payload);

  /// Receive one frame. Returns false on clean end-of-stream at a frame
  /// boundary (the peer closed after a complete message). \throws WireError
  /// on a malformed header (bad magic, version mismatch, over-limit
  /// length) or a stream that ends mid-frame.
  bool receive_frame(Frame& frame);

  std::uint32_t max_frame_bytes() const noexcept { return max_frame_bytes_; }

  /// Bytes moved through this channel (telemetry).
  std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  std::uint64_t bytes_received() const noexcept { return bytes_received_; }

 protected:
  /// Transport hooks. write_frame sends every byte of the encoded header
  /// and then of the payload, pushed out before it returns (a request must
  /// be on the wire before its sender blocks on the response), or throws;
  /// read_bytes returns the count actually read (0 = end of stream) and
  /// throws only on transport errors.
  virtual void write_frame(std::span<const std::uint8_t> header,
                           std::span<const std::uint8_t> payload) = 0;
  virtual std::size_t read_bytes(std::uint8_t* data, std::size_t size) = 0;

 private:
  /// Read exactly `size` bytes. Returns false when the stream ended before
  /// the first byte (clean EOF); throws WireError when it ends after it.
  bool read_exact(std::uint8_t* data, std::size_t size);

  std::uint32_t max_frame_bytes_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

/// Channel over caller-supplied iostreams — the in-process transport for
/// deterministic tests and request-log replay. The caller owns the
/// streams and their lifetime; badbit/failbit on either stream surfaces
/// as WireError / clean EOF exactly like a closed socket would.
class StreamChannel : public Channel {
 public:
  StreamChannel(std::istream& in, std::ostream& out,
                std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

 protected:
  void write_frame(std::span<const std::uint8_t> header,
                   std::span<const std::uint8_t> payload) override;
  std::size_t read_bytes(std::uint8_t* data, std::size_t size) override;

 private:
  std::istream& in_;
  std::ostream& out_;
};

}  // namespace nubb
