#include "net/channel.hpp"

#include <istream>
#include <ostream>
#include <string>

namespace nubb {

namespace {

constexpr std::size_t kHeaderBytes = 12;

void encode_header(std::uint8_t* h, MessageType type, std::uint32_t length) {
  const std::uint32_t magic = kFrameMagic;
  const std::uint16_t version = kWireVersion;
  const std::uint16_t t = static_cast<std::uint16_t>(type);
  for (int i = 0; i < 4; ++i) h[i] = static_cast<std::uint8_t>(magic >> (8 * i));
  for (int i = 0; i < 2; ++i) h[4 + i] = static_cast<std::uint8_t>(version >> (8 * i));
  for (int i = 0; i < 2; ++i) h[6 + i] = static_cast<std::uint8_t>(t >> (8 * i));
  for (int i = 0; i < 4; ++i) h[8 + i] = static_cast<std::uint8_t>(length >> (8 * i));
}

}  // namespace

void Channel::send_frame(MessageType type, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > max_frame_bytes_) {
    throw WireError("channel: frame payload of " + std::to_string(payload.size()) +
                    " bytes exceeds the " + std::to_string(max_frame_bytes_) + "-byte limit");
  }
  std::uint8_t header[kHeaderBytes];
  encode_header(header, type, static_cast<std::uint32_t>(payload.size()));
  write_frame(header, payload);
  bytes_sent_ += kHeaderBytes + payload.size();
}

bool Channel::receive_frame(Frame& frame) {
  std::uint8_t header[kHeaderBytes];
  if (!read_exact(header, kHeaderBytes)) return false;

  std::uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) magic |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  if (magic != kFrameMagic) {
    throw WireError("channel: bad frame magic (stream out of sync or not a nubb peer)");
  }
  std::uint16_t version = 0;
  for (int i = 0; i < 2; ++i) {
    version = static_cast<std::uint16_t>(version |
                                         static_cast<std::uint16_t>(header[4 + i]) << (8 * i));
  }
  if (version != kWireVersion) {
    throw WireError("channel: wire version " + std::to_string(version) +
                    " from peer, this build speaks " + std::to_string(kWireVersion));
  }
  std::uint16_t type = 0;
  for (int i = 0; i < 2; ++i) {
    type = static_cast<std::uint16_t>(type |
                                      static_cast<std::uint16_t>(header[6 + i]) << (8 * i));
  }
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) length |= static_cast<std::uint32_t>(header[8 + i]) << (8 * i);
  if (length > max_frame_bytes_) {
    throw WireError("channel: frame length " + std::to_string(length) + " exceeds the " +
                    std::to_string(max_frame_bytes_) + "-byte limit");
  }

  frame.type = static_cast<MessageType>(type);
  frame.payload.resize(length);
  if (length != 0 && !read_exact(frame.payload.data(), length)) {
    throw WireError("channel: stream ended inside a frame payload");
  }
  bytes_received_ += kHeaderBytes + length;
  return true;
}

bool Channel::read_exact(std::uint8_t* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const std::size_t n = read_bytes(data + got, size - got);
    if (n == 0) {
      if (got == 0) return false;  // clean EOF at a frame boundary
      throw WireError("channel: stream ended mid-frame (" + std::to_string(got) + " of " +
                      std::to_string(size) + " bytes)");
    }
    got += n;
  }
  return true;
}

StreamChannel::StreamChannel(std::istream& in, std::ostream& out,
                             std::uint32_t max_frame_bytes)
    : Channel(max_frame_bytes), in_(in), out_(out) {}

void StreamChannel::write_frame(std::span<const std::uint8_t> header,
                                std::span<const std::uint8_t> payload) {
  for (const std::span<const std::uint8_t> part : {header, payload}) {
    out_.write(reinterpret_cast<const char*>(part.data()),
               static_cast<std::streamsize>(part.size()));
  }
  out_.flush();
  if (!out_) throw WireError("stream channel: write failed");
}

std::size_t StreamChannel::read_bytes(std::uint8_t* data, std::size_t size) {
  in_.read(reinterpret_cast<char*>(data), static_cast<std::streamsize>(size));
  const std::streamsize got = in_.gcount();
  if (got < 0) throw WireError("stream channel: read failed");
  return static_cast<std::size_t>(got);
}

}  // namespace nubb
