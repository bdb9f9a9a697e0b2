#include "transport/frame.hpp"

#include <cstring>

namespace xsec::transport {

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint32_t read_u32_be(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void write_u32_be(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}
}  // namespace

std::uint32_t frame_checksum(std::span<const std::uint8_t> payload) {
  std::uint64_t h = kFnvOffset;
  for (std::uint8_t b : payload) {
    h ^= b;
    h *= kFnvPrime;
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

void append_frame(Bytes& out, std::span<const std::uint8_t> payload) {
  const std::size_t base = out.size();
  out.resize(base + kFrameHeaderBytes + payload.size());
  std::uint8_t* p = out.data() + base;
  p[0] = kFrameMagic0;
  p[1] = kFrameMagic1;
  write_u32_be(p + 2, static_cast<std::uint32_t>(payload.size()));
  write_u32_be(p + 6, frame_checksum(payload));
  if (!payload.empty())
    std::memcpy(p + kFrameHeaderBytes, payload.data(), payload.size());
}

FrameStatus parse_frame(std::span<const std::uint8_t> buf,
                        std::size_t& consumed,
                        std::span<const std::uint8_t>& payload) {
  consumed = 0;
  if (buf.size() < kFrameHeaderBytes) {
    // A short buffer that cannot be the start of a frame is corrupt, not
    // incomplete — report it so resync advances instead of waiting forever.
    if (!buf.empty() && buf[0] != kFrameMagic0) return FrameStatus::kBadMagic;
    if (buf.size() >= 2 && buf[1] != kFrameMagic1)
      return FrameStatus::kBadMagic;
    return FrameStatus::kNeedMore;
  }
  if (buf[0] != kFrameMagic0 || buf[1] != kFrameMagic1)
    return FrameStatus::kBadMagic;
  const std::size_t len = read_u32_be(buf.data() + 2);
  if (len > kMaxFramePayload) return FrameStatus::kBadLength;
  if (buf.size() < kFrameHeaderBytes + len) return FrameStatus::kNeedMore;
  std::span<const std::uint8_t> body = buf.subspan(kFrameHeaderBytes, len);
  if (frame_checksum(body) != read_u32_be(buf.data() + 6))
    return FrameStatus::kBadChecksum;
  consumed = kFrameHeaderBytes + len;
  payload = body;
  return FrameStatus::kOk;
}

std::size_t FrameAssembler::feed(std::span<const std::uint8_t> chunk,
                                 const Sink& sink, std::size_t max_frames) {
  // Compact before appending so the arena stays bounded by (largest
  // in-flight frame + chunk) instead of growing with total traffic.
  if (read_pos_ > 0) {
    if (read_pos_ == arena_.size()) {
      arena_.clear();
    } else {
      arena_.erase(arena_.begin(),
                   arena_.begin() + static_cast<std::ptrdiff_t>(read_pos_));
    }
    read_pos_ = 0;
  }
  arena_.insert(arena_.end(), chunk.begin(), chunk.end());
  return drain(sink, max_frames);
}

std::size_t FrameAssembler::drain(const Sink& sink, std::size_t max_frames) {
  std::size_t delivered = 0;
  std::size_t skipped = 0;
  while (read_pos_ < arena_.size() && delivered < max_frames) {
    std::span<const std::uint8_t> rest(arena_.data() + read_pos_,
                                       arena_.size() - read_pos_);
    std::size_t consumed = 0;
    std::span<const std::uint8_t> payload;
    switch (parse_frame(rest, consumed, payload)) {
      case FrameStatus::kOk:
        if (skipped > 0 && on_corrupt_) {
          on_corrupt_(skipped);
          skipped = 0;
        }
        read_pos_ += consumed;
        ++delivered;
        sink(payload, consumed);
        break;
      case FrameStatus::kNeedMore:
        if (skipped > 0 && on_corrupt_) on_corrupt_(skipped);
        return delivered;
      case FrameStatus::kBadMagic:
      case FrameStatus::kBadLength:
      case FrameStatus::kBadChecksum:
        // Resynchronize: slide one byte and retry until a valid frame
        // boundary (or the end of the buffered bytes) is found.
        ++read_pos_;
        ++skipped;
        break;
    }
  }
  if (skipped > 0 && on_corrupt_) on_corrupt_(skipped);
  return delivered;
}

}  // namespace xsec::transport
