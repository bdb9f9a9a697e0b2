// Length-prefixed frame codec for the process-boundary E2 transport.
//
// Both backends (in-process queue, Unix-domain socket) move identical
// frames so the per-frame accounting — and therefore every exported
// `transport.*` metric — is byte-identical regardless of backend:
//
//   +------+------+-------------+-------------+----------------------+
//   | 'X'  | 'E'  | payload_len | checksum    | payload ...          |
//   | 1 B  | 1 B  | u32 BE      | u32 BE      | payload_len bytes    |
//   +------+------+-------------+-------------+----------------------+
//
// The checksum is FNV-1a folded to 32 bits over the payload. Parsing is a
// pure function over a byte span; the FrameAssembler layers arena-backed
// reassembly for stream backends whose reads can split a frame at any
// byte. A corrupt header resynchronizes by advancing one byte at a time
// until a valid frame boundary is found (bounded loss, never UB).
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "common/bytes.hpp"

namespace xsec::transport {

inline constexpr std::uint8_t kFrameMagic0 = 0x58;  // 'X'
inline constexpr std::uint8_t kFrameMagic1 = 0x45;  // 'E'
inline constexpr std::size_t kFrameHeaderBytes = 10;
/// Upper bound on a single frame's payload: far above any batched E2AP
/// indication, low enough that a corrupt length field cannot demand an
/// absurd reassembly buffer.
inline constexpr std::size_t kMaxFramePayload = 1u << 24;

/// FNV-1a/64 over the payload, xor-folded to 32 bits.
std::uint32_t frame_checksum(std::span<const std::uint8_t> payload);

/// Appends one complete frame (header + payload) to `out`.
void append_frame(Bytes& out, std::span<const std::uint8_t> payload);

/// Framed size of a payload (header overhead included).
inline constexpr std::size_t framed_size(std::size_t payload_bytes) {
  return kFrameHeaderBytes + payload_bytes;
}

enum class FrameStatus : std::uint8_t {
  kOk = 0,        // one frame parsed; `consumed` and `payload` are set
  kNeedMore,      // the buffer ends mid-header or mid-payload
  kBadMagic,      // first bytes are not a frame boundary
  kBadLength,     // length field exceeds kMaxFramePayload
  kBadChecksum,   // payload bytes do not match the header checksum
};

/// Parses the frame at the front of `buf`. On kOk, `consumed` is the full
/// framed size and `payload` views the payload bytes inside `buf` (zero
/// copy; valid only while `buf`'s storage is). On any error, `consumed`
/// is 0 and the caller decides how to resynchronize.
FrameStatus parse_frame(std::span<const std::uint8_t> buf,
                        std::size_t& consumed,
                        std::span<const std::uint8_t>& payload);

/// Arena-backed reassembly for stream transports (Unix-domain sockets):
/// feed() appends whatever the socket produced — frames split at arbitrary
/// byte positions — and delivers every completed frame's payload as an
/// in-place span over the arena. The arena is reused across calls, so the
/// steady state allocates nothing once its high-water capacity is reached.
class FrameAssembler {
 public:
  /// Sink receives (payload, framed_bytes_consumed) per completed frame.
  using Sink =
      std::function<void(std::span<const std::uint8_t>, std::size_t)>;
  /// Invoked once per resynchronization byte skipped after corrupt framing.
  using CorruptHook = std::function<void(std::size_t skipped)>;

  explicit FrameAssembler(std::size_t reserve_bytes = 64 * 1024) {
    arena_.reserve(reserve_bytes);
  }

  /// No delivery limit for feed()/drain().
  static constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

  void set_corrupt_hook(CorruptHook hook) { on_corrupt_ = std::move(hook); }

  /// Appends `chunk` and drains frames that completed, up to `max_frames`.
  /// Frames past the budget stay buffered in the arena for a later
  /// drain()/feed(). Returns the number of frames delivered.
  std::size_t feed(std::span<const std::uint8_t> chunk, const Sink& sink,
                   std::size_t max_frames = kNoLimit);

  /// Delivers up to `max_frames` already-completed frames left buffered by
  /// an earlier budgeted call. Returns the number delivered.
  std::size_t drain(const Sink& sink, std::size_t max_frames = kNoLimit);

  /// Bytes buffered waiting for the rest of a frame.
  std::size_t buffered() const { return arena_.size() - read_pos_; }
  void clear() {
    arena_.clear();
    read_pos_ = 0;
  }

 private:
  Bytes arena_;
  std::size_t read_pos_ = 0;
  CorruptHook on_corrupt_;
};

}  // namespace xsec::transport
