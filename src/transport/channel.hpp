// Process-boundary channel abstraction for the E2 interface.
//
// A channel moves opaque frames (transport/frame.hpp) in one direction.
// Two interchangeable backends exist:
//
//   kInProcess — double-buffered byte queue inside the sim process (the
//                historical behaviour; zero syscalls).
//   kUds       — nonblocking AF_UNIX SOCK_STREAM socketpair; frames cross
//                a real kernel socket and are reassembled from arbitrary
//                partial reads into a reusable arena.
//
// Both backends share the same *logical* capacity accounting in user space
// (`pending bytes = framed bytes sent − framed bytes delivered`), so
// backpressure decisions — and therefore every exported metric — are
// byte-identical no matter which backend carries the frames.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>

#include "common/result.hpp"
#include "obs/metrics.hpp"
#include "transport/frame.hpp"

namespace xsec::transport {

enum class BackendKind : std::uint8_t {
  kInProcess = 0,
  kUds,
};

std::string_view to_string(BackendKind kind);
/// Parses "inproc" / "uds"; anything else is an error.
Result<BackendKind> parse_backend(std::string_view text);

/// Default logical capacity of a link direction: enough for thousands of
/// batched indications, small enough that a paused reader trips
/// backpressure quickly in tests.
inline constexpr std::size_t kDefaultChannelCapacity = 256 * 1024;
/// Largest accepted link capacity (1 GiB).
inline constexpr std::size_t kMaxChannelCapacity = std::size_t{1} << 30;

/// One direction of an E2 link. Single-threaded by design: the sim event
/// loop is the only caller of send()/pump(); `pump()` may re-enter
/// `send()` on the same channel through delivery side effects (control
/// chains), and every backend guarantees that frames being delivered stay
/// valid across such nested sends.
class E2Channel {
 public:
  /// Receives one completed frame's payload as an in-place view. The span
  /// is valid only for the duration of the call.
  using FrameSink = std::function<void(std::span<const std::uint8_t>)>;
  using CorruptHook = std::function<void(std::size_t skipped_bytes)>;

  /// No delivery limit for pump().
  static constexpr std::size_t kNoFrameLimit = static_cast<std::size_t>(-1);

  virtual ~E2Channel() = default;

  void set_sink(FrameSink sink) { sink_ = std::move(sink); }
  void set_corrupt_hook(CorruptHook hook) { corrupt_ = std::move(hook); }

  /// Frames `payload` and enqueues it. Returns false — without enqueuing
  /// anything — when the logical capacity cannot hold the frame.
  virtual bool send(std::span<const std::uint8_t> payload) = 0;

  /// Delivers queued frames to the sink, at most `max_frames` of them;
  /// frames past the budget stay queued (pending accounting untouched)
  /// for a later pump. No-op while the reader is paused or a pump is
  /// already running (nested pumps from delivery side effects fold into
  /// the outer one).
  virtual void pump(std::size_t max_frames) = 0;
  /// Delivers every queued frame to the sink.
  void pump() { pump(kNoFrameLimit); }

  /// Test seam: caps the bytes any single kernel write may accept, forcing
  /// partial writev() acceptance so short-write resume paths can be
  /// exercised at every byte offset. 0 disables the cap. No-op on
  /// backends that perform no kernel writes.
  virtual void set_max_write_per_syscall_for_test(std::size_t) {}

  /// Kernel entries (recv/writev) this channel has made.
  std::uint64_t io_syscalls() const { return io_syscalls_; }
  /// Also counts every kernel entry into `counter` (non-owning; nullptr
  /// detaches). FramedLink points it at the host-registry
  /// `transport.syscalls` counter.
  void set_syscall_counter(obs::Counter* counter) { syscalls_ = counter; }

  /// Framed bytes enqueued but not yet delivered.
  std::size_t pending_bytes() const { return pending_; }
  std::size_t capacity() const { return capacity_; }
  bool writable(std::size_t frame_bytes) const {
    return pending_ + frame_bytes <= capacity_;
  }

  /// Test hook: a paused reader stops pump() from draining, modelling a
  /// slow consumer so backpressure paths can be exercised deterministically.
  void set_reader_paused(bool paused) { reader_paused_ = paused; }

  virtual BackendKind kind() const = 0;

 protected:
  explicit E2Channel(std::size_t capacity) : capacity_(capacity) {}

  /// Counts one kernel entry (and feeds the attached syscall counter).
  void count_io() {
    ++io_syscalls_;
    if (syscalls_ != nullptr) syscalls_->inc();
  }

  FrameSink sink_;
  CorruptHook corrupt_;
  std::size_t capacity_;
  std::size_t pending_ = 0;
  bool reader_paused_ = false;
  bool pumping_ = false;
  std::uint64_t io_syscalls_ = 0;

 private:
  obs::Counter* syscalls_ = nullptr;
};

/// Creates a channel of the requested backend. UDS construction can fail
/// (fd limits); returns nullptr so the caller can fall back to in-process
/// with a warning rather than aborting the sim.
std::unique_ptr<E2Channel> make_channel(BackendKind kind,
                                        std::size_t capacity);

}  // namespace xsec::transport
