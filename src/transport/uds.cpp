// Unix-domain-socket channel backend: frames cross a real kernel socket
// (nonblocking SOCK_STREAM socketpair), so reads can return any byte
// split and the FrameAssembler reassembles frames into a reusable arena.
//
// I/O is batched: send() only stages the frame in user space (zero
// syscalls); pump() flushes the whole backlog with one writev(2) over
// [spill | stage], then reads with 64 KiB recv(2)s and stops on a short
// read (SOCK_STREAM returns min(queued, len), so a short read proves the
// socket queue is empty — no trailing EAGAIN probe). A burst therefore
// costs about two kernel entries however many frames it holds.
#include <cerrno>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>

#include "transport/channel.hpp"

namespace xsec::transport {

namespace {

class UdsChannel final : public E2Channel {
 public:
  UdsChannel(std::size_t capacity, int tx_fd, int rx_fd)
      : E2Channel(capacity), tx_fd_(tx_fd), rx_fd_(rx_fd) {
    stage_.reserve(16 * 1024);
    assembler_.set_corrupt_hook([this](std::size_t skipped) {
      pending_ -= skipped;
      if (corrupt_) corrupt_(skipped);
    });
    deliver_ = [this](std::span<const std::uint8_t> payload,
                      std::size_t framed) {
      pending_ -= framed;
      if (sink_) sink_(payload);
    };
  }

  ~UdsChannel() override {
    ::close(tx_fd_);
    ::close(rx_fd_);
  }

  bool send(std::span<const std::uint8_t> payload) override {
    const std::size_t fs = framed_size(payload.size());
    if (!writable(fs)) return false;
    pending_ += fs;
    append_frame(stage_, payload);
    return true;
  }

  void pump(std::size_t max_frames) override {
    if (pumping_) return;
    pumping_ = true;
    std::size_t budget = max_frames;
    // Frames already reassembled by an earlier budgeted pump deliver
    // first (stream order) without touching the kernel.
    if (!reader_paused_ && budget > 0)
      budget -= assembler_.drain(deliver_, budget);
    for (;;) {
      // Flush any staged/spilled bytes (including sends nested inside
      // delivery side effects) before reading more.
      flush_tx();
      if (reader_paused_ || budget == 0) break;
      ssize_t n = ::recv(rx_fd_, chunk_, sizeof(chunk_), 0);
      count_io();
      if (n <= 0) break;  // EAGAIN / EOF: queue drained
      budget -= assembler_.feed(
          std::span<const std::uint8_t>(chunk_, static_cast<std::size_t>(n)),
          deliver_, budget);
      // Short read == kernel queue empty; loop again only when delivery
      // side effects staged more frames that still have to cross.
      if (static_cast<std::size_t>(n) < sizeof(chunk_) && stage_.empty() &&
          spill_.empty()) {
        break;
      }
    }
    pumping_ = false;
  }

  void set_max_write_per_syscall_for_test(std::size_t cap) override {
    max_write_per_syscall_ = cap;
  }

  BackendKind kind() const override { return BackendKind::kUds; }

 private:
  /// Flushes the tx backlog — kernel-refused spill first, then staged
  /// frames — with one writev per syscall so a multi-frame burst crosses
  /// in a single kernel entry. On EAGAIN the unflushed stage folds behind
  /// the spill so later sends can restage freely in stream order.
  void flush_tx() {
    while (!spill_.empty() || !stage_.empty()) {
      struct iovec iov[2];
      int iovcnt = 0;
      std::size_t allowance = max_write_per_syscall_ > 0
                                  ? max_write_per_syscall_
                                  : static_cast<std::size_t>(-1);
      if (!spill_.empty()) {
        const std::size_t len = std::min(spill_.size(), allowance);
        iov[iovcnt].iov_base = spill_.data();
        iov[iovcnt].iov_len = len;
        allowance -= len;
        ++iovcnt;
      }
      if (!stage_.empty() && allowance > 0) {
        iov[iovcnt].iov_base = stage_.data();
        iov[iovcnt].iov_len = std::min(stage_.size(), allowance);
        ++iovcnt;
      }
      if (iovcnt == 0) return;
      ssize_t w = ::writev(tx_fd_, iov, iovcnt);
      count_io();
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) {
        if (!stage_.empty()) {
          spill_.insert(spill_.end(), stage_.begin(), stage_.end());
          stage_.clear();
        }
        return;
      }
      consume_tx(static_cast<std::size_t>(w));
    }
  }

  /// Pops `n` kernel-accepted bytes off the front of the tx backlog.
  void consume_tx(std::size_t n) {
    const std::size_t from_spill = std::min(n, spill_.size());
    if (from_spill == spill_.size()) {
      spill_.clear();
    } else if (from_spill > 0) {
      spill_.erase(spill_.begin(),
                   spill_.begin() + static_cast<std::ptrdiff_t>(from_spill));
    }
    n -= from_spill;
    if (n == 0) return;
    if (n >= stage_.size()) {
      stage_.clear();
    } else {
      stage_.erase(stage_.begin(),
                   stage_.begin() + static_cast<std::ptrdiff_t>(n));
    }
  }

  int tx_fd_;
  int rx_fd_;
  Bytes stage_;  // frames staged by send(), not yet written
  Bytes spill_;  // bytes the kernel refused (stream-ordered before stage_)
  FrameAssembler assembler_;
  FrameAssembler::Sink deliver_;
  std::size_t max_write_per_syscall_ = 0;
  std::uint8_t chunk_[64 * 1024];
};

}  // namespace

std::unique_ptr<E2Channel> make_uds_channel(std::size_t capacity) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds) != 0)
    return nullptr;
  // Size the kernel buffer near the logical capacity so user-space spill
  // stays rare; failure is harmless (spill_ covers any shortfall).
  int snd = static_cast<int>(capacity);
  (void)::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &snd, sizeof(snd));
  (void)::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &snd, sizeof(snd));
  return std::make_unique<UdsChannel>(capacity, fds[0], fds[1]);
}

}  // namespace xsec::transport
