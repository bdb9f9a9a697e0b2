#include "transport/channel.hpp"

namespace xsec::transport {

std::string_view to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kInProcess:
      return "inproc";
    case BackendKind::kUds:
      return "uds";
  }
  return "inproc";
}

Result<BackendKind> parse_backend(std::string_view text) {
  if (text == "inproc") return BackendKind::kInProcess;
  if (text == "uds") return BackendKind::kUds;
  return Error::make("config", "unknown transport backend: " +
                                   std::string(text));
}

namespace {

/// Historical in-process behaviour behind the channel interface. Frames
/// accumulate in `buffer_`; pump() swaps it with a second buffer and
/// parses frames in place, so sends nested inside delivery side effects
/// append to the *other* buffer and never invalidate the span currently
/// being delivered. A budgeted pump leaves `pump_pos_` mid-buffer and the
/// next pump resumes there, preserving stream order (leftovers drain
/// before the spare is swapped back in). Swap/clear preserve vector
/// capacity — after warmup the steady state performs no heap allocation.
class InProcChannel final : public E2Channel {
 public:
  explicit InProcChannel(std::size_t capacity) : E2Channel(capacity) {
    buffer_.reserve(16 * 1024);
    pump_buf_.reserve(16 * 1024);
  }

  bool send(std::span<const std::uint8_t> payload) override {
    const std::size_t fs = framed_size(payload.size());
    if (!writable(fs)) return false;
    append_frame(buffer_, payload);
    pending_ += fs;
    return true;
  }

  void pump(std::size_t max_frames) override {
    if (reader_paused_ || pumping_) return;
    pumping_ = true;
    std::size_t budget = max_frames;
    std::size_t skipped = 0;
    for (;;) {
      if (pump_pos_ >= pump_buf_.size()) {
        if (skipped > 0) {  // close the corrupt region at the batch edge
          pending_ -= skipped;
          if (corrupt_) corrupt_(skipped);
          skipped = 0;
        }
        pump_buf_.clear();
        pump_pos_ = 0;
        if (buffer_.empty()) break;
        pump_buf_.swap(buffer_);  // buffer_ is now the cleared spare
      }
      if (budget == 0) break;
      std::span<const std::uint8_t> rest(pump_buf_.data() + pump_pos_,
                                         pump_buf_.size() - pump_pos_);
      std::size_t consumed = 0;
      std::span<const std::uint8_t> payload;
      switch (parse_frame(rest, consumed, payload)) {
        case FrameStatus::kOk:
          if (skipped > 0) {
            pending_ -= skipped;
            if (corrupt_) corrupt_(skipped);
            skipped = 0;
          }
          pump_pos_ += consumed;
          pending_ -= consumed;
          --budget;
          if (sink_) sink_(payload);
          break;
        case FrameStatus::kNeedMore:
          // send() only ever appends whole frames; a tail fragment means
          // corruption. Drop it rather than stall the queue.
          skipped += pump_buf_.size() - pump_pos_;
          pump_pos_ = pump_buf_.size();
          break;
        default:
          ++pump_pos_;
          ++skipped;
          break;
      }
    }
    if (skipped > 0) {
      pending_ -= skipped;
      if (corrupt_) corrupt_(skipped);
    }
    pumping_ = false;
  }

  BackendKind kind() const override { return BackendKind::kInProcess; }

 private:
  Bytes buffer_;
  Bytes pump_buf_;
  std::size_t pump_pos_ = 0;
};

}  // namespace

std::unique_ptr<E2Channel> make_uds_channel(std::size_t capacity);

std::unique_ptr<E2Channel> make_channel(BackendKind kind,
                                        std::size_t capacity) {
  switch (kind) {
    case BackendKind::kInProcess:
      return std::make_unique<InProcChannel>(capacity);
    case BackendKind::kUds:
      return make_uds_channel(capacity);
  }
  return std::make_unique<InProcChannel>(capacity);
}

}  // namespace xsec::transport
