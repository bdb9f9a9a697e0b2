#include "transport/link.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace xsec::transport {

BackendKind resolve_backend(const std::string& name) {
  if (name.empty()) return BackendKind::kInProcess;
  auto parsed = parse_backend(name);
  if (parsed) return parsed.value();
  XSEC_LOG_WARN("transport", "invalid E2 transport '", name,
                "'; using inproc");
  return BackendKind::kInProcess;
}

std::size_t resolve_capacity(std::size_t configured) {
  if (configured == 0) return kDefaultChannelCapacity;
  return std::min(configured, kMaxChannelCapacity);
}

namespace {
std::unique_ptr<E2Channel> make_or_fallback(BackendKind kind,
                                            std::size_t capacity) {
  auto ch = make_channel(kind, capacity);
  if (!ch) {
    XSEC_LOG_WARN("transport", "failed to create ", to_string(kind),
                  " channel; falling back to inproc");
    ch = make_channel(BackendKind::kInProcess, capacity);
  }
  return ch;
}
}  // namespace

FramedLink::FramedLink(LinkConfig cfg, obs::Observability* obs) {
  if (!obs) {
    own_obs_ = std::make_unique<obs::Observability>();
    obs = own_obs_.get();
  }
  to_ric_ = make_or_fallback(cfg.backend, cfg.capacity);
  to_node_ = make_or_fallback(cfg.backend, cfg.capacity);
  tx_scratch_.reserve(16 * 1024);

  // Global (unscoped) names: every link binds the same registry rows, so
  // the catalog stays fixed-size regardless of site count, and the values
  // are sums over all links — commutative, hence identical across shard
  // counts and backends.
  obs::MetricsRegistry& r = obs->metrics;
  frames_tx_ = &r.counter("transport.frames_tx");
  frames_rx_ = &r.counter("transport.frames_rx");
  bytes_tx_ = &r.counter("transport.bytes_tx");
  bytes_rx_ = &r.counter("transport.bytes_rx");
  backpressure_events_ = &r.counter("transport.backpressure_events");
  frames_corrupt_ = &r.counter("transport.frames_corrupt");
  ring_occupancy_ = &r.histogram("transport.ring_occupancy");
  frame_bytes_ = &r.histogram("transport.frame_bytes");
  flush_batch_ = &r.histogram("transport.flush_batch");
  // Kernel entries differ per backend and host, so they count into the
  // host registry, outside the deterministic exports.
  obs::Counter* syscalls = &obs->host.counter("transport.syscalls");
  to_ric_->set_syscall_counter(syscalls);
  to_node_->set_syscall_counter(syscalls);

  auto corrupt = [this](std::size_t) { frames_corrupt_->inc(); };
  to_ric_->set_corrupt_hook(corrupt);
  to_node_->set_corrupt_hook(corrupt);
}

void FramedLink::set_ric_sink(DeliverSink sink) {
  to_ric_->set_sink([this, sink = std::move(sink)](
                        std::span<const std::uint8_t> payload) {
    ++ric_batch_;
    frames_rx_->inc();
    bytes_rx_->inc(framed_size(payload.size()));
    if (payload.size() < 8) {
      frames_corrupt_->inc();
      return;
    }
    std::uint64_t node_id = 0;
    for (int i = 0; i < 8; ++i) node_id = (node_id << 8) | payload[i];
    sink(node_id, payload.subspan(8));
  });
}

void FramedLink::set_node_sink(DeliverSink sink) {
  to_node_->set_sink([this, sink = std::move(sink)](
                         std::span<const std::uint8_t> payload) {
    ++node_batch_;
    frames_rx_->inc();
    bytes_rx_->inc(framed_size(payload.size()));
    if (payload.size() < 8) {
      frames_corrupt_->inc();
      return;
    }
    std::uint64_t node_id = 0;
    for (int i = 0; i < 8; ++i) node_id = (node_id << 8) | payload[i];
    sink(node_id, payload.subspan(8));
  });
}

bool FramedLink::enqueue(E2Channel* ch, std::uint64_t node_id,
                         const Bytes& pdu) {
  tx_scratch_.clear();
  tx_scratch_.reserve(8 + pdu.size());
  for (int i = 7; i >= 0; --i)
    tx_scratch_.push_back(static_cast<std::uint8_t>(node_id >> (8 * i)));
  tx_scratch_.insert(tx_scratch_.end(), pdu.begin(), pdu.end());

  ring_occupancy_->observe(ch->pending_bytes());
  if (!ch->send(tx_scratch_)) {
    backpressure_events_->inc();
    return false;
  }
  frames_tx_->inc();
  bytes_tx_->inc(framed_size(tx_scratch_.size()));
  frame_bytes_->observe(tx_scratch_.size());
  return true;
}

bool FramedLink::enqueue_to_ric(std::uint64_t node_id, const Bytes& pdu) {
  return enqueue(to_ric_.get(), node_id, pdu);
}

bool FramedLink::enqueue_to_node(std::uint64_t node_id, const Bytes& pdu) {
  return enqueue(to_node_.get(), node_id, pdu);
}

void FramedLink::pump(E2Channel* ch, bool& pumping, std::uint64_t& batch,
                      std::size_t max_frames) {
  // A nested pump from a delivery side effect folds into the outer drain,
  // which keeps its batch counter.
  if (pumping) return;
  pumping = true;
  batch = 0;
  ch->pump(max_frames);
  if (batch > 0) flush_batch_->observe(batch);
  pumping = false;
}

void FramedLink::pump_to_ric() { pump(to_ric_.get(), ric_pumping_, ric_batch_); }

void FramedLink::pump_to_node() {
  pump(to_node_.get(), node_pumping_, node_batch_);
}

bool FramedLink::ready_for(std::size_t pdu_bytes) {
  const std::size_t fs = framed_size(8 + pdu_bytes);
  if (to_ric_->writable(fs)) return true;
  // A full queue with a live reader is a kernel-drain moment, not
  // backpressure: drain and re-check before refusing — but in bounded
  // bursts, so the sender only pays for the headroom it needs instead of
  // an unbounded full-channel delivery inside its own send path.
  while (!to_ric_->writable(fs)) {
    const std::size_t before = to_ric_->pending_bytes();
    pump(to_ric_.get(), ric_pumping_, ric_batch_, kReadyForDrainBurst);
    if (to_ric_->pending_bytes() == before) break;  // paused reader / stuck
  }
  if (to_ric_->writable(fs)) return true;
  backpressure_events_->inc();
  return false;
}

void FramedLink::set_ric_reader_paused(bool paused) {
  to_ric_->set_reader_paused(paused);
}

}  // namespace xsec::transport
