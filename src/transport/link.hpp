// A bidirectional framed E2 link: two channels (node -> RIC, RIC -> node)
// of the same backend, plus the uniform payload framing and the global
// `transport.*` instrument bindings (deterministic counters in
// `obs.metrics`, the host-dependent `transport.syscalls` in `obs.host`).
//
// Payload layout in BOTH directions: [u64 BE node id][E2AP PDU bytes].
// Using one encoder for both directions keeps the codec single-sourced and
// carries correct node ids even after a paused-reader resume delivers
// frames queued before the id was learned.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "obs/trace.hpp"
#include "transport/channel.hpp"

namespace xsec::transport {

/// Both directions of a link use the same backend and capacity.
struct LinkConfig {
  BackendKind backend = BackendKind::kInProcess;
  /// Logical per-direction capacity in bytes (identical accounting on
  /// every backend, so backpressure never depends on the backend).
  std::size_t capacity = kDefaultChannelCapacity;
};

/// Maps a backend name ("inproc" / "uds") to its kind. Empty selects
/// in-process; any other name warns and falls back to in-process.
BackendKind resolve_backend(const std::string& name);

/// Effective per-direction channel capacity in bytes: 0 selects
/// kDefaultChannelCapacity, anything else is capped at
/// kMaxChannelCapacity.
std::size_t resolve_capacity(std::size_t configured);

class FramedLink {
 public:
  /// Receives (node_id, E2AP PDU bytes) for one delivered frame. The span
  /// views transport-owned memory and is valid only during the call.
  using DeliverSink =
      std::function<void(std::uint64_t, std::span<const std::uint8_t>)>;

  FramedLink(LinkConfig cfg, obs::Observability* obs);

  void set_ric_sink(DeliverSink sink);
  void set_node_sink(DeliverSink sink);

  /// Frames and enqueues one PDU. Returns false — nothing enqueued, one
  /// backpressure event counted — when the channel's capacity is full.
  bool enqueue_to_ric(std::uint64_t node_id, const Bytes& pdu);
  bool enqueue_to_node(std::uint64_t node_id, const Bytes& pdu);

  /// Drains the direction's channel, delivering every queued frame.
  void pump_to_ric();
  void pump_to_node();

  /// Would a PDU of `pdu_bytes` fit toward the RIC right now? Drains in
  /// bounded bursts first when full (the kernel drains concurrently in a
  /// real deployment, so a full queue with a live reader is not
  /// backpressure) — only enough frames to make headroom for THIS PDU, so
  /// a backpressured sender never pays an unbounded delivery burst inside
  /// its own send path. Counts one `transport.backpressure_events` on
  /// refusal.
  bool ready_for(std::size_t pdu_bytes);

  /// Test hook: pause/resume the node -> RIC reader (slow-consumer chaos).
  void set_ric_reader_paused(bool paused);

  BackendKind backend() const { return to_ric_->kind(); }
  std::size_t capacity() const { return to_ric_->capacity(); }
  std::size_t pending_to_ric() const { return to_ric_->pending_bytes(); }
  std::size_t pending_to_node() const { return to_node_->pending_bytes(); }

 private:
  /// Frames drained per burst inside ready_for() — enough that one burst
  /// usually frees headroom, small enough to bound the sender's stall.
  static constexpr std::size_t kReadyForDrainBurst = 8;

  bool enqueue(E2Channel* ch, std::uint64_t node_id, const Bytes& pdu);
  void pump(E2Channel* ch, bool& pumping, std::uint64_t& batch,
            std::size_t max_frames = E2Channel::kNoFrameLimit);

  std::unique_ptr<E2Channel> to_ric_;
  std::unique_ptr<E2Channel> to_node_;
  Bytes tx_scratch_;
  bool ric_pumping_ = false;
  bool node_pumping_ = false;
  std::uint64_t ric_batch_ = 0;
  std::uint64_t node_batch_ = 0;

  std::unique_ptr<obs::Observability> own_obs_;
  obs::Counter* frames_tx_ = nullptr;
  obs::Counter* frames_rx_ = nullptr;
  obs::Counter* bytes_tx_ = nullptr;
  obs::Counter* bytes_rx_ = nullptr;
  obs::Counter* backpressure_events_ = nullptr;
  obs::Counter* frames_corrupt_ = nullptr;
  obs::Histogram* ring_occupancy_ = nullptr;
  obs::Histogram* frame_bytes_ = nullptr;
  obs::Histogram* flush_batch_ = nullptr;
};

}  // namespace xsec::transport
