// Fault-injected E2 transport.
//
// Sits between a RAN node's RIC agent and the near-RT RIC and subjects
// E2AP traffic (both directions) to a schedulable fault plan: random
// drop / duplication / reordering / delay of telemetry-path frames
// (indications and indication NACKs — control procedures model SCTP's
// reliable delivery and only see transit delay), plus forced link-down
// epochs during which the node is disconnected outright and ALL frames
// are lost. All randomness comes
// from a seeded Rng and all timing from injected hooks, so a chaos run is
// bit-reproducible.
//
// With the default (all-zero) FaultPlan the transport is transparent: it
// reproduces the seed pipeline's exact timing — RIC -> node frames are
// delivered synchronously, node -> RIC frames after a 1 ms E2 link delay.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "oran/ric.hpp"
#include "transport/link.hpp"

namespace xsec::oran {

/// One forced outage: the link goes down at `down_at` and recovers
/// `duration` later.
struct LinkEpoch {
  SimTime down_at;
  SimDuration duration;
};

/// Per-frame fault probabilities and transit delays. Probabilities are
/// sampled independently per frame and direction.
struct FaultPlan {
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  double reorder_probability = 0.0;
  /// Extra transit delay added to a reordered frame, uniform in
  /// [1, reorder_extra_ms_max] ms — later frames overtake it.
  std::uint32_t reorder_extra_ms_max = 5;
  /// Base transit delays. The seed pipeline delivers node -> RIC frames
  /// after 1 ms and RIC -> node frames synchronously; keep those defaults
  /// unless the experiment is about latency.
  std::uint32_t delay_node_to_ric_ms = 1;
  std::uint32_t delay_ric_to_node_ms = 0;
  /// When set, RIC Control requests and acks are also subject to random
  /// drop/duplicate/reorder (mitigation chaos testing). Off by default:
  /// control procedures normally model SCTP's reliable delivery.
  bool fault_control = false;
  std::vector<LinkEpoch> link_epochs;
  std::uint64_t seed = 0x715EC;
};

struct TransportCounters {
  std::size_t frames_sent = 0;       // frames offered, both directions
  std::size_t frames_delivered = 0;  // reached the far side (incl. copies)
  std::size_t frames_dropped = 0;    // lost to random drop
  std::size_t frames_duplicated = 0; // extra copies injected
  std::size_t frames_reordered = 0;  // frames given extra transit delay
  std::size_t link_down_drops = 0;   // frames lost to a down link
  std::size_t link_down_events = 0;
  std::size_t link_up_events = 0;
};

/// Timing hooks so the oran layer stays independent of the sim module
/// (mirrors mobiflow::AgentHooks).
struct TransportHooks {
  std::function<SimTime()> now;
  std::function<void(SimDuration, std::function<void()>)> schedule;
  /// Shared observability bundle; the transport creates a private one when
  /// absent (standalone tests).
  obs::Observability* obs = nullptr;
  /// Metric name prefix, e.g. "e2.node1001" in the multi-site pipeline.
  std::string metric_scope = "e2";
  /// Transport backend carrying the link's frames, already resolved by
  /// the caller (the pipeline applies config and environment precedence).
  transport::BackendKind backend = transport::BackendKind::kInProcess;
  /// Logical per-direction channel capacity in bytes (identical across
  /// backends, so backpressure decisions don't depend on the backend).
  std::size_t link_capacity = transport::kDefaultChannelCapacity;
};

/// The transport interposes as the RIC's E2NodeLink: the RIC talks to it
/// believing it is the node, and the node's `to_ric` traffic is funneled
/// through it before reaching NearRtRic::from_node.
class FaultyE2Transport : public E2NodeLink {
 public:
  FaultyE2Transport(NearRtRic* ric, E2NodeLink* node, FaultPlan plan,
                    TransportHooks hooks);

  /// Schedules the fault plan's link-down/up epochs on the event queue.
  /// Call once, before the run starts.
  void arm_epochs();

  /// Attempts the E2 Setup exchange through the transport. Fails fast
  /// while the link is down (the caller retries with backoff).
  Result<std::uint64_t> connect();

  /// Node -> RIC direction, subject to the fault plan.
  void to_ric(std::uint64_t node_id, Bytes wire);

  // E2NodeLink (the RIC-facing side; RIC -> node direction):
  Bytes setup_request() override { return node_->setup_request(); }
  void on_e2ap(std::span<const std::uint8_t> wire) override;

  bool link_up() const { return link_up_; }
  /// Snapshot assembled from the registry counters ("<scope>.*").
  TransportCounters counters() const;

  /// The backend actually in use (after any fallback to in-process).
  transport::BackendKind backend() const { return link_->backend(); }
  /// The link's resolved per-direction channel capacity in bytes.
  std::size_t link_capacity() const { return link_->capacity(); }
  /// Would a node -> RIC PDU of this size fit right now? Agents probe this
  /// before consuming sequence numbers so backpressured telemetry stays in
  /// their outage buffer instead of being half-sent. Frames still in their
  /// transit-delay window count against the capacity (send()-time
  /// reservation, like a kernel SNDBUF), so a burst of probes cannot
  /// collectively overshoot the channel.
  bool ready_for(std::size_t pdu_bytes) {
    return link_->ready_for(pdu_bytes + in_flight_to_ric_);
  }
  /// Test hooks: pause/resume the RIC-side reader (slow-consumer chaos)
  /// and drain whatever queued while it was paused.
  void set_reader_paused(bool paused) { link_->set_ric_reader_paused(paused); }
  void pump_to_ric() { link_->pump_to_ric(); }

 private:
  void send(Bytes wire, bool toward_ric, std::uint64_t node_id);
  void deliver(const Bytes& wire, bool toward_ric, std::uint64_t node_id,
               SimTime sent_at);
  void go_down();
  void go_up();

  NearRtRic* ric_;
  E2NodeLink* node_;
  FaultPlan plan_;
  TransportHooks hooks_;
  Rng rng_;
  bool link_up_ = true;
  std::uint64_t node_id_ = 0;  // learned from a successful connect()

  /// The framed channel pair carrying every delivered PDU. The fault plan
  /// layers ABOVE it: faults decide WHEN (and whether) a PDU crosses; at
  /// its scheduled delivery time the PDU is framed into the channel and
  /// pumped synchronously, so FIFO channel order never conflicts with the
  /// plan's reordering and the seed pipeline's timing is preserved
  /// exactly on every backend.
  std::unique_ptr<transport::FramedLink> link_;
  /// Framed bytes of node -> RIC frames inside their transit-delay window
  /// (sent, not yet enqueued). ready_for() reserves them against the
  /// channel capacity.
  std::size_t in_flight_to_ric_ = 0;

  /// Registry handles bound once at construction (hot path stays
  /// allocation- and lookup-free).
  std::unique_ptr<obs::Observability> own_obs_;
  obs::Counter* frames_sent_ = nullptr;
  obs::Counter* frames_delivered_ = nullptr;
  obs::Counter* frames_dropped_ = nullptr;
  obs::Counter* frames_duplicated_ = nullptr;
  obs::Counter* frames_reordered_ = nullptr;
  obs::Counter* link_down_drops_ = nullptr;
  obs::Counter* link_down_events_ = nullptr;
  obs::Counter* link_up_events_ = nullptr;
  obs::Histogram* transit_us_ = nullptr;
};

}  // namespace xsec::oran
