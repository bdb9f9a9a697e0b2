#include "oran/transport.hpp"

#include <utility>

#include "common/log.hpp"

namespace xsec::oran {

FaultyE2Transport::FaultyE2Transport(NearRtRic* ric, E2NodeLink* node,
                                     FaultPlan plan, TransportHooks hooks)
    : ric_(ric),
      node_(node),
      plan_(std::move(plan)),
      hooks_(std::move(hooks)),
      rng_(plan_.seed) {
  obs::Observability* obs = hooks_.obs;
  if (!obs) {
    own_obs_ = std::make_unique<obs::Observability>();
    obs = own_obs_.get();
  }
  const std::string& scope = hooks_.metric_scope;
  obs::MetricsRegistry& r = obs->metrics;
  frames_sent_ = &r.counter(scope + ".frames_sent");
  frames_delivered_ = &r.counter(scope + ".frames_delivered");
  frames_dropped_ = &r.counter(scope + ".frames_dropped");
  frames_duplicated_ = &r.counter(scope + ".frames_duplicated");
  frames_reordered_ = &r.counter(scope + ".frames_reordered");
  link_down_drops_ = &r.counter(scope + ".link_down_drops");
  link_down_events_ = &r.counter(scope + ".link_down_events");
  link_up_events_ = &r.counter(scope + ".link_up_events");
  transit_us_ = &r.histogram(scope + ".transit_us");

  transport::LinkConfig link_cfg;
  link_cfg.backend = hooks_.backend;
  link_cfg.capacity = hooks_.link_capacity;
  link_ = std::make_unique<transport::FramedLink>(link_cfg, obs);
  link_->set_ric_sink(
      [this](std::uint64_t node_id, std::span<const std::uint8_t> pdu) {
        ric_->from_node_frame(node_id, pdu);
      });
  link_->set_node_sink(
      [this](std::uint64_t, std::span<const std::uint8_t> pdu) {
        node_->on_e2ap(pdu);
      });
}

TransportCounters FaultyE2Transport::counters() const {
  TransportCounters c;
  c.frames_sent = frames_sent_->value();
  c.frames_delivered = frames_delivered_->value();
  c.frames_dropped = frames_dropped_->value();
  c.frames_duplicated = frames_duplicated_->value();
  c.frames_reordered = frames_reordered_->value();
  c.link_down_drops = link_down_drops_->value();
  c.link_down_events = link_down_events_->value();
  c.link_up_events = link_up_events_->value();
  return c;
}

void FaultyE2Transport::arm_epochs() {
  SimTime now = hooks_.now();
  for (const auto& epoch : plan_.link_epochs) {
    SimDuration until_down = epoch.down_at - now;
    if (until_down.us < 0) until_down.us = 0;
    hooks_.schedule(until_down, [this] { go_down(); });
    hooks_.schedule(until_down + epoch.duration, [this] { go_up(); });
  }
}

Result<std::uint64_t> FaultyE2Transport::connect() {
  if (!link_up_)
    return Error::make("link-down", "E2 transport link is down");
  auto connected = ric_->connect_node(this);
  if (connected) node_id_ = connected.value();
  return connected;
}

void FaultyE2Transport::to_ric(std::uint64_t node_id, Bytes wire) {
  send(std::move(wire), /*toward_ric=*/true, node_id);
}

void FaultyE2Transport::on_e2ap(std::span<const std::uint8_t> wire) {
  send(Bytes(wire.begin(), wire.end()), /*toward_ric=*/false, node_id_);
}

void FaultyE2Transport::send(Bytes wire, bool toward_ric,
                             std::uint64_t node_id) {
  frames_sent_->inc();
  if (!link_up_) {
    link_down_drops_->inc();
    return;
  }
  // Random faults target the telemetry path (indications and the NACKs
  // chasing them). E2AP control procedures run over SCTP with their own
  // reliable delivery, so setup/subscription/control frames only see the
  // base transit delay — and the hard link-down epochs above. Mitigation
  // chaos plans opt Control/ControlAck into the faultable set to exercise
  // the RIC's ack-timeout retransmission and the agent's dedup.
  auto type = e2ap_type(wire);
  bool faultable = type && (type.value() == E2apType::kIndication ||
                            type.value() == E2apType::kIndicationNack ||
                            (plan_.fault_control &&
                             (type.value() == E2apType::kControlRequest ||
                              type.value() == E2apType::kControlAck)));
  if (faultable && plan_.drop_probability > 0.0 &&
      rng_.chance(plan_.drop_probability)) {
    frames_dropped_->inc();
    return;
  }
  int copies = 1;
  if (faultable && plan_.duplicate_probability > 0.0 &&
      rng_.chance(plan_.duplicate_probability)) {
    frames_duplicated_->inc();
    copies = 2;
  }
  SimTime sent_at = hooks_.now ? hooks_.now() : SimTime{0};
  std::int64_t base_ms =
      toward_ric ? plan_.delay_node_to_ric_ms : plan_.delay_ric_to_node_ms;
  for (int i = 0; i < copies; ++i) {
    std::int64_t delay_ms = base_ms;
    if (faultable && plan_.reorder_probability > 0.0 &&
        rng_.chance(plan_.reorder_probability)) {
      frames_reordered_->inc();
      delay_ms += static_cast<std::int64_t>(
          rng_.uniform_u64(1, plan_.reorder_extra_ms_max));
    }
    if (delay_ms == 0) {
      // Zero transit delay: deliver synchronously. This is the seed
      // pipeline's RIC -> node semantics and several tests depend on it
      // (e.g. subscription state visible immediately after connect).
      deliver(wire, toward_ric, node_id, sent_at);
      continue;
    }
    // Reserve the frame's channel footprint for the flight window, like a
    // kernel SNDBUF reserves at send() time: ready_for() counts these
    // bytes so the agent's probe cannot overshoot the channel with frames
    // that would be refused — after their sequence numbers were already
    // consumed — when they land.
    std::size_t flight_bytes =
        toward_ric ? transport::framed_size(8 + wire.size()) : 0;
    in_flight_to_ric_ += flight_bytes;
    hooks_.schedule(
        SimDuration::from_ms(static_cast<double>(delay_ms)),
        [this, wire, toward_ric, node_id, sent_at, flight_bytes] {
          in_flight_to_ric_ -= flight_bytes;
          // The link may have gone down while the frame was in flight.
          if (!link_up_) {
            link_down_drops_->inc();
            return;
          }
          deliver(wire, toward_ric, node_id, sent_at);
        });
  }
}

void FaultyE2Transport::deliver(const Bytes& wire, bool toward_ric,
                                std::uint64_t node_id, SimTime sent_at) {
  // The PDU's scheduled moment has arrived: frame it into the channel and
  // pump synchronously, so the far side processes it NOW — exactly the
  // pre-transport semantics — regardless of which backend carries it.
  bool queued = toward_ric ? link_->enqueue_to_ric(node_id, wire)
                           : link_->enqueue_to_node(node_id, wire);
  if (!queued) {
    // Channel full (paused/slow reader): the frame is lost here, counted
    // as transport.backpressure_events by the link. Telemetry loss is
    // recovered by the RIC's NACK machinery like any other drop.
    return;
  }
  frames_delivered_->inc();
  if (toward_ric && hooks_.now) {
    SimDuration transit = hooks_.now() - sent_at;
    if (transit.us >= 0)
      transit_us_->observe(static_cast<std::uint64_t>(transit.us));
  }
  if (toward_ric)
    link_->pump_to_ric();
  else
    link_->pump_to_node();
}

void FaultyE2Transport::go_down() {
  if (!link_up_) return;
  link_up_ = false;
  link_down_events_->inc();
  XSEC_LOG_WARN("transport", "E2 link down (node ", node_id_, ")");
  if (node_id_ != 0) ric_->disconnect_node(node_id_);
  node_->on_link_state(false);
}

void FaultyE2Transport::go_up() {
  if (link_up_) return;
  link_up_ = true;
  link_up_events_->inc();
  XSEC_LOG_INFO("transport", "E2 link up (node ", node_id_, ")");
  node_->on_link_state(true);
}

}  // namespace xsec::oran
