#include "oran/ric.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace xsec::oran {

obs::Observability& NearRtRic::observability() const {
  if (obs_) return *obs_;
  if (!own_obs_) own_obs_ = std::make_unique<obs::Observability>();
  return *own_obs_;
}

void NearRtRic::set_observability(obs::Observability* obs) {
  obs_ = obs;
  metrics_ = Metrics{};  // re-bind against the injected registry
  sdl_.set_metrics(obs ? &obs->metrics : nullptr);
}

NearRtRic::Metrics& NearRtRic::m() const {
  if (!metrics_.bound) {
    obs::MetricsRegistry& r = observability().metrics;
    metrics_.received = &r.counter("ric.indications_received");
    metrics_.dropped = &r.counter("ric.indications_dropped");
    metrics_.duplicates = &r.counter("ric.duplicates_suppressed");
    metrics_.recovered = &r.counter("ric.indications_recovered");
    metrics_.gaps = &r.counter("ric.gaps_detected");
    metrics_.nacks = &r.counter("ric.nacks_sent");
    metrics_.nack_batched = &r.counter("e2.nack_batched");
    metrics_.reconnects = &r.counter("ric.node_reconnects");
    metrics_.stale_cleared = &r.counter("ric.stale_subscriptions_cleared");
    metrics_.controls_sent = &r.counter("ric.controls_sent");
    metrics_.control_acks = &r.counter("ric.control_acks");
    metrics_.control_retx = &r.counter("ric.control_retx");
    metrics_.controls_lost = &r.counter("ric.controls_lost");
    metrics_.bound = true;
  }
  return metrics_;
}

obs::Counter& NearRtRic::node_counter(const char* what,
                                      std::uint64_t node_id) const {
  return observability().metrics.counter("ric.node" + std::to_string(node_id) +
                                         "." + what);
}

Result<std::uint64_t> NearRtRic::connect_node(E2NodeLink* link) {
  Bytes wire = link->setup_request();
  auto setup = decode_setup_request(wire);
  if (!setup) {
    XSEC_LOG_WARN("ric", "malformed E2 setup request: ",
                  setup.error().message);
    return Error::make("malformed", setup.error().message);
  }
  if (setup.value().functions.empty()) {
    XSEC_LOG_WARN("ric", "E2 setup with no RAN functions rejected");
    return Error::make("no-functions", "E2 setup advertised no RAN functions");
  }
  std::uint64_t node_id = setup.value().node_id;
  bool reconnect = nodes_.count(node_id) > 0;
  if (reconnect) {
    // Node-side restart (or link recovery): everything keyed to the old
    // connection is stale. Tear it down explicitly — subscriptions do not
    // survive an E2 Setup — and let xApps re-establish below.
    m().reconnects->inc();
    clear_node_state(node_id);
    XSEC_LOG_INFO("ric", "E2 node ", node_id,
                  " re-setup: stale subscription state torn down");
  }
  Node node;
  node.link = link;
  node.functions = setup.value().functions;
  node.indications = &node_counter("indications", node_id);
  nodes_[node_id] = std::move(node);

  E2SetupResponse response;
  for (const auto& f : nodes_[node_id].functions)
    response.accepted_function_ids.push_back(f.function_id);
  link->on_e2ap(encode_e2ap(response));
  XSEC_LOG_INFO("ric", "E2 node ", node_id, " connected with ",
                nodes_[node_id].functions.size(), " RAN function(s)");
  // Registered xApps resume their subscriptions on the fresh connection.
  // (Initial pipeline bring-up connects nodes before any xApp registers;
  // those subscribe from on_start instead.)
  for (const auto& xapp : xapps_) xapp->on_node_connected(node_id);
  return node_id;
}

void NearRtRic::clear_node_state(std::uint64_t node_id) {
  for (auto it = subscriptions_.begin(); it != subscriptions_.end();) {
    if (it->first.node_id == node_id) {
      m().stale_cleared->inc();
      streams_.erase(it->first);
      it = subscriptions_.erase(it);
    } else {
      ++it;
    }
  }
  staged_nacks_.erase(node_id);
  nodes_.erase(node_id);
  fail_node_controls(node_id);
}

void NearRtRic::disconnect_node(std::uint64_t node_id) {
  for (auto it = subscriptions_.begin(); it != subscriptions_.end();) {
    if (it->first.node_id == node_id) {
      streams_.erase(it->first);
      it = subscriptions_.erase(it);
    } else {
      ++it;
    }
  }
  staged_nacks_.erase(node_id);
  nodes_.erase(node_id);
  fail_node_controls(node_id);
}

const std::vector<RanFunction>* NearRtRic::node_functions(
    std::uint64_t node_id) const {
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) return nullptr;
  return &it->second.functions;
}

std::vector<std::uint64_t> NearRtRic::connected_nodes() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) ids.push_back(id);
  return ids;
}

XApp* NearRtRic::register_xapp(std::unique_ptr<XApp> xapp) {
  XApp* raw = xapp.get();
  raw->attach(this, &sdl_, &router_, next_requestor_id_++, &observability());
  xapps_.push_back(std::move(xapp));
  raw->on_start();
  XSEC_LOG_INFO("ric", "xApp registered: ", raw->name());
  return raw;
}

PolicyStatus NearRtRic::apply_policy(const std::string& xapp_name,
                                     const A1Policy& policy) {
  XApp* xapp = find_xapp(xapp_name);
  if (!xapp) {
    XSEC_LOG_WARN("ric", "A1 policy for unknown xApp ", xapp_name);
    return PolicyStatus::kNotEnforced;
  }
  PolicyStatus status = xapp->on_policy(policy);
  XSEC_LOG_INFO("ric", "A1 policy ", policy.policy_id, " -> ", xapp_name,
                ": ", to_string(status));
  return status;
}

XApp* NearRtRic::find_xapp(const std::string& name) {
  for (const auto& xapp : xapps_)
    if (xapp->name() == name) return xapp.get();
  return nullptr;
}

RicRequestId NearRtRic::subscribe(XApp* xapp, std::uint64_t node_id,
                                  std::uint16_t ran_function_id,
                                  Bytes event_trigger,
                                  std::vector<RicAction> actions) {
  RicRequestId id{xapp->requestor_id(), next_instance_id_++};
  auto node_it = nodes_.find(node_id);
  if (node_it == nodes_.end()) {
    XSEC_LOG_WARN("ric", "subscribe to unknown node ", node_id);
    return id;
  }
  subscriptions_[SubscriptionKey{node_id, id.requestor_id, id.instance_id}] =
      xapp;

  RicSubscriptionRequest request;
  request.request_id = id;
  request.ran_function_id = ran_function_id;
  request.event_trigger = std::move(event_trigger);
  request.actions = std::move(actions);
  node_it->second.link->on_e2ap(encode_e2ap(request));
  return id;
}

void NearRtRic::unsubscribe(XApp* xapp, std::uint64_t node_id,
                            RicRequestId id) {
  (void)xapp;
  auto node_it = nodes_.find(node_id);
  SubscriptionKey key{node_id, id.requestor_id, id.instance_id};
  subscriptions_.erase(key);
  streams_.erase(key);
  if (node_it == nodes_.end()) return;
  RicSubscriptionDeleteRequest request;
  request.request_id = id;
  node_it->second.link->on_e2ap(encode_e2ap(request));
}

RicRequestId NearRtRic::send_control(XApp* xapp, std::uint64_t node_id,
                                     std::uint16_t ran_function_id,
                                     Bytes header, Bytes message) {
  RicRequestId id{xapp->requestor_id(), next_control_instance_++};
  auto node_it = nodes_.find(node_id);
  if (node_it == nodes_.end()) {
    // Unknown / departed node: the request can never be delivered, but the
    // xApp still gets its one guaranteed ack.
    m().controls_lost->inc();
    RicControlAck ack;
    ack.request_id = id;
    ack.ran_function_id = ran_function_id;
    ack.success = false;
    xapp->on_control_ack(node_id, ack);
    return id;
  }
  RicControlRequest request;
  request.request_id = id;
  request.ran_function_id = ran_function_id;
  request.header = std::move(header);
  request.message = std::move(message);
  Bytes wire = encode_e2ap(request);
  m().controls_sent->inc();
  if (scheduler_) {
    // Track BEFORE delivery: the default transport delivers RIC -> node
    // synchronously, so the ack can arrive (and erase the entry) inside
    // the on_e2ap call below.
    std::uint64_t key = control_key(id);
    PendingControl pending;
    pending.node_id = node_id;
    pending.xapp = xapp;
    pending.ran_function_id = ran_function_id;
    pending.wire = wire;
    pending_controls_.emplace(key, std::move(pending));
    node_it->second.link->on_e2ap(wire);
    scheduler_(SimDuration::from_ms(kControlAckTimeoutMs),
               [this, key] { control_timeout(key); });
  } else {
    // Standalone mode (no scheduler): fire-and-forget, as before.
    node_it->second.link->on_e2ap(wire);
  }
  return id;
}

void NearRtRic::control_timeout(std::uint64_t key) {
  auto it = pending_controls_.find(key);
  if (it == pending_controls_.end()) return;  // acked in time
  auto node_it = nodes_.find(it->second.node_id);
  if (node_it == nodes_.end() || it->second.retx >= kMaxControlRetx) {
    PendingControl pending = std::move(it->second);
    pending_controls_.erase(it);
    fail_control(key, std::move(pending));
    return;
  }
  ++it->second.retx;
  m().control_retx->inc();
  // Copy: a synchronous retransmission round trip can ack and erase the
  // entry inside on_e2ap.
  Bytes wire = it->second.wire;
  node_it->second.link->on_e2ap(wire);
  scheduler_(SimDuration::from_ms(kControlAckTimeoutMs),
             [this, key] { control_timeout(key); });
}

void NearRtRic::fail_control(std::uint64_t key, PendingControl pending) {
  (void)key;
  m().controls_lost->inc();
  XSEC_LOG_WARN("ric", "control to node ", pending.node_id,
                " abandoned after ", int(pending.retx), " retransmission(s)");
  auto request = decode_control_request(pending.wire);
  RicControlAck ack;
  if (request) ack.request_id = request.value().request_id;
  ack.ran_function_id = pending.ran_function_id;
  ack.success = false;
  if (pending.xapp) pending.xapp->on_control_ack(pending.node_id, ack);
}

void NearRtRic::fail_node_controls(std::uint64_t node_id) {
  // Collect first: the failure acks re-enter xApp code that may issue new
  // controls while we iterate.
  std::vector<std::pair<std::uint64_t, PendingControl>> doomed;
  for (auto it = pending_controls_.begin(); it != pending_controls_.end();) {
    if (it->second.node_id == node_id) {
      doomed.emplace_back(it->first, std::move(it->second));
      it = pending_controls_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [key, pending] : doomed) fail_control(key, std::move(pending));
}

void NearRtRic::deliver_to_xapp(const SubscriptionKey& key, XApp* xapp,
                                const RicIndicationView& indication) {
  obs::Observability& o = observability();
  // One trace per indication of a node; every stage of its journey
  // (agent.encode -> e2.transit -> ric.deliver -> mobiwatch.*) shares it.
  std::uint64_t trace_id =
      (key.node_id << 32) | indication.sequence_number;
  std::uint32_t transit_id = 0;
  if (indication.sent_at_us > 0 && o.tracer.has_clock()) {
    // Transit measured from the FIRST transmission (retransmits keep the
    // original stamp), so the distribution includes retransmission delay.
    transit_id =
        o.tracer.record("e2.transit", trace_id, o.tracer.root_of(trace_id),
                        SimTime{indication.sent_at_us}, o.tracer.now());
  }
  obs::Span span = o.tracer.begin("ric.deliver", trace_id, transit_id);
  xapp->on_indication_view(key.node_id, indication);
}

void NearRtRic::deliver_in_order(const SubscriptionKey& key, Stream& stream) {
  auto sub = subscriptions_.find(key);
  if (sub == subscriptions_.end()) return;
  while (!stream.pending.empty() &&
         stream.pending.begin()->first == stream.next_expected) {
    RicIndication next = std::move(stream.pending.begin()->second);
    stream.pending.erase(stream.pending.begin());
    stream.nack_counts.erase(stream.next_expected);
    ++stream.next_expected;
    m().recovered->inc();
    deliver_to_xapp(key, sub->second, as_view(next));
  }
}

void NearRtRic::declare_gap(const SubscriptionKey& key, Stream& stream,
                            std::uint32_t up_to) {
  auto sub = subscriptions_.find(key);
  std::uint32_t first = stream.next_expected;
  for (std::uint32_t seq = first; seq != up_to; ++seq)
    stream.nack_counts.erase(seq);
  stream.next_expected = up_to;
  m().gaps->inc();
  node_counter("gaps_detected", key.node_id).inc();
  XSEC_LOG_WARN("ric", "telemetry gap on node ", key.node_id,
                ": indications [", first, ", ", up_to - 1, "] lost");
  if (sub != subscriptions_.end())
    sub->second->on_telemetry_gap(
        key.node_id, RicRequestId{key.requestor_id, key.instance_id}, first,
        up_to - 1);
}

void NearRtRic::send_single_nack(const SubscriptionKey& key, Stream& stream,
                                 std::uint32_t lowest_pending) {
  auto node_it = nodes_.find(key.node_id);
  if (node_it == nodes_.end()) return;
  RicIndicationNack nack;
  nack.ranges.push_back(
      NackRange{RicRequestId{key.requestor_id, key.instance_id},
                stream.next_expected, lowest_pending - 1});
  m().nacks->inc();
  node_it->second.link->on_e2ap(encode_e2ap(nack));
}

void NearRtRic::maybe_nack(const SubscriptionKey& key, Stream& stream) {
  auto node_it = nodes_.find(key.node_id);
  if (node_it == nodes_.end() || stream.pending.empty()) return;
  std::uint32_t lowest_pending = stream.pending.begin()->first;
  // Request the whole missing run in one NACK, budgeting per sequence so a
  // run that keeps getting lost is eventually abandoned by declare_gap.
  bool any_budget = false;
  for (std::uint32_t seq = stream.next_expected; seq != lowest_pending;
       ++seq) {
    std::uint8_t& count = stream.nack_counts[seq];
    if (count < kMaxNacks) {
      ++count;
      any_budget = true;
    }
  }
  if (!any_budget) return;
  if (!scheduler_) {
    // Standalone mode: every missing run is chased immediately.
    send_single_nack(key, stream, lowest_pending);
    return;
  }
  // Batched mode: stage this stream's request and flush every stream's
  // staged NACK for the node as ONE multi-range PDU at zero delay — after
  // the rest of the reverse-path round's arrivals (same sim time) have
  // been processed, so ranges healed within the round are not chased.
  auto& staged = staged_nacks_[key.node_id];
  bool flush_pending = !staged.empty();
  if (std::find(staged.begin(), staged.end(), key) == staged.end())
    staged.push_back(key);
  if (!flush_pending) {
    scheduler_(SimDuration{0},
               [this, node_id = key.node_id] { flush_nacks(node_id); });
  }
}

void NearRtRic::flush_nacks(std::uint64_t node_id) {
  auto staged_it = staged_nacks_.find(node_id);
  if (staged_it == staged_nacks_.end()) return;
  std::vector<SubscriptionKey> staged = std::move(staged_it->second);
  staged_nacks_.erase(staged_it);
  auto node_it = nodes_.find(node_id);
  if (node_it == nodes_.end()) return;  // link died between stage and flush
  RicIndicationNack nack;
  for (const SubscriptionKey& key : staged) {
    auto stream_it = streams_.find(key);
    if (stream_it == streams_.end()) continue;
    Stream& stream = stream_it->second;
    // Re-derive the missing run at flush time: an arrival later in the
    // same round may have shrunk or healed it.
    if (stream.pending.empty()) continue;
    std::uint32_t lowest_pending = stream.pending.begin()->first;
    if (stream.next_expected >= lowest_pending) continue;
    nack.ranges.push_back(
        NackRange{RicRequestId{key.requestor_id, key.instance_id},
                  stream.next_expected, lowest_pending - 1});
  }
  if (nack.ranges.empty()) return;
  m().nacks->inc();
  if (nack.ranges.size() > 1)
    m().nack_batched->inc(nack.ranges.size() - 1);
  node_it->second.link->on_e2ap(encode_e2ap(nack));
}

void NearRtRic::handle_indication_view(std::uint64_t node_id,
                                       const RicIndicationView& indication) {
  const RicRequestId& id = indication.request_id;
  SubscriptionKey key{node_id, id.requestor_id, id.instance_id};
  auto sub = subscriptions_.find(key);
  if (sub == subscriptions_.end()) {
    m().dropped->inc();
    XSEC_LOG_DEBUG("ric", "indication without subscription from node ",
                   node_id);
    return;
  }
  Stream& stream = streams_[key];
  std::uint32_t seq = indication.sequence_number;
  if (!stream.started) {
    // Subscriptions join the agent's global sequence mid-stream; the first
    // arrival anchors the tracker.
    stream.started = true;
    stream.next_expected = seq;
  }
  if (seq < stream.next_expected) {
    m().duplicates->inc();
    return;
  }
  if (seq == stream.next_expected) {
    ++stream.next_expected;
    stream.nack_counts.erase(seq);
    // The common case: in order, delivered as a zero-copy view straight
    // out of the transport's buffer.
    deliver_to_xapp(key, sub->second, indication);
    deliver_in_order(key, stream);
    return;
  }
  // Ahead of sequence: buffer and chase the missing run. Buffering must
  // outlive the transport's frame, so this is the one path that copies.
  if (stream.pending.count(seq)) {
    m().duplicates->inc();
    return;
  }
  stream.pending.emplace(seq, indication.materialize());
  // Chase the missing run while retransmission budget remains; once every
  // sequence in it has been NACKed kMaxNacks times without an answer (or
  // the reorder buffer overflows), give up and declare the gap.
  std::uint32_t lowest_pending = stream.pending.begin()->first;
  bool budget_left = false;
  for (std::uint32_t s = stream.next_expected; s != lowest_pending; ++s) {
    auto it = stream.nack_counts.find(s);
    if (it == stream.nack_counts.end() || it->second < kMaxNacks) {
      budget_left = true;
      break;
    }
  }
  if (budget_left && stream.pending.size() <= kReorderWindow) {
    maybe_nack(key, stream);
  } else {
    declare_gap(key, stream, lowest_pending);
    deliver_in_order(key, stream);
  }
}

void NearRtRic::flush_streams() {
  for (auto& [key, stream] : streams_) {
    while (!stream.pending.empty()) {
      std::uint32_t lowest_pending = stream.pending.begin()->first;
      if (lowest_pending != stream.next_expected)
        declare_gap(key, stream, lowest_pending);
      deliver_in_order(key, stream);
    }
  }
}

void NearRtRic::from_node(std::uint64_t node_id, const Bytes& e2ap_wire) {
  from_node_frame(node_id, e2ap_wire);
}

void NearRtRic::from_node_frame(std::uint64_t node_id,
                                std::span<const std::uint8_t> e2ap_wire) {
  auto type = e2ap_type(e2ap_wire);
  if (!type) {
    XSEC_LOG_WARN("ric", "undecodable E2AP from node ", node_id);
    return;
  }
  switch (type.value()) {
    case E2apType::kIndication: {
      auto indication = decode_indication_view(e2ap_wire);
      if (!indication) {
        m().dropped->inc();
        return;
      }
      m().received->inc();
      auto node_it = nodes_.find(node_id);
      if (node_it != nodes_.end() && node_it->second.indications)
        node_it->second.indications->inc();
      handle_indication_view(node_id, indication.value());
      break;
    }
    case E2apType::kSubscriptionResponse: {
      // Admission bookkeeping only; rejected actions are logged.
      auto response = decode_subscription_response(e2ap_wire);
      if (response && !response.value().rejected_action_ids.empty())
        XSEC_LOG_WARN("ric", "node ", node_id, " rejected ",
                      response.value().rejected_action_ids.size(),
                      " subscription action(s)");
      break;
    }
    case E2apType::kControlAck: {
      auto ack = decode_control_ack(e2ap_wire);
      if (!ack) return;
      const RicRequestId& id = ack.value().request_id;
      if (id.instance_id != 0) {
        // Correlated path: match against the pending map. A second arrival
        // (duplicated ack, or an ack racing a retransmission) finds no
        // entry and is suppressed — the xApp sees exactly one ack.
        auto it = pending_controls_.find(control_key(id));
        if (it == pending_controls_.end()) {
          m().duplicates->inc();
          return;
        }
        XApp* xapp = it->second.xapp;
        pending_controls_.erase(it);
        m().control_acks->inc();
        if (xapp) xapp->on_control_ack(node_id, ack.value());
        return;
      }
      // Legacy uncorrelated path (instance 0): route by requestor id.
      for (const auto& xapp : xapps_) {
        if (xapp->requestor_id() == id.requestor_id) {
          xapp->on_control_ack(node_id, ack.value());
          break;
        }
      }
      break;
    }
    default:
      XSEC_LOG_WARN("ric", "unexpected E2AP PDU type from node ", node_id);
      break;
  }
}

}  // namespace xsec::oran
