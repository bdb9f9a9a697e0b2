#include "mobiflow/agent.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/log.hpp"
#include "mobiflow/trace.hpp"
#include "ran/codec.hpp"
#include "ran/ue.hpp"  // deconceal_suci for null-scheme plaintext recovery

namespace xsec::mobiflow {

Bytes encode_control(const ControlCommand& cmd) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(cmd.action));
  w.u16(cmd.rnti);
  w.u64(cmd.s_tmsi);
  w.u32(cmd.stale_age_ms);
  w.u32(cmd.rate_limit);
  w.u32(cmd.rate_window_ms);
  return w.take();
}

Result<ControlCommand> decode_control(std::span<const std::uint8_t> wire) {
  ByteReader r(wire.data(), wire.size());
  auto action = r.u8();
  if (!action) return action.error();
  if (action.value() > ControlCommand::kMaxAction)
    return Error::make("malformed", "control action out of range");
  auto rnti = r.u16();
  if (!rnti) return rnti.error();
  auto tmsi = r.u64();
  if (!tmsi) return tmsi.error();
  auto stale = r.u32();
  if (!stale) return stale.error();
  auto rate = r.u32();
  if (!rate) return rate.error();
  auto window = r.u32();
  if (!window) return window.error();
  ControlCommand cmd;
  cmd.action = static_cast<ControlCommand::Action>(action.value());
  cmd.rnti = rnti.value();
  cmd.s_tmsi = tmsi.value();
  cmd.stale_age_ms = stale.value();
  cmd.rate_limit = rate.value();
  cmd.rate_window_ms = window.value();
  if (cmd.action == ControlCommand::Action::kRateLimit &&
      (cmd.rate_limit == 0 || cmd.rate_window_ms == 0))
    return Error::make("malformed", "rate-limit control without a rate");
  return cmd;
}

RicAgent::RicAgent(std::uint64_t node_id, AgentHooks hooks)
    : node_id_(node_id),
      hooks_(std::move(hooks)),
      backoff_rng_(0xbacc0ff ^ node_id) {
  obs_ = hooks_.obs;
  if (!obs_) {
    own_obs_ = std::make_unique<obs::Observability>();
    obs_ = own_obs_.get();
  }
  std::string scope = "agent.node" + std::to_string(node_id_) + ".";
  obs::MetricsRegistry& r = obs_->metrics;
  records_collected_ = &r.counter(scope + "records_collected");
  indications_sent_ = &r.counter(scope + "indications_sent");
  parse_errors_ = &r.counter(scope + "parse_errors");
  reconnects_ = &r.counter(scope + "reconnects");
  reconnect_attempts_ = &r.counter(scope + "reconnect_attempts");
  indications_retransmitted_ = &r.counter(scope + "indications_retransmitted");
  records_dropped_outage_ = &r.counter(scope + "records_dropped_outage");
  records_spilled_ = &r.counter(scope + "records_spilled");
  records_replayed_ = &r.counter(scope + "records_replayed");
  spill_files_ = &r.counter(scope + "spill_files");
  controls_deduplicated_ = &r.counter(scope + "controls_deduplicated");
}

void RicAgent::attach(ran::InterfaceTaps& taps) {
  taps.add_f1_tap([this](SimTime t, const Bytes& wire) { on_f1(t, wire); });
  taps.add_ng_tap([this](SimTime t, const Bytes& wire) { on_ng(t, wire); });
}

Bytes RicAgent::setup_request() {
  oran::E2SetupRequest setup;
  setup.node_id = node_id_;
  setup.functions.push_back(oran::e2sm::make_mobiflow_function());
  return encode_e2ap(setup);
}

void RicAgent::on_e2ap(std::span<const std::uint8_t> wire) {
  auto type = oran::e2ap_type(wire);
  if (!type) return;
  switch (type.value()) {
    case oran::E2apType::kSetupResponse:
      break;  // functions accepted; nothing to store
    case oran::E2apType::kSubscriptionRequest: {
      auto request = oran::decode_subscription_request(wire);
      if (!request) return;
      oran::RicSubscriptionResponse response;
      response.request_id = request.value().request_id;
      response.ran_function_id = request.value().ran_function_id;
      if (request.value().ran_function_id !=
              oran::e2sm::kMobiFlowFunctionId ||
          request.value().actions.empty()) {
        for (const auto& a : request.value().actions)
          response.rejected_action_ids.push_back(a.action_id);
        hooks_.to_ric(node_id_, encode_e2ap(response));
        return;
      }
      Subscription sub;
      sub.request_id = request.value().request_id;
      const auto& action = request.value().actions.front();
      sub.action_id = action.action_id;
      auto trigger = oran::e2sm::decode_event_trigger(
          request.value().event_trigger);
      auto action_def = oran::e2sm::decode_action_definition(action.definition);
      if (!trigger || !action_def) {
        response.rejected_action_ids.push_back(action.action_id);
        hooks_.to_ric(node_id_, encode_e2ap(response));
        return;
      }
      sub.trigger = trigger.value();
      sub.action = action_def.value();
      subscriptions_.push_back(sub);
      ever_subscribed_ = true;
      response.admitted_action_ids.push_back(action.action_id);
      hooks_.to_ric(node_id_, encode_e2ap(response));
      // A long outage may have spilled backlog to disk: reload it in front
      // of the RAM buffer so the flush timer reports everything in order.
      replay_spill();
      arm_flush_timer();
      break;
    }
    case oran::E2apType::kSubscriptionDeleteRequest: {
      auto request = oran::decode_subscription_delete(wire);
      if (!request) return;
      for (auto it = subscriptions_.begin(); it != subscriptions_.end();
           ++it) {
        if (it->request_id == request.value().request_id) {
          subscriptions_.erase(it);
          break;
        }
      }
      if (subscriptions_.empty()) {
        // Clean teardown (as opposed to link loss): nobody is coming back
        // for the buffered telemetry.
        ever_subscribed_ = false;
        buffer_.clear();
        retx_ring_.clear();
        discard_spill();
      }
      break;
    }
    case oran::E2apType::kIndicationNack: {
      auto nack = oran::decode_indication_nack(wire);
      if (!nack) return;
      handle_nack(nack.value());
      break;
    }
    case oran::E2apType::kControlRequest: {
      auto request = oran::decode_control_request(wire);
      if (!request) return;
      oran::RicControlAck ack;
      ack.request_id = request.value().request_id;
      ack.ran_function_id = request.value().ran_function_id;
      // At-most-once execution: a Control retransmitted by the RIC (lost
      // or duplicated ack) is re-acked with the original result instead of
      // re-applying a non-idempotent action. Instance id 0 is the legacy
      // uncorrelated path and is never deduplicated.
      const oran::RicRequestId& rid = request.value().request_id;
      std::uint64_t control_key =
          (static_cast<std::uint64_t>(rid.requestor_id) << 32) |
          rid.instance_id;
      if (rid.instance_id != 0) {
        for (const auto& [key, result] : recent_controls_) {
          if (key != control_key) continue;
          controls_deduplicated_->inc();
          ack.success = result;
          hooks_.to_ric(node_id_, encode_e2ap(ack));
          return;
        }
      }
      bool ok = false;
      auto cmd = decode_control(request.value().message);
      if (cmd && hooks_.apply_control) ok = hooks_.apply_control(cmd.value());
      if (rid.instance_id != 0) {
        recent_controls_.emplace_back(control_key, ok);
        if (recent_controls_.size() > kControlDedupWindow)
          recent_controls_.pop_front();
      }
      ack.success = ok;
      hooks_.to_ric(node_id_, encode_e2ap(ack));
      break;
    }
    default:
      break;
  }
}

void RicAgent::on_f1(SimTime t, const Bytes& wire) {
  auto f1 = ran::decode_f1ap(wire);
  if (!f1) {
    parse_errors_->inc();
    return;
  }
  const auto& msg = f1.value();
  if (msg.procedure == ran::F1apProcedure::kUeContextSetup ||
      msg.procedure == ran::F1apProcedure::kUeContextRelease)
    return;  // no RRC payload

  auto rrc = ran::decode_rrc(msg.rrc_container);
  if (!rrc) {
    parse_errors_->inc();
    return;
  }

  UeState& state = ue_state_[msg.gnb_du_ue_id];
  state.rnti = msg.rnti.value;
  last_cell_ = msg.cell;  // NGAP taps carry no cell identity; remember it

  Record record;
  record.timestamp_us = t.us;
  record.gnb_id = msg.cell.gnb_id;
  record.cell = msg.cell.cell;
  record.ue_id = msg.gnb_du_ue_id;
  record.protocol = vocab::Protocol::kRrc;
  record.msg = vocab::msg_from_rrc_index(rrc.value().index());
  record.direction = ran::rrc_is_uplink(rrc.value()) ? vocab::Direction::kUl
                                                     : vocab::Direction::kDl;

  // Update tracked UE state from message contents.
  std::uint64_t paged_tmsi = 0;
  std::visit(
      [&state, &paged_tmsi](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ran::RrcSetupRequest>) {
          state.establishment_cause = vocab::from_ran(m.cause);
          if (m.ue_identity.kind ==
              ran::InitialUeIdentity::Kind::kNg5gSTmsiPart1)
            state.s_tmsi = m.ue_identity.value;
        } else if constexpr (std::is_same_v<T, ran::RrcSetupComplete>) {
          if (m.s_tmsi) state.s_tmsi = m.s_tmsi->packed();
        } else if constexpr (std::is_same_v<T, ran::RrcSecurityModeCommand>) {
          state.cipher_alg = vocab::from_ran(m.cipher);
          state.integrity_alg = vocab::from_ran(m.integrity);
        } else if constexpr (std::is_same_v<T, ran::Paging>) {
          // Broadcast, not bound to a UE context: the identifier goes on
          // the record but not into any context's tracked state.
          paged_tmsi = m.s_tmsi_packed;
        }
      },
      rrc.value());

  record.rnti = state.rnti;
  record.s_tmsi = paged_tmsi != 0 ? paged_tmsi : state.s_tmsi;
  record.cipher_alg = state.cipher_alg;
  record.integrity_alg = state.integrity_alg;
  record.establishment_cause = state.establishment_cause;
  emit(std::move(record));
}

void RicAgent::fill_identity(Record& record, UeState& state,
                             const ran::MobileIdentity& identity) {
  switch (identity.kind) {
    case ran::MobileIdentity::Kind::kSuci: {
      record.suci = identity.suci->str();
      if (identity.suci->is_null_scheme()) {
        // Null protection scheme: the MSIN is on the air in plaintext.
        ran::Supi supi{identity.suci->plmn, deconceal_suci(*identity.suci)};
        record.supi_plain = supi.str();
      }
      break;
    }
    case ran::MobileIdentity::Kind::kGuti:
      state.s_tmsi = identity.guti->s_tmsi.packed();
      break;
    case ran::MobileIdentity::Kind::kSupiPlain:
      record.supi_plain = identity.supi->str();
      break;
    case ran::MobileIdentity::Kind::kNone:
      break;
  }
}

void RicAgent::on_ng(SimTime t, const Bytes& wire) {
  auto ngap = ran::decode_ngap(wire);
  if (!ngap) {
    parse_errors_->inc();
    return;
  }
  const auto& msg = ngap.value();
  if (msg.nas_pdu.empty()) return;  // context-management procedure

  auto nas = ran::decode_nas(msg.nas_pdu);
  if (!nas) {
    parse_errors_->inc();
    return;
  }

  UeState& state = ue_state_[msg.ran_ue_ngap_id];

  Record record;
  record.timestamp_us = t.us;
  record.gnb_id = last_cell_.gnb_id;
  record.cell = last_cell_.cell;
  record.ue_id = msg.ran_ue_ngap_id;
  record.protocol = vocab::Protocol::kNas;
  record.msg = vocab::msg_from_nas_index(nas.value().index());
  record.direction = ran::nas_is_uplink(nas.value()) ? vocab::Direction::kUl
                                                     : vocab::Direction::kDl;

  std::visit(
      [this, &record, &state](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ran::RegistrationRequest>) {
          fill_identity(record, state, m.identity);
        } else if constexpr (std::is_same_v<T, ran::IdentityResponse>) {
          fill_identity(record, state, m.identity);
        } else if constexpr (std::is_same_v<T, ran::NasSecurityModeCommand>) {
          state.cipher_alg = vocab::from_ran(m.cipher);
          state.integrity_alg = vocab::from_ran(m.integrity);
        } else if constexpr (std::is_same_v<T, ran::RegistrationAccept>) {
          state.s_tmsi = m.guti.s_tmsi.packed();
        } else if constexpr (std::is_same_v<T, ran::ServiceRequest>) {
          if (m.s_tmsi) state.s_tmsi = m.s_tmsi->packed();
        }
      },
      nas.value());

  record.rnti = state.rnti;
  record.s_tmsi = state.s_tmsi;
  record.cipher_alg = state.cipher_alg;
  record.integrity_alg = state.integrity_alg;
  record.establishment_cause = state.establishment_cause;
  emit(std::move(record));
}

void RicAgent::emit(Record record) {
  records_collected_->inc();
  if (record_sink_) record_sink_(record);
  if (subscriptions_.empty() && !ever_subscribed_) return;
  if (buffer_.empty()) buffer_start_ = hooks_.now();
  buffer_.push_back(std::move(record));
  if (subscriptions_.empty()) {
    // Outage backlog: keep telemetry for delivery after the subscription
    // is re-established, bounded so a long outage cannot grow memory
    // without limit. With a spill directory configured the full backlog
    // goes to disk (.mft) and is replayed on reconnect; without one the
    // oldest record is dropped (recent telemetry matters most).
    if (buffer_.size() > hooks_.outage_buffer_max) {
      if (!hooks_.spill_dir.empty()) {
        spill_buffer();
      } else {
        buffer_.erase(buffer_.begin());
        records_dropped_outage_->inc();
      }
    }
    return;
  }
  std::uint16_t max_rows = 0xffff;
  for (const auto& sub : subscriptions_)
    max_rows = std::min(max_rows, sub.action.max_rows);
  if (buffer_.size() >= max_rows) flush();
  // A backpressured transport makes flush() defer, so the buffer can grow
  // past the row cap even while subscribed: bound it exactly like the
  // outage backlog (spill to disk, or drop the oldest).
  if (buffer_.size() > hooks_.outage_buffer_max) {
    if (!hooks_.spill_dir.empty()) {
      spill_buffer();
    } else {
      buffer_.erase(buffer_.begin());
      records_dropped_outage_->inc();
    }
  }
}

void RicAgent::flush() {
  if (subscriptions_.empty()) return;
  // Backlog spilled under backpressure is replayed in front of the RAM
  // buffer once the transport has headroom again (ordering preserved:
  // spilled records predate everything still in RAM).
  if (!spill_paths_.empty() &&
      (!hooks_.transport_ready || hooks_.transport_ready(0)))
    replay_spill();
  if (buffer_.empty()) return;

  std::uint16_t max_rows = 0xffff;
  for (const auto& sub : subscriptions_)
    max_rows = std::min(max_rows, sub.action.max_rows);
  if (max_rows == 0) max_rows = 1;

  // A post-outage backlog can exceed the subscription's row cap: report it
  // as multiple batches, each with its own sequence number.
  std::size_t offset = 0;
  bool first_chunk = true;
  while (offset < buffer_.size()) {
    std::size_t count =
        std::min<std::size_t>(max_rows, buffer_.size() - offset);

    // Probe the transport BEFORE consuming a sequence number or touching
    // the retransmission ring: a refused batch is deferred, not half-sent.
    // The records stay buffered (bounded by the outage spill machinery)
    // and the periodic flush retries, so the sequence stream stays
    // gap-free under backpressure. A refused batch is first halved and
    // re-probed — smaller reports keep flowing through a congested
    // channel, and a post-stall backlog whose full-size chunk could NEVER
    // fit still drains instead of livelocking. The margin covers E2AP +
    // frame overhead; with multiple subscribers only the first PDU is
    // probed — a same-moment refusal of a sibling copy is recovered by
    // the RIC's NACK machinery like any other transport loss.
    oran::e2sm::IndicationHeader header;
    Bytes encoded_header;
    Bytes encoded_message;
    bool deferred = false;
    for (;;) {
      header = {};
      header.collect_start_us =
          first_chunk ? buffer_start_.us : buffer_[offset].timestamp_us;
      header.gnb_id = buffer_[offset].gnb_id;
      header.cell = buffer_[offset].cell;

      oran::e2sm::IndicationMessage message;
      message.rows.reserve(count);
      for (std::size_t i = offset; i < offset + count; ++i)
        message.rows.push_back(buffer_[i].to_kv_bytes());

      // The same report batch goes to every subscriber of the function.
      encoded_header = encode_indication_header(header);
      encoded_message = encode_indication_message(message);
      if (!hooks_.transport_ready ||
          hooks_.transport_ready(encoded_header.size() +
                                 encoded_message.size() + 64))
        break;
      if (count == 1) {
        deferred = true;
        break;
      }
      count /= 2;
    }
    if (deferred) break;
    std::uint32_t sequence = next_sequence_++;
    std::int64_t sent_at_us = hooks_.now ? hooks_.now().us : 0;
    // Collection-to-send span for this batch: starts when the first
    // buffered record was captured, ends at first transmission.
    obs_->tracer.record("agent.encode",
                        (node_id_ << 32) | sequence, /*parent_id=*/0,
                        SimTime{header.collect_start_us},
                        SimTime{sent_at_us});
    retx_ring_.push_back(
        SentBatch{sequence, encoded_header, encoded_message, sent_at_us});
    if (retx_ring_.size() > kRetxRingCapacity) retx_ring_.pop_front();
    for (const auto& sub : subscriptions_) {
      oran::RicIndication indication;
      indication.request_id = sub.request_id;
      indication.ran_function_id = oran::e2sm::kMobiFlowFunctionId;
      indication.action_id = sub.action_id;
      indication.sequence_number = sequence;
      indication.sent_at_us = sent_at_us;
      indication.type = oran::RicIndicationType::kReport;
      indication.header = encoded_header;
      indication.message = encoded_message;
      hooks_.to_ric(node_id_, encode_e2ap(indication));
      indications_sent_->inc();
    }
    offset += count;
    first_chunk = false;
  }
  // Consume only what was actually reported; a deferred tail stays put
  // and its collection-start follows the oldest remaining record.
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(offset));
  if (!buffer_.empty()) buffer_start_ = SimTime{buffer_.front().timestamp_us};
}

std::string RicAgent::spill_path(std::uint64_t seq) const {
  return hooks_.spill_dir + "/node" + std::to_string(node_id_) + ".spill." +
         std::to_string(seq) + ".mft";
}

void RicAgent::spill_buffer() {
  Trace trace;
  for (Record& record : buffer_) trace.add(std::move(record));
  std::string path = spill_path(next_spill_seq_);
  Status saved = trace.save(path);
  if (!saved) {
    // Disk unavailable: degrade to the RAM-only drop-oldest policy.
    XSEC_LOG_WARN("agent", "node ", node_id_, " spill to ", path,
                  " failed (", saved.error().message, "); dropping oldest");
    buffer_.erase(buffer_.begin());
    records_dropped_outage_->inc();
    return;
  }
  ++next_spill_seq_;
  spill_paths_.push_back(std::move(path));
  records_spilled_->inc(buffer_.size());
  spill_files_->inc();
  buffer_.clear();
}

void RicAgent::replay_spill() {
  if (spill_paths_.empty()) return;
  std::vector<Record> backlog;
  for (const std::string& path : spill_paths_) {
    auto trace = Trace::load(path);
    if (!trace) {
      XSEC_LOG_WARN("agent", "node ", node_id_, " spill file ", path,
                    " unreadable (", trace.error().message, "); skipped");
    } else {
      records_replayed_->inc(trace.value().size());
      for (const auto& entry : trace.value().entries())
        backlog.push_back(entry.record);
    }
    std::remove(path.c_str());
  }
  spill_paths_.clear();
  if (backlog.empty()) return;
  // Spilled records predate everything still in RAM.
  backlog.insert(backlog.end(), std::make_move_iterator(buffer_.begin()),
                 std::make_move_iterator(buffer_.end()));
  buffer_ = std::move(backlog);
  buffer_start_ = SimTime{buffer_.front().timestamp_us};
}

void RicAgent::discard_spill() {
  for (const std::string& path : spill_paths_) std::remove(path.c_str());
  spill_paths_.clear();
}

void RicAgent::handle_nack(const oran::RicIndicationNack& nack) {
  // A batched NACK may carry ranges for several subscriptions (the RIC
  // coalesces per node); resolve each range's subscription independently.
  for (const auto& range : nack.ranges) {
    const Subscription* sub = nullptr;
    for (const auto& s : subscriptions_) {
      if (s.request_id == range.request_id) {
        sub = &s;
        break;
      }
    }
    if (!sub) continue;  // subscription torn down since the batch was sent
    for (std::uint64_t seq = range.first_sequence; seq <= range.last_sequence;
         ++seq) {
      for (const auto& batch : retx_ring_) {
        if (batch.sequence != seq) continue;
        oran::RicIndication indication;
        indication.request_id = sub->request_id;
        indication.ran_function_id = oran::e2sm::kMobiFlowFunctionId;
        indication.action_id = sub->action_id;
        indication.sequence_number = batch.sequence;
        indication.sent_at_us = batch.sent_at_us;
        indication.type = oran::RicIndicationType::kReport;
        indication.header = batch.header;
        indication.message = batch.message;
        hooks_.to_ric(node_id_, encode_e2ap(indication));
        indications_retransmitted_->inc();
        break;
      }
    }
  }
}

void RicAgent::on_link_state(bool up) {
  link_up_ = up;
  if (up) return;  // a pending backoff attempt will land the re-setup
  // Link lost: the RIC tears down everything keyed to this connection, so
  // local subscription state is stale. Keep collecting into the outage
  // buffer (emit() path) and start the reconnect loop.
  subscriptions_.clear();
  retx_ring_.clear();
  XSEC_LOG_WARN("agent", "node ", node_id_,
                " lost E2 link; entering reconnect backoff");
  if (hooks_.try_connect && !reconnect_pending_) {
    backoff_ms_ = kBackoffBaseMs;
    schedule_reconnect();
  }
}

void RicAgent::schedule_reconnect() {
  reconnect_pending_ = true;
  // Exponential backoff with +/-20% jitter so a fleet of agents does not
  // retry in lockstep after a shared outage.
  double jitter = backoff_rng_.uniform(0.8, 1.2);
  SimDuration delay =
      SimDuration::from_ms(static_cast<double>(backoff_ms_) * jitter);
  backoff_ms_ = std::min(backoff_ms_ * 2, kBackoffCapMs);
  hooks_.schedule(delay, [this] { attempt_reconnect(); });
}

void RicAgent::attempt_reconnect() {
  reconnect_pending_ = false;
  reconnect_attempts_->inc();
  auto connected = hooks_.try_connect();
  if (connected) {
    reconnects_->inc();
    backoff_ms_ = kBackoffBaseMs;
    XSEC_LOG_INFO("agent", "node ", node_id_, " re-established E2 setup");
    return;
  }
  schedule_reconnect();
}

void RicAgent::arm_flush_timer() {
  if (flush_timer_armed_ || subscriptions_.empty()) return;
  flush_timer_armed_ = true;
  std::uint32_t period_ms = 0xffffffff;
  for (const auto& sub : subscriptions_)
    period_ms = std::min(period_ms, sub.trigger.report_period_ms);
  hooks_.schedule(SimDuration::from_ms(period_ms), [this] {
    flush_timer_armed_ = false;
    flush();
    if (!subscriptions_.empty()) arm_flush_timer();
  });
}

}  // namespace xsec::mobiflow
