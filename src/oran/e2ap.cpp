#include "oran/e2ap.hpp"

namespace xsec::oran {

std::string to_string(RicActionType t) {
  switch (t) {
    case RicActionType::kReport: return "report";
    case RicActionType::kInsert: return "insert";
    case RicActionType::kPolicy: return "policy";
  }
  return "unknown";
}

namespace {
constexpr std::uint8_t kVersion = 1;

void header(ByteWriter& w, E2apType type) {
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type));
}

Result<ByteReader> open(std::span<const std::uint8_t> wire,
                        E2apType expected) {
  ByteReader r(wire.data(), wire.size());
  auto version = r.u8();
  if (!version) return version.error();
  if (version.value() != kVersion)
    return Error::make("version", "unsupported E2AP version");
  auto type = r.u8();
  if (!type) return type.error();
  if (type.value() != static_cast<std::uint8_t>(expected))
    return Error::make("type", "unexpected E2AP PDU type");
  return r;
}

void encode_request_id(ByteWriter& w, const RicRequestId& id) {
  w.u32(id.requestor_id);
  w.u32(id.instance_id);
}

Result<RicRequestId> decode_request_id(ByteReader& r) {
  auto requestor = r.u32();
  if (!requestor) return requestor.error();
  auto instance = r.u32();
  if (!instance) return instance.error();
  return RicRequestId{requestor.value(), instance.value()};
}

void encode_blob(ByteWriter& w, const Bytes& b) {
  w.u32(static_cast<std::uint32_t>(b.size()));
  w.raw(b);
}

Result<Bytes> decode_blob(ByteReader& r) {
  auto n = r.u32();
  if (!n) return n.error();
  return r.raw(n.value());
}
}  // namespace

Result<E2apType> e2ap_type(std::span<const std::uint8_t> wire) {
  ByteReader r(wire.data(), wire.size());
  auto version = r.u8();
  if (!version) return version.error();
  auto type = r.u8();
  if (!type) return type.error();
  if (type.value() > 8) return Error::make("malformed", "bad E2AP PDU type");
  return static_cast<E2apType>(type.value());
}

Bytes encode_e2ap(const E2SetupRequest& m) {
  ByteWriter w;
  header(w, E2apType::kSetupRequest);
  w.u64(m.node_id);
  w.u16(static_cast<std::uint16_t>(m.functions.size()));
  for (const auto& f : m.functions) {
    w.u16(f.function_id);
    w.str(f.oid);
    w.str(f.description);
    encode_blob(w, f.definition);
  }
  return w.take();
}

Result<E2SetupRequest> decode_setup_request(
    std::span<const std::uint8_t> wire) {
  auto reader = open(wire, E2apType::kSetupRequest);
  if (!reader) return reader.error();
  ByteReader& r = reader.value();
  E2SetupRequest m;
  auto node = r.u64();
  if (!node) return node.error();
  m.node_id = node.value();
  auto count = r.u16();
  if (!count) return count.error();
  for (std::uint16_t i = 0; i < count.value(); ++i) {
    RanFunction f;
    auto id = r.u16();
    if (!id) return id.error();
    f.function_id = id.value();
    auto oid = r.str();
    if (!oid) return oid.error();
    f.oid = oid.value();
    auto desc = r.str();
    if (!desc) return desc.error();
    f.description = desc.value();
    auto def = decode_blob(r);
    if (!def) return def.error();
    f.definition = def.value();
    m.functions.push_back(std::move(f));
  }
  return m;
}

Bytes encode_e2ap(const E2SetupResponse& m) {
  ByteWriter w;
  header(w, E2apType::kSetupResponse);
  w.u16(static_cast<std::uint16_t>(m.accepted_function_ids.size()));
  for (auto id : m.accepted_function_ids) w.u16(id);
  return w.take();
}

Result<E2SetupResponse> decode_setup_response(
    std::span<const std::uint8_t> wire) {
  auto reader = open(wire, E2apType::kSetupResponse);
  if (!reader) return reader.error();
  ByteReader& r = reader.value();
  E2SetupResponse m;
  auto count = r.u16();
  if (!count) return count.error();
  for (std::uint16_t i = 0; i < count.value(); ++i) {
    auto id = r.u16();
    if (!id) return id.error();
    m.accepted_function_ids.push_back(id.value());
  }
  return m;
}

Bytes encode_e2ap(const RicSubscriptionRequest& m) {
  ByteWriter w;
  header(w, E2apType::kSubscriptionRequest);
  encode_request_id(w, m.request_id);
  w.u16(m.ran_function_id);
  encode_blob(w, m.event_trigger);
  w.u16(static_cast<std::uint16_t>(m.actions.size()));
  for (const auto& a : m.actions) {
    w.u16(a.action_id);
    w.u8(static_cast<std::uint8_t>(a.type));
    encode_blob(w, a.definition);
  }
  return w.take();
}

Result<RicSubscriptionRequest> decode_subscription_request(
    std::span<const std::uint8_t> wire) {
  auto reader = open(wire, E2apType::kSubscriptionRequest);
  if (!reader) return reader.error();
  ByteReader& r = reader.value();
  RicSubscriptionRequest m;
  auto id = decode_request_id(r);
  if (!id) return id.error();
  m.request_id = id.value();
  auto fn = r.u16();
  if (!fn) return fn.error();
  m.ran_function_id = fn.value();
  auto trigger = decode_blob(r);
  if (!trigger) return trigger.error();
  m.event_trigger = trigger.value();
  auto count = r.u16();
  if (!count) return count.error();
  for (std::uint16_t i = 0; i < count.value(); ++i) {
    RicAction a;
    auto aid = r.u16();
    if (!aid) return aid.error();
    a.action_id = aid.value();
    auto type = r.u8();
    if (!type) return type.error();
    if (type.value() > 2)
      return Error::make("malformed", "RIC action type out of range");
    a.type = static_cast<RicActionType>(type.value());
    auto def = decode_blob(r);
    if (!def) return def.error();
    a.definition = def.value();
    m.actions.push_back(std::move(a));
  }
  return m;
}

Bytes encode_e2ap(const RicSubscriptionResponse& m) {
  ByteWriter w;
  header(w, E2apType::kSubscriptionResponse);
  encode_request_id(w, m.request_id);
  w.u16(m.ran_function_id);
  w.u16(static_cast<std::uint16_t>(m.admitted_action_ids.size()));
  for (auto id : m.admitted_action_ids) w.u16(id);
  w.u16(static_cast<std::uint16_t>(m.rejected_action_ids.size()));
  for (auto id : m.rejected_action_ids) w.u16(id);
  return w.take();
}

Result<RicSubscriptionResponse> decode_subscription_response(
    std::span<const std::uint8_t> wire) {
  auto reader = open(wire, E2apType::kSubscriptionResponse);
  if (!reader) return reader.error();
  ByteReader& r = reader.value();
  RicSubscriptionResponse m;
  auto id = decode_request_id(r);
  if (!id) return id.error();
  m.request_id = id.value();
  auto fn = r.u16();
  if (!fn) return fn.error();
  m.ran_function_id = fn.value();
  auto admitted = r.u16();
  if (!admitted) return admitted.error();
  for (std::uint16_t i = 0; i < admitted.value(); ++i) {
    auto a = r.u16();
    if (!a) return a.error();
    m.admitted_action_ids.push_back(a.value());
  }
  auto rejected = r.u16();
  if (!rejected) return rejected.error();
  for (std::uint16_t i = 0; i < rejected.value(); ++i) {
    auto a = r.u16();
    if (!a) return a.error();
    m.rejected_action_ids.push_back(a.value());
  }
  return m;
}

Bytes encode_e2ap(const RicSubscriptionDeleteRequest& m) {
  ByteWriter w;
  header(w, E2apType::kSubscriptionDeleteRequest);
  encode_request_id(w, m.request_id);
  w.u16(m.ran_function_id);
  return w.take();
}

Result<RicSubscriptionDeleteRequest> decode_subscription_delete(
    std::span<const std::uint8_t> wire) {
  auto reader = open(wire, E2apType::kSubscriptionDeleteRequest);
  if (!reader) return reader.error();
  ByteReader& r = reader.value();
  RicSubscriptionDeleteRequest m;
  auto id = decode_request_id(r);
  if (!id) return id.error();
  m.request_id = id.value();
  auto fn = r.u16();
  if (!fn) return fn.error();
  m.ran_function_id = fn.value();
  return m;
}

Bytes encode_e2ap(const RicIndication& m) {
  ByteWriter w;
  header(w, E2apType::kIndication);
  encode_request_id(w, m.request_id);
  w.u16(m.ran_function_id);
  w.u16(m.action_id);
  w.u32(m.sequence_number);
  w.i64(m.sent_at_us);
  w.u8(static_cast<std::uint8_t>(m.type));
  encode_blob(w, m.header);
  encode_blob(w, m.message);
  return w.take();
}

Result<RicIndicationView> decode_indication_view(
    std::span<const std::uint8_t> wire) {
  auto reader = open(wire, E2apType::kIndication);
  if (!reader) return reader.error();
  ByteReader& r = reader.value();
  RicIndicationView m;
  auto id = decode_request_id(r);
  if (!id) return id.error();
  m.request_id = id.value();
  auto fn = r.u16();
  if (!fn) return fn.error();
  m.ran_function_id = fn.value();
  auto action = r.u16();
  if (!action) return action.error();
  m.action_id = action.value();
  auto sn = r.u32();
  if (!sn) return sn.error();
  m.sequence_number = sn.value();
  auto sent_at = r.i64();
  if (!sent_at) return sent_at.error();
  m.sent_at_us = sent_at.value();
  auto type = r.u8();
  if (!type) return type.error();
  if (type.value() > 1)
    return Error::make("malformed", "indication type out of range");
  m.type = static_cast<RicIndicationType>(type.value());
  auto hdr_len = r.u32();
  if (!hdr_len) return hdr_len.error();
  auto hdr = r.view(hdr_len.value());
  if (!hdr) return hdr.error();
  m.header = hdr.value();
  auto msg_len = r.u32();
  if (!msg_len) return msg_len.error();
  auto msg = r.view(msg_len.value());
  if (!msg) return msg.error();
  m.message = msg.value();
  return m;
}

RicIndication RicIndicationView::materialize() const {
  RicIndication m;
  m.request_id = request_id;
  m.ran_function_id = ran_function_id;
  m.action_id = action_id;
  m.sequence_number = sequence_number;
  m.sent_at_us = sent_at_us;
  m.type = type;
  m.header.assign(header.begin(), header.end());
  m.message.assign(message.begin(), message.end());
  return m;
}

RicIndicationView as_view(const RicIndication& m) {
  RicIndicationView v;
  v.request_id = m.request_id;
  v.ran_function_id = m.ran_function_id;
  v.action_id = m.action_id;
  v.sequence_number = m.sequence_number;
  v.sent_at_us = m.sent_at_us;
  v.type = m.type;
  v.header = std::span<const std::uint8_t>(m.header.data(), m.header.size());
  v.message =
      std::span<const std::uint8_t>(m.message.data(), m.message.size());
  return v;
}

Bytes encode_e2ap(const RicIndicationNack& m) {
  ByteWriter w;
  header(w, E2apType::kIndicationNack);
  w.u16(m.ran_function_id);
  w.u16(static_cast<std::uint16_t>(m.ranges.size()));
  for (const auto& range : m.ranges) {
    encode_request_id(w, range.request_id);
    w.u32(range.first_sequence);
    w.u32(range.last_sequence);
  }
  return w.take();
}

Result<RicIndicationNack> decode_indication_nack(
    std::span<const std::uint8_t> wire) {
  auto reader = open(wire, E2apType::kIndicationNack);
  if (!reader) return reader.error();
  ByteReader& r = reader.value();
  RicIndicationNack m;
  auto fn = r.u16();
  if (!fn) return fn.error();
  m.ran_function_id = fn.value();
  auto count = r.u16();
  if (!count) return count.error();
  if (count.value() == 0)
    return Error::make("malformed", "NACK carries no sequence ranges");
  for (std::uint16_t i = 0; i < count.value(); ++i) {
    NackRange range;
    auto id = decode_request_id(r);
    if (!id) return id.error();
    range.request_id = id.value();
    auto first = r.u32();
    if (!first) return first.error();
    range.first_sequence = first.value();
    auto last = r.u32();
    if (!last) return last.error();
    range.last_sequence = last.value();
    if (range.last_sequence < range.first_sequence)
      return Error::make("malformed", "NACK sequence range inverted");
    m.ranges.push_back(range);
  }
  return m;
}

Bytes encode_e2ap(const RicControlRequest& m) {
  ByteWriter w;
  header(w, E2apType::kControlRequest);
  encode_request_id(w, m.request_id);
  w.u16(m.ran_function_id);
  encode_blob(w, m.header);
  encode_blob(w, m.message);
  return w.take();
}

Result<RicControlRequest> decode_control_request(
    std::span<const std::uint8_t> wire) {
  auto reader = open(wire, E2apType::kControlRequest);
  if (!reader) return reader.error();
  ByteReader& r = reader.value();
  RicControlRequest m;
  auto id = decode_request_id(r);
  if (!id) return id.error();
  m.request_id = id.value();
  auto fn = r.u16();
  if (!fn) return fn.error();
  m.ran_function_id = fn.value();
  auto hdr = decode_blob(r);
  if (!hdr) return hdr.error();
  m.header = hdr.value();
  auto msg = decode_blob(r);
  if (!msg) return msg.error();
  m.message = msg.value();
  return m;
}

Bytes encode_e2ap(const RicControlAck& m) {
  ByteWriter w;
  header(w, E2apType::kControlAck);
  encode_request_id(w, m.request_id);
  w.u16(m.ran_function_id);
  w.boolean(m.success);
  return w.take();
}

Result<RicControlAck> decode_control_ack(std::span<const std::uint8_t> wire) {
  auto reader = open(wire, E2apType::kControlAck);
  if (!reader) return reader.error();
  ByteReader& r = reader.value();
  RicControlAck m;
  auto id = decode_request_id(r);
  if (!id) return id.error();
  m.request_id = id.value();
  auto fn = r.u16();
  if (!fn) return fn.error();
  m.ran_function_id = fn.value();
  auto ok = r.boolean();
  if (!ok) return ok.error();
  m.success = ok.value();
  return m;
}

}  // namespace xsec::oran
