#include "oran/e2sm.hpp"

namespace xsec::oran::e2sm {

Bytes encode_event_trigger(const EventTriggerDefinition& m) {
  ByteWriter w;
  w.u32(m.report_period_ms);
  return w.take();
}

Result<EventTriggerDefinition> decode_event_trigger(
    std::span<const std::uint8_t> wire) {
  ByteReader r(wire.data(), wire.size());
  auto period = r.u32();
  if (!period) return period.error();
  return EventTriggerDefinition{period.value()};
}

Bytes encode_action_definition(const ActionDefinition& m) {
  ByteWriter w;
  w.u8(m.categories);
  w.u16(m.max_rows);
  return w.take();
}

Result<ActionDefinition> decode_action_definition(
    std::span<const std::uint8_t> wire) {
  ByteReader r(wire.data(), wire.size());
  auto cats = r.u8();
  if (!cats) return cats.error();
  auto max_rows = r.u16();
  if (!max_rows) return max_rows.error();
  return ActionDefinition{cats.value(), max_rows.value()};
}

Bytes encode_indication_header(const IndicationHeader& m) {
  ByteWriter w;
  w.i64(m.collect_start_us);
  w.u32(m.gnb_id);
  w.u16(m.cell);
  return w.take();
}

Result<IndicationHeader> decode_indication_header(
    std::span<const std::uint8_t> wire) {
  ByteReader r(wire.data(), wire.size());
  auto t = r.i64();
  if (!t) return t.error();
  auto gnb = r.u32();
  if (!gnb) return gnb.error();
  auto cell = r.u16();
  if (!cell) return cell.error();
  return IndicationHeader{t.value(), gnb.value(), cell.value()};
}

Bytes encode_indication_message(const IndicationMessage& m) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(m.rows.size()));
  for (const auto& row : m.rows) {
    w.varint(row.size());
    w.raw(row);
  }
  return w.take();
}

RowCursor::RowCursor(std::span<const std::uint8_t> wire)
    : r_(wire.data(), wire.size()) {
  auto count = r_.u32();
  if (!count) {
    ok_ = false;
    return;
  }
  count_ = count.value();
}

std::optional<std::span<const std::uint8_t>> RowCursor::next() {
  if (!ok_ || index_ >= count_) return std::nullopt;
  auto len = r_.varint();
  if (!len) {
    ok_ = false;
    return std::nullopt;
  }
  auto row = r_.view(len.value());
  if (!row) {
    ok_ = false;
    return std::nullopt;
  }
  ++index_;
  return row.value();
}

RanFunction make_mobiflow_function() {
  RanFunction f;
  f.function_id = kMobiFlowFunctionId;
  f.oid = kMobiFlowOid;
  f.description = kMobiFlowName;
  ByteWriter w;
  w.str("MobiFlow security telemetry");
  w.u8(kAll);
  f.definition = w.take();
  return f;
}

}  // namespace xsec::oran::e2sm
