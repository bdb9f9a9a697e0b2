// E2SM-MOBIFLOW: the security-telemetry service model.
//
// The paper extends the O-RAN reference E2SM-KPM service model so the RIC
// agent can report MobiFlow telemetry "per time interval, where the
// telemetry can be encoded as (key, value) data". This header defines that
// service model: the RAN function identity, the event trigger (periodic
// report), the action definition (which telemetry categories to collect),
// and the indication header/message formats carrying the key-value rows.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "oran/e2ap.hpp"

namespace xsec::oran::e2sm {

inline constexpr std::uint16_t kMobiFlowFunctionId = 100;
inline constexpr const char* kMobiFlowOid = "1.3.6.1.4.1.53148.1.1.2.100";
inline constexpr const char* kMobiFlowName = "ORAN-E2SM-MOBIFLOW";

/// Telemetry categories (Table 1's three groups), OR-able.
enum Category : std::uint8_t {
  kMessages = 1 << 0,
  kIdentifiers = 1 << 1,
  kState = 1 << 2,
  kAll = kMessages | kIdentifiers | kState,
};

struct EventTriggerDefinition {
  /// Report batching period. The agent buffers telemetry rows and flushes
  /// one RIC Indication per period (or earlier if the buffer fills).
  std::uint32_t report_period_ms = 10;
};

struct ActionDefinition {
  std::uint8_t categories = kAll;
  /// Max rows per indication before an early flush.
  std::uint16_t max_rows = 64;
};

struct IndicationHeader {
  std::int64_t collect_start_us = 0;
  std::uint32_t gnb_id = 0;
  std::uint16_t cell = 0;
};

/// One telemetry row: an opaque compact-encoded record (tag+varint form;
/// the MobiFlow record schema lives in src/mobiflow — the service model is
/// agnostic and only frames the blobs).
using Row = Bytes;

struct IndicationMessage {
  std::vector<Row> rows;
};

Bytes encode_event_trigger(const EventTriggerDefinition& m);
Result<EventTriggerDefinition> decode_event_trigger(
    std::span<const std::uint8_t> wire);
Bytes encode_action_definition(const ActionDefinition& m);
Result<ActionDefinition> decode_action_definition(
    std::span<const std::uint8_t> wire);
Bytes encode_indication_header(const IndicationHeader& m);
Result<IndicationHeader> decode_indication_header(
    std::span<const std::uint8_t> wire);
Bytes encode_indication_message(const IndicationMessage& m);

/// The one decoder of an encoded IndicationMessage: each next() returns
/// the next row blob as a span into `wire` — no per-row allocation on the
/// RIC's ingest hot path, and no allocation sized by the untrusted count
/// prefix. The spans are valid only while `wire`'s storage is.
class RowCursor {
 public:
  explicit RowCursor(std::span<const std::uint8_t> wire);

  /// Rows announced by the count prefix (0 when the prefix is unreadable).
  std::uint32_t count() const { return count_; }
  /// The next row, or nullopt at the end of the message or on malformed
  /// input — check ok() to tell the two apart.
  std::optional<std::span<const std::uint8_t>> next();
  bool ok() const { return ok_; }

 private:
  ByteReader r_;
  std::uint32_t count_ = 0;
  std::uint32_t index_ = 0;
  bool ok_ = true;
};

/// The RAN function advertisement the agent sends at E2 Setup.
RanFunction make_mobiflow_function();

}  // namespace xsec::oran::e2sm
