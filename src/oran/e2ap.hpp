// E2 Application Protocol (O-RAN.WG3.E2AP subset).
//
// The control-plane boundary between the near-RT RIC and RAN nodes. All
// four RIC primitives the paper names are modelled: *report* and *insert*
// (RIC Indication), *control* (RIC Control), and *policy* (an action type
// in subscriptions). Messages are byte-encoded end-to-end: an E2 node and
// the RIC only ever exchange `Bytes`, as over real SCTP.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace xsec::oran {

/// A RAN function advertised by an E2 node at setup (e.g. the MobiFlow
/// service model). The definition blob is service-model specific.
struct RanFunction {
  std::uint16_t function_id = 0;
  std::string oid;          // e.g. "1.3.6.1.4.1.53148.1.1.2.100"
  std::string description;  // e.g. "ORAN-E2SM-MOBIFLOW"
  Bytes definition;
};

enum class RicActionType : std::uint8_t { kReport = 0, kInsert = 1, kPolicy = 2 };
std::string to_string(RicActionType t);

struct RicAction {
  std::uint16_t action_id = 0;
  RicActionType type = RicActionType::kReport;
  Bytes definition;  // service-model specific
};

/// RIC Request ID: (requestor, instance) pair identifying a subscription.
struct RicRequestId {
  std::uint32_t requestor_id = 0;
  std::uint32_t instance_id = 0;
  auto operator<=>(const RicRequestId&) const = default;
};

struct E2SetupRequest {
  std::uint64_t node_id = 0;
  std::vector<RanFunction> functions;
};

struct E2SetupResponse {
  std::vector<std::uint16_t> accepted_function_ids;
};

struct RicSubscriptionRequest {
  RicRequestId request_id;
  std::uint16_t ran_function_id = 0;
  Bytes event_trigger;  // service-model specific
  std::vector<RicAction> actions;
};

struct RicSubscriptionResponse {
  RicRequestId request_id;
  std::uint16_t ran_function_id = 0;
  std::vector<std::uint16_t> admitted_action_ids;
  std::vector<std::uint16_t> rejected_action_ids;
};

struct RicSubscriptionDeleteRequest {
  RicRequestId request_id;
  std::uint16_t ran_function_id = 0;
};

enum class RicIndicationType : std::uint8_t { kReport = 0, kInsert = 1 };

struct RicIndication {
  RicRequestId request_id;
  std::uint16_t ran_function_id = 0;
  std::uint16_t action_id = 0;
  std::uint32_t sequence_number = 0;
  /// Sim time (us) the batch was FIRST transmitted. Retransmissions carry
  /// the original stamp, so the RIC's delivery-time minus sent_at_us is
  /// the true E2 transit latency including retransmission delay. 0 on
  /// frames from senders that do not stamp.
  std::int64_t sent_at_us = 0;
  RicIndicationType type = RicIndicationType::kReport;
  Bytes header;   // service-model indication header
  Bytes message;  // service-model indication message
};

/// Zero-copy view of an encoded RIC Indication: the fixed-size metadata is
/// decoded, but the service-model header/message blobs stay as spans over
/// the wire buffer (the transport's receive arena / ring pages). Views are
/// only valid while that buffer is alive and unmodified — buffer with
/// materialize() to keep one past the delivery callback.
struct RicIndicationView {
  RicRequestId request_id;
  std::uint16_t ran_function_id = 0;
  std::uint16_t action_id = 0;
  std::uint32_t sequence_number = 0;
  std::int64_t sent_at_us = 0;
  RicIndicationType type = RicIndicationType::kReport;
  std::span<const std::uint8_t> header;
  std::span<const std::uint8_t> message;

  /// Deep copy into an owned RicIndication (reorder buffering, tests).
  RicIndication materialize() const;
};

/// Views an owned indication (no copy; valid while `m` is alive).
RicIndicationView as_view(const RicIndication& m);

/// One missing run of indication sequence numbers (inclusive range) on one
/// subscription's stream.
struct NackRange {
  RicRequestId request_id;
  std::uint32_t first_sequence = 0;
  std::uint32_t last_sequence = 0;
  auto operator<=>(const NackRange&) const = default;
};

/// Node-bound retransmission request. Not part of O-RAN E2AP — this
/// reproduction's reliability extension: the RIC detects sequence gaps per
/// subscription and asks the agent to replay from its retransmission ring.
/// Carries one range per subscription stream so the RIC can coalesce every
/// stream's NACK for a node into a single reverse-path PDU per round.
struct RicIndicationNack {
  std::uint16_t ran_function_id = 0;
  std::vector<NackRange> ranges;
};

struct RicControlRequest {
  RicRequestId request_id;
  std::uint16_t ran_function_id = 0;
  Bytes header;
  Bytes message;
};

struct RicControlAck {
  RicRequestId request_id;
  std::uint16_t ran_function_id = 0;
  bool success = true;
};

/// E2AP PDU: discriminated union over the message structs above.
enum class E2apType : std::uint8_t {
  kSetupRequest = 0,
  kSetupResponse = 1,
  kSubscriptionRequest = 2,
  kSubscriptionResponse = 3,
  kSubscriptionDeleteRequest = 4,
  kIndication = 5,
  kControlRequest = 6,
  kControlAck = 7,
  kIndicationNack = 8,
};

Bytes encode_e2ap(const E2SetupRequest& m);
Bytes encode_e2ap(const E2SetupResponse& m);
Bytes encode_e2ap(const RicSubscriptionRequest& m);
Bytes encode_e2ap(const RicSubscriptionResponse& m);
Bytes encode_e2ap(const RicSubscriptionDeleteRequest& m);
Bytes encode_e2ap(const RicIndication& m);
Bytes encode_e2ap(const RicIndicationNack& m);
Bytes encode_e2ap(const RicControlRequest& m);
Bytes encode_e2ap(const RicControlAck& m);

/// Peeks the PDU type of an encoded E2AP message.
Result<E2apType> e2ap_type(std::span<const std::uint8_t> wire);

// Decoders read the PDU in place. Every one but decode_indication_view
// copies what it keeps, so its result outlives `wire`.
Result<E2SetupRequest> decode_setup_request(
    std::span<const std::uint8_t> wire);
Result<E2SetupResponse> decode_setup_response(
    std::span<const std::uint8_t> wire);
Result<RicSubscriptionRequest> decode_subscription_request(
    std::span<const std::uint8_t> wire);
Result<RicSubscriptionResponse> decode_subscription_response(
    std::span<const std::uint8_t> wire);
Result<RicSubscriptionDeleteRequest> decode_subscription_delete(
    std::span<const std::uint8_t> wire);
/// Zero-copy decode: no allocation; blob fields view into `wire`. Call
/// materialize() on the result for an owned RicIndication.
Result<RicIndicationView> decode_indication_view(
    std::span<const std::uint8_t> wire);
Result<RicIndicationNack> decode_indication_nack(
    std::span<const std::uint8_t> wire);
Result<RicControlRequest> decode_control_request(
    std::span<const std::uint8_t> wire);
Result<RicControlAck> decode_control_ack(std::span<const std::uint8_t> wire);

}  // namespace xsec::oran
