// MobiFlow security telemetry record (paper Table 1).
//
// One record is produced per control message transmission:
//   x_i = [t_i, m_i, p1_i, ..., pk_i]
// with the message type m_i and the UE-specific parameter set K covering
// identifiers (RNTI, S-TMSI, SUPI) and state (cipher_alg, integrity_alg,
// establishment_cause). Categorical fields are vocab enums — one varint on
// the wire, a direct one-hot index in the feature encoder; only free-form
// identity payloads (SUPI/SUCI) stay strings. Records serialize to a
// compact tag+varint form that rides inside RIC Indications and the SDL.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "mobiflow/vocab.hpp"

namespace xsec::mobiflow {

struct Record {
  // --- envelope ---
  std::int64_t timestamp_us = 0;
  std::uint32_t gnb_id = 0;
  std::uint16_t cell = 0;
  std::uint64_t ue_id = 0;  // CU-local UE correlation id

  // --- message ---
  vocab::Protocol protocol = vocab::Protocol::kUnknown;
  vocab::MsgType msg = vocab::MsgType::kUnknown;
  vocab::Direction direction = vocab::Direction::kUl;

  // --- identifiers ---
  std::uint16_t rnti = 0;
  std::uint64_t s_tmsi = 0;  // packed 5G-S-TMSI; 0 = not (yet) known
  /// Permanent identity observed in PLAINTEXT on the interface (the
  /// identity-extraction red flag). Empty when the UE used a protected SUCI.
  std::string supi_plain;
  /// Concealed identity as observed (SUCI string); empty if none.
  std::string suci;

  // --- state ---
  vocab::CipherAlg cipher_alg = vocab::CipherAlg::kNone;
  vocab::IntegrityAlg integrity_alg = vocab::IntegrityAlg::kNone;
  vocab::EstablishmentCause establishment_cause =
      vocab::EstablishmentCause::kNone;

  bool operator==(const Record&) const = default;

  // Presentation names (empty string for not-yet-known state fields).
  std::string_view protocol_name() const { return vocab::to_name(protocol); }
  std::string_view msg_name() const { return vocab::to_name(msg); }
  std::string_view direction_name() const {
    return vocab::to_name(direction);
  }
  std::string_view cipher_name() const { return vocab::to_name(cipher_alg); }
  std::string_view integrity_name() const {
    return vocab::to_name(integrity_alg);
  }
  std::string_view cause_name() const {
    return vocab::to_name(establishment_cause);
  }

  /// Appends the tag+varint wire form (terminated by an end-of-record tag),
  /// suitable for streaming several records into one buffer.
  void encode(ByteWriter& w) const;
  /// Decodes one record from the reader's current position. Rejects unknown
  /// tags and out-of-range enum values ("malformed") and inputs that end
  /// before all required fields arrived ("truncated").
  static Result<Record> decode(ByteReader& r);

  /// Compact standalone byte form (the SDL storage / indication-row format).
  Bytes to_kv_bytes() const;
  /// Decodes straight out of `wire` (a transport-owned span or a Bytes).
  static Result<Record> from_kv_bytes(std::span<const std::uint8_t> wire);

  /// Compact single-line rendering used in prompts and examples.
  std::string summary() const;
};

/// CSV header/row helpers used by trace export.
std::string record_csv_header();
std::string record_csv_row(const Record& r);

}  // namespace xsec::mobiflow
