// RIC agent: the data-plane side of the E2 connection.
//
// Taps the gNB's F1AP and NGAP interfaces, parses the captured bytes into
// MobiFlow records (tracking per-UE protocol state so each record carries
// the UE's current identifiers and security configuration), buffers them,
// and reports them to the near-RT RIC as E2SM-MOBIFLOW RIC Indications per
// the subscription's report period. Also executes RIC Control actions
// (remediation) against the gNB.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "mobiflow/record.hpp"
#include "obs/trace.hpp"
#include "oran/e2sm.hpp"
#include "oran/ric.hpp"
#include "ran/interfaces.hpp"
#include "ran/nas.hpp"

namespace xsec::mobiflow {

/// A remediation command carried in an E2SM-MOBIFLOW RIC Control message.
/// Actions 3+ form the graded mitigation vocabulary (and the rollbacks the
/// recovery monitor issues when an action's TTL expires or false-positive
/// evidence arrives).
struct ControlCommand {
  enum class Action : std::uint8_t {
    kReleaseUe = 0,       // release one context by RNTI
    kBlockTmsi = 1,       // reject setups replaying this S-TMSI
    kReleaseStale = 2,    // release contexts stalled pre-security
    kUnblockTmsi = 3,     // rollback of kBlockTmsi
    kRateLimit = 4,       // cap RRC setup admissions per sliding window
    kClearRateLimit = 5,  // rollback of kRateLimit
    kIsolate = 6,         // freeze ALL new admissions at the gNB
    kDeisolate = 7,       // rollback of kIsolate
  };
  static constexpr std::uint8_t kMaxAction = 7;
  Action action = Action::kReleaseUe;
  std::uint16_t rnti = 0;
  std::uint64_t s_tmsi = 0;
  /// kReleaseStale: minimum inactivity age (ms) of a pre-security context
  /// before it is released. Benign attaches pass through the pre-security
  /// phase in a few ms, so a small threshold only hits stalled floods.
  std::uint32_t stale_age_ms = 50;
  /// kRateLimit: admissions allowed per sliding window.
  std::uint32_t rate_limit = 0;
  /// kRateLimit: sliding window length (ms).
  std::uint32_t rate_window_ms = 100;
};

Bytes encode_control(const ControlCommand& cmd);
Result<ControlCommand> decode_control(std::span<const std::uint8_t> wire);

struct AgentHooks {
  std::function<SimTime()> now;
  std::function<void(SimDuration, std::function<void()>)> schedule;
  /// Node -> RIC E2AP path (wired to NearRtRic::from_node).
  std::function<void(std::uint64_t node_id, Bytes wire)> to_ric;
  /// Executes a control command against the RAN; returns success.
  std::function<bool(const ControlCommand&)> apply_control;
  /// Attempts the E2 Setup exchange (wired to FaultyE2Transport::connect).
  /// Optional: without it the agent cannot reconnect after link loss.
  std::function<Result<std::uint64_t>()> try_connect;
  /// Probe: would the node -> RIC transport accept a PDU of this size
  /// right now (wired to FaultyE2Transport::ready_for)? Unset = always
  /// ready. When it refuses, the agent defers the report — records stay
  /// in the outage buffer (or spill to disk) with no sequence number
  /// consumed, so the stream resumes gap-free when the transport drains.
  std::function<bool(std::size_t)> transport_ready;
  /// Shared observability bundle; the agent creates a private one when
  /// absent (standalone tests). Metric names are "agent.node<id>.*".
  obs::Observability* obs = nullptr;
  /// Outage-backlog capacity (records buffered while no subscription is
  /// live). Reaching it either spills to disk (spill_dir set) or drops the
  /// oldest record.
  std::size_t outage_buffer_max = 8192;
  /// Directory for outage spill files (.mft trace format, replayed in
  /// order on re-subscription). Empty = RAM-only drop-oldest. The
  /// directory must exist; file names are "node<id>.spill.<n>.mft".
  std::string spill_dir;
};

class RicAgent : public oran::E2NodeLink {
 public:
  RicAgent(std::uint64_t node_id, AgentHooks hooks);

  /// Attaches the agent's parsers to the gNB's interface taps.
  void attach(ran::InterfaceTaps& taps);

  // E2NodeLink:
  Bytes setup_request() override;
  void on_e2ap(std::span<const std::uint8_t> wire) override;
  void on_link_state(bool up) override;

  std::uint64_t node_id() const { return node_id_; }
  std::size_t records_collected() const { return records_collected_->value(); }
  std::size_t indications_sent() const { return indications_sent_->value(); }
  std::size_t parse_errors() const { return parse_errors_->value(); }
  bool subscribed() const { return !subscriptions_.empty(); }
  std::size_t subscription_count() const { return subscriptions_.size(); }

  /// Successful E2 Setup exchanges after a link loss.
  std::size_t reconnects() const { return reconnects_->value(); }
  /// Setup attempts made by the backoff loop (including failures).
  std::size_t reconnect_attempts() const {
    return reconnect_attempts_->value();
  }
  /// Indications replayed from the retransmission ring in response to NACKs.
  std::size_t indications_retransmitted() const {
    return indications_retransmitted_->value();
  }
  /// Records discarded because the outage backlog overflowed.
  std::size_t records_dropped_outage() const {
    return records_dropped_outage_->value();
  }
  /// Records spilled to disk when the outage backlog filled.
  std::size_t records_spilled() const { return records_spilled_->value(); }
  /// Spilled records reloaded and reported after re-subscription.
  std::size_t records_replayed() const { return records_replayed_->value(); }
  /// Spill files written (each holds one full backlog's worth of records).
  std::size_t spill_files_written() const { return spill_files_->value(); }
  /// Duplicate RIC Control requests suppressed (re-acked, not re-applied).
  std::size_t controls_deduplicated() const {
    return controls_deduplicated_->value();
  }

  /// Direct access to collection for offline dataset building (bypasses
  /// E2 reporting): every parsed record is also handed to this sink.
  void set_record_sink(std::function<void(const Record&)> sink) {
    record_sink_ = std::move(sink);
  }

 private:
  struct UeState {
    std::uint16_t rnti = 0;
    std::uint64_t s_tmsi = 0;
    vocab::EstablishmentCause establishment_cause =
        vocab::EstablishmentCause::kNone;
    vocab::CipherAlg cipher_alg = vocab::CipherAlg::kNone;
    vocab::IntegrityAlg integrity_alg = vocab::IntegrityAlg::kNone;
  };
  struct Subscription {
    oran::RicRequestId request_id;
    std::uint16_t action_id = 0;
    oran::e2sm::EventTriggerDefinition trigger;
    oran::e2sm::ActionDefinition action;
  };
  /// One sent report batch, kept for NACK-driven replay. The header and
  /// message encodings are shared by every subscription's copy. The
  /// first-transmission timestamp rides along so a replayed indication
  /// still carries the original send time (the RIC's transit span then
  /// includes the retransmission delay).
  struct SentBatch {
    std::uint32_t sequence = 0;
    Bytes header;
    Bytes message;
    std::int64_t sent_at_us = 0;
  };

  /// Sent batches retained for retransmission (oldest evicted first).
  static constexpr std::size_t kRetxRingCapacity = 128;
  static constexpr std::int64_t kBackoffBaseMs = 100;
  static constexpr std::int64_t kBackoffCapMs = 5000;
  /// Recently executed control request ids retained for duplicate
  /// suppression (a retransmitted Control must not re-apply its action).
  static constexpr std::size_t kControlDedupWindow = 64;

  void on_f1(SimTime t, const Bytes& wire);
  void on_ng(SimTime t, const Bytes& wire);
  void emit(Record record);
  void spill_buffer();
  void replay_spill();
  void discard_spill();
  std::string spill_path(std::uint64_t seq) const;
  void fill_identity(Record& record, UeState& state,
                     const ran::MobileIdentity& identity);
  void flush();
  void arm_flush_timer();
  void handle_nack(const oran::RicIndicationNack& nack);
  void schedule_reconnect();
  void attempt_reconnect();

  std::uint64_t node_id_;
  AgentHooks hooks_;
  ran::CellId last_cell_;  // cell identity observed on the F1 taps
  std::map<std::uint64_t, UeState> ue_state_;  // keyed by CU ue id
  /// Every admitted subscription gets the same report stream (multiple
  /// xApps may subscribe to the MobiFlow function concurrently).
  std::vector<Subscription> subscriptions_;
  std::vector<Record> buffer_;
  SimTime buffer_start_{0};
  std::uint32_t next_sequence_ = 1;
  bool flush_timer_armed_ = false;
  std::function<void(const Record&)> record_sink_;

  /// Registry handles bound once at construction under "agent.node<id>.*"
  /// (hot path stays allocation- and lookup-free).
  std::unique_ptr<obs::Observability> own_obs_;
  obs::Observability* obs_ = nullptr;
  obs::Counter* records_collected_ = nullptr;
  obs::Counter* indications_sent_ = nullptr;
  obs::Counter* parse_errors_ = nullptr;
  obs::Counter* reconnects_ = nullptr;
  obs::Counter* reconnect_attempts_ = nullptr;
  obs::Counter* indications_retransmitted_ = nullptr;
  obs::Counter* records_dropped_outage_ = nullptr;
  obs::Counter* records_spilled_ = nullptr;
  obs::Counter* records_replayed_ = nullptr;
  obs::Counter* spill_files_ = nullptr;
  obs::Counter* controls_deduplicated_ = nullptr;

  // --- resilience state ---
  std::deque<SentBatch> retx_ring_;
  /// True once any subscription was admitted; records captured while the
  /// link is down are buffered (bounded) instead of discarded, because a
  /// reconnect is expected to restore the subscription.
  bool ever_subscribed_ = false;
  bool link_up_ = true;
  bool reconnect_pending_ = false;
  std::int64_t backoff_ms_ = kBackoffBaseMs;
  Rng backoff_rng_;
  /// Outage spill files on disk, oldest first (replayed on reconnect).
  std::vector<std::string> spill_paths_;
  std::uint64_t next_spill_seq_ = 1;
  /// Executed control request ids ((requestor << 32) | instance) and their
  /// results, for at-most-once execution under duplicated Control frames.
  std::deque<std::pair<std::uint64_t, bool>> recent_controls_;
};

}  // namespace xsec::mobiflow
