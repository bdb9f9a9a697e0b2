// Near Real-Time RAN Intelligent Controller (nRT-RIC).
//
// Hosts xApps, terminates E2 connections from RAN nodes (E2T), manages
// subscriptions, and routes RIC Indications to their owning xApp. Models
// the OSC reference implementation's platform: E2 termination + xApp
// manager + subscription manager + SDL + RMR router, collapsed into one
// deterministic in-process controller.
//
// Indication streams are NOT assumed lossless: every subscription carries
// a sequence tracker (reorder buffer + duplicate suppression + NACK-driven
// retransmission) so xApps see an in-order stream with explicit gap events
// where recovery failed, instead of a silently corrupted sequence.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "obs/trace.hpp"
#include "oran/e2ap.hpp"
#include "oran/router.hpp"
#include "oran/sdl.hpp"
#include "oran/xapp.hpp"

namespace xsec::oran {

/// The RIC's handle to a connected E2 node (the RAN-side RIC agent
/// implements this). E2AP flows RIC -> node through on_e2ap(); the node
/// sends node -> RIC traffic by calling NearRtRic::from_node().
class E2NodeLink {
 public:
  virtual ~E2NodeLink() = default;
  /// Encoded E2SetupRequest advertising the node's RAN functions.
  virtual Bytes setup_request() = 0;
  /// Delivers an encoded E2AP PDU (subscription / control) to the node.
  /// `wire` may view transport-owned memory valid only during the call.
  virtual void on_e2ap(std::span<const std::uint8_t> wire) = 0;
  /// Transport link state change (loss detection / recovery). A node that
  /// implements reconnection reacts to `up == false` by clearing its
  /// subscription state and retrying E2 Setup with backoff.
  virtual void on_link_state(bool up) { (void)up; }
};

class NearRtRic {
 public:
  NearRtRic() = default;

  NearRtRic(const NearRtRic&) = delete;
  NearRtRic& operator=(const NearRtRic&) = delete;

  Sdl& sdl() { return sdl_; }
  MessageRouter& router() { return router_; }

  /// Injects the shared observability bundle (pipeline mode). Must be
  /// called before traffic flows; counters already bound to a private
  /// registry are re-bound. Also instruments the SDL and is handed to
  /// every xApp registered afterwards.
  void set_observability(obs::Observability* obs);
  /// The bundle in use: the injected one, or a lazily created private one
  /// (standalone construction in unit tests).
  obs::Observability& observability() const;

  /// Event-queue hook enabling NACK batching: when set, per-stream NACKs
  /// raised while one reverse-path round is processed are coalesced into a
  /// single multi-range PDU per node, flushed at zero delay. Without it
  /// (standalone unit tests) every NACK is sent immediately.
  void set_scheduler(
      std::function<void(SimDuration, std::function<void()>)> schedule) {
    scheduler_ = std::move(schedule);
  }

  /// Runs `fn` after `delay` on the injected scheduler. Returns false (and
  /// drops `fn`) when no scheduler is wired (standalone unit tests). xApps
  /// use this for action TTLs and recovery probes.
  bool schedule_after(SimDuration delay, std::function<void()> fn) {
    if (!scheduler_) return false;
    scheduler_(delay, std::move(fn));
    return true;
  }

  // --- E2 termination -----------------------------------------------------

  /// Performs the E2 Setup exchange with a node. On success returns the
  /// node id. A repeated setup for an already-connected node id is treated
  /// as a node-side restart: stale subscription and stream state is torn
  /// down and registered xApps are told to re-subscribe.
  Result<std::uint64_t> connect_node(E2NodeLink* link);
  void disconnect_node(std::uint64_t node_id);
  /// Entry point for node -> RIC E2AP traffic (indications, subscription
  /// responses, control acks).
  void from_node(std::uint64_t node_id, const Bytes& e2ap_wire);
  /// Zero-copy entry point: the span views transport-owned memory (frame
  /// arena / ring pages) valid only for the duration of the call. In-order
  /// indications flow to the xApp without materializing; only out-of-order
  /// arrivals are copied into the reorder buffer. from_node() forwards
  /// here — this is the single ingest implementation.
  void from_node_frame(std::uint64_t node_id,
                       std::span<const std::uint8_t> e2ap_wire);

  /// Declares a permanent gap for every still-missing sequence and drains
  /// the reorder buffers. Call at end of capture so buffered telemetry is
  /// not silently discarded.
  void flush_streams();

  /// RAN functions a connected node advertised at setup.
  const std::vector<RanFunction>* node_functions(std::uint64_t node_id) const;
  std::vector<std::uint64_t> connected_nodes() const;

  // --- xApp management ----------------------------------------------------

  /// Registers and starts an xApp. The RIC owns it.
  XApp* register_xapp(std::unique_ptr<XApp> xapp);
  XApp* find_xapp(const std::string& name);

  /// A1 termination: delivers a policy from the non-RT RIC to one xApp.
  PolicyStatus apply_policy(const std::string& xapp_name,
                            const A1Policy& policy);

  // --- xApp-facing services -----------------------------------------------

  /// Creates an E2 subscription on behalf of `xapp`. Returns the request id
  /// used to correlate indications.
  RicRequestId subscribe(XApp* xapp, std::uint64_t node_id,
                         std::uint16_t ran_function_id, Bytes event_trigger,
                         std::vector<RicAction> actions);
  void unsubscribe(XApp* xapp, std::uint64_t node_id, RicRequestId id);
  /// Sends a RIC Control request to a node. Each request gets a unique
  /// instance id; with a scheduler wired the RIC retransmits on ack
  /// timeout (the agent deduplicates re-applications) and synthesizes a
  /// failure ack toward the xApp when the retransmission budget is
  /// exhausted or the node is gone — the issuing xApp ALWAYS sees exactly
  /// one on_control_ack per request. Returns the request id.
  RicRequestId send_control(XApp* xapp, std::uint64_t node_id,
                            std::uint16_t ran_function_id, Bytes header,
                            Bytes message);

  // --- statistics -----------------------------------------------------------
  // Every counter lives in the observability registry (names "ric.*" /
  // "e2.*"); the accessors are snapshot views of the same instruments.

  std::size_t indications_received() const {
    return counter_value(m().received);
  }
  std::size_t indications_dropped() const { return counter_value(m().dropped); }
  std::size_t subscriptions_active() const { return subscriptions_.size(); }
  /// Indications discarded because their sequence number was already
  /// delivered or already buffered (transport duplicates, replayed retx).
  std::size_t duplicates_suppressed() const {
    return counter_value(m().duplicates);
  }
  /// Out-of-order indications that were buffered and later delivered in
  /// order (reordering healed without a gap).
  std::size_t indications_recovered() const {
    return counter_value(m().recovered);
  }
  /// Sequence ranges abandoned after retransmission failed; each raised an
  /// on_telemetry_gap event on the owning xApp.
  std::size_t gaps_detected() const { return counter_value(m().gaps); }
  /// NACK PDUs sent (a batched PDU carrying several ranges counts once).
  std::size_t nacks_sent() const { return counter_value(m().nacks); }
  /// Extra per-stream NACKs absorbed by batching: ranges carried in
  /// multi-range PDUs beyond the first ("e2.nack_batched").
  std::size_t nacks_batched() const { return counter_value(m().nack_batched); }
  /// E2 Setup exchanges that replaced an existing connection (node-side
  /// restart / link recovery).
  std::size_t node_reconnects() const { return counter_value(m().reconnects); }
  /// Stale subscriptions torn down by a reconnect.
  std::size_t stale_subscriptions_cleared() const {
    return counter_value(m().stale_cleared);
  }
  /// RIC Control requests issued (first transmissions).
  std::size_t controls_sent() const { return counter_value(m().controls_sent); }
  /// Control acks matched to a pending request (genuine, not stale).
  std::size_t control_acks() const { return counter_value(m().control_acks); }
  /// Control retransmissions after an ack timeout.
  std::size_t control_retx() const { return counter_value(m().control_retx); }
  /// Controls abandoned (budget exhausted / node gone); each synthesized a
  /// failure ack toward the issuing xApp.
  std::size_t controls_lost() const { return counter_value(m().controls_lost); }

 private:
  struct Node {
    E2NodeLink* link = nullptr;
    std::vector<RanFunction> functions;
    obs::Counter* indications = nullptr;  // "ric.node<id>.indications"
  };
  struct SubscriptionKey {
    std::uint64_t node_id;
    std::uint32_t requestor_id;
    std::uint32_t instance_id;
    auto operator<=>(const SubscriptionKey&) const = default;
  };
  /// Per-subscription sequence tracker. The agent numbers indications with
  /// a monotonically increasing sequence; the tracker delivers in order,
  /// buffers ahead-of-sequence arrivals, NACKs missing runs, and declares
  /// a gap when the retransmission budget is exhausted.
  struct Stream {
    bool started = false;
    std::uint32_t next_expected = 0;
    std::map<std::uint32_t, RicIndication> pending;
    std::map<std::uint32_t, std::uint8_t> nack_counts;
  };

  /// Reorder-buffer capacity; exceeding it forces a gap declaration.
  static constexpr std::size_t kReorderWindow = 64;
  /// Retransmission requests per missing sequence before giving up.
  static constexpr std::uint8_t kMaxNacks = 3;
  /// Control ack timeout (covers the 1 ms E2 round trip plus reorder
  /// jitter under chaos plans with margin).
  static constexpr std::int64_t kControlAckTimeoutMs = 20;
  /// Control retransmissions before a request is declared lost.
  static constexpr std::uint8_t kMaxControlRetx = 3;

  /// An unacked RIC Control request awaiting its ack (or retransmission).
  struct PendingControl {
    std::uint64_t node_id = 0;
    XApp* xapp = nullptr;
    std::uint16_t ran_function_id = 0;
    Bytes wire;  // encoded request, replayed verbatim on timeout
    std::uint8_t retx = 0;
  };

  /// Registry handles, bound lazily on first use so standalone tests that
  /// never inject an Observability get a private registry transparently.
  struct Metrics {
    obs::Counter* received = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* duplicates = nullptr;
    obs::Counter* recovered = nullptr;
    obs::Counter* gaps = nullptr;
    obs::Counter* nacks = nullptr;
    obs::Counter* nack_batched = nullptr;
    obs::Counter* reconnects = nullptr;
    obs::Counter* stale_cleared = nullptr;
    obs::Counter* controls_sent = nullptr;
    obs::Counter* control_acks = nullptr;
    obs::Counter* control_retx = nullptr;
    obs::Counter* controls_lost = nullptr;
    bool bound = false;
  };

  void handle_indication_view(std::uint64_t node_id,
                              const RicIndicationView& indication);
  void deliver_in_order(const SubscriptionKey& key, Stream& stream);
  /// Gives up on [stream.next_expected, up_to) and tells the xApp.
  void declare_gap(const SubscriptionKey& key, Stream& stream,
                   std::uint32_t up_to);
  void maybe_nack(const SubscriptionKey& key, Stream& stream);
  void send_single_nack(const SubscriptionKey& key, Stream& stream,
                        std::uint32_t lowest_pending);
  void flush_nacks(std::uint64_t node_id);
  void clear_node_state(std::uint64_t node_id);
  static std::uint64_t control_key(const RicRequestId& id) {
    return (static_cast<std::uint64_t>(id.requestor_id) << 32) |
           id.instance_id;
  }
  void control_timeout(std::uint64_t key);
  /// Abandons `pending`'s request with a synthesized failure ack.
  void fail_control(std::uint64_t key, PendingControl pending);
  /// Fails every pending control aimed at a departing node.
  void fail_node_controls(std::uint64_t node_id);
  /// Deliver to the owning xApp inside a "ric.deliver" span (so xApp-side
  /// spans nest under it) and record the indication's e2.transit latency.
  void deliver_to_xapp(const SubscriptionKey& key, XApp* xapp,
                       const RicIndicationView& indication);

  Metrics& m() const;
  static std::size_t counter_value(const obs::Counter* c) {
    return c ? static_cast<std::size_t>(c->value()) : 0;
  }
  obs::Counter& node_counter(const char* what, std::uint64_t node_id) const;

  Sdl sdl_;
  MessageRouter router_;
  std::map<std::uint64_t, Node> nodes_;
  std::vector<std::unique_ptr<XApp>> xapps_;
  std::map<SubscriptionKey, XApp*> subscriptions_;
  std::map<SubscriptionKey, Stream> streams_;
  std::uint32_t next_requestor_id_ = 1;
  std::uint32_t next_instance_id_ = 1;
  /// Control instance ids share the requestor namespace with subscriptions
  /// but count from a disjoint range so the two never collide. Instance 0
  /// is reserved: agents treat it as the legacy uncorrelated path.
  std::uint32_t next_control_instance_ = 0x10000;
  std::map<std::uint64_t, PendingControl> pending_controls_;

  obs::Observability* obs_ = nullptr;
  mutable std::unique_ptr<obs::Observability> own_obs_;
  mutable Metrics metrics_;
  std::function<void(SimDuration, std::function<void()>)> scheduler_;
  /// Subscription streams with a staged NACK, per node, for the pending
  /// zero-delay flush round.
  std::map<std::uint64_t, std::vector<SubscriptionKey>> staged_nacks_;
};

}  // namespace xsec::oran
