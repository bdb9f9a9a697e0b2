// xApp framework.
//
// xApps are modular control-plane applications hosted by the near-RT RIC
// (paper §2.1). They reach the platform through three services: E2
// subscriptions (via the RIC), the SDL, and the message router.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/trace.hpp"
#include "oran/a1.hpp"
#include "oran/e2ap.hpp"
#include "oran/router.hpp"
#include "oran/sdl.hpp"

namespace xsec::oran {

class NearRtRic;

class XApp {
 public:
  explicit XApp(std::string name) : name_(std::move(name)) {}
  virtual ~XApp() = default;

  XApp(const XApp&) = delete;
  XApp& operator=(const XApp&) = delete;

  const std::string& name() const { return name_; }

  /// Called by the RIC after registration; platform services are available
  /// from here on. Subscriptions are typically created in this hook.
  virtual void on_start() {}

  /// An E2 indication matching one of this xApp's subscriptions. The
  /// view's header/message spans alias transport-owned memory and are
  /// valid only during the call: read them in place (e2sm::RowCursor), or
  /// keep view.materialize() to hold the indication longer.
  virtual void on_indication_view(std::uint64_t node_id,
                                  const RicIndicationView& view) {
    (void)node_id;
    (void)view;
  }

  /// Acknowledgement for a control request this xApp issued.
  virtual void on_control_ack(std::uint64_t node_id,
                              const RicControlAck& ack) {
    (void)node_id;
    (void)ack;
  }

  /// An E2 node completed (re-)setup after this xApp registered. Any
  /// subscription the xApp held on that node was torn down with the old
  /// link — re-establish here. Not called for nodes already connected at
  /// registration time (use on_start for those).
  virtual void on_node_connected(std::uint64_t node_id) { (void)node_id; }

  /// The RIC's per-subscription sequence tracker gave up on a run of
  /// indications [first_sequence, last_sequence]: they were lost in
  /// transit and retransmission failed. Telemetry windows spanning this
  /// gap are unreliable.
  virtual void on_telemetry_gap(std::uint64_t node_id,
                                const RicRequestId& request_id,
                                std::uint32_t first_sequence,
                                std::uint32_t last_sequence) {
    (void)node_id;
    (void)request_id;
    (void)first_sequence;
    (void)last_sequence;
  }

  /// An A1 policy from the non-RT RIC. Default: unsupported.
  virtual PolicyStatus on_policy(const A1Policy& policy) {
    (void)policy;
    return PolicyStatus::kUnsupported;
  }

  // Wired by NearRtRic::register_xapp.
  void attach(NearRtRic* ric, Sdl* sdl, MessageRouter* router,
              std::uint32_t requestor_id,
              obs::Observability* observability = nullptr) {
    ric_ = ric;
    sdl_ = sdl;
    router_ = router;
    requestor_id_ = requestor_id;
    obs_ = observability;
  }
  std::uint32_t requestor_id() const { return requestor_id_; }

 protected:
  NearRtRic& ric() { return *ric_; }
  Sdl& sdl() { return *sdl_; }
  MessageRouter& router() { return *router_; }
  /// The platform's observability bundle (the RIC's, shared by every
  /// xApp), or a lazily created private one when the xApp is exercised
  /// standalone — instrumentation code never needs a null check. Const so
  /// stat accessors can read registry counters.
  obs::Observability& obs() const {
    if (obs_) return *obs_;
    if (!own_obs_) own_obs_ = std::make_unique<obs::Observability>();
    return *own_obs_;
  }

 private:
  std::string name_;
  NearRtRic* ric_ = nullptr;
  Sdl* sdl_ = nullptr;
  MessageRouter* router_ = nullptr;
  obs::Observability* obs_ = nullptr;
  mutable std::unique_ptr<obs::Observability> own_obs_;
  std::uint32_t requestor_id_ = 0;
};

}  // namespace xsec::oran
