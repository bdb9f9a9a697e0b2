// O-RAN control-plane tests: E2AP codec, E2SM framing, SDL, router, RIC.
#include <gtest/gtest.h>

#include "oran/e2ap.hpp"
#include "oran/e2sm.hpp"
#include "oran/ric.hpp"
#include "oran/router.hpp"
#include "oran/sdl.hpp"
#include "oran/xapp.hpp"

namespace xsec::oran {
namespace {

// --- E2AP -------------------------------------------------------------

TEST(E2ap, SetupRequestRoundTrip) {
  E2SetupRequest setup;
  setup.node_id = 1001;
  setup.functions.push_back(e2sm::make_mobiflow_function());
  Bytes wire = encode_e2ap(setup);
  EXPECT_EQ(e2ap_type(wire).value(), E2apType::kSetupRequest);
  auto decoded = decode_setup_request(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().node_id, 1001u);
  ASSERT_EQ(decoded.value().functions.size(), 1u);
  EXPECT_EQ(decoded.value().functions[0].function_id,
            e2sm::kMobiFlowFunctionId);
  EXPECT_EQ(decoded.value().functions[0].description, e2sm::kMobiFlowName);
}

TEST(E2ap, SubscriptionRoundTrip) {
  RicSubscriptionRequest request;
  request.request_id = {3, 9};
  request.ran_function_id = 100;
  request.event_trigger = {1, 2, 3};
  request.actions.push_back({1, RicActionType::kReport, {4, 5}});
  request.actions.push_back({2, RicActionType::kPolicy, {}});
  auto decoded = decode_subscription_request(encode_e2ap(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().request_id, (RicRequestId{3, 9}));
  ASSERT_EQ(decoded.value().actions.size(), 2u);
  EXPECT_EQ(decoded.value().actions[1].type, RicActionType::kPolicy);
}

TEST(E2ap, IndicationRoundTrip) {
  RicIndication indication;
  indication.request_id = {1, 2};
  indication.ran_function_id = 100;
  indication.action_id = 1;
  indication.sequence_number = 77;
  indication.type = RicIndicationType::kInsert;
  indication.header = {0xAA};
  indication.message = {0xBB, 0xCC};
  Bytes wire = encode_e2ap(indication);
  auto decoded = decode_indication_view(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().sequence_number, 77u);
  EXPECT_EQ(decoded.value().type, RicIndicationType::kInsert);
  RicIndication owned = decoded.value().materialize();
  EXPECT_EQ(owned.header, (Bytes{0xAA}));
  EXPECT_EQ(owned.message, (Bytes{0xBB, 0xCC}));
}

TEST(E2ap, ControlRoundTrip) {
  RicControlRequest control;
  control.request_id = {5, 0};
  control.ran_function_id = 100;
  control.message = {9};
  auto decoded = decode_control_request(encode_e2ap(control));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().message, Bytes{9});

  RicControlAck ack;
  ack.request_id = {5, 0};
  ack.success = false;
  auto ack_decoded = decode_control_ack(encode_e2ap(ack));
  ASSERT_TRUE(ack_decoded.ok());
  EXPECT_FALSE(ack_decoded.value().success);
}

TEST(E2ap, TypeMismatchRejected) {
  Bytes wire = encode_e2ap(E2SetupResponse{});
  EXPECT_FALSE(decode_setup_request(wire).ok());
  EXPECT_FALSE(decode_indication_view(wire).ok());
}

TEST(E2ap, GarbageRejected) {
  EXPECT_FALSE(e2ap_type(Bytes{}).ok());
  EXPECT_FALSE(e2ap_type(Bytes{0x01, 0xFF}).ok());
  EXPECT_FALSE(decode_indication_view(Bytes{0x01, 0x05}).ok());  // truncated
}

// --- E2SM ---------------------------------------------------------------

TEST(E2sm, TriggerAndActionRoundTrip) {
  auto trigger = e2sm::decode_event_trigger(
      e2sm::encode_event_trigger({25}));
  ASSERT_TRUE(trigger.ok());
  EXPECT_EQ(trigger.value().report_period_ms, 25u);

  e2sm::ActionDefinition action{e2sm::kMessages | e2sm::kState, 99};
  auto decoded = e2sm::decode_action_definition(
      e2sm::encode_action_definition(action));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().categories, action.categories);
  EXPECT_EQ(decoded.value().max_rows, 99u);
}

TEST(E2sm, IndicationMessageRoundTrip) {
  // Rows are opaque byte strings to the service model; the indication
  // codec must preserve them exactly, including empty rows.
  e2sm::IndicationMessage message;
  message.rows.push_back(Bytes{1, 2, 3, 0xFF, 0});
  message.rows.push_back(Bytes{});
  Bytes wire = e2sm::encode_indication_message(message);
  e2sm::RowCursor rows(wire);
  ASSERT_EQ(rows.count(), 2u);
  auto first = rows.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(Bytes(first->begin(), first->end()), (Bytes{1, 2, 3, 0xFF, 0}));
  auto second = rows.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->empty());
  EXPECT_FALSE(rows.next().has_value());
  EXPECT_TRUE(rows.ok());
}

TEST(E2sm, IndicationHeaderRoundTrip) {
  e2sm::IndicationHeader header{123456, 7, 2};
  auto decoded = e2sm::decode_indication_header(
      e2sm::encode_indication_header(header));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().collect_start_us, 123456);
  EXPECT_EQ(decoded.value().gnb_id, 7u);
}

// --- SDL ----------------------------------------------------------------

TEST(Sdl, SetGetRemove) {
  Sdl sdl;
  sdl.set("ns", "k1", {1, 2});
  EXPECT_EQ(sdl.get("ns", "k1").value(), (Bytes{1, 2}));
  EXPECT_FALSE(sdl.get("ns", "k2").has_value());
  EXPECT_FALSE(sdl.get("other", "k1").has_value());
  EXPECT_TRUE(sdl.remove("ns", "k1"));
  EXPECT_FALSE(sdl.remove("ns", "k1"));
  EXPECT_FALSE(sdl.get("ns", "k1").has_value());
}

TEST(Sdl, StringHelpers) {
  Sdl sdl;
  sdl.set_str("ns", "k", "value");
  EXPECT_EQ(sdl.get_str("ns", "k").value(), "value");
}

TEST(Sdl, KeysOrderedAndRanged) {
  Sdl sdl;
  sdl.set("ns", "b", {});
  sdl.set("ns", "a", {});
  sdl.set("ns", "c", {});
  EXPECT_EQ(sdl.keys("ns"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(sdl.keys_in_range("ns", "a", "c"),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(sdl.size("ns"), 3u);
  sdl.clear("ns");
  EXPECT_EQ(sdl.size("ns"), 0u);
}

TEST(Sdl, SeqKeyPreservesNumericOrder) {
  EXPECT_LT(Sdl::seq_key(9), Sdl::seq_key(10));
  EXPECT_LT(Sdl::seq_key(99), Sdl::seq_key(100));
}

TEST(Sdl, WatchersNotified) {
  Sdl sdl;
  std::vector<std::string> events;
  sdl.watch("ns", [&](const std::string& ns, const std::string& key) {
    events.push_back(ns + "/" + key);
  });
  sdl.set("ns", "x", {});
  sdl.set("other", "y", {});  // not watched
  sdl.remove("ns", "x");
  EXPECT_EQ(events, (std::vector<std::string>{"ns/x", "ns/x"}));
}

// --- Router ---------------------------------------------------------------

TEST(Router, PublishReachesSubscribers) {
  MessageRouter router;
  int received = 0;
  router.subscribe(kMtAnomalyWindow, [&](const RoutedMessage& m) {
    EXPECT_EQ(m.source, "mobiwatch");
    ++received;
  });
  router.subscribe(kMtAnomalyWindow, [&](const RoutedMessage&) { ++received; });
  RoutedMessage msg;
  msg.mtype = kMtAnomalyWindow;
  msg.source = "mobiwatch";
  EXPECT_EQ(router.publish(msg), 2u);
  EXPECT_EQ(received, 2);
  EXPECT_EQ(router.delivered_count(), 2u);
}

TEST(Router, UnroutedMessagesCountedAsDropped) {
  MessageRouter router;
  RoutedMessage msg;
  msg.mtype = 12345;
  EXPECT_EQ(router.publish(msg), 0u);
  EXPECT_EQ(router.dropped_count(), 1u);
}

TEST(Router, UnsubscribeStopsDelivery) {
  MessageRouter router;
  int received = 0;
  auto id = router.subscribe(1, [&](const RoutedMessage&) { ++received; });
  router.unsubscribe(id);
  router.publish(RoutedMessage{1, "x", {}});
  EXPECT_EQ(received, 0);
}

// --- NearRtRic ------------------------------------------------------------

/// Minimal scripted E2 node for RIC tests.
class FakeNode : public E2NodeLink {
 public:
  explicit FakeNode(std::uint64_t id, bool advertise = true)
      : id_(id), advertise_(advertise) {}

  Bytes setup_request() override {
    E2SetupRequest setup;
    setup.node_id = id_;
    if (advertise_) setup.functions.push_back(e2sm::make_mobiflow_function());
    return encode_e2ap(setup);
  }
  void on_e2ap(std::span<const std::uint8_t> wire) override {
    received.emplace_back(wire.begin(), wire.end());
    auto type = e2ap_type(wire);
    if (type && type.value() == E2apType::kSubscriptionRequest) {
      auto request = decode_subscription_request(wire);
      last_subscription = request.value().request_id;
    }
  }

  std::vector<Bytes> received;
  RicRequestId last_subscription;

 private:
  std::uint64_t id_;
  bool advertise_;
};

class RecordingXapp : public XApp {
 public:
  RecordingXapp() : XApp("recorder") {}
  void on_indication_view(std::uint64_t node,
                          const RicIndicationView& indication) override {
    indications.emplace_back(node, indication.sequence_number);
  }
  void on_control_ack(std::uint64_t, const RicControlAck& ack) override {
    acks.push_back(ack.success);
  }
  void on_node_connected(std::uint64_t node_id) override {
    connected.push_back(node_id);
  }
  void on_telemetry_gap(std::uint64_t, const RicRequestId&,
                        std::uint32_t first, std::uint32_t last) override {
    gaps.emplace_back(first, last);
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> indications;
  std::vector<bool> acks;
  std::vector<std::uint64_t> connected;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> gaps;
};

/// Sends one encoded indication with the given sequence into the RIC.
void send_indication(NearRtRic& ric, std::uint64_t node_id, RicRequestId id,
                     std::uint32_t sequence) {
  RicIndication indication;
  indication.request_id = id;
  indication.sequence_number = sequence;
  ric.from_node(node_id, encode_e2ap(indication));
}

std::size_t count_nacks(const FakeNode& node) {
  std::size_t n = 0;
  for (const Bytes& wire : node.received)
    if (e2ap_type(wire).value() == E2apType::kIndicationNack) ++n;
  return n;
}

TEST(Ric, ConnectNodePerformsSetup) {
  NearRtRic ric;
  FakeNode node(42);
  auto connected = ric.connect_node(&node);
  ASSERT_TRUE(connected.ok());
  EXPECT_EQ(connected.value(), 42u);
  ASSERT_EQ(ric.connected_nodes().size(), 1u);
  const auto* functions = ric.node_functions(42);
  ASSERT_NE(functions, nullptr);
  EXPECT_EQ(functions->at(0).function_id, e2sm::kMobiFlowFunctionId);
  // The node received an E2SetupResponse.
  ASSERT_EQ(node.received.size(), 1u);
  EXPECT_EQ(e2ap_type(node.received[0]).value(), E2apType::kSetupResponse);
}

TEST(Ric, RejectsNodeWithNoFunctions) {
  NearRtRic ric;
  FakeNode node(43, /*advertise=*/false);
  auto connected = ric.connect_node(&node);
  ASSERT_FALSE(connected.ok());
  EXPECT_EQ(connected.error().code, "no-functions");
  EXPECT_TRUE(ric.connected_nodes().empty());
}

TEST(Ric, IndicationRoutedToSubscribedXapp) {
  NearRtRic ric;
  FakeNode node(1);
  ric.connect_node(&node);
  auto* xapp = static_cast<RecordingXapp*>(
      ric.register_xapp(std::make_unique<RecordingXapp>()));
  RicRequestId id =
      ric.subscribe(xapp, 1, e2sm::kMobiFlowFunctionId, {}, {});

  RicIndication indication;
  indication.request_id = id;
  indication.sequence_number = 5;
  ric.from_node(1, encode_e2ap(indication));
  ASSERT_EQ(xapp->indications.size(), 1u);
  EXPECT_EQ(xapp->indications[0], std::make_pair(std::uint64_t{1},
                                                 std::uint32_t{5}));
  EXPECT_EQ(ric.indications_received(), 1u);
}

TEST(Ric, IndicationWithoutSubscriptionDropped) {
  NearRtRic ric;
  FakeNode node(1);
  ric.connect_node(&node);
  RicIndication indication;
  indication.request_id = {99, 99};
  ric.from_node(1, encode_e2ap(indication));
  EXPECT_EQ(ric.indications_dropped(), 1u);
}

TEST(Ric, UnsubscribeStopsRouting) {
  NearRtRic ric;
  FakeNode node(1);
  ric.connect_node(&node);
  auto* xapp = static_cast<RecordingXapp*>(
      ric.register_xapp(std::make_unique<RecordingXapp>()));
  RicRequestId id = ric.subscribe(xapp, 1, 100, {}, {});
  ric.unsubscribe(xapp, 1, id);
  RicIndication indication;
  indication.request_id = id;
  ric.from_node(1, encode_e2ap(indication));
  EXPECT_TRUE(xapp->indications.empty());
}

TEST(Ric, ControlAckRoutedByRequestor) {
  NearRtRic ric;
  FakeNode node(1);
  ric.connect_node(&node);
  auto* xapp = static_cast<RecordingXapp*>(
      ric.register_xapp(std::make_unique<RecordingXapp>()));
  ric.send_control(xapp, 1, 100, {}, {1, 2, 3});
  // Node got the control request.
  bool saw_control = false;
  for (const Bytes& wire : node.received)
    if (e2ap_type(wire).value() == E2apType::kControlRequest)
      saw_control = true;
  EXPECT_TRUE(saw_control);

  RicControlAck ack;
  ack.request_id = {xapp->requestor_id(), 0};
  ack.success = true;
  ric.from_node(1, encode_e2ap(ack));
  ASSERT_EQ(xapp->acks.size(), 1u);
  EXPECT_TRUE(xapp->acks[0]);
}

TEST(Ric, FindXappByName) {
  NearRtRic ric;
  ric.register_xapp(std::make_unique<RecordingXapp>());
  EXPECT_NE(ric.find_xapp("recorder"), nullptr);
  EXPECT_EQ(ric.find_xapp("missing"), nullptr);
}

TEST(Ric, ReconnectTearsDownStaleSubscriptionsAndNotifiesXapps) {
  NearRtRic ric;
  FakeNode node(1);
  ASSERT_TRUE(ric.connect_node(&node).ok());
  auto* xapp = static_cast<RecordingXapp*>(
      ric.register_xapp(std::make_unique<RecordingXapp>()));
  ric.subscribe(xapp, 1, e2sm::kMobiFlowFunctionId, {}, {});
  EXPECT_EQ(ric.subscriptions_active(), 1u);

  // Node-side restart: the same node id performs E2 Setup again.
  FakeNode reborn(1);
  auto reconnected = ric.connect_node(&reborn);
  ASSERT_TRUE(reconnected.ok());
  EXPECT_EQ(ric.node_reconnects(), 1u);
  EXPECT_EQ(ric.stale_subscriptions_cleared(), 1u);
  // The stale subscription did not survive, and the xApp was told so it
  // can re-establish.
  EXPECT_EQ(ric.subscriptions_active(), 0u);
  ASSERT_EQ(xapp->connected.size(), 1u);
  EXPECT_EQ(xapp->connected[0], 1u);
  // Indications on the old subscription id are dropped, not misrouted.
  send_indication(ric, 1, RicRequestId{xapp->requestor_id(), 1}, 1);
  EXPECT_TRUE(xapp->indications.empty());
}

TEST(Ric, StreamSuppressesDuplicates) {
  NearRtRic ric;
  FakeNode node(1);
  ASSERT_TRUE(ric.connect_node(&node).ok());
  auto* xapp = static_cast<RecordingXapp*>(
      ric.register_xapp(std::make_unique<RecordingXapp>()));
  RicRequestId id = ric.subscribe(xapp, 1, e2sm::kMobiFlowFunctionId, {}, {});

  send_indication(ric, 1, id, 1);
  send_indication(ric, 1, id, 1);
  ASSERT_EQ(xapp->indications.size(), 1u);
  EXPECT_EQ(ric.duplicates_suppressed(), 1u);
}

TEST(Ric, StreamHealsReorderingViaNack) {
  NearRtRic ric;
  FakeNode node(1);
  ASSERT_TRUE(ric.connect_node(&node).ok());
  auto* xapp = static_cast<RecordingXapp*>(
      ric.register_xapp(std::make_unique<RecordingXapp>()));
  RicRequestId id = ric.subscribe(xapp, 1, e2sm::kMobiFlowFunctionId, {}, {});

  send_indication(ric, 1, id, 1);
  send_indication(ric, 1, id, 3);  // 2 missing -> buffered + NACK
  EXPECT_EQ(count_nacks(node), 1u);
  ASSERT_EQ(xapp->indications.size(), 1u);  // 3 held back
  send_indication(ric, 1, id, 2);  // the retransmission arrives
  ASSERT_EQ(xapp->indications.size(), 3u);
  EXPECT_EQ(xapp->indications[1].second, 2u);
  EXPECT_EQ(xapp->indications[2].second, 3u);
  EXPECT_EQ(ric.indications_recovered(), 1u);
  EXPECT_EQ(ric.gaps_detected(), 0u);
}

TEST(Ric, StreamDeclaresGapWhenNackBudgetExhausted) {
  NearRtRic ric;
  FakeNode node(1);
  ASSERT_TRUE(ric.connect_node(&node).ok());
  auto* xapp = static_cast<RecordingXapp*>(
      ric.register_xapp(std::make_unique<RecordingXapp>()));
  RicRequestId id = ric.subscribe(xapp, 1, e2sm::kMobiFlowFunctionId, {}, {});

  send_indication(ric, 1, id, 1);
  // Sequence 2 never arrives; each later arrival spends NACK budget on it.
  send_indication(ric, 1, id, 3);
  send_indication(ric, 1, id, 4);
  send_indication(ric, 1, id, 5);
  ASSERT_EQ(xapp->indications.size(), 1u);  // all held behind the hole
  send_indication(ric, 1, id, 6);  // budget exhausted -> gap declared
  ASSERT_EQ(xapp->gaps.size(), 1u);
  EXPECT_EQ(xapp->gaps[0], std::make_pair(std::uint32_t{2},
                                          std::uint32_t{2}));
  // The buffered run was released in order after the gap.
  ASSERT_EQ(xapp->indications.size(), 5u);
  EXPECT_EQ(xapp->indications.back().second, 6u);
  EXPECT_EQ(ric.gaps_detected(), 1u);
  EXPECT_EQ(count_nacks(node), 3u);
}

TEST(Ric, FlushStreamsDrainsPendingAsGaps) {
  NearRtRic ric;
  FakeNode node(1);
  ASSERT_TRUE(ric.connect_node(&node).ok());
  auto* xapp = static_cast<RecordingXapp*>(
      ric.register_xapp(std::make_unique<RecordingXapp>()));
  RicRequestId id = ric.subscribe(xapp, 1, e2sm::kMobiFlowFunctionId, {}, {});

  send_indication(ric, 1, id, 1);
  send_indication(ric, 1, id, 3);
  ASSERT_EQ(xapp->indications.size(), 1u);
  ric.flush_streams();
  // End of capture: 2 is declared lost, buffered 3 is delivered.
  ASSERT_EQ(xapp->gaps.size(), 1u);
  ASSERT_EQ(xapp->indications.size(), 2u);
  EXPECT_EQ(xapp->indications.back().second, 3u);
}

TEST(E2ap, IndicationNackRoundTrip) {
  RicIndicationNack nack;
  nack.ran_function_id = 3;
  nack.ranges.push_back(NackRange{{7, 9}, 100, 104});
  nack.ranges.push_back(NackRange{{7, 10}, 210, 210});
  Bytes wire = encode_e2ap(nack);
  EXPECT_EQ(e2ap_type(wire).value(), E2apType::kIndicationNack);
  auto decoded = decode_indication_nack(wire);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().ranges.size(), 2u);
  EXPECT_EQ(decoded.value().ranges[0].request_id.requestor_id, 7u);
  EXPECT_EQ(decoded.value().ranges[0].request_id.instance_id, 9u);
  EXPECT_EQ(decoded.value().ranges[0].first_sequence, 100u);
  EXPECT_EQ(decoded.value().ranges[0].last_sequence, 104u);
  EXPECT_EQ(decoded.value().ranges[1].first_sequence, 210u);
  EXPECT_EQ(decoded.value().ranges[1].last_sequence, 210u);
}

TEST(E2ap, IndicationNackRejectsEmptyAndInvertedRanges) {
  RicIndicationNack empty;
  empty.ran_function_id = 1;
  EXPECT_FALSE(decode_indication_nack(encode_e2ap(empty)).ok());

  RicIndicationNack inverted;
  inverted.ran_function_id = 1;
  inverted.ranges.push_back(NackRange{{1, 1}, 50, 40});
  EXPECT_FALSE(decode_indication_nack(encode_e2ap(inverted)).ok());
}

TEST(Sdl, WatchHandlerMayRegisterWatchersDuringNotify) {
  // Regression: a handler calling watch() used to reallocate the handler
  // vector being iterated, destroying the executing std::function.
  Sdl sdl;
  int outer_calls = 0;
  int inner_calls = 0;
  sdl.watch("ns", [&](const std::string&, const std::string&) {
    ++outer_calls;
    if (outer_calls == 1) {
      // Register enough new watchers to force a reallocation mid-notify.
      for (int i = 0; i < 16; ++i)
        sdl.watch("ns", [&](const std::string&, const std::string&) {
          ++inner_calls;
        });
    }
  });
  sdl.set_str("ns", "k1", "v");
  // Watchers added during a notification do not see that notification.
  EXPECT_EQ(outer_calls, 1);
  EXPECT_EQ(inner_calls, 0);
  sdl.set_str("ns", "k2", "v");
  EXPECT_EQ(outer_calls, 2);
  EXPECT_EQ(inner_calls, 16);
}

TEST(Ric, DisconnectRemovesSubscriptions) {
  NearRtRic ric;
  FakeNode node(1);
  ric.connect_node(&node);
  auto* xapp = static_cast<RecordingXapp*>(
      ric.register_xapp(std::make_unique<RecordingXapp>()));
  RicRequestId id = ric.subscribe(xapp, 1, 100, {}, {});
  EXPECT_EQ(ric.subscriptions_active(), 1u);
  ric.disconnect_node(1);
  EXPECT_EQ(ric.subscriptions_active(), 0u);
  RicIndication indication;
  indication.request_id = id;
  ric.from_node(1, encode_e2ap(indication));
  EXPECT_TRUE(xapp->indications.empty());
}

}  // namespace
}  // namespace xsec::oran
