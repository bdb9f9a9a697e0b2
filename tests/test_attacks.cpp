// Attack implementation tests: each of the five attacks produces its
// documented telemetry footprint and ground-truth labels on a live testbed.
#include <gtest/gtest.h>

#include "attacks/attack.hpp"
#include "attacks/interceptors.hpp"
#include "core/datasets.hpp"
#include "llm/expert.hpp"

namespace xsec::attacks {
namespace {

using mobiflow::vocab::MsgType;

/// Runs one attack with light background traffic and returns the labeled
/// trace.
mobiflow::Trace run_attack(Attack& attack, std::uint64_t seed = 9) {
  core::ScenarioConfig config;
  config.testbed.seed = seed;
  config.traffic.seed = seed ^ 0xFF;
  config.traffic.num_sessions = 8;
  config.traffic.arrival_mean = SimDuration::from_ms(60);
  config.run_time = SimDuration::from_s(3);
  return core::collect_attack(attack, config, SimTime::from_ms(200));
}

TEST(Registry, FiveAttacksInTable3Order) {
  auto attacks = make_all_attacks();
  ASSERT_EQ(attacks.size(), 5u);
  EXPECT_EQ(attacks[0]->id(), "bts_dos");
  EXPECT_EQ(attacks[1]->id(), "blind_dos");
  EXPECT_EQ(attacks[2]->id(), "uplink_id_extraction");
  EXPECT_EQ(attacks[3]->id(), "downlink_id_extraction");
  EXPECT_EQ(attacks[4]->id(), "null_cipher");
  for (const auto& attack : attacks) {
    EXPECT_FALSE(attack->display_name().empty());
    EXPECT_FALSE(attack->citation().empty());
  }
}

TEST(BtsDos, FloodsIncompleteConnections) {
  auto attack = make_bts_dos(8);
  mobiflow::Trace trace = run_attack(*attack);
  EXPECT_GT(trace.malicious_count(), 20u);

  // The malicious records contain >= 8 setup requests and no
  // authentication responses.
  int setups = 0, auth_responses = 0;
  for (const auto& entry : trace.entries()) {
    if (!entry.malicious) continue;
    if (entry.record.msg == MsgType::kRrcSetupRequest) ++setups;
    if (entry.record.msg == MsgType::kAuthenticationResponse)
      ++auth_responses;
  }
  EXPECT_GE(setups, 8);
  EXPECT_EQ(auth_responses, 0);

  // The expert recognizes the storm in the attack region.
  auto stats = llm::extract_stats(trace);
  auto evidence = llm::extract_evidence(stats);
  bool storm = false;
  for (const auto& e : evidence)
    if (e.kind == llm::SignatureKind::kSignalingStorm) storm = true;
  EXPECT_TRUE(storm);
}

TEST(BtsDos, ExhaustsSmallAdmissionTable) {
  // With a small context table, the flood denies service to later UEs.
  sim::Testbed testbed([] {
    sim::TestbedConfig config;
    config.gnb.max_ue_contexts = 4;
    config.gnb.context_setup_timeout = SimDuration::from_s(2);
    return config;
  }());
  auto attack = make_bts_dos(8, SimDuration::from_ms(2));
  attack->launch(testbed, SimTime::from_ms(1));
  // A legitimate UE arrives during the flood.
  ran::UeConfig victim;
  victim.supi = ran::Supi{ran::Plmn::test_network(), 123};
  victim.seed = 3;
  testbed.add_ue(victim, SimTime::from_ms(60));
  testbed.run_for(SimDuration::from_ms(500));
  EXPECT_GT(testbed.gnb().rejected_connections(), 0u);
  EXPECT_EQ(testbed.amf().registered_count(), 0u);  // victim denied
}

TEST(PagingSniffer, HarvestsOnlyBroadcastPaging) {
  PagingSniffer sniffer;
  ran::AirFrame paging;
  paging.uplink = false;
  paging.radio_tag = 0;
  paging.rrc_wire = ran::encode_rrc(ran::RrcMessage{ran::Paging{0xABCD}});
  auto passed = sniffer.on_downlink(paging);
  ASSERT_TRUE(passed.has_value());  // passive: never modifies traffic
  EXPECT_EQ(passed->rrc_wire, paging.rrc_wire);
  // Dedicated (non-broadcast) traffic is not harvested.
  ran::AirFrame dedicated = paging;
  dedicated.radio_tag = 7;
  sniffer.on_downlink(dedicated);
  ASSERT_EQ(sniffer.sniffed_tmsis().size(), 1u);
  EXPECT_EQ(sniffer.sniffed_tmsis()[0], 0xABCDu);
}

TEST(BlindDos, ReplaysVictimTmsiAcrossSessions) {
  auto attack = make_blind_dos(4);
  mobiflow::Trace trace = run_attack(*attack);
  ASSERT_GT(trace.malicious_count(), 0u);
  // The attack chain starts from the paging broadcast the sniffer used.
  bool saw_paging = false;
  for (const auto& entry : trace.entries())
    if (entry.record.msg == MsgType::kPaging) saw_paging = true;
  EXPECT_TRUE(saw_paging);

  // Find the replayed TMSI: presented by multiple UE contexts in uplink.
  auto stats = llm::extract_stats(trace);
  EXPECT_FALSE(stats.replayed_tmsis.empty());
  // Authentication fails for the rogues (they lack the victim's key).
  int failures = 0;
  for (const auto& entry : trace.entries())
    if (entry.malicious && entry.record.msg == MsgType::kAuthenticationFailure)
      ++failures;
  EXPECT_GE(failures, 1);
}

TEST(UplinkIdExtraction, DisclosesPlaintextSupiInCompliantFlow) {
  auto attack = make_uplink_id_extraction();
  mobiflow::Trace trace = run_attack(*attack);
  ASSERT_EQ(trace.malicious_count(), 1u);
  const mobiflow::Record* disclosure = nullptr;
  for (const auto& entry : trace.entries())
    if (entry.malicious) disclosure = &entry.record;
  ASSERT_NE(disclosure, nullptr);
  EXPECT_EQ(disclosure->msg, MsgType::kRegistrationRequest);
  EXPECT_EQ(disclosure->supi_plain, "imsi-001019970000000");
  // The message sequence around it stays standard-compliant: the victim
  // still completes registration.
  auto stats = llm::extract_stats(trace);
  EXPECT_EQ(stats.out_of_order_identity_ues.size(), 0u);
  EXPECT_GT(stats.null_scheme_registrations, 0u);
}

TEST(DownlinkIdExtraction, ProducesOutOfOrderIdentityResponse) {
  auto attack = make_downlink_id_extraction();
  mobiflow::Trace trace = run_attack(*attack);
  ASSERT_GE(trace.malicious_count(), 1u);
  const mobiflow::Record* disclosure = nullptr;
  for (const auto& entry : trace.entries())
    if (entry.malicious) disclosure = &entry.record;
  ASSERT_NE(disclosure, nullptr);
  EXPECT_EQ(disclosure->msg, MsgType::kIdentityResponse);
  EXPECT_EQ(disclosure->supi_plain, "imsi-001019960000000");

  auto stats = llm::extract_stats(trace);
  EXPECT_FALSE(stats.out_of_order_identity_ues.empty());
}

TEST(DownlinkIdExtraction, InterceptorIsOneShotAndTargeted) {
  DownlinkIdentityOverwriter interceptor;
  interceptor.arm();
  interceptor.set_target_tag(5);

  auto auth_frame = [](std::uint64_t tag) {
    ran::AirFrame frame;
    frame.uplink = false;
    frame.radio_tag = tag;
    frame.rnti = ran::Rnti{0x99};
    frame.rrc_wire = ran::encode_rrc(ran::RrcMessage{
        ran::DlInformationTransfer{ran::encode_nas(
            ran::NasMessage{ran::AuthenticationRequest{0, 1, 2}})}});
    return frame;
  };

  // Wrong tag: passes through untouched.
  auto untouched = interceptor.on_downlink(auth_frame(3));
  ASSERT_TRUE(untouched.has_value());
  EXPECT_FALSE(interceptor.fired());

  // Target tag: overwritten with an IdentityRequest.
  auto overwritten = interceptor.on_downlink(auth_frame(5));
  ASSERT_TRUE(overwritten.has_value());
  EXPECT_TRUE(interceptor.fired());
  auto rrc = ran::decode_rrc(overwritten->rrc_wire);
  ASSERT_TRUE(rrc.ok());
  auto nas = ran::decode_nas(
      std::get<ran::DlInformationTransfer>(rrc.value()).dedicated_nas);
  ASSERT_TRUE(nas.ok());
  EXPECT_TRUE(std::holds_alternative<ran::IdentityRequest>(nas.value()));

  // One-shot: the next frame passes through.
  auto second = interceptor.on_downlink(auth_frame(5));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->rrc_wire, auth_frame(5).rrc_wire);
}

TEST(NullCipher, DowngradesSessionToNullAlgorithms) {
  auto attack = make_null_cipher();
  mobiflow::Trace trace = run_attack(*attack);
  ASSERT_GT(trace.malicious_count(), 0u);
  bool saw_null_smc = false;
  for (const auto& entry : trace.entries()) {
    if (entry.record.msg == MsgType::kSecurityModeCommand &&
        entry.record.cipher_alg == mobiflow::vocab::CipherAlg::kNea0)
      saw_null_smc = true;
    if (entry.malicious) {
      EXPECT_EQ(entry.record.cipher_alg, mobiflow::vocab::CipherAlg::kNea0);
    }
  }
  EXPECT_TRUE(saw_null_smc);
  auto stats = llm::extract_stats(trace);
  EXPECT_FALSE(stats.null_cipher_ues.empty());
}

TEST(NullCipher, VictimRegistersDespiteDowngrade) {
  // The attack is a silent downgrade: the session completes, unprotected.
  sim::Testbed testbed;
  auto attack = make_null_cipher();
  attack->launch(testbed, SimTime::from_ms(1));
  testbed.run_for(SimDuration::from_s(2));
  EXPECT_EQ(testbed.amf().registered_count(), 1u);
}

TEST(CapabilitySpoofing, RewritesRegistrationCapabilities) {
  CapabilityBiddingDown interceptor;
  interceptor.arm();

  ran::RegistrationRequest reg;
  reg.capabilities = ran::SecurityCapabilities{0b1111, 0b1110};
  ran::RrcSetupComplete complete;
  complete.dedicated_nas = ran::encode_nas(ran::NasMessage{reg});
  ran::AirFrame frame;
  frame.uplink = true;
  frame.rnti = ran::Rnti{0x42};
  frame.radio_tag = 1;
  frame.rrc_wire = ran::encode_rrc(ran::RrcMessage{complete});

  auto spoofed = interceptor.on_uplink(frame);
  ASSERT_TRUE(spoofed.has_value());
  EXPECT_TRUE(interceptor.fired());
  auto rrc = ran::decode_rrc(spoofed->rrc_wire);
  auto nas = ran::decode_nas(
      std::get<ran::RrcSetupComplete>(rrc.value()).dedicated_nas);
  const auto& rewritten = std::get<ran::RegistrationRequest>(nas.value());
  EXPECT_EQ(rewritten.capabilities.nea_mask, 0b0001);
  EXPECT_EQ(rewritten.capabilities.nia_mask, 0b0001);
}

TEST(GroundTruth, BenignBackgroundNeverLabeled) {
  // No attack: collect_benign labels nothing.
  core::ScenarioConfig config;
  config.traffic.num_sessions = 10;
  config.traffic.seed = 31;
  config.run_time = SimDuration::from_s(2);
  mobiflow::Trace trace = core::collect_benign(config);
  EXPECT_GT(trace.size(), 0u);
  EXPECT_EQ(trace.malicious_count(), 0u);
}

}  // namespace
}  // namespace xsec::attacks
