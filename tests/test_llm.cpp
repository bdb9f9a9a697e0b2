// LLM expert-referencing tests: knowledge base, prompts, evidence
// extraction, personalities (Table 3 calibration), clients, analyzer xApp.
#include <gtest/gtest.h>

#include <cctype>
#include <ostream>

#include "common/strings.hpp"
#include "llm/analyzer_xapp.hpp"
#include "llm/client.hpp"
#include "llm/expert.hpp"
#include "llm/knowledge.hpp"
#include "llm/personalities.hpp"
#include "llm/prompt.hpp"

namespace xsec::llm {
namespace {

namespace vocab = mobiflow::vocab;

mobiflow::Record rec(const std::string& proto, const std::string& msg,
                     const std::string& dir, std::uint16_t rnti,
                     std::uint64_t ue, std::int64_t ts) {
  mobiflow::Record r;
  r.protocol = vocab::protocol_or_unknown(proto);
  r.msg = vocab::msg_or_unknown(msg);
  r.direction =
      dir == "DL" ? vocab::Direction::kDl : vocab::Direction::kUl;
  r.rnti = rnti;
  r.ue_id = ue;
  r.timestamp_us = ts;
  return r;
}

// Synthetic traces reproducing each attack's telemetry footprint.

mobiflow::Trace benign_trace() {
  mobiflow::Trace t;
  std::int64_t ts = 0;
  std::uint16_t rnti = 0x10;
  t.add(rec("RRC", "RRCSetupRequest", "UL", rnti, 1, ts += 2000));
  t.add(rec("RRC", "RRCSetup", "DL", rnti, 1, ts += 2000));
  t.add(rec("RRC", "RRCSetupComplete", "UL", rnti, 1, ts += 2000));
  auto reg = rec("NAS", "RegistrationRequest", "UL", rnti, 1, ts += 2000);
  reg.suci = "suci-001-01-1-0000aaaabbbbcccc";
  t.add(reg);
  t.add(rec("NAS", "AuthenticationRequest", "DL", rnti, 1, ts += 2000));
  t.add(rec("NAS", "AuthenticationResponse", "UL", rnti, 1, ts += 2000));
  auto smc = rec("NAS", "SecurityModeCommand", "DL", rnti, 1, ts += 2000);
  smc.cipher_alg = vocab::CipherAlg::kNea2;
  smc.integrity_alg = vocab::IntegrityAlg::kNia2;
  t.add(smc);
  t.add(rec("NAS", "RegistrationAccept", "DL", rnti, 1, ts += 2000));
  return t;
}

mobiflow::Trace storm_trace() {
  mobiflow::Trace t;
  std::int64_t ts = 0;
  for (std::uint16_t i = 0; i < 5; ++i) {
    std::uint16_t rnti = static_cast<std::uint16_t>(0x100 + i);
    std::uint64_t ue = i + 1;
    t.add(rec("RRC", "RRCSetupRequest", "UL", rnti, ue, ts += 4000));
    t.add(rec("RRC", "RRCSetup", "DL", rnti, ue, ts += 1000));
    t.add(rec("RRC", "RRCSetupComplete", "UL", rnti, ue, ts += 1000));
    t.add(rec("NAS", "RegistrationRequest", "UL", rnti, ue, ts += 1000));
    t.add(rec("NAS", "AuthenticationRequest", "DL", rnti, ue, ts += 1000));
    // No response: the connection stalls.
  }
  return t;
}

mobiflow::Trace tmsi_replay_trace() {
  mobiflow::Trace t;
  std::int64_t ts = 0;
  for (int session = 0; session < 3; ++session) {
    std::uint16_t rnti = static_cast<std::uint16_t>(0x200 + session);
    std::uint64_t ue = 10 + static_cast<std::uint64_t>(session);
    auto setup = rec("RRC", "RRCSetupRequest", "UL", rnti, ue, ts += 3000);
    setup.s_tmsi = 0xDEAD5555;  // the victim's identifier, every time
    t.add(setup);
    t.add(rec("RRC", "RRCSetup", "DL", rnti, ue, ts += 1000));
    auto fail = rec("NAS", "AuthenticationFailure", "UL", rnti, ue, ts += 1000);
    fail.s_tmsi = 0xDEAD5555;
    t.add(fail);
  }
  return t;
}

mobiflow::Trace uplink_extraction_trace() {
  mobiflow::Trace t = benign_trace();
  // Rewrite the registration as a null-scheme disclosure; everything else
  // stays standard-compliant.
  mobiflow::Trace out;
  for (auto entry : t.entries()) {
    if (entry.record.msg == vocab::MsgType::kRegistrationRequest) {
      entry.record.suci = "suci-001-01-0-00000002537b1f00";
      entry.record.supi_plain = "imsi-001019970000000";
    }
    out.add(entry.record, entry.malicious);
  }
  return out;
}

mobiflow::Trace downlink_extraction_trace() {
  mobiflow::Trace t;
  std::int64_t ts = 0;
  std::uint16_t rnti = 0x30;
  t.add(rec("RRC", "RRCSetupRequest", "UL", rnti, 5, ts += 2000));
  t.add(rec("RRC", "RRCSetup", "DL", rnti, 5, ts += 2000));
  t.add(rec("RRC", "RRCSetupComplete", "UL", rnti, 5, ts += 2000));
  auto reg = rec("NAS", "RegistrationRequest", "UL", rnti, 5, ts += 2000);
  reg.suci = "suci-001-01-1-0000aaaabbbbcccc";  // protected identity
  t.add(reg);
  t.add(rec("NAS", "AuthenticationRequest", "DL", rnti, 5, ts += 2000));
  // Out-of-order: IdentityResponse answers the authentication challenge.
  auto resp = rec("NAS", "IdentityResponse", "UL", rnti, 5, ts += 2000);
  resp.supi_plain = "imsi-001019960000000";
  t.add(resp);
  return t;
}

mobiflow::Trace null_cipher_trace() {
  mobiflow::Trace t = benign_trace();
  mobiflow::Trace out;
  for (auto entry : t.entries()) {
    if (entry.record.msg == vocab::MsgType::kSecurityModeCommand) {
      entry.record.cipher_alg = vocab::CipherAlg::kNea0;
      entry.record.integrity_alg = vocab::IntegrityAlg::kNia0;
    }
    out.add(entry.record, entry.malicious);
  }
  return out;
}

mobiflow::Trace trace_for(SignatureKind kind) {
  switch (kind) {
    case SignatureKind::kSignalingStorm: return storm_trace();
    case SignatureKind::kTmsiReplay: return tmsi_replay_trace();
    case SignatureKind::kPlaintextIdentityUplink:
      return uplink_extraction_trace();
    case SignatureKind::kIdentityRequestOutOfOrder:
      return downlink_extraction_trace();
    case SignatureKind::kNullCipherDowngrade: return null_cipher_trace();
  }
  return benign_trace();
}

// --- Knowledge base -------------------------------------------------------

TEST(Knowledge, CoversAllSignatures) {
  EXPECT_EQ(knowledge_base().size(), kSignatureCount);
  for (const auto& entry : knowledge_base()) {
    EXPECT_FALSE(entry.name.empty());
    EXPECT_FALSE(entry.explanation.empty());
    EXPECT_FALSE(entry.attribution.empty());
    EXPECT_FALSE(entry.remediations.empty());
    EXPECT_EQ(lookup(entry.signature).name, entry.name);
  }
}

// --- Prompt ----------------------------------------------------------------

TEST(Prompt, RecordLineRoundTrip) {
  mobiflow::Record r = rec("NAS", "RegistrationRequest", "UL", 0x5F1A, 3, 777);
  r.s_tmsi = 0xCAFE;
  r.suci = "suci-001-01-1-abc";
  r.supi_plain = "imsi-001012089900001";
  r.cipher_alg = vocab::CipherAlg::kNea2;
  r.integrity_alg = vocab::IntegrityAlg::kNia2;
  r.establishment_cause = vocab::EstablishmentCause::kMoData;
  auto parsed = parse_record_line(render_record_line(r));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), r);
}

TEST(Prompt, RejectsLinesWithoutMessage) {
  EXPECT_FALSE(parse_record_line("t=1us rnti=0x0001").ok());
}

TEST(Prompt, TemplateContainsPaperElements) {
  PromptTemplate tmpl;
  std::string prompt = tmpl.build(benign_trace());
  EXPECT_NE(prompt.find("AI security analyst"), std::string::npos);
  EXPECT_NE(prompt.find("<DATA_DESCRIPTIONS>"), std::string::npos);
  EXPECT_NE(prompt.find("<DATA>"), std::string::npos);
  EXPECT_NE(prompt.find("top 3 most possible attacks"), std::string::npos);
}

TEST(Prompt, ExtractTraceRecoversRecords) {
  PromptTemplate tmpl;
  mobiflow::Trace original = benign_trace();
  auto extracted = extract_trace_from_prompt(tmpl.build(original));
  ASSERT_TRUE(extracted.ok());
  ASSERT_EQ(extracted.value().size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(extracted.value().entries()[i].record,
              original.entries()[i].record);
}

TEST(Prompt, ExtractIncludesContextBeforeWindow) {
  detect::AnomalyReport report;
  report.context.add(rec("RRC", "RRCSetup", "DL", 1, 1, 1));
  report.window.add(rec("RRC", "RRCRelease", "DL", 1, 1, 2));
  PromptTemplate tmpl;
  auto extracted = extract_trace_from_prompt(tmpl.build(report));
  ASSERT_TRUE(extracted.ok());
  ASSERT_EQ(extracted.value().size(), 2u);
  EXPECT_EQ(extracted.value().entries()[0].record.msg,
            vocab::MsgType::kRrcSetup);
  EXPECT_EQ(extracted.value().entries()[1].record.msg,
            vocab::MsgType::kRrcRelease);
}

TEST(Prompt, ExtractFailsWithoutData) {
  EXPECT_FALSE(extract_trace_from_prompt("no telemetry here").ok());
}

// --- Evidence extraction ---------------------------------------------------

TEST(Expert, BenignTraceYieldsNoEvidence) {
  auto stats = extract_stats(benign_trace());
  EXPECT_TRUE(extract_evidence(stats).empty());
}

class SignatureDetection
    : public ::testing::TestWithParam<SignatureKind> {};

TEST_P(SignatureDetection, FullCompetenceExtractsPrimaryEvidence) {
  SignatureKind kind = GetParam();
  auto stats = extract_stats(trace_for(kind));
  auto evidence = extract_evidence(stats);
  ASSERT_FALSE(evidence.empty()) << to_string(kind);
  EXPECT_EQ(evidence.front().kind, kind) << to_string(kind);
  EXPECT_GT(evidence.front().confidence, 0.5);
  EXPECT_FALSE(evidence.front().details.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllSignatures, SignatureDetection,
    ::testing::Values(SignatureKind::kSignalingStorm,
                      SignatureKind::kTmsiReplay,
                      SignatureKind::kPlaintextIdentityUplink,
                      SignatureKind::kIdentityRequestOutOfOrder,
                      SignatureKind::kNullCipherDowngrade));

TEST(Expert, StormAftermathRule) {
  mobiflow::Trace t;
  for (int i = 0; i < 4; ++i)
    t.add(rec("RRC", "RRCRelease", "DL", static_cast<std::uint16_t>(i + 1),
              static_cast<std::uint64_t>(i + 1), i * 1000));
  auto evidence = extract_evidence(extract_stats(t));
  ASSERT_FALSE(evidence.empty());
  EXPECT_EQ(evidence.front().kind, SignatureKind::kSignalingStorm);
}

TEST(Expert, NarrativeForAnomalyNamesAttackAndRemediation) {
  ExpertEngine engine;
  Analysis analysis = engine.analyze(storm_trace());
  EXPECT_TRUE(analysis.anomalous);
  EXPECT_NE(analysis.narrative.find("ANOMALOUS"), std::string::npos);
  EXPECT_NE(analysis.narrative.find("BTS resource depletion"),
            std::string::npos);
  EXPECT_NE(analysis.narrative.find("Recommended remediations"),
            std::string::npos);
  EXPECT_NE(analysis.narrative.find("responsible"), std::string::npos);
}

TEST(Expert, NarrativeForBenignExplainsCallFlow) {
  ExpertEngine engine;
  Analysis analysis = engine.analyze(benign_trace());
  EXPECT_FALSE(analysis.anomalous);
  EXPECT_NE(analysis.narrative.find("BENIGN"), std::string::npos);
}

TEST(Expert, MaskHidesEvidence) {
  ExpertEngine engine;
  // Copilot's competence (storm only) cannot see a null-cipher downgrade.
  Analysis analysis = engine.analyze(
      null_cipher_trace(), {SignatureKind::kSignalingStorm});
  EXPECT_FALSE(analysis.anomalous);
}

// --- Personalities: the Table 3 matrix -------------------------------------

struct Table3Case {
  const char* model;
  SignatureKind attack;
  bool expected_correct;
};

// Exactly the paper's Table 3 check/cross matrix.
const Table3Case kTable3[] = {
    {"ChatGPT-4o", SignatureKind::kSignalingStorm, true},
    {"Gemini", SignatureKind::kSignalingStorm, true},
    {"Copilot", SignatureKind::kSignalingStorm, true},
    {"Llama3", SignatureKind::kSignalingStorm, false},
    {"Claude 3 Sonnet", SignatureKind::kSignalingStorm, false},
    {"ChatGPT-4o", SignatureKind::kTmsiReplay, true},
    {"Gemini", SignatureKind::kTmsiReplay, false},
    {"Copilot", SignatureKind::kTmsiReplay, false},
    {"Llama3", SignatureKind::kTmsiReplay, true},
    {"Claude 3 Sonnet", SignatureKind::kTmsiReplay, false},
    {"ChatGPT-4o", SignatureKind::kPlaintextIdentityUplink, false},
    {"Gemini", SignatureKind::kPlaintextIdentityUplink, false},
    {"Copilot", SignatureKind::kPlaintextIdentityUplink, false},
    {"Llama3", SignatureKind::kPlaintextIdentityUplink, false},
    {"Claude 3 Sonnet", SignatureKind::kPlaintextIdentityUplink, true},
    {"ChatGPT-4o", SignatureKind::kIdentityRequestOutOfOrder, true},
    {"Gemini", SignatureKind::kIdentityRequestOutOfOrder, true},
    {"Copilot", SignatureKind::kIdentityRequestOutOfOrder, false},
    {"Llama3", SignatureKind::kIdentityRequestOutOfOrder, true},
    {"Claude 3 Sonnet", SignatureKind::kIdentityRequestOutOfOrder, true},
    {"ChatGPT-4o", SignatureKind::kNullCipherDowngrade, true},
    {"Gemini", SignatureKind::kNullCipherDowngrade, true},
    {"Copilot", SignatureKind::kNullCipherDowngrade, false},
    {"Llama3", SignatureKind::kNullCipherDowngrade, true},
    {"Claude 3 Sonnet", SignatureKind::kNullCipherDowngrade, true},
};

// Prints a case as its model and attack (e.g. "Claude3Sonnet_tmsi_replay");
// test discovery names each case after this. Without it gtest prints the
// struct's raw bytes, which hold the address of the model string and so
// change with every process start under ASLR.
void PrintTo(const Table3Case& test_case, std::ostream* os) {
  for (const char* c = test_case.model; *c != '\0'; ++c) {
    if (std::isalnum(static_cast<unsigned char>(*c))) *os << *c;
  }
  *os << '_';
  for (char c : to_string(test_case.attack)) *os << (c == '-' ? '_' : c);
}

class Table3Matrix : public ::testing::TestWithParam<Table3Case> {};

TEST_P(Table3Matrix, SimLlmReproducesPaperVerdicts) {
  const Table3Case& test_case = GetParam();
  SimLlmClient client;
  PromptTemplate tmpl;
  LlmRequest request;
  request.model = test_case.model;
  request.prompt = tmpl.build(trace_for(test_case.attack));
  auto response = client.query(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().verdict_anomalous, test_case.expected_correct)
      << test_case.model << " on " << to_string(test_case.attack);
}

INSTANTIATE_TEST_SUITE_P(PaperMatrix, Table3Matrix,
                         ::testing::ValuesIn(kTable3));

TEST(Personalities, AllModelsCorrectOnBenign) {
  SimLlmClient client;
  PromptTemplate tmpl;
  for (const auto& model : baseline_models()) {
    LlmRequest request{model.name, tmpl.build(benign_trace())};
    auto response = client.query(request);
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response.value().verdict_anomalous) << model.name;
  }
}

TEST(Personalities, FiveBaselineModelsInPaperOrder) {
  const auto& models = baseline_models();
  ASSERT_EQ(models.size(), 5u);
  EXPECT_EQ(models[0].name, "ChatGPT-4o");
  EXPECT_EQ(models[4].name, "Claude 3 Sonnet");
  EXPECT_NE(find_model("Gemini"), nullptr);
  EXPECT_EQ(find_model("GPT-5"), nullptr);
}

TEST(Personalities, OracleDetectsEverything) {
  SimLlmClient client;
  PromptTemplate tmpl;
  for (SignatureKind kind :
       {SignatureKind::kSignalingStorm, SignatureKind::kTmsiReplay,
        SignatureKind::kPlaintextIdentityUplink,
        SignatureKind::kIdentityRequestOutOfOrder,
        SignatureKind::kNullCipherDowngrade}) {
    LlmRequest request{"oracle", tmpl.build(trace_for(kind))};
    auto response = client.query(request);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response.value().verdict_anomalous) << to_string(kind);
  }
}

// --- Response parsing / clients --------------------------------------------

TEST(ResponseParsing, VerdictLineWins) {
  auto r = parse_response_text("m", "Verdict: ANOMALOUS.\nbenign text after");
  EXPECT_TRUE(r.verdict_anomalous);
  auto b = parse_response_text("m", "Verdict: BENIGN.\nanomalous mention");
  EXPECT_FALSE(b.verdict_anomalous);
}

TEST(ResponseParsing, FreeFormKeywords) {
  EXPECT_TRUE(parse_response_text("m", "This is likely an attack on ...")
                  .verdict_anomalous);
  EXPECT_FALSE(
      parse_response_text("m", "This looks like normal traffic to me.")
          .verdict_anomalous);
}

TEST(ResponseParsing, ExtractsNumberedAttacks) {
  std::string text =
      "Verdict: ANOMALOUS.\nTop candidate attacks:\n"
      "  1. BTS resource depletion DoS (signaling storm) (ref), confidence "
      "0.95\n"
      "  2. Blind DoS via S-TMSI replay (lower likelihood)\n";
  auto r = parse_response_text("m", text);
  ASSERT_EQ(r.attacks.size(), 2u);
  EXPECT_EQ(r.attacks[0], "BTS resource depletion DoS");
}

TEST(Json, EscapeAndExtract) {
  std::string escaped = json_escape("a\"b\\c\nd");
  EXPECT_EQ(escaped, "a\\\"b\\\\c\\nd");
  std::string json = "{\"content\":\"" + escaped + "\",\"x\":1}";
  auto extracted = json_extract_string(json, "content");
  ASSERT_TRUE(extracted.ok());
  EXPECT_EQ(extracted.value(), "a\"b\\c\nd");
  EXPECT_FALSE(json_extract_string(json, "missing").ok());
}

TEST(RestClient, BuildsChatRequestAndParsesResponse) {
  std::vector<HttpRequest> sent;
  RestLlmClient client(
      "https://llm.example/v1/chat", "sk-test",
      [&sent](const HttpRequest& request) -> Result<std::string> {
        sent.push_back(request);
        return std::string(
            "{\"choices\":[{\"message\":{\"content\":\"Verdict: "
            "ANOMALOUS.\\nSignaling storm suspected.\"}}],"
            "\"content\":\"Verdict: ANOMALOUS.\\nSignaling storm "
            "suspected.\"}");
      });
  LlmRequest request{"gpt-4o", "prompt text"};
  auto response = client.query(request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().verdict_anomalous);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].url, "https://llm.example/v1/chat");
  EXPECT_NE(sent[0].body.find("\"model\":\"gpt-4o\""), std::string::npos);
  bool has_auth = false;
  for (const auto& [k, v] : sent[0].headers)
    if (k == "Authorization" && v == "Bearer sk-test") has_auth = true;
  EXPECT_TRUE(has_auth);
}

TEST(RestClient, TransportErrorPropagates) {
  RestLlmClient client("url", "key", [](const HttpRequest&) {
    return Result<std::string>(Error::make("network", "unreachable"));
  });
  EXPECT_FALSE(client.query({"m", "p"}).ok());
}

TEST(SimClient, RejectsPromptWithoutTelemetry) {
  SimLlmClient client;
  EXPECT_FALSE(client.query({"oracle", "tell me a joke"}).ok());
}

// --- ResilientLlmClient -----------------------------------------------------

/// Fails its first `fail_first` queries (modeling timeouts / 5xx), then
/// answers every query with an "anomalous" verdict.
class ScriptedLlmClient : public LlmClient {
 public:
  explicit ScriptedLlmClient(std::size_t fail_first) : fail_(fail_first) {}
  Result<LlmResponse> query(const LlmRequest& request) override {
    ++calls;
    if (calls <= fail_)
      return Error::make("timeout", "upstream request timed out");
    LlmResponse response;
    response.model = request.model;
    response.text = "Verdict: ANOMALOUS";
    response.verdict_anomalous = true;
    return response;
  }
  std::size_t calls = 0;
  std::size_t fail_ = 0;
};

TEST(ResilientClient, RetriesWithinBudgetAndSucceeds) {
  auto inner = std::make_shared<ScriptedLlmClient>(2);
  ResilienceConfig config;
  config.max_attempts = 3;
  ResilientLlmClient client(inner, config);
  auto response = client.query({"m", "p"});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(inner->calls, 3u);
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(client.failed_queries(), 0u);
  EXPECT_FALSE(client.breaker_open());
}

TEST(ResilientClient, BreakerOpensAfterConsecutiveFailuresAndFailsFast) {
  auto inner = std::make_shared<ScriptedLlmClient>(1000000);  // always fail
  ResilienceConfig config;
  config.max_attempts = 2;
  config.breaker_threshold = 2;
  config.breaker_cooldown = SimDuration::from_ms(3);
  ResilientLlmClient client(inner, config);
  SimTime t{0};
  client.set_clock([&t] { return t; });
  EXPECT_FALSE(client.query({"m", "p"}).ok());
  EXPECT_FALSE(client.breaker_open());
  EXPECT_FALSE(client.query({"m", "p"}).ok());
  EXPECT_TRUE(client.breaker_open());
  EXPECT_EQ(client.breaker_trips(), 1u);
  EXPECT_EQ(client.open_until().us, SimDuration::from_ms(3).us);
  EXPECT_EQ(inner->calls, 4u);  // 2 queries x 2 attempts
  // While the cooldown runs, queries are rejected without touching the
  // backend.
  t = t + SimDuration::from_ms(2);
  EXPECT_EQ(client.query({"m", "p"}).error().code, "breaker-open");
  EXPECT_EQ(inner->calls, 4u);
  EXPECT_EQ(client.queries_rejected(), 1u);
}

TEST(ResilientClient, HalfOpenProbeClosesBreakerOnRecovery) {
  auto inner = std::make_shared<ScriptedLlmClient>(2);
  ResilienceConfig config;
  config.max_attempts = 1;
  config.breaker_threshold = 2;
  config.breaker_cooldown = SimDuration::from_ms(10);
  ResilientLlmClient client(inner, config);
  SimTime t{0};
  client.set_clock([&t] { return t; });
  EXPECT_FALSE(client.query({"m", "p"}).ok());
  EXPECT_FALSE(client.query({"m", "p"}).ok());
  EXPECT_TRUE(client.breaker_open());
  // Queries inside the cooldown window are absorbed...
  t = t + SimDuration::from_ms(9);
  EXPECT_EQ(client.query({"m", "p"}).error().code, "breaker-open");
  // ...then once the cooldown elapses the half-open probe goes through;
  // the backend has recovered.
  t = t + SimDuration::from_ms(1);
  EXPECT_TRUE(client.query({"m", "p"}).ok());
  EXPECT_FALSE(client.breaker_open());
  EXPECT_TRUE(client.query({"m", "p"}).ok());
}

TEST(ResilientClient, FailedProbeReopensWithFreshCooldown) {
  auto inner = std::make_shared<ScriptedLlmClient>(1000000);
  ResilienceConfig config;
  config.max_attempts = 1;
  config.breaker_threshold = 1;
  config.breaker_cooldown = SimDuration::from_ms(5);
  ResilientLlmClient client(inner, config);
  SimTime t{0};
  client.set_clock([&t] { return t; });
  EXPECT_FALSE(client.query({"m", "p"}).ok());  // trips the breaker
  EXPECT_TRUE(client.breaker_open());
  t = t + SimDuration::from_ms(4);
  EXPECT_FALSE(client.query({"m", "p"}).ok());  // still cooling down
  std::size_t calls_before = inner->calls;
  t = t + SimDuration::from_ms(1);              // cooldown elapsed
  EXPECT_FALSE(client.query({"m", "p"}).ok());  // probe -> fails -> reopen
  EXPECT_EQ(inner->calls, calls_before + 1);
  EXPECT_TRUE(client.breaker_open());
  EXPECT_EQ(client.breaker_trips(), 2u);
  // The reopened breaker runs a FRESH cooldown from the failed probe.
  EXPECT_EQ(client.open_until().us, (t + SimDuration::from_ms(5)).us);
  t = t + SimDuration::from_ms(4);
  EXPECT_EQ(client.query({"m", "p"}).error().code, "breaker-open");
}

TEST(ResilientClient, PseudoClockKeepsBreakerDeterministicWithoutClock) {
  // No injected clock: the internal query-tick pseudo-clock (1 ms per
  // query) still drives a terminating cooldown schedule.
  auto inner = std::make_shared<ScriptedLlmClient>(1);
  ResilienceConfig config;
  config.max_attempts = 1;
  config.breaker_threshold = 1;
  config.breaker_cooldown = SimDuration::from_ms(3);
  ResilientLlmClient client(inner, config);
  EXPECT_FALSE(client.query({"m", "p"}).ok());  // fails, trips breaker
  EXPECT_TRUE(client.breaker_open());
  EXPECT_EQ(client.query({"m", "p"}).error().code, "breaker-open");
  EXPECT_EQ(client.query({"m", "p"}).error().code, "breaker-open");
  // Third query after the trip: pseudo-clock reaches the cooldown edge,
  // the probe goes through and the backend has recovered.
  EXPECT_TRUE(client.query({"m", "p"}).ok());
  EXPECT_FALSE(client.breaker_open());
  EXPECT_EQ(client.queries_rejected(), 2u);
}

// --- Analyzer xApp ----------------------------------------------------------

detect::AnomalyReport report_for(const mobiflow::Trace& window) {
  detect::AnomalyReport report;
  report.detector = "Autoencoder";
  report.node_id = 1;
  report.score = 2.0;
  report.threshold = 1.0;
  report.window = window;
  return report;
}

TEST(AnalyzerXapp, ConfirmingVerdictStoredInSdl) {
  oran::NearRtRic ric;
  AnalyzerConfig config;
  config.model = "ChatGPT-4o";
  auto* analyzer = static_cast<LlmAnalyzerXapp*>(ric.register_xapp(
      std::make_unique<LlmAnalyzerXapp>(config,
                                        std::make_shared<SimLlmClient>())));
  oran::RoutedMessage msg;
  msg.mtype = oran::kMtAnomalyWindow;
  msg.source = "mobiwatch";
  msg.payload = report_for(storm_trace()).serialize();
  ric.router().publish(msg);

  EXPECT_EQ(analyzer->incidents_analyzed(), 1u);
  EXPECT_EQ(analyzer->contradictions(), 0u);
  ASSERT_EQ(analyzer->reports().size(), 1u);
  EXPECT_TRUE(analyzer->reports()[0].llm_agrees);
  EXPECT_EQ(ric.sdl().size("xsec-reports"), 1u);
  std::string stored = ric.sdl()
                           .get_str("xsec-reports", oran::Sdl::seq_key(1))
                           .value();
  EXPECT_NE(stored.find("BTS resource depletion"), std::string::npos);
}

TEST(AnalyzerXapp, ContradictionEscalatedToHumanReview) {
  oran::NearRtRic ric;
  int reviews = 0;
  ric.router().subscribe(oran::kMtHumanReview,
                         [&](const oran::RoutedMessage&) { ++reviews; });
  AnalyzerConfig config;
  config.model = "Copilot";  // cannot see the null-cipher evidence
  auto* analyzer = static_cast<LlmAnalyzerXapp*>(ric.register_xapp(
      std::make_unique<LlmAnalyzerXapp>(config,
                                        std::make_shared<SimLlmClient>())));
  oran::RoutedMessage msg;
  msg.mtype = oran::kMtAnomalyWindow;
  msg.payload = report_for(null_cipher_trace()).serialize();
  ric.router().publish(msg);
  EXPECT_EQ(analyzer->contradictions(), 1u);
  EXPECT_EQ(reviews, 1);
}

TEST(AnalyzerXapp, DeferredAnalysisWaitsForTrailingTelemetry) {
  oran::NearRtRic ric;
  AnalyzerConfig config;
  config.model = "ChatGPT-4o";
  config.defer_records = 3;
  auto* analyzer = static_cast<LlmAnalyzerXapp*>(ric.register_xapp(
      std::make_unique<LlmAnalyzerXapp>(config,
                                        std::make_shared<SimLlmClient>())));

  // Seed the telemetry stream so deferral engages.
  auto put_record = [&ric](std::uint64_t seq) {
    mobiflow::Record r;
    r.protocol = vocab::Protocol::kRrc;
    r.msg = vocab::MsgType::kMeasurementReport;
    r.direction = vocab::Direction::kUl;
    r.rnti = 1;
    r.timestamp_us = static_cast<std::int64_t>(seq);
    ric.sdl().set("mobiflow", oran::Sdl::seq_key(seq), r.to_kv_bytes());
  };
  put_record(1);
  put_record(2);

  oran::RoutedMessage msg;
  msg.mtype = oran::kMtAnomalyWindow;
  msg.payload = report_for(storm_trace()).serialize();
  ric.router().publish(msg);
  EXPECT_EQ(analyzer->incidents_analyzed(), 0u);
  EXPECT_EQ(analyzer->incidents_pending(), 1u);

  // Two more records: still short of the deferral target.
  put_record(3);
  put_record(4);
  EXPECT_EQ(analyzer->incidents_analyzed(), 0u);
  // The third trailing record releases the incident, with the trailing
  // records appended to the analyzed window.
  put_record(5);
  EXPECT_EQ(analyzer->incidents_analyzed(), 1u);
  EXPECT_EQ(analyzer->incidents_pending(), 0u);
  EXPECT_TRUE(analyzer->reports()[0].llm_agrees);
}

TEST(AnalyzerXapp, FlushPendingDrainsAtStreamEnd) {
  oran::NearRtRic ric;
  AnalyzerConfig config;
  config.defer_records = 100;  // never reached naturally
  auto* analyzer = static_cast<LlmAnalyzerXapp*>(ric.register_xapp(
      std::make_unique<LlmAnalyzerXapp>(config,
                                        std::make_shared<SimLlmClient>())));
  mobiflow::Record r;
  r.protocol = vocab::Protocol::kRrc;
  r.msg = vocab::MsgType::kMeasurementReport;
  r.direction = vocab::Direction::kUl;
  ric.sdl().set("mobiflow", oran::Sdl::seq_key(1), r.to_kv_bytes());

  oran::RoutedMessage msg;
  msg.mtype = oran::kMtAnomalyWindow;
  msg.payload = report_for(storm_trace()).serialize();
  ric.router().publish(msg);
  EXPECT_EQ(analyzer->incidents_pending(), 1u);
  analyzer->flush_pending();
  EXPECT_EQ(analyzer->incidents_pending(), 0u);
  EXPECT_EQ(analyzer->incidents_analyzed(), 1u);
}

TEST(AnalyzerXapp, LlmOutageDefersIncidentUntilRecovery) {
  oran::NearRtRic ric;
  AnalyzerConfig config;
  config.model = "ChatGPT-4o";
  auto inner = std::make_shared<ScriptedLlmClient>(1);  // one outage, then up
  ResilienceConfig resilience;
  resilience.max_attempts = 1;
  auto* analyzer = static_cast<LlmAnalyzerXapp*>(ric.register_xapp(
      std::make_unique<LlmAnalyzerXapp>(
          config, std::make_shared<ResilientLlmClient>(inner, resilience))));
  oran::RoutedMessage msg;
  msg.mtype = oran::kMtAnomalyWindow;
  msg.payload = report_for(storm_trace()).serialize();
  ric.router().publish(msg);
  // The query failed: the incident is parked, not lost.
  EXPECT_EQ(analyzer->incidents_analyzed(), 0u);
  EXPECT_EQ(analyzer->llm_deferrals(), 1u);
  EXPECT_EQ(analyzer->incidents_pending(), 1u);
  // Backend recovers; the retry drains the queue.
  analyzer->flush_pending();
  EXPECT_EQ(analyzer->incidents_analyzed(), 1u);
  EXPECT_EQ(analyzer->incidents_pending(), 0u);
  EXPECT_EQ(analyzer->incidents_dropped(), 0u);
}

TEST(AnalyzerXapp, IncidentDroppedAfterSustainedLlmOutage) {
  oran::NearRtRic ric;
  auto inner = std::make_shared<ScriptedLlmClient>(1000000);  // never up
  ResilienceConfig resilience;
  resilience.max_attempts = 1;
  auto* analyzer = static_cast<LlmAnalyzerXapp*>(ric.register_xapp(
      std::make_unique<LlmAnalyzerXapp>(
          AnalyzerConfig{},
          std::make_shared<ResilientLlmClient>(inner, resilience))));
  oran::RoutedMessage msg;
  msg.mtype = oran::kMtAnomalyWindow;
  msg.payload = report_for(storm_trace()).serialize();
  ric.router().publish(msg);
  EXPECT_EQ(analyzer->incidents_pending(), 1u);
  // End-of-capture flush burns the remaining attempts; the incident is
  // accounted as dropped rather than looping forever.
  analyzer->flush_pending();
  EXPECT_EQ(analyzer->incidents_pending(), 0u);
  EXPECT_EQ(analyzer->incidents_analyzed(), 0u);
  EXPECT_EQ(analyzer->incidents_dropped(), 1u);
  EXPECT_EQ(analyzer->llm_deferrals(), 2u);
}

TEST(AnalyzerXapp, MalformedPayloadIgnored) {
  oran::NearRtRic ric;
  auto* analyzer = static_cast<LlmAnalyzerXapp*>(ric.register_xapp(
      std::make_unique<LlmAnalyzerXapp>(AnalyzerConfig{},
                                        std::make_shared<SimLlmClient>())));
  oran::RoutedMessage msg;
  msg.mtype = oran::kMtAnomalyWindow;
  msg.payload = {1, 2, 3};
  ric.router().publish(msg);
  EXPECT_EQ(analyzer->incidents_analyzed(), 0u);
}

}  // namespace
}  // namespace xsec::llm
