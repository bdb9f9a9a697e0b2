// Detection pipeline tests: feature semantics, windowing, standardizer,
// detectors, and the MobiWatch xApp.
#include <gtest/gtest.h>

#include "detect/features.hpp"
#include "detect/mobiwatch.hpp"
#include "detect/scorer.hpp"
#include "oran/e2sm.hpp"
#include "oran/ric.hpp"

namespace xsec::detect {
namespace {

namespace vocab = mobiflow::vocab;

mobiflow::Record make_record(const std::string& proto, const std::string& msg,
                             const std::string& dir, std::uint16_t rnti,
                             std::int64_t ts = 0, std::uint64_t ue = 1) {
  mobiflow::Record r;
  r.protocol = vocab::protocol_or_unknown(proto);
  r.msg = vocab::msg_or_unknown(msg);
  r.direction =
      dir == "DL" ? vocab::Direction::kDl : vocab::Direction::kUl;
  r.rnti = rnti;
  r.timestamp_us = ts;
  r.ue_id = ue;
  return r;
}

// --- FeatureEncoder ------------------------------------------------------

TEST(Features, DimensionMatchesNames) {
  FeatureEncoder encoder;
  for (std::size_t i = 0; i < encoder.dim(); ++i)
    EXPECT_FALSE(encoder.feature_name(i).empty());
}

TEST(Features, ConfigSubsetsShrinkDimension) {
  FeatureConfig messages_only;
  messages_only.identifiers = false;
  messages_only.state = false;
  messages_only.timing = false;
  messages_only.load = false;
  FeatureEncoder small(messages_only);
  FeatureEncoder full;
  EXPECT_LT(small.dim(), full.dim());
}

TEST(Features, MessageOneHotSingleBit) {
  FeatureConfig config;
  config.identifiers = config.state = config.timing = config.load = false;
  FeatureEncoder encoder(config);
  EncodeContext ctx;
  auto v = encoder.encode(make_record("RRC", "RRCSetupRequest", "UL", 1), ctx);
  int ones = 0;
  std::size_t hot = 0;
  for (std::size_t i = 0; i < v.size(); ++i)
    if (v[i] == 1.0f) {
      ++ones;
      hot = i;
    }
  EXPECT_EQ(ones, 2);  // message one-hot + UL flag
  EXPECT_EQ(encoder.feature_name(hot), "dir=UL");
}

TEST(Features, UnknownMessageUsesUnknownSlot) {
  FeatureConfig config;
  config.identifiers = config.state = config.timing = config.load = false;
  FeatureEncoder encoder(config);
  EncodeContext ctx;
  auto v = encoder.encode(make_record("RRC", "NotAMessage", "DL", 1), ctx);
  bool unknown_hot = false;
  float sum = 0.0f;
  for (std::size_t i = 0; i < v.size(); ++i) {
    sum += v[i];
    if (v[i] == 1.0f && encoder.feature_name(i) == "msg=unknown")
      unknown_hot = true;
  }
  EXPECT_TRUE(unknown_hot);
  // A novel name perturbs the vector (explicit unknown column) rather than
  // zeroing the whole message block.
  EXPECT_GT(sum, 0.0f);
  EncodeContext ctx2;
  auto known = encoder.encode(make_record("RRC", "Paging", "DL", 1), ctx2);
  EXPECT_NE(v, known);
}

std::size_t feature_index(const FeatureEncoder& encoder,
                          const std::string& name) {
  for (std::size_t i = 0; i < encoder.dim(); ++i)
    if (encoder.feature_name(i) == name) return i;
  ADD_FAILURE() << "no feature named " << name;
  return 0;
}

TEST(Features, RntiNoveltyOncePerContext) {
  FeatureEncoder encoder;
  EncodeContext ctx;
  std::size_t idx = feature_index(encoder, "id.rnti_new");
  auto first = encoder.encode(make_record("RRC", "RRCSetup", "DL", 7), ctx);
  auto second = encoder.encode(make_record("RRC", "RRCSetup", "DL", 7), ctx);
  EXPECT_EQ(first[idx], 1.0f);
  EXPECT_EQ(second[idx], 0.0f);
}

TEST(Features, TmsiReplayFiresOnlyForConcurrentOwners) {
  FeatureEncoder encoder;
  EncodeContext ctx;
  std::size_t replay = feature_index(encoder, "id.tmsi_replayed_other_ue");

  // UE 1 presents TMSI 42 and is then released.
  mobiflow::Record a = make_record("RRC", "RRCSetupRequest", "UL", 1, 0, 1);
  a.s_tmsi = 42;
  EXPECT_EQ(encoder.encode(a, ctx)[replay], 0.0f);
  mobiflow::Record release = make_record("RRC", "RRCRelease", "DL", 1, 1, 1);
  release.s_tmsi = 42;
  encoder.encode(release, ctx);

  // UE 2 presents the same TMSI after release: benign sequential reuse.
  mobiflow::Record b = make_record("RRC", "RRCSetupRequest", "UL", 2, 2, 2);
  b.s_tmsi = 42;
  EXPECT_EQ(encoder.encode(b, ctx)[replay], 0.0f);

  // UE 3 presents it while UE 2 is still live: replay.
  mobiflow::Record c = make_record("RRC", "RRCSetupRequest", "UL", 3, 3, 3);
  c.s_tmsi = 42;
  EXPECT_EQ(encoder.encode(c, ctx)[replay], 1.0f);
}

// Release must clean up BOTH ownership maps: the owners set of the held
// TMSI and the UE's held-TMSI entry. Sequential GUTI reuse across a chain
// of released contexts must never trip the Blind-DoS replay indicator.
TEST(Features, ReleaseErasesTmsiOwnershipState) {
  FeatureEncoder encoder;
  EncodeContext ctx;
  std::size_t replay = feature_index(encoder, "id.tmsi_replayed_other_ue");

  mobiflow::Record a = make_record("RRC", "RRCSetupRequest", "UL", 1, 0, 1);
  a.s_tmsi = 42;
  encoder.encode(a, ctx);
  ASSERT_EQ(ctx.tmsi_owners.at(42).count(1), 1u);
  ASSERT_EQ(ctx.ue_tmsi.at(1), 42u);

  // The release record itself need not carry the TMSI; cleanup is keyed on
  // the UE's held identifier.
  encoder.encode(make_record("RRC", "RRCRelease", "DL", 1, 1, 1), ctx);
  EXPECT_TRUE(ctx.tmsi_owners.at(42).empty());
  EXPECT_EQ(ctx.ue_tmsi.count(1), 0u);

  // The network hands the same GUTI to a chain of successive UEs; each
  // lifetime is disjoint, so no presentation counts as a replay.
  for (std::uint64_t ue = 2; ue <= 4; ++ue) {
    mobiflow::Record reuse =
        make_record("RRC", "RRCSetupRequest", "UL",
                    static_cast<std::uint16_t>(ue),
                    static_cast<std::int64_t>(ue) * 10, ue);
    reuse.s_tmsi = 42;
    EXPECT_EQ(encoder.encode(reuse, ctx)[replay], 0.0f) << "ue " << ue;
    encoder.encode(make_record("RRC", "RRCRelease", "DL",
                               static_cast<std::uint16_t>(ue),
                               static_cast<std::int64_t>(ue) * 10 + 5, ue),
                   ctx);
  }
  // A release for a UE that never held a TMSI is a no-op, not a crash.
  encoder.encode(make_record("RRC", "RRCRelease", "DL", 99, 100, 99), ctx);
}

TEST(Features, PlaintextIdentityFlags) {
  FeatureEncoder encoder;
  EncodeContext ctx;
  mobiflow::Record r = make_record("NAS", "RegistrationRequest", "UL", 1);
  r.supi_plain = "imsi-001012089900001";
  r.suci = "suci-001-01-0-00000000deadbeef";
  auto v = encoder.encode(r, ctx);
  EXPECT_EQ(v[feature_index(encoder, "id.supi_plaintext")], 1.0f);
  EXPECT_EQ(v[feature_index(encoder, "id.suci_null_scheme")], 1.0f);
}

TEST(Features, ReleaseIncompleteFlag) {
  FeatureEncoder encoder;
  EncodeContext ctx;
  std::size_t idx = feature_index(encoder, "id.release_incomplete");
  // Release without security context nor TMSI: incomplete.
  auto bad = encoder.encode(make_record("RRC", "RRCRelease", "DL", 1), ctx);
  EXPECT_EQ(bad[idx], 1.0f);
  // Normal release carries both.
  mobiflow::Record good = make_record("RRC", "RRCRelease", "DL", 2);
  good.cipher_alg = vocab::CipherAlg::kNea2;
  good.s_tmsi = 7;
  EXPECT_EQ(encoder.encode(good, ctx)[idx], 0.0f);
}

TEST(Features, NullCipherStateOneHot) {
  FeatureEncoder encoder;
  EncodeContext ctx;
  mobiflow::Record r = make_record("NAS", "SecurityModeCommand", "DL", 1);
  r.cipher_alg = vocab::CipherAlg::kNea0;
  r.integrity_alg = vocab::IntegrityAlg::kNia0;
  auto v = encoder.encode(r, ctx);
  EXPECT_EQ(v[feature_index(encoder, "state.cipher=NEA0")], 1.0f);
  EXPECT_EQ(v[feature_index(encoder, "state.integrity=NIA0")], 1.0f);
  EXPECT_EQ(v[feature_index(encoder, "state.cipher_unknown")], 0.0f);
}

TEST(Features, LoadBucketsRampDuringSetupBurst) {
  FeatureEncoder encoder;
  EncodeContext ctx;
  std::size_t bucket3 = feature_index(encoder, "load.setup_rate3");
  // Four setups within 100ms from distinct UEs.
  std::vector<float> last;
  for (int i = 0; i < 4; ++i)
    last = encoder.encode(make_record("RRC", "RRCSetupRequest", "UL",
                                      static_cast<std::uint16_t>(i + 1),
                                      i * 1000, i + 1),
                          ctx);
  EXPECT_EQ(last[bucket3], 1.0f);  // 4 recent setups -> bucket 3 (3-4)
}

TEST(Features, LoadEmittedOnlyOnEstablishmentMessages) {
  FeatureEncoder encoder;
  EncodeContext ctx;
  // Build up load.
  for (int i = 0; i < 4; ++i)
    encoder.encode(make_record("RRC", "RRCSetupRequest", "UL",
                               static_cast<std::uint16_t>(i + 1), i * 1000,
                               i + 1),
                   ctx);
  // A bystander measurement report must carry all-zero load dims.
  auto v = encoder.encode(
      make_record("RRC", "MeasurementReport", "UL", 99, 5000, 99), ctx);
  for (std::size_t i = 0; i < encoder.dim(); ++i) {
    if (encoder.feature_name(i).rfind("load.", 0) == 0) {
      EXPECT_EQ(v[i], 0.0f) << encoder.feature_name(i);
    }
  }
}

TEST(Features, PendingAuthTracksChallengeLifecycle) {
  FeatureEncoder encoder;
  EncodeContext ctx;
  std::size_t pending1 = feature_index(encoder, "load.pending_auth1");
  std::size_t pending0 = feature_index(encoder, "load.pending_auth0");
  auto after_challenge = encoder.encode(
      make_record("NAS", "AuthenticationRequest", "DL", 1, 0, 1), ctx);
  EXPECT_EQ(after_challenge[pending1], 1.0f);
  encoder.encode(make_record("NAS", "AuthenticationResponse", "UL", 1, 1, 1),
                 ctx);
  auto next = encoder.encode(
      make_record("NAS", "AuthenticationRequest", "DL", 2, 2, 2), ctx);
  EXPECT_EQ(next[pending1], 1.0f);  // only UE 2 outstanding now
  EXPECT_EQ(next[pending0], 0.0f);
}

// encode_batch writes the same rows one encode_into would, sharing one
// running context across the whole span.
TEST(Features, EncodeBatchMatchesSequentialEncode) {
  FeatureEncoder encoder;
  std::vector<mobiflow::Record> records;
  for (int i = 0; i < 6; ++i) {
    mobiflow::Record r = make_record(
        i % 2 ? "NAS" : "RRC", i % 2 ? "RegistrationRequest" : "RRCSetupRequest",
        "UL", static_cast<std::uint16_t>(i + 1), i * 1000, i + 1);
    r.s_tmsi = i % 3 == 0 ? 42 : 0;
    records.push_back(r);
  }
  dl::Matrix batch(records.size(), encoder.dim());
  EncodeContext batch_ctx;
  encoder.encode_batch(records, batch_ctx, batch);

  EncodeContext seq_ctx;
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto row = encoder.encode(records[i], seq_ctx);
    for (std::size_t c = 0; c < encoder.dim(); ++c)
      EXPECT_EQ(batch.at(i, c), row[c]) << "row " << i << " col " << c;
  }
}

// --- WindowDataset -------------------------------------------------------

mobiflow::Trace trace_of(std::size_t n, std::vector<std::size_t> bad = {}) {
  mobiflow::Trace trace;
  for (std::size_t i = 0; i < n; ++i) {
    bool malicious =
        std::find(bad.begin(), bad.end(), i) != bad.end();
    trace.add(make_record("RRC", "MeasurementReport", "UL", 1,
                          static_cast<std::int64_t>(i) * 1000),
              malicious);
  }
  return trace;
}

TEST(WindowDataset, SampleCounts) {
  FeatureEncoder encoder;
  auto dataset = WindowDataset::from_trace(trace_of(10), encoder, 4);
  EXPECT_EQ(dataset.ae_sample_count(), 7u);
  EXPECT_EQ(dataset.lstm_sample_count(), 6u);
  EXPECT_EQ(dataset.ae_matrix().rows(), 7u);
  EXPECT_EQ(dataset.ae_matrix().cols(), 4 * encoder.dim());
  EXPECT_EQ(dataset.lstm_samples().size(), 6u);
}

TEST(WindowDataset, TooShortTraceYieldsNoSamples) {
  FeatureEncoder encoder;
  auto dataset = WindowDataset::from_trace(trace_of(3), encoder, 5);
  EXPECT_EQ(dataset.ae_sample_count(), 0u);
  EXPECT_EQ(dataset.lstm_sample_count(), 0u);
}

TEST(WindowDataset, LabelPropagationPerPaperConvention) {
  // Record 5 malicious, N=3: AE windows starting 3,4,5 contain it.
  FeatureEncoder encoder;
  auto dataset = WindowDataset::from_trace(trace_of(10, {5}), encoder, 3);
  auto ae = dataset.ae_labels();
  ASSERT_EQ(ae.size(), 8u);
  for (std::size_t s = 0; s < ae.size(); ++s)
    EXPECT_EQ(ae[s], s >= 3 && s <= 5) << "window " << s;
  // LSTM windows additionally cover the target record: starts 2..5.
  auto lstm = dataset.lstm_labels();
  ASSERT_EQ(lstm.size(), 7u);
  for (std::size_t s = 0; s < lstm.size(); ++s)
    EXPECT_EQ(lstm[s], s >= 2 && s <= 5) << "window " << s;
}

TEST(WindowDataset, MultiTraceWindowsDoNotStraddleBoundaries) {
  FeatureEncoder encoder;
  std::vector<mobiflow::Trace> traces = {trace_of(6), trace_of(6)};
  auto dataset = WindowDataset::from_traces(traces, encoder, 4);
  // Per capture: 3 AE windows, 2 LSTM windows.
  EXPECT_EQ(dataset.ae_sample_count(), 6u);
  EXPECT_EQ(dataset.lstm_sample_count(), 4u);
  EXPECT_EQ(dataset.record_count(), 12u);
}

// --- Standardizer --------------------------------------------------------

TEST(Standardizer, NormalizesSeenDimsAndWeighsUnseen) {
  dl::Matrix data(4, 2, 0.0f);
  data.at(0, 0) = 1;
  data.at(1, 0) = 3;
  data.at(2, 0) = 1;
  data.at(3, 0) = 3;  // mean 2, std 1; dim 1 constant 0
  Standardizer scaler;
  scaler.fit(data);
  std::vector<float> row = {3.0f, 1.0f};
  scaler.apply(row);
  EXPECT_NEAR(row[0], 1.0f, 1e-5);   // (3-2)/1
  EXPECT_NEAR(row[1], 20.0f, 1e-4);  // (1-0)/floor(0.05)
}

// --- Detectors -------------------------------------------------------------

WindowDataset synthetic_benign(const FeatureEncoder& encoder,
                               std::size_t sessions = 40) {
  // Repeating benign-looking flow across several UEs.
  mobiflow::Trace trace;
  std::int64_t t = 0;
  for (std::size_t s = 0; s < sessions; ++s) {
    std::uint16_t rnti = static_cast<std::uint16_t>(100 + s);
    std::uint64_t ue = s + 1;
    auto push = [&](const char* proto, const char* msg, const char* dir) {
      trace.add(make_record(proto, msg, dir, rnti, t, ue));
      t += 2000 + static_cast<std::int64_t>(s % 3) * 500;
    };
    push("RRC", "RRCSetupRequest", "UL");
    push("RRC", "RRCSetup", "DL");
    push("RRC", "RRCSetupComplete", "UL");
    push("NAS", "RegistrationRequest", "UL");
    push("NAS", "AuthenticationRequest", "DL");
    push("NAS", "AuthenticationResponse", "UL");
    push("NAS", "RegistrationAccept", "DL");
    push("RRC", "RRCRelease", "DL");
  }
  return WindowDataset::from_trace(trace, encoder, 5);
}

TEST(Detectors, AutoencoderCalibratesAndScoresConsistently) {
  FeatureEncoder encoder;
  auto benign = synthetic_benign(encoder);
  DetectorConfig config;
  config.epochs = 15;
  AutoencoderDetector detector(5, encoder.dim(), config);
  detector.fit(benign);
  EXPECT_GT(detector.threshold(), 0.0);
  auto scores = detector.score(benign);
  ASSERT_EQ(scores.size(), benign.ae_sample_count());
  // By construction of the percentile threshold, ~1% of training windows
  // exceed it.
  std::size_t above = 0;
  for (double s : scores)
    if (s > detector.threshold()) ++above;
  EXPECT_LE(above, scores.size() / 50 + 2);
  EXPECT_EQ(detector.rows_needed(5), 5u);
}

TEST(Detectors, ScoreWindowMatchesBatchScore) {
  FeatureEncoder encoder;
  auto benign = synthetic_benign(encoder);
  DetectorConfig config;
  config.epochs = 10;
  AutoencoderDetector detector(5, encoder.dim(), config);
  detector.fit(benign);
  auto batch = detector.score(benign);
  // Score window 0 straight off the contiguous feature matrix rows.
  EXPECT_EQ(detector.score_window(benign.features().row(0), 5), batch[0]);
  // The allocating convenience overload agrees.
  std::vector<std::vector<float>> rows;
  for (std::size_t i = 0; i < 5; ++i) {
    const float* p = benign.features().row(i);
    rows.emplace_back(p, p + encoder.dim());
  }
  EXPECT_EQ(detector.score_window(rows), batch[0]);
}

TEST(Detectors, LstmRowsNeededIncludesTarget) {
  FeatureEncoder encoder;
  DetectorConfig config;
  LstmDetector detector(5, encoder.dim(), config);
  EXPECT_EQ(detector.rows_needed(5), 6u);
}

TEST(Detectors, LstmFitsAndScores) {
  FeatureEncoder encoder;
  auto benign = synthetic_benign(encoder, 25);
  DetectorConfig config;
  config.epochs = 10;
  LstmDetector detector(5, encoder.dim(), config);
  detector.fit(benign);
  EXPECT_GT(detector.threshold(), 0.0);
  auto scores = detector.score(benign);
  EXPECT_EQ(scores.size(), benign.lstm_sample_count());
}

// --- MobiWatch incident aggregation ------------------------------------------

/// Detector with scripted per-window scores (threshold 1.0).
class ScriptedDetector : public AnomalyDetector {
 public:
  explicit ScriptedDetector(std::vector<double> scores)
      : scores_(std::move(scores)) {
    set_threshold(1.0);
  }
  std::string name() const override { return "Scripted"; }
  void fit(const WindowDataset&) override {}
  std::vector<double> score(const WindowDataset&) override { return {}; }
  std::vector<bool> labels(const WindowDataset& data) const override {
    return data.ae_labels();
  }
  using AnomalyDetector::score_window;
  double score_window(const float*, std::size_t) override {
    double s = scores_[std::min(next_, scores_.size() - 1)];
    ++next_;
    return s;
  }
  std::size_t rows_needed(std::size_t window_size) const override {
    return window_size;
  }

 private:
  std::vector<double> scores_;
  std::size_t next_ = 0;
};

struct MobiWatchHarness {
  explicit MobiWatchHarness(std::vector<double> scores,
                            MobiWatchConfig config = {}) {
    xapp = static_cast<MobiWatchXapp*>(ric.register_xapp(
        std::make_unique<MobiWatchXapp>(config)));
    xapp->install_detector(std::make_shared<ScriptedDetector>(scores),
                           FeatureEncoder());
    ric.router().subscribe(oran::kMtAnomalyWindow,
                           [this](const oran::RoutedMessage& m) {
                             auto r = AnomalyReport::deserialize(m.payload);
                             ASSERT_TRUE(r.ok());
                             incidents.push_back(std::move(r).value());
                           });
  }

  void feed(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      oran::RicIndication indication;
      oran::e2sm::IndicationMessage message;
      message.rows.push_back(
          make_record("RRC", "MeasurementReport", "UL", 1,
                      static_cast<std::int64_t>(fed_) * 1000)
              .to_kv_bytes());
      indication.message = encode_indication_message(message);
      xapp->on_indication_view(1, oran::as_view(indication));
      ++fed_;
    }
  }

  oran::NearRtRic ric;
  MobiWatchXapp* xapp = nullptr;
  std::vector<AnomalyReport> incidents;
  std::size_t fed_ = 0;
};

TEST(MobiWatchIncidents, BurstAggregatesIntoOneReport) {
  MobiWatchConfig config;
  config.window_size = 2;
  config.incident_close_gap = 2;
  // Windows start once 2 records arrived; scores: quiet, 3 hot, quiet...
  MobiWatchHarness harness(
      {0.1, 0.1, 5.0, 6.0, 5.5, 0.1, 0.1, 0.1, 0.1, 0.1}, config);
  harness.feed(12);
  ASSERT_EQ(harness.incidents.size(), 1u);
  EXPECT_EQ(harness.xapp->anomalies_flagged(), 1u);
  EXPECT_EQ(harness.xapp->anomalous_windows(), 3u);
  EXPECT_DOUBLE_EQ(harness.incidents[0].score, 6.0);  // peak of the burst
  EXPECT_FALSE(harness.xapp->incident_open());
}

TEST(MobiWatchIncidents, ShortDipDoesNotSplitIncident) {
  MobiWatchConfig config;
  config.window_size = 2;
  config.incident_close_gap = 2;
  MobiWatchHarness harness(
      {5.0, 0.1, 5.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}, config);
  harness.feed(11);
  ASSERT_EQ(harness.incidents.size(), 1u);
  EXPECT_EQ(harness.xapp->anomalous_windows(), 2u);
}

TEST(MobiWatchIncidents, LongGapSplitsIncidents) {
  MobiWatchConfig config;
  config.window_size = 2;
  config.incident_close_gap = 1;
  MobiWatchHarness harness(
      {5.0, 0.1, 0.1, 0.1, 5.0, 0.1, 0.1, 0.1, 0.1}, config);
  harness.feed(11);
  EXPECT_EQ(harness.incidents.size(), 2u);
}

TEST(MobiWatchIncidents, OpenIncidentClosedExplicitly) {
  MobiWatchConfig config;
  config.window_size = 2;
  config.incident_close_gap = 5;
  MobiWatchHarness harness({0.1, 5.0, 5.0}, config);
  harness.feed(4);  // stream ends while the burst is hot
  EXPECT_TRUE(harness.xapp->incident_open());
  EXPECT_TRUE(harness.incidents.empty());
  harness.xapp->close_open_incident();
  ASSERT_EQ(harness.incidents.size(), 1u);
  EXPECT_FALSE(harness.xapp->incident_open());
  // Idempotent.
  harness.xapp->close_open_incident();
  EXPECT_EQ(harness.incidents.size(), 1u);
}

// --- AnomalyReport ---------------------------------------------------------

TEST(AnomalyReport, SerializeRoundTrip) {
  AnomalyReport report;
  report.detector = "Autoencoder";
  report.node_id = 1001;
  report.score = 1.5;
  report.threshold = 0.9;
  report.window.add(make_record("RRC", "RRCSetupRequest", "UL", 1), true);
  report.context.add(make_record("RRC", "RRCSetup", "DL", 1), false);
  auto back = AnomalyReport::deserialize(report.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().detector, "Autoencoder");
  EXPECT_EQ(back.value().node_id, 1001u);
  EXPECT_DOUBLE_EQ(back.value().score, 1.5);
  EXPECT_EQ(back.value().window.size(), 1u);
  EXPECT_EQ(back.value().context.size(), 1u);
  EXPECT_TRUE(back.value().window.entries()[0].malicious);
}

TEST(AnomalyReport, GarbageRejected) {
  EXPECT_FALSE(AnomalyReport::deserialize({1, 2, 3}).ok());
}

}  // namespace
}  // namespace xsec::detect
