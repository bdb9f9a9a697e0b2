// Pipeline micro-benchmarks (google-benchmark): the telemetry path's cost
// per stage. The near-RT RIC control loop budget is 10ms-1s (paper §2.1);
// these benches substantiate that the collection/encode/report path is far
// inside it.
#include <benchmark/benchmark.h>

#include "detect/features.hpp"
#include "mobiflow/record.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "oran/e2ap.hpp"
#include "oran/e2sm.hpp"
#include "ran/codec.hpp"
#include "ran/interfaces.hpp"
#include "ran/security.hpp"
#include "ran/ue.hpp"

using namespace xsec;

namespace {

mobiflow::Record sample_record() {
  mobiflow::Record r;
  r.timestamp_us = 123456;
  r.gnb_id = 1;
  r.cell = 1;
  r.ue_id = 42;
  r.protocol = mobiflow::vocab::Protocol::kNas;
  r.msg = mobiflow::vocab::MsgType::kRegistrationRequest;
  r.direction = mobiflow::vocab::Direction::kUl;
  r.rnti = 0x5F1A;
  r.s_tmsi = 0x123456789AULL;
  r.suci = "suci-001-01-1-00000000deadbeef";
  r.cipher_alg = mobiflow::vocab::CipherAlg::kNea2;
  r.integrity_alg = mobiflow::vocab::IntegrityAlg::kNia2;
  r.establishment_cause = mobiflow::vocab::EstablishmentCause::kMoSignalling;
  return r;
}

void BM_RrcEncodeDecode(benchmark::State& state) {
  ran::RrcSetupRequest msg;
  msg.ue_identity.value = 0x12345;
  for (auto _ : state) {
    Bytes wire = ran::encode_rrc(ran::RrcMessage{msg});
    auto decoded = ran::decode_rrc(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_RrcEncodeDecode);

void BM_NasEncodeDecode(benchmark::State& state) {
  ran::Supi supi{ran::Plmn::test_network(), 2089900001ULL};
  ran::RegistrationRequest msg;
  msg.identity = ran::MobileIdentity::from_suci(ran::make_suci(supi, 7));
  for (auto _ : state) {
    Bytes wire = ran::encode_nas(ran::NasMessage{msg});
    auto decoded = ran::decode_nas(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_NasEncodeDecode);

void BM_F1apTapParse(benchmark::State& state) {
  ran::F1apMessage f1;
  f1.rnti = ran::Rnti{0x1234};
  f1.rrc_container = ran::encode_rrc(ran::RrcMessage{ran::RrcSetupRequest{}});
  Bytes wire = ran::encode_f1ap(f1);
  for (auto _ : state) {
    auto decoded = ran::decode_f1ap(wire);
    auto rrc = ran::decode_rrc(decoded.value().rrc_container);
    benchmark::DoNotOptimize(rrc);
  }
}
BENCHMARK(BM_F1apTapParse);

void BM_RecordToKvAndBack(benchmark::State& state) {
  mobiflow::Record record = sample_record();
  for (auto _ : state) {
    Bytes wire = record.to_kv_bytes();
    auto back = mobiflow::Record::from_kv_bytes(wire);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_RecordToKvAndBack);

/// Decodes an indication as the RIC's ingest does: a zero-copy view, then
/// the rows walked in place. Returns the row bytes seen.
std::size_t decode_indication_rows(const Bytes& wire) {
  auto decoded = oran::decode_indication_view(wire);
  oran::e2sm::RowCursor rows(decoded.value().message);
  std::size_t bytes = 0;
  while (auto row = rows.next()) bytes += row->size();
  return bytes;
}

void BM_IndicationEncodeDecode(benchmark::State& state) {
  // One E2 indication carrying a typical report batch.
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  oran::e2sm::IndicationMessage message;
  for (std::size_t i = 0; i < rows; ++i)
    message.rows.push_back(sample_record().to_kv_bytes());
  for (auto _ : state) {
    oran::RicIndication indication;
    indication.message = encode_indication_message(message);
    Bytes wire = encode_e2ap(indication);
    benchmark::DoNotOptimize(decode_indication_rows(wire));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_IndicationEncodeDecode)->Arg(16)->Arg(64)->Arg(256);

void BM_FeatureEncode(benchmark::State& state) {
  detect::FeatureEncoder encoder;
  detect::EncodeContext ctx;
  mobiflow::Record record = sample_record();
  std::vector<float> out(encoder.dim());
  for (auto _ : state) {
    encoder.encode_into(record, ctx, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FeatureEncode);

void BM_FeatureEncodeBatch(benchmark::State& state) {
  // Window-at-a-time encoding into a preallocated matrix: the path
  // WindowDataset and the xApp replay use.
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  detect::FeatureEncoder encoder;
  std::vector<mobiflow::Record> batch;
  for (std::size_t i = 0; i < rows; ++i) {
    mobiflow::Record r = sample_record();
    r.rnti = static_cast<std::uint16_t>(0x100 + i);
    r.ue_id = i + 1;
    r.timestamp_us = static_cast<std::int64_t>(1000 * i);
    batch.push_back(r);
  }
  dl::Matrix out(rows, encoder.dim());
  for (auto _ : state) {
    detect::EncodeContext ctx;
    encoder.encode_batch(batch, ctx, out);
    benchmark::DoNotOptimize(out.row(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_FeatureEncodeBatch)->Arg(16)->Arg(256);

// --- Observability overhead -------------------------------------------------
//
// The registry's hot path is a bound-pointer increment / observe, so its
// cost sits orders of magnitude under the µs-scale codec stages above.
//   BM_IndicationInstrumented - BM_IndicationEncodeDecode/64
//     = the full per-indication instrumentation cost (all spans + counters
//       the pipeline records for one indication), typically ~1 µs.
// The <2% overhead claim divides it by the steady-state end-to-end cost
// per indication that perfbench's traced run reports (docs/OBSERVABILITY.md).

void BM_ObsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = &registry.counter("bench.counter");
  for (auto _ : state) {
    counter->inc();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram = &registry.histogram("bench.latency");
  std::uint64_t v = 0;
  for (auto _ : state) {
    histogram->observe(v++ & 0xFFFF);
    benchmark::DoNotOptimize(histogram);
  }
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsSpanBeginFinish(benchmark::State& state) {
  obs::Observability o;
  SimTime t{0};
  o.set_clock([&t] {
    t.us += 3;
    return t;
  });
  o.tracer.set_capacity(256);
  for (auto _ : state) {
    obs::Span span = o.tracer.begin("bench.span");
    benchmark::DoNotOptimize(span);
  }
}
BENCHMARK(BM_ObsSpanBeginFinish);

void BM_ObsExportPrometheus(benchmark::State& state) {
  // A registry shaped like a real run's: a few dozen counters plus
  // populated latency histograms.
  obs::MetricsRegistry registry;
  for (int i = 0; i < 40; ++i)
    registry.counter("bench.counter" + std::to_string(i)).inc(1000 + i);
  for (int i = 0; i < 8; ++i) {
    obs::Histogram& h = registry.histogram("bench.hist" + std::to_string(i));
    for (std::uint64_t v = 0; v < 64; ++v) h.observe(v * v);
  }
  for (auto _ : state) {
    std::string out = obs::render_prometheus(registry);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ObsExportPrometheus);

void BM_IndicationInstrumented(benchmark::State& state) {
  // BM_IndicationEncodeDecode/64 plus every obs operation the pipeline
  // performs for one indication: the agent's root encode span, the
  // parented transit span (root_of lookup included), the RAII deliver and
  // ingest spans, the transit histogram, and the layer counters. The
  // delta against the plain bench is the per-indication instrumentation
  // cost.
  const std::size_t rows = 64;
  oran::e2sm::IndicationMessage message;
  for (std::size_t i = 0; i < rows; ++i)
    message.rows.push_back(sample_record().to_kv_bytes());
  obs::Observability o;
  SimTime t{0};
  o.set_clock([&t] {
    t.us += 11;
    return t;
  });
  o.tracer.set_capacity(256);
  obs::Counter* sent = &o.metrics.counter("agent.bench.indications_sent");
  obs::Counter* received = &o.metrics.counter("ric.indications_received");
  obs::Counter* records = &o.metrics.counter("mobiwatch.records_seen");
  obs::Histogram* transit = &o.metrics.histogram("e2.bench.transit_us");
  std::uint64_t trace = 0;
  for (auto _ : state) {
    oran::RicIndication indication;
    indication.message = encode_indication_message(message);
    Bytes wire = encode_e2ap(indication);
    benchmark::DoNotOptimize(decode_indication_rows(wire));
    ++trace;
    sent->inc();
    std::uint32_t encode_id =
        o.tracer.record("agent.encode", trace, 0, t, SimTime{t.us + 500});
    received->inc();
    transit->observe(1000);
    std::uint32_t transit_id =
        o.tracer.record("e2.transit", trace, o.tracer.root_of(trace),
                        SimTime{t.us + 500}, SimTime{t.us + 1500});
    benchmark::DoNotOptimize(encode_id);
    {
      obs::Span deliver = o.tracer.begin("ric.deliver", trace, transit_id);
      obs::Span ingest = o.tracer.begin("mobiwatch.ingest", trace);
      records->inc(static_cast<std::uint64_t>(rows));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_IndicationInstrumented);

void BM_SuciConcealDeconceal(benchmark::State& state) {
  ran::Supi supi{ran::Plmn::test_network(), 2089900001ULL};
  std::uint32_t nonce = 1;
  for (auto _ : state) {
    ran::Suci suci = ran::make_suci(supi, nonce++);
    benchmark::DoNotOptimize(ran::deconceal_suci(suci));
  }
}
BENCHMARK(BM_SuciConcealDeconceal);

void BM_AkaVector(benchmark::State& state) {
  ran::Key k = ran::subscriber_key("imsi-001012089900001");
  std::uint64_t rand = 1;
  for (auto _ : state) {
    ran::AuthVector v = ran::generate_auth_vector(k, rand++);
    benchmark::DoNotOptimize(ran::verify_autn(k, v.rand, v.autn));
  }
}
BENCHMARK(BM_AkaVector);

}  // namespace

BENCHMARK_MAIN();
