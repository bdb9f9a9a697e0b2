// Transport backend comparison (google-benchmark): the same batched
// E2SM-MOBIFLOW indication pushed through each E2 channel backend —
// in-process queue and Unix-domain socketpair — plus the
// full framed-link receive path (enqueue -> pump -> zero-copy view decode
// -> row iteration -> per-row record decode) and the varint decoder's
// unrolled fast path against the original loop.
//
// cpu_time is the gated number (scripts/bench_diff.py vs the committed
// results/bench_transport.baseline.json). On a single-core host the
// process-boundary backends measure syscall/copy overhead relative to
// inproc, not concurrency wins; the determinism tests assert that every
// backend produces byte-identical pipeline output either way.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "mobiflow/record.hpp"
#include "oran/e2ap.hpp"
#include "oran/e2sm.hpp"
#include "obs/trace.hpp"
#include "transport/channel.hpp"
#include "transport/frame.hpp"
#include "transport/link.hpp"

using namespace xsec;

namespace {

/// A realistic report batch: 16 MobiFlow rows inside one encoded E2AP
/// RIC Indication, the PDU the hot path carries thousands of per second.
Bytes batched_indication() {
  oran::e2sm::IndicationMessage message;
  for (int i = 0; i < 16; ++i) {
    mobiflow::Record record;
    record.timestamp_us = 1000 + i * 20;
    record.gnb_id = 7;
    record.cell = 2;
    record.ue_id = 40 + i;
    record.rnti = static_cast<std::uint16_t>(100 + i);
    record.s_tmsi = 0xAB00 + i;
    message.rows.push_back(record.to_kv_bytes());
  }
  oran::e2sm::IndicationHeader header;
  header.collect_start_us = 1000;
  header.gnb_id = 7;
  header.cell = 2;
  oran::RicIndication indication;
  indication.request_id = {1, 1};
  indication.ran_function_id = oran::e2sm::kMobiFlowFunctionId;
  indication.action_id = 1;
  indication.sequence_number = 1;
  indication.sent_at_us = 2000;
  indication.type = oran::RicIndicationType::kReport;
  indication.header = oran::e2sm::encode_indication_header(header);
  indication.message = oran::e2sm::encode_indication_message(message);
  return oran::encode_e2ap(indication);
}

/// Raw channel throughput: frame + enqueue + pump + deliver, no decoding.
void BM_ChannelSendPump(benchmark::State& state,
                        transport::BackendKind kind) {
  auto ch = transport::make_channel(kind, 256 * 1024);
  if (!ch) {
    state.SkipWithError("backend unavailable in this environment");
    return;
  }
  Bytes pdu = batched_indication();
  std::uint64_t delivered_bytes = 0;
  ch->set_sink([&](std::span<const std::uint8_t> payload) {
    benchmark::DoNotOptimize(payload.data());
    delivered_bytes += payload.size();
  });
  for (auto _ : state) {
    ch->send(pdu);
    ch->pump();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(delivered_bytes));
  state.counters["frame_bytes"] =
      static_cast<double>(transport::framed_size(pdu.size()));
}

/// The full receive path a delivered indication takes: framed link
/// enqueue/pump, then zero-copy E2AP view decode, row-cursor iteration,
/// and per-row record decode — allocation-free in the steady state.
void BM_LinkIndicationReceivePath(benchmark::State& state,
                                 transport::BackendKind kind) {
  transport::LinkConfig cfg;
  cfg.backend = kind;
  obs::Observability obs;
  transport::FramedLink link(cfg, &obs);
  if (link.backend() != kind) {
    state.SkipWithError("backend unavailable in this environment");
    return;
  }
  Bytes pdu = batched_indication();
  std::uint64_t rows_decoded = 0;
  bool ok = true;
  link.set_ric_sink(
      [&](std::uint64_t, std::span<const std::uint8_t> wire) {
        auto view = oran::decode_indication_view(wire);
        ok &= view.ok();
        if (!view.ok()) return;
        oran::e2sm::RowCursor rows(view.value().message);
        while (auto row = rows.next()) {
          auto record = mobiflow::Record::from_kv_bytes(*row);
          ok &= record.ok();
          if (record.ok()) {
            benchmark::DoNotOptimize(record.value().rnti);
            ++rows_decoded;
          }
        }
        ok &= rows.ok();
      });
  for (auto _ : state) {
    link.enqueue_to_ric(1001, pdu);
    link.pump_to_ric();
  }
  if (!ok) state.SkipWithError("decode failed");
  state.counters["rows_per_iter"] =
      benchmark::Counter(static_cast<double>(rows_decoded),
                         benchmark::Counter::kAvgIterations);
}

/// Burst delivery: kBurst frames enqueued, then drained by one pump. The
/// socket backend stages the sends in user space, flushes the burst with
/// one writev and drains it with one large recv; syscalls_per_frame
/// (kernel entries per delivered frame, lower is better) makes that
/// coalescing visible.
constexpr std::size_t kPumpBurst = 32;

void BM_PumpBurst(benchmark::State& state, transport::BackendKind kind) {
  auto ch = transport::make_channel(kind, 1024 * 1024);
  if (!ch) {
    state.SkipWithError("backend unavailable in this environment");
    return;
  }
  Bytes pdu = batched_indication();
  std::uint64_t delivered = 0;
  ch->set_sink([&](std::span<const std::uint8_t> payload) {
    benchmark::DoNotOptimize(payload.data());
    ++delivered;
  });
  for (auto _ : state) {
    for (std::size_t i = 0; i < kPumpBurst; ++i) ch->send(pdu);
    ch->pump();
  }
  const double frames = static_cast<double>(delivered);
  state.counters["syscalls_per_frame"] =
      frames > 0 ? static_cast<double>(ch->io_syscalls()) / frames : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}

/// The seed varint decoder, reproduced verbatim (plain 7-bits-per-byte
/// loop over per-byte Result-returning u8() reads) so the fast-path
/// benchmark has a live reference. noinline keeps the call overhead
/// comparable to the real out-of-line ByteReader::varint.
struct ReferenceReader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  Result<std::uint8_t> u8() {
    if (size - pos < 1)
      return Error::make("truncated", "u8 past end of buffer");
    return data[pos++];
  }

  [[gnu::noinline]] Result<std::uint64_t> varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (shift >= 64) return Error::make("malformed", "varint too long");
      auto b = u8();
      if (!b) return b.error();
      v |= static_cast<std::uint64_t>(b.value() & 0x7f) << shift;
      if (!(b.value() & 0x80)) break;
      shift += 7;
    }
    return v;
  }
};

/// The MobiFlow field-value mix: overwhelmingly 1-byte varints (enums,
/// small ids), a solid share of 2-byte (RNTIs, cell ids), a tail of wide
/// timestamps.
Bytes varint_corpus(std::size_t count) {
  ByteWriter w;
  for (std::size_t i = 0; i < count; ++i) {
    switch (i % 8) {
      case 6:
        w.varint(0x3FFF + i * 131);  // 3+ bytes
        break;
      case 3:
      case 7:
        w.varint(0x80 + i % 0x3F00);  // 2 bytes
        break;
      default:
        w.varint(i % 0x7F);  // 1 byte
        break;
    }
  }
  return std::move(w).take();
}

void BM_VarintDecode_Reference(benchmark::State& state) {
  Bytes corpus = varint_corpus(4096);
  for (auto _ : state) {
    ReferenceReader r{corpus.data(), corpus.size()};
    std::uint64_t sum = 0;
    while (r.pos < r.size) {
      auto v = r.varint();
      if (!v.ok()) break;
      sum += v.value();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(corpus.size()));
}

void BM_VarintDecode_FastPath(benchmark::State& state) {
  Bytes corpus = varint_corpus(4096);
  for (auto _ : state) {
    ByteReader r(corpus);
    std::uint64_t sum = 0;
    while (r.remaining() > 0) {
      auto v = r.varint();
      if (!v.ok()) break;
      sum += v.value();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(corpus.size()));
}

}  // namespace

BENCHMARK_CAPTURE(BM_ChannelSendPump, inproc,
                  transport::BackendKind::kInProcess);
BENCHMARK_CAPTURE(BM_ChannelSendPump, uds, transport::BackendKind::kUds);
BENCHMARK_CAPTURE(BM_LinkIndicationReceivePath, inproc,
                  transport::BackendKind::kInProcess);
BENCHMARK_CAPTURE(BM_LinkIndicationReceivePath, uds,
                  transport::BackendKind::kUds);
BENCHMARK_CAPTURE(BM_PumpBurst, inproc, transport::BackendKind::kInProcess);
BENCHMARK_CAPTURE(BM_PumpBurst, uds, transport::BackendKind::kUds);
BENCHMARK(BM_VarintDecode_Reference);
BENCHMARK(BM_VarintDecode_FastPath);

BENCHMARK_MAIN();
