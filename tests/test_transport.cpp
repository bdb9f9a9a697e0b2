// Transport-layer tests: frame codec properties (every truncation, every
// bit flip, reassembly at arbitrary split points), the two channel
// backends (in-process / Unix-domain socket) behind one contract, the
// batched UDS I/O (syscall coalescing, partial writes at every offset),
// environment-variable selection through the pipeline, the zero-
// allocation guarantee of the warmed send/receive hot path, and end-to-end
// backpressure: a paused reader pushes telemetry back into the agent's
// outage buffer and .mft spill, with nothing silently lost after resume.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/pipeline.hpp"
#include "mobiflow/record.hpp"
#include "obs/export.hpp"
#include "oran/e2ap.hpp"
#include "oran/e2sm.hpp"
#include "sim/traffic.hpp"
#include "transport/channel.hpp"
#include "transport/frame.hpp"
#include "transport/link.hpp"

// --- Heap-allocation hook ---------------------------------------------
//
// Counts every operator-new in this binary so the allocation tests can
// assert that the warmed transport receive path performs zero heap
// allocations (mirrors the harness in test_dl.cpp).
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// GCC pairs our malloc-backed operator new with the default delete at
// some call sites and warns; the pairing here is in fact consistent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace xsec {
namespace {

using transport::BackendKind;

Bytes make_payload(std::size_t n, std::uint8_t seed = 1) {
  Bytes p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::uint8_t>(seed + i * 7);
  return p;
}

// --- Frame codec ------------------------------------------------------------

TEST(FrameCodec, RoundTripParsesExactPayload) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 1500u}) {
    Bytes payload = make_payload(n);
    Bytes wire;
    transport::append_frame(wire, payload);
    ASSERT_EQ(wire.size(), transport::framed_size(n));
    std::size_t consumed = 0;
    std::span<const std::uint8_t> out;
    ASSERT_EQ(transport::parse_frame(wire, consumed, out),
              transport::FrameStatus::kOk);
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(Bytes(out.begin(), out.end()), payload);
  }
}

TEST(FrameCodec, EveryTruncationReportsNeedMoreNotGarbage) {
  Bytes payload = make_payload(37);
  Bytes wire;
  transport::append_frame(wire, payload);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    SCOPED_TRACE("prefix length " + std::to_string(len));
    std::size_t consumed = 0;
    std::span<const std::uint8_t> out;
    auto status = transport::parse_frame(
        std::span<const std::uint8_t>(wire.data(), len), consumed, out);
    // A valid frame prefix must never parse as a frame, and must never be
    // misdiagnosed as corruption (that would discard good bytes).
    EXPECT_EQ(status, transport::FrameStatus::kNeedMore);
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(FrameCodec, EveryBitFlipIsRejected) {
  Bytes payload = make_payload(24);
  Bytes wire;
  transport::append_frame(wire, payload);
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = wire;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      std::size_t consumed = 0;
      std::span<const std::uint8_t> out;
      auto status = transport::parse_frame(flipped, consumed, out);
      // Magic flips -> kBadMagic; length flips -> kBadLength, kNeedMore
      // (larger length, waiting for bytes that never come) or
      // kBadChecksum; payload/checksum flips -> kBadChecksum. The one
      // outcome that must never happen is a successful parse.
      EXPECT_NE(status, transport::FrameStatus::kOk)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(FrameCodec, AssemblerReassemblesAtEveryChunkSize) {
  std::vector<Bytes> payloads = {make_payload(3, 11), make_payload(900, 29),
                                 Bytes{}, make_payload(65, 43)};
  Bytes stream;
  for (const Bytes& p : payloads) transport::append_frame(stream, p);

  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    SCOPED_TRACE("chunk size " + std::to_string(chunk));
    transport::FrameAssembler assembler;
    std::vector<Bytes> delivered;
    transport::FrameAssembler::Sink sink =
        [&](std::span<const std::uint8_t> payload, std::size_t) {
          delivered.emplace_back(payload.begin(), payload.end());
        };
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      std::size_t n = std::min(chunk, stream.size() - off);
      assembler.feed({stream.data() + off, n}, sink);
    }
    ASSERT_EQ(delivered.size(), payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i)
      EXPECT_EQ(delivered[i], payloads[i]) << "frame " << i;
    EXPECT_EQ(assembler.buffered(), 0u);
  }
}

TEST(FrameCodec, AssemblerResynchronizesAfterCorruptFrame) {
  Bytes first = make_payload(40, 3);
  Bytes second = make_payload(52, 5);
  Bytes third = make_payload(28, 9);
  Bytes stream;
  transport::append_frame(stream, first);
  std::size_t second_start = stream.size();
  transport::append_frame(stream, second);
  std::size_t third_start = stream.size();
  transport::append_frame(stream, third);
  // Destroy the middle frame's magic: the assembler must skip forward one
  // byte at a time until the third frame's boundary and account for every
  // skipped byte through the corrupt hook.
  stream[second_start] = 0x00;

  transport::FrameAssembler assembler;
  std::size_t skipped = 0;
  assembler.set_corrupt_hook([&](std::size_t n) { skipped += n; });
  std::vector<Bytes> delivered;
  transport::FrameAssembler::Sink sink =
      [&](std::span<const std::uint8_t> payload, std::size_t) {
        delivered.emplace_back(payload.begin(), payload.end());
      };
  assembler.feed(stream, sink);

  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], first);
  EXPECT_EQ(delivered[1], third);
  EXPECT_EQ(skipped, third_start - second_start);
}

// --- Channel backends -------------------------------------------------------

const BackendKind kAllBackends[] = {BackendKind::kInProcess,
                                    BackendKind::kUds};

TEST(TransportChannel, FifoOrderAndContentOnEveryBackend) {
  for (BackendKind kind : kAllBackends) {
    SCOPED_TRACE(std::string(transport::to_string(kind)));
    auto ch = transport::make_channel(kind, 64 * 1024);
    ASSERT_NE(ch, nullptr);
    EXPECT_EQ(ch->kind(), kind);
    std::vector<Bytes> delivered;
    ch->set_sink([&](std::span<const std::uint8_t> p) {
      delivered.emplace_back(p.begin(), p.end());
    });
    std::vector<Bytes> sent;
    std::size_t expected_pending = 0;
    for (int i = 0; i < 100; ++i) {
      sent.push_back(make_payload(1 + (i * 13) % 300,
                                  static_cast<std::uint8_t>(i)));
      ASSERT_TRUE(ch->send(sent.back()));
      expected_pending += transport::framed_size(sent.back().size());
      EXPECT_EQ(ch->pending_bytes(), expected_pending);
    }
    ch->pump();
    EXPECT_EQ(ch->pending_bytes(), 0u);
    ASSERT_EQ(delivered.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i)
      EXPECT_EQ(delivered[i], sent[i]) << "frame " << i;
  }
}

TEST(TransportChannel, PausedReaderTripsBackpressureWithoutLoss) {
  for (BackendKind kind : kAllBackends) {
    SCOPED_TRACE(std::string(transport::to_string(kind)));
    auto ch = transport::make_channel(kind, 1024);
    ASSERT_NE(ch, nullptr);
    std::vector<Bytes> delivered;
    ch->set_sink([&](std::span<const std::uint8_t> p) {
      delivered.emplace_back(p.begin(), p.end());
    });
    ch->set_reader_paused(true);
    Bytes payload = make_payload(100);
    std::size_t accepted = 0;
    while (ch->send(payload)) ++accepted;
    EXPECT_GT(accepted, 0u);
    EXPECT_LE(ch->pending_bytes(), ch->capacity());
    // A paused reader means pump() must not deliver anything...
    ch->pump();
    EXPECT_TRUE(delivered.empty());
    // ...and resume must hand over every accepted frame, in order, with
    // nothing lost to the refused sends.
    ch->set_reader_paused(false);
    ch->pump();
    ASSERT_EQ(delivered.size(), accepted);
    for (const Bytes& d : delivered) EXPECT_EQ(d, payload);
    EXPECT_EQ(ch->pending_bytes(), 0u);
  }
}

TEST(TransportChannel, NestedSendDuringDeliveryStaysValid) {
  // Delivery side effects re-enter send() on the same channel (a control
  // chain reaching back through the transport). The span being delivered
  // must stay intact across the nested send, and the nested frame must be
  // delivered by the outer pump.
  for (BackendKind kind : kAllBackends) {
    SCOPED_TRACE(std::string(transport::to_string(kind)));
    auto ch = transport::make_channel(kind, 64 * 1024);
    ASSERT_NE(ch, nullptr);
    Bytes first = make_payload(200, 17);
    Bytes nested = make_payload(150, 91);
    std::vector<Bytes> delivered;
    ch->set_sink([&](std::span<const std::uint8_t> p) {
      if (delivered.empty()) {
        ASSERT_TRUE(ch->send(nested));  // re-entrant send mid-delivery
        ch->pump();                     // nested pump must fold into ours
      }
      delivered.emplace_back(p.begin(), p.end());
    });
    ASSERT_TRUE(ch->send(first));
    ch->pump();
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_EQ(delivered[0], first);
    EXPECT_EQ(delivered[1], nested);
    EXPECT_EQ(ch->pending_bytes(), 0u);
  }
}

// --- Backend selection ------------------------------------------------------

TEST(TransportEnv, ParseBackendAcceptsExactlyTheTwoNames) {
  EXPECT_EQ(transport::parse_backend("inproc").value(),
            BackendKind::kInProcess);
  EXPECT_EQ(transport::parse_backend("uds").value(), BackendKind::kUds);
  for (const char* bad : {"", "shm", "UDS", "tcp", "uds ", "inproc,uds"}) {
    SCOPED_TRACE(std::string("\"") + bad + "\"");
    EXPECT_FALSE(transport::parse_backend(bad).ok());
  }
}

TEST(TransportEnv, ResolveBackendConfigWinsEnvFillsDefault) {
  unsetenv("XSEC_E2_TRANSPORT");
  EXPECT_EQ(transport::resolve_backend(""), BackendKind::kInProcess);
  EXPECT_EQ(transport::resolve_backend("uds"), BackendKind::kUds);
  // A malformed name warns and falls back instead of aborting.
  EXPECT_EQ(transport::resolve_backend("bogus"), BackendKind::kInProcess);
  // resolve_backend maps a name only; the environment is read by the
  // pipeline's one resolver, where config wins and the environment fills
  // the default (PipelineHonorsConfigAndEnvironment).
  setenv("XSEC_E2_TRANSPORT", "uds", 1);
  EXPECT_EQ(transport::resolve_backend(""), BackendKind::kInProcess);
  // A malformed environment value warns and falls back to inproc.
  setenv("XSEC_E2_TRANSPORT", "carrier-pigeon", 1);
  core::Pipeline malformed{core::PipelineConfig{}};
  EXPECT_EQ(malformed.e2_backend(), BackendKind::kInProcess);
  unsetenv("XSEC_E2_TRANSPORT");
}

TEST(TransportEnv, PipelineHonorsConfigAndEnvironment) {
  unsetenv("XSEC_E2_TRANSPORT");
  core::PipelineConfig config;
  config.e2_transport = "uds";
  core::Pipeline from_config(config);
  EXPECT_EQ(from_config.e2_backend(), BackendKind::kUds);

  setenv("XSEC_E2_TRANSPORT", "uds", 1);
  core::Pipeline from_env{core::PipelineConfig{}};
  EXPECT_EQ(from_env.e2_backend(), BackendKind::kUds);
  // An explicit config beats the environment (XSEC_RIC_SHARDS precedence).
  core::PipelineConfig inproc_cfg;
  inproc_cfg.e2_transport = "inproc";
  core::Pipeline pinned(inproc_cfg);
  EXPECT_EQ(pinned.e2_backend(), BackendKind::kInProcess);
  unsetenv("XSEC_E2_TRANSPORT");

  core::Pipeline fallback{core::PipelineConfig{}};
  EXPECT_EQ(fallback.e2_backend(), BackendKind::kInProcess);
}

// --- Zero-allocation guarantees ---------------------------------------------

TEST(TransportZeroAlloc, WarmedChannelSendAndPumpDoNotAllocate) {
  // On uds this covers the staged path: send() appends to the stage
  // buffer, pump() flushes it with writev and reads with large recvs.
  for (BackendKind kind : kAllBackends) {
    SCOPED_TRACE(std::string(transport::to_string(kind)));
    auto ch = transport::make_channel(kind, 256 * 1024);
    ASSERT_NE(ch, nullptr);
    std::size_t delivered_bytes = 0;
    ch->set_sink([&](std::span<const std::uint8_t> p) {
      delivered_bytes += p.size();
    });
    Bytes payload = make_payload(480);
    // Warm-up: grow arenas/scratch buffers to their high-water capacity.
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(ch->send(payload));
      ch->pump();
    }
    delivered_bytes = 0;
    const std::uint64_t before = g_heap_allocs.load();
    for (int i = 0; i < 256; ++i) {
      ch->send(payload);
      ch->pump();
    }
    EXPECT_EQ(g_heap_allocs.load() - before, 0u)
        << "steady-state send+pump must not touch the heap";
    EXPECT_EQ(delivered_bytes, 256u * payload.size());
  }
}

TEST(TransportZeroAlloc, IndicationViewDecodePathDoesNotAllocate) {
  // The receive hot path after the channel: E2AP type sniff, zero-copy
  // indication view decode, row iteration, and per-row record decode.
  // Records without plaintext identities (the steady state) decode into
  // SSO-sized strings, so a warmed pass must be allocation-free.
  oran::e2sm::IndicationMessage message;
  for (int i = 0; i < 8; ++i) {
    mobiflow::Record record;
    record.timestamp_us = 1000 + i;
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
  indication.sequence_number = 42;
  indication.sent_at_us = 2000;
  indication.type = oran::RicIndicationType::kReport;
  indication.header = oran::e2sm::encode_indication_header(header);
  indication.message = oran::e2sm::encode_indication_message(message);
  Bytes wire = oran::encode_e2ap(indication);
  std::span<const std::uint8_t> wire_span(wire.data(), wire.size());

  bool all_ok = true;
  std::uint64_t rnti_sum = 0;
  auto decode_pass = [&] {
    auto type = oran::e2ap_type(wire_span);
    all_ok &= type.ok() && type.value() == oran::E2apType::kIndication;
    auto view = oran::decode_indication_view(wire_span);
    all_ok &= view.ok();
    if (!view.ok()) return;
    oran::e2sm::RowCursor rows(view.value().message);
    while (auto row = rows.next()) {
      auto record = mobiflow::Record::from_kv_bytes(*row);
      all_ok &= record.ok();
      if (record.ok()) rnti_sum += record.value().rnti;
    }
    all_ok &= rows.ok();
  };
  decode_pass();  // warm-up
  ASSERT_TRUE(all_ok);
  rnti_sum = 0;
  const std::uint64_t before = g_heap_allocs.load();
  for (int i = 0; i < 100; ++i) decode_pass();
  EXPECT_EQ(g_heap_allocs.load() - before, 0u)
      << "warmed view-decode pass must not touch the heap";
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(rnti_sum, 100u * (100 + 101 + 102 + 103 + 104 + 105 + 106 + 107));
}

// --- Capacity env override --------------------------------------------------

TEST(TransportEnv, ResolveCapacityConfigWinsEnvStrictParse) {
  unsetenv("XSEC_E2_CAPACITY");
  EXPECT_EQ(transport::resolve_capacity(0), transport::kDefaultChannelCapacity);
  EXPECT_EQ(transport::resolve_capacity(2048), 2048u);
  EXPECT_EQ(transport::resolve_capacity(transport::kMaxChannelCapacity + 1),
            transport::kMaxChannelCapacity);
  setenv("XSEC_E2_CAPACITY", "8192", 1);
  // resolve_capacity reads no environment; the pipeline's resolver does.
  EXPECT_EQ(transport::resolve_capacity(0), transport::kDefaultChannelCapacity);
  core::Pipeline from_env{core::PipelineConfig{}};
  EXPECT_EQ(from_env.e2_link_capacity(), 8192u);
  // An explicit (non-zero) config wins over the environment.
  core::PipelineConfig pinned_cfg;
  pinned_cfg.e2_link_capacity = 2048;
  core::Pipeline pinned(pinned_cfg);
  EXPECT_EQ(pinned.e2_link_capacity(), 2048u);
  // Strict parse: negatives, zero, trailing garbage, and absurd sizes are
  // rejected with a warning (same grammar as XSEC_RIC_SHARDS).
  for (const char* bad :
       {"-1", "0", "4096x", " 4096", "+4096", "", "9999999999999"}) {
    SCOPED_TRACE(std::string("\"") + bad + "\"");
    setenv("XSEC_E2_CAPACITY", bad, 1);
    core::Pipeline rejected{core::PipelineConfig{}};
    EXPECT_EQ(rejected.e2_link_capacity(), transport::kDefaultChannelCapacity);
  }
  unsetenv("XSEC_E2_CAPACITY");
}

TEST(TransportEnv, PipelineHonorsCapacityEnvironment) {
  unsetenv("XSEC_E2_CAPACITY");
  setenv("XSEC_E2_CAPACITY", "16384", 1);
  core::Pipeline from_env{core::PipelineConfig{}};
  EXPECT_EQ(from_env.e2_link_capacity(), 16384u);
  EXPECT_EQ(from_env.transport().link_capacity(), 16384u);
  // An explicit config beats the environment.
  core::PipelineConfig pinned_cfg;
  pinned_cfg.e2_link_capacity = 2048;
  core::Pipeline pinned(pinned_cfg);
  EXPECT_EQ(pinned.transport().link_capacity(), 2048u);
  unsetenv("XSEC_E2_CAPACITY");
}

// --- Pump: budgets and batched UDS I/O --------------------------------------

TEST(TransportPump, BudgetedPumpDeliversExactlyTheBudgetOnEveryBackend) {
  // The satellite contract behind FramedLink::ready_for's bounded drain: a
  // budgeted pump delivers at most `max_frames` and leaves the rest queued
  // with exact pending accounting, on every backend, resumable mid-stream.
  for (BackendKind kind : kAllBackends) {
    SCOPED_TRACE(std::string(transport::to_string(kind)));
    auto ch = transport::make_channel(kind, 256 * 1024);
    ASSERT_NE(ch, nullptr);
    std::vector<Bytes> delivered;
    ch->set_sink([&](std::span<const std::uint8_t> p) {
      delivered.emplace_back(p.begin(), p.end());
    });
    std::vector<Bytes> sent;
    std::size_t total_framed = 0;
    for (int i = 0; i < 10; ++i) {
      sent.push_back(make_payload(50 + i, static_cast<std::uint8_t>(i)));
      ASSERT_TRUE(ch->send(sent.back()));
      total_framed += transport::framed_size(sent.back().size());
    }
    ch->pump(3);
    EXPECT_EQ(delivered.size(), 3u);
    std::size_t first3 = 0;
    for (int i = 0; i < 3; ++i)
      first3 += transport::framed_size(sent[i].size());
    EXPECT_EQ(ch->pending_bytes(), total_framed - first3);
    ch->pump(0);  // zero budget must deliver nothing
    EXPECT_EQ(delivered.size(), 3u);
    ch->pump();
    ASSERT_EQ(delivered.size(), sent.size());
    EXPECT_EQ(ch->pending_bytes(), 0u);
    for (std::size_t i = 0; i < sent.size(); ++i)
      EXPECT_EQ(delivered[i], sent[i]) << "frame " << i;
  }
}

TEST(TransportPump, UdsBatchedBurstCoalescesSyscalls) {
  // The batched I/O shape, asserted on a plain UDS channel: a 32-frame
  // burst is staged by send() (zero syscalls) and crosses the socket in one
  // writev plus one short read per pump — not one send(2) per frame.
  constexpr int kBurst = 32;
  constexpr int kRounds = 8;
  Bytes payload = make_payload(120);
  auto ch = transport::make_channel(BackendKind::kUds, 1 << 20);
  ASSERT_NE(ch, nullptr);
  std::size_t frames = 0;
  ch->set_sink([&](std::span<const std::uint8_t>) { ++frames; });
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t before = ch->io_syscalls();
    for (int i = 0; i < kBurst; ++i) ASSERT_TRUE(ch->send(payload));
    EXPECT_EQ(ch->io_syscalls(), before) << "send() must only stage";
    ch->pump();
  }
  ASSERT_EQ(frames, static_cast<std::size_t>(kBurst * kRounds));
  EXPECT_LE(ch->io_syscalls(), static_cast<std::uint64_t>(kRounds * 3));
}

TEST(TransportPump, PumpMetricsStayOutOfDeterministicRegistry) {
  // transport.syscalls is host-dependent: FramedLink binds it into
  // Observability::host, and the deterministic export never renders it.
  obs::Observability obs;
  transport::LinkConfig cfg;
  cfg.backend = BackendKind::kUds;
  transport::FramedLink link(cfg, &obs);
  std::size_t delivered = 0;
  link.set_ric_sink(
      [&](std::uint64_t, std::span<const std::uint8_t>) { ++delivered; });
  ASSERT_TRUE(link.enqueue_to_ric(7, make_payload(64)));
  link.pump_to_ric();
  EXPECT_EQ(delivered, 1u);
  ASSERT_NE(obs.host.find_counter("transport.syscalls"), nullptr);
  EXPECT_GT(obs.host.find_counter("transport.syscalls")->value(), 0u);
  EXPECT_EQ(obs.metrics.find_counter("transport.syscalls"), nullptr);
  const std::string exported = obs::render_prometheus(obs.metrics);
  EXPECT_NE(exported.find("transport_frames_rx"), std::string::npos);
  EXPECT_EQ(exported.find("syscalls"), std::string::npos);
}

// --- Short-write property test (UDS send path) ------------------------------

TEST(TransportShortWrite, UdsResumesIntactFromPartialWritevAtEveryOffset) {
  // Force the kernel to accept the staged multi-frame batch in k-byte
  // slices, for every k from 1 to the full batch size: the frame stream
  // must survive a writev boundary at EVERY byte offset, and the logical
  // in-flight accounting must drain to exactly zero on resume.
  const std::vector<Bytes> payloads = {
      make_payload(30, 3), make_payload(1, 5), make_payload(200, 7),
      make_payload(77, 9)};
  std::size_t total = 0;
  for (const Bytes& p : payloads) total += transport::framed_size(p.size());
  for (std::size_t cap = 1; cap <= total; ++cap) {
    auto ch = transport::make_channel(BackendKind::kUds, 64 * 1024);
    ASSERT_NE(ch, nullptr);
    ch->set_max_write_per_syscall_for_test(cap);
    std::vector<Bytes> delivered;
    ch->set_sink([&](std::span<const std::uint8_t> p) {
      delivered.emplace_back(p.begin(), p.end());
    });
    std::size_t expected_pending = 0;
    for (const Bytes& p : payloads) {
      ASSERT_TRUE(ch->send(p)) << "cap=" << cap;
      expected_pending += transport::framed_size(p.size());
    }
    ASSERT_EQ(ch->pending_bytes(), expected_pending) << "cap=" << cap;
    // Pump until quiescent: each pass flushes >= 1 capped writev slice.
    for (int guard = 0; ch->pending_bytes() > 0 && guard < 4096; ++guard)
      ch->pump();
    ASSERT_EQ(ch->pending_bytes(), 0u) << "cap=" << cap;
    ASSERT_EQ(delivered.size(), payloads.size()) << "cap=" << cap;
    for (std::size_t i = 0; i < payloads.size(); ++i)
      EXPECT_EQ(delivered[i], payloads[i]) << "cap=" << cap << " frame " << i;
  }
}

// --- Bounded ready_for drain (budgeted pump) --------------------------------

TEST(TransportBackpressure, ReadyForDrainsOnlyBoundedBurstNotWholeChannel) {
  // Regression for the unbounded-drain bug: a backpressured sender probing
  // ready_for() must pay for at most the headroom it needs (bounded
  // bursts), never a full-channel delivery storm inside its own send path.
  transport::LinkConfig cfg;
  cfg.backend = BackendKind::kInProcess;
  cfg.capacity = 2048;
  transport::FramedLink link(cfg, nullptr);
  std::size_t delivered = 0;
  link.set_ric_sink(
      [&](std::uint64_t, std::span<const std::uint8_t>) { ++delivered; });
  link.set_node_sink([](std::uint64_t, std::span<const std::uint8_t>) {});

  // Fill the channel while the reader is paused...
  link.set_ric_reader_paused(true);
  Bytes pdu = make_payload(100);
  std::size_t queued = 0;
  while (link.enqueue_to_ric(7, pdu)) ++queued;
  ASSERT_GT(queued, 10u);
  // ...then resume WITHOUT pumping: the channel is full but live — exactly
  // the "kernel drains concurrently" moment ready_for handles.
  link.set_ric_reader_paused(false);
  ASSERT_TRUE(link.ready_for(pdu.size()));
  EXPECT_GT(delivered, 0u) << "ready_for must drain enough for headroom";
  EXPECT_LT(delivered, queued)
      << "ready_for must NOT drain the whole channel";
  EXPECT_LE(delivered, 8u) << "one bounded burst should suffice here";
  EXPECT_GT(link.pending_to_ric(), 0u);
  // A paused reader still refuses without a delivery storm.
  link.set_ric_reader_paused(true);
  while (link.enqueue_to_ric(7, pdu)) ++queued;
  const std::size_t before = delivered;
  EXPECT_FALSE(link.ready_for(pdu.size()));
  EXPECT_EQ(delivered, before);
}

// --- End-to-end backpressure ------------------------------------------------

TEST(TransportBackpressure, SlowReaderSpillsToDiskAndRecoversWithoutLoss) {
  // A paused RIC-side reader against a tiny channel: the agent's flush
  // probe starts refusing, reports defer with no sequence number consumed,
  // the buffer overflows into .mft spill files, and — after the reader
  // resumes — everything drains to MobiWatch with nothing silently lost.
  std::string spill_dir = ::testing::TempDir() + "xsec_backpressure_spill";
  std::filesystem::remove_all(spill_dir);
  std::filesystem::create_directories(spill_dir);

  core::PipelineConfig config;
  config.e2_link_capacity = 2048;
  config.agent_outage_buffer = 48;
  config.agent_spill_dir = spill_dir;
  core::Pipeline pipeline(config);

  sim::TrafficConfig traffic;
  traffic.num_sessions = 40;
  traffic.arrival_mean = SimDuration::from_ms(40);
  traffic.seed = 99;
  sim::BenignTrafficGenerator generator(&pipeline.testbed(), traffic);
  generator.schedule_all();

  // Let the first reports flow normally, then stall the reader.
  pipeline.run_for(SimDuration::from_ms(200));
  pipeline.transport().set_reader_paused(true);
  pipeline.run_for(SimDuration::from_s(2));

  auto& backpressure =
      pipeline.metrics().counter("transport.backpressure_events");
  EXPECT_GT(backpressure.value(), 0u) << "stall must be counted";
  EXPECT_GT(pipeline.agent().records_spilled(), 0u)
      << "overflowing backlog must spill to disk, not drop";
  EXPECT_EQ(pipeline.agent().records_dropped_outage(), 0u);

  // Resume: drain what queued during the stall, then give the periodic
  // flush time to replay the spill and report the entire backlog.
  pipeline.transport().set_reader_paused(false);
  pipeline.transport().pump_to_ric();
  pipeline.run_for(SimDuration::from_s(3));
  pipeline.finalize();

  EXPECT_EQ(pipeline.agent().records_replayed(),
            pipeline.agent().records_spilled());
  EXPECT_EQ(pipeline.mobiwatch().records_seen(),
            pipeline.agent().records_collected())
      << "every collected record must reach the xApp after recovery";
  EXPECT_EQ(pipeline.stats().gaps_detected, 0u)
      << "deferral must not consume sequence numbers (no fake gaps)";
  std::filesystem::remove_all(spill_dir);
}

}  // namespace
}  // namespace xsec
