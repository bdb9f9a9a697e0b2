// Sim-time tracing: spans with parent/child links per indication.
//
// A Span measures one pipeline stage. Because the simulation is
// discrete-event, work inside a single event callback has zero sim
// duration — the latencies that matter span EVENTS (batching delay, E2
// transit including retransmission, deferred LLM analysis). The tracer
// therefore supports two styles:
//   - RAII spans (begin/finish) timed by the injected sim clock, which
//     also maintain an active-span stack so nested stages link to their
//     parent automatically, even across module boundaries;
//   - explicitly timed spans (record) for cross-event latencies where the
//     caller knows the true start time (e.g. the indication's sent_at
//     stamp carried on the wire).
//
// Spans carry a trace id grouping every stage of one indication (or one
// incident); the tracer remembers each trace's root span so later stages
// recorded from other components can attach to it. Span ids are assigned
// from a monotonic counter, so a fixed-seed run produces a byte-identical
// span log. Completed spans live in a bounded ring; every finished span
// also feeds a `span.<name>` histogram in the metrics registry, so
// latency distributions survive ring eviction.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "obs/metrics.hpp"

namespace xsec::obs {

class Tracer;

/// One completed span.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_id = 0;  // 0 = root
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  std::int64_t duration_us() const { return end_us - start_us; }
};

/// RAII handle for an open span. Movable; finishes on destruction.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept : tracer_(other.tracer_), id_(other.id_) {
    other.tracer_ = nullptr;
    other.id_ = 0;
  }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      finish();
      tracer_ = other.tracer_;
      id_ = other.id_;
      other.tracer_ = nullptr;
      other.id_ = 0;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  void finish();
  std::uint32_t id() const { return id_; }
  bool active() const { return tracer_ != nullptr; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, std::uint32_t id) : tracer_(tracer), id_(id) {}

  Tracer* tracer_ = nullptr;
  std::uint32_t id_ = 0;
};

class Tracer {
 public:
  explicit Tracer(MetricsRegistry* metrics = nullptr) : metrics_(metrics) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Sim clock for RAII spans and for components that need "now" at
  /// record() time. Without a clock, begin()/current-time reads return
  /// SimTime{0} (spans still nest and count, with zero duration).
  void set_clock(std::function<SimTime()> now) { now_ = std::move(now); }
  bool has_clock() const { return static_cast<bool>(now_); }
  SimTime now() const { return now_ ? now_() : SimTime{0}; }

  /// Completed-span ring capacity (oldest evicted first).
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }

  /// Opens a span timed from now. trace_id 0 inherits the innermost open
  /// span's trace; parent_id 0 nests under the innermost open span (root
  /// if none is open).
  Span begin(std::string_view name, std::uint64_t trace_id = 0,
             std::uint32_t parent_id = 0);

  /// Records an externally timed, already-finished span. Returns its id so
  /// later stages can parent to it.
  std::uint32_t record(std::string_view name, std::uint64_t trace_id,
                       std::uint32_t parent_id, SimTime start, SimTime end);

  /// Innermost open span id (0 when none) — lets a component nest under
  /// whatever stage is driving it without knowing who that is.
  std::uint32_t current() const {
    return open_.empty() ? 0 : open_.back().span_id;
  }
  /// Root span id of a trace (0 if unknown or evicted).
  std::uint32_t root_of(std::uint64_t trace_id) const;

  const std::deque<SpanRecord>& finished() const { return finished_; }
  std::size_t spans_started() const { return spans_started_; }
  std::size_t spans_finished() const { return spans_finished_; }
  /// Completed spans evicted from the ring (their histograms survive).
  std::size_t spans_evicted() const { return spans_evicted_; }

  void reset();

 private:
  friend class Span;

  struct OpenSpan {
    std::uint32_t span_id = 0;
    std::uint32_t parent_id = 0;
    std::uint64_t trace_id = 0;
    std::string name;
    std::int64_t start_us = 0;
  };

  /// Bounded trace_id -> root span map (FIFO eviction).
  static constexpr std::size_t kMaxRoots = 8192;

  void finish_span(std::uint32_t id);
  void complete(SpanRecord record);
  void note_root(std::uint64_t trace_id, std::uint32_t span_id);

  MetricsRegistry* metrics_ = nullptr;
  std::function<SimTime()> now_;
  std::size_t capacity_ = 4096;
  std::uint32_t next_span_id_ = 1;
  std::vector<OpenSpan> open_;
  std::deque<SpanRecord> finished_;
  std::map<std::uint64_t, std::uint32_t> roots_;
  std::deque<std::uint64_t> root_order_;
  std::size_t spans_started_ = 0;
  std::size_t spans_finished_ = 0;
  std::size_t spans_evicted_ = 0;
};

/// The observability bundle a component binds against: one registry + one
/// tracer sharing it. The pipeline owns a single instance and injects it
/// everywhere; components constructed standalone (unit tests) lazily
/// create a private one so instrumentation never needs null checks.
struct Observability {
  MetricsRegistry metrics;
  Tracer tracer{&metrics};
  /// Host-dependent instrumentation (transport syscall counts): values
  /// that legitimately differ per I/O backend and kernel. Kept OUT of
  /// `metrics` so the deterministic exports — the byte-identity oracle
  /// across backends and shard counts — never see them; render this
  /// registry separately
  /// (`render_prometheus(obs.host)`) when the numbers are wanted.
  MetricsRegistry host;

  void set_clock(std::function<SimTime()> now) {
    tracer.set_clock(std::move(now));
  }
};

}  // namespace xsec::obs
