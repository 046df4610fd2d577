// Run-level telemetry: where does a PageRank run spend its time?
//
// The paper explains its wins by *where time goes* — dispatch overhead,
// barrier waits, the scatter/gather split, remote-vs-local traffic
// (HiPa §4.3, Table 3; GPOP's phase-level accounting) — so the engines
// can record, per thread and per sub-phase:
//
//   * kernel wall time (native backends; per-thread),
//   * barrier-wait time + crossing counts (single-dispatch run loop),
//   * messages / bytes produced (scatter side) and consumed (gather),
//   * phase-region totals: region wall time and, on the simulated
//     backend, the local-vs-remote DRAM access delta of the region.
//
// Collection is strictly opt-in through a compile-time guard: engines
// template their run path on `kTel` and every recording site sits
// behind `if constexpr`. With telemetry off the instrumentation
// compiles to literally nothing — the hot loops are token-for-token
// the untelemetered code, which is why kOff ranks are bitwise
// identical (Telemetry.OffAndOnRanksBitwiseIdentical*) and perfbench
// can measure the kOn cost.
//
// Recording is per-thread into cache-line-padded rows (no sharing, no
// atomics on the hot path); aggregation into the `RunReport` surface
// happens once, after the parallel region ends.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/timer.hpp"
#include "common/types.hpp"
#include "runtime/hwprof.hpp"

namespace hipa::runtime {

/// Run-level telemetry switch carried by the run options. A run either
/// records everything (kOn) or nothing at all (kOff: the guard is
/// constexpr, the instrumentation does not exist in the binary's hot
/// path).
enum class Telemetry : unsigned char { kOff = 0, kOn = 1 };

/// The engine sub-phases every methodology reports through. All five
/// engines map their internal passes onto this shared vocabulary:
/// PCPM init/scatter/gather directly; v-PR contrib→scatter,
/// pull→gather; Polymer replicate→scatter, pull→gather. kIoWait is
/// the out-of-core driver's stall accounting: time compute spent
/// blocked on a segment fetch that the prefetch pipeline had not
/// finished yet (zero for fully resident runs).
enum class Phase : unsigned {
  kInit = 0,
  kScatter = 1,
  kGather = 2,
  kIoWait = 3,
};
inline constexpr unsigned kNumPhases = 4;

[[nodiscard]] std::string_view phase_name(Phase p);

/// One (thread, phase) accumulator. Plain non-atomic fields: each row
/// is written by exactly one thread inside the parallel region and
/// read only after the region's join (which carries the
/// happens-before edge).
struct PhaseSample {
  double wall_seconds = 0.0;     ///< kernel time (native; 0 in sim)
  double barrier_seconds = 0.0;  ///< explicit barrier waits (run_loop)
  std::uint64_t invocations = 0;
  std::uint64_t barrier_crossings = 0;
  std::uint64_t messages_produced = 0;
  std::uint64_t messages_consumed = 0;
  std::uint64_t bytes_produced = 0;
  std::uint64_t bytes_consumed = 0;
  /// Hardware-counter deltas for this (thread, phase), accumulated by
  /// HwSection when PageRankOptions::hw_counters is kOn and the PMU
  /// is accessible; all-zero otherwise.
  HwCounters hw{};

  void merge(const PhaseSample& o);
};

/// What a recorded span covers: a kernel region (init/scatter/gather
/// body) or a barrier wait. Used by the Chrome-trace exporter to give
/// spans distinct categories/colors.
enum class SpanKind : unsigned char { kKernel = 0, kBarrier = 1 };

/// One timeline span on one thread, timestamped against the
/// process-wide steady epoch (steady_uptime_seconds()) so spans from
/// all threads — and log lines — share one clock.
struct SpanEvent {
  double start_seconds = 0.0;
  double dur_seconds = 0.0;
  Phase phase = Phase::kInit;
  SpanKind kind = SpanKind::kKernel;
};

/// One thread's telemetry row. Cache-line padded (alignas rounds
/// sizeof up to the alignment) so two threads recording concurrently
/// never share a line.
struct alignas(kCacheLine) ThreadTimeline {
  std::array<PhaseSample, kNumPhases> phases{};
  /// Per-thread span log (empty unless PhaseTimeline::enable_spans
  /// was called, i.e. a trace file was requested). Appended only by
  /// the owning thread inside the parallel region.
  std::vector<SpanEvent> spans;

  [[nodiscard]] PhaseSample& operator[](Phase p) {
    return phases[static_cast<unsigned>(p)];
  }
  [[nodiscard]] const PhaseSample& operator[](Phase p) const {
    return phases[static_cast<unsigned>(p)];
  }
};

/// Per-run collector: per-thread rows plus phase-region totals and the
/// per-iteration scalars thread 0 publishes. Owned by an engine,
/// reset at the top of every telemetered run.
class PhaseTimeline {
 public:
  /// Phase-region totals recorded by the dispatching context (one
  /// entry per phase kind): region wall time across all invocations
  /// and, on the simulated backend, the DRAM local/remote access
  /// delta of those regions.
  struct RegionTotals {
    double seconds = 0.0;
    std::uint64_t invocations = 0;
    std::uint64_t sim_local_accesses = 0;
    std::uint64_t sim_remote_accesses = 0;
  };

  void reset(unsigned num_threads);

  [[nodiscard]] unsigned num_threads() const {
    return static_cast<unsigned>(threads_.size());
  }
  [[nodiscard]] ThreadTimeline& thread(unsigned t) { return threads_[t]; }
  [[nodiscard]] const ThreadTimeline& thread(unsigned t) const {
    return threads_[t];
  }

  void record_region(Phase p, double seconds, std::uint64_t local = 0,
                     std::uint64_t remote = 0);
  [[nodiscard]] const RegionTotals& region(Phase p) const {
    return regions_[static_cast<unsigned>(p)];
  }

  /// Per-iteration wall seconds. In the single-dispatch run loop only
  /// thread 0 appends (between barriers, exactly like the convergence
  /// scalars it already publishes); in the per-phase path the
  /// dispatching thread appends. Never written concurrently.
  void reserve_iterations(unsigned n) { iteration_seconds_.reserve(n); }
  void record_iteration(double seconds) {
    iteration_seconds_.push_back(seconds);
    if (spans_enabled_) iteration_marks_.push_back(now());
  }
  [[nodiscard]] const std::vector<double>& iteration_seconds() const {
    return iteration_seconds_;
  }

  // -- Span recording (trace export) ---------------------------------
  /// Turn on span collection for this run (called before the parallel
  /// region when a trace file was requested) and pre-reserve each
  /// thread's span log so the hot path never reallocates for typical
  /// runs. Must be called after reset().
  void enable_spans(std::size_t reserve_per_thread = 256);
  [[nodiscard]] bool spans_enabled() const { return spans_enabled_; }

  /// Timestamp source for spans: process-wide steady uptime.
  [[nodiscard]] static double now() { return steady_uptime_seconds(); }

  /// Append a span to thread `t`'s log (owning thread only).
  void record_span(unsigned t, Phase p, SpanKind kind, double start,
                   double dur) {
    threads_[t].spans.push_back(SpanEvent{start, dur, p, kind});
  }

  /// Steady-uptime instants at which each iteration ended (same
  /// cardinality as iteration_seconds when spans are enabled).
  [[nodiscard]] const std::vector<double>& iteration_marks() const {
    return iteration_marks_;
  }

 private:
  std::vector<ThreadTimeline> threads_;
  std::array<RegionTotals, kNumPhases> regions_{};
  std::vector<double> iteration_seconds_;
  std::vector<double> iteration_marks_;
  bool spans_enabled_ = false;
};

/// Compile-time-optional stopwatch: `MaybeTimer<true>` is a Timer,
/// `MaybeTimer<false>` is an empty type whose calls fold away. Keeps
/// `if constexpr` noise out of the engine kernels.
template <bool kEnabled>
class MaybeTimer;

template <>
class MaybeTimer<true> {
 public:
  void reset() { timer_.reset(); }
  [[nodiscard]] double seconds() const { return timer_.seconds(); }

 private:
  Timer timer_;
};

template <>
class MaybeTimer<false> {
 public:
  void reset() {}
  [[nodiscard]] static constexpr double seconds() { return 0.0; }
};

/// Compile-time-optional span recorder, the trace-export counterpart
/// of MaybeTimer. The enabled version captures the steady-uptime
/// start on construction and, in finish(), appends a SpanEvent iff
/// the timeline is collecting spans; the disabled version is empty
/// and folds away — same token-identity guarantee as the rest of the
/// kOff path.
template <bool kEnabled>
class MaybeSpan;

template <>
class MaybeSpan<true> {
 public:
  explicit MaybeSpan(PhaseTimeline& tl) : timeline_(&tl) {
    if (tl.spans_enabled()) start_ = PhaseTimeline::now();
  }
  void finish(unsigned t, Phase p, SpanKind kind) {
    if (!timeline_->spans_enabled()) return;
    const double end = PhaseTimeline::now();
    timeline_->record_span(t, p, kind, start_, end - start_);
  }

 private:
  PhaseTimeline* timeline_;
  double start_ = 0.0;
};

template <>
class MaybeSpan<false> {
 public:
  template <typename... Args>
  explicit MaybeSpan(Args&&...) {}
  void finish(unsigned, Phase, SpanKind) {}
};

// ---------------------------------------------------------------------------
// Aggregated surface (RunReport::telemetry)
// ---------------------------------------------------------------------------

/// One phase kind aggregated over threads: totals, per-thread extrema
/// and the load-imbalance ratio.
struct PhaseAggregate {
  // Per-thread kernel accounting (native backends).
  std::uint64_t invocations = 0;
  std::uint64_t barrier_crossings = 0;
  unsigned participating_threads = 0;  ///< threads with invocations > 0
  double wall_sum_seconds = 0.0;
  double wall_max_seconds = 0.0;
  double wall_min_seconds = 0.0;  ///< over participating threads
  double barrier_sum_seconds = 0.0;
  double barrier_max_seconds = 0.0;
  // Traffic accounting (both backends).
  std::uint64_t messages_produced = 0;
  std::uint64_t messages_consumed = 0;
  std::uint64_t bytes_produced = 0;
  std::uint64_t bytes_consumed = 0;
  // Region accounting (sim: simulated seconds + DRAM split).
  double region_seconds = 0.0;
  std::uint64_t regions = 0;
  std::uint64_t sim_local_accesses = 0;
  std::uint64_t sim_remote_accesses = 0;
  // Hardware counters summed over threads (native + PMU accessible).
  HwCounters hw{};

  [[nodiscard]] double wall_avg_seconds() const {
    return participating_threads == 0
               ? 0.0
               : wall_sum_seconds / participating_threads;
  }
  /// max/avg per-thread kernel time: 1.0 = perfectly balanced, 0 when
  /// no per-thread wall was recorded (sim backend).
  [[nodiscard]] double imbalance() const {
    const double avg = wall_avg_seconds();
    return avg <= 0.0 ? 0.0 : wall_max_seconds / avg;
  }
};

/// The RunReport-facing bundle: per-phase aggregates plus the
/// iteration timeline. Default-constructed (enabled == false,
/// all-zero) for untelemetered runs, so the field costs nothing to
/// carry.
struct RunTelemetry {
  bool enabled = false;
  unsigned threads = 0;
  std::array<PhaseAggregate, kNumPhases> phases{};
  std::vector<double> iteration_seconds;
  // Hardware-counter availability (filled by the engine from its
  // HwProfiler after aggregation; all-false/zero when hw_counters was
  // kOff, the backend is simulated, or perf_event_open was denied).
  bool hw_available = false;    ///< at least one thread's group opened
  unsigned hw_threads = 0;      ///< threads whose group opened
  unsigned hw_event_mask = 0;   ///< union of per-thread kHw* bits
  int hw_errno = 0;             ///< errno of a failed open (0 if none)

  /// Cross-phase totals, memoized once by aggregate() (and by
  /// refresh_totals() for hand-assembled telemetry) so exporters that
  /// poll these per scrape don't rescan the phase table every call.
  struct Totals {
    double wall_seconds = 0.0;
    double barrier_seconds = 0.0;
    std::uint64_t messages_produced = 0;
    std::uint64_t messages_consumed = 0;
  };
  Totals totals{};

  [[nodiscard]] const PhaseAggregate& operator[](Phase p) const {
    return phases[static_cast<unsigned>(p)];
  }
  [[nodiscard]] PhaseAggregate& operator[](Phase p) {
    return phases[static_cast<unsigned>(p)];
  }
  /// Recompute `totals` from `phases`; call after mutating phase
  /// aggregates outside aggregate().
  void refresh_totals();
  [[nodiscard]] double total_wall_seconds() const {
    return totals.wall_seconds;
  }
  [[nodiscard]] double total_barrier_seconds() const {
    return totals.barrier_seconds;
  }
  [[nodiscard]] std::uint64_t total_messages_produced() const {
    return totals.messages_produced;
  }
  [[nodiscard]] std::uint64_t total_messages_consumed() const {
    return totals.messages_consumed;
  }
};

/// Fold the per-thread rows + region totals into the report surface.
[[nodiscard]] RunTelemetry aggregate(const PhaseTimeline& timeline);

}  // namespace hipa::runtime
