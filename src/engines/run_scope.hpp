// Run scaffolding shared by the engines: the per-thread convergence
// partials, phase-region accounting around one backend dispatch, and
// the prologue/epilogue every in-core engine wraps around its
// iteration loop (telemetry buffers, measured interval, simulated
// counter delta, hw counter status, trace file, arena snapshot).
// Nothing here runs inside a per-thread kernel.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>

#include "common/logging.hpp"
#include "engines/backend.hpp"
#include "runtime/trace.hpp"

namespace hipa::engine {

/// One cache line per thread so convergence partials never
/// false-share.
struct alignas(kCacheLine) PaddedDouble {
  double value = 0.0;
};

/// Thread-index-order sum of the per-thread L1 partials. Every engine
/// and execution path reduces in the same order, so the early-stop
/// decision is deterministic.
[[nodiscard]] inline double reduce_deltas(
    std::span<const PaddedDouble> partials) {
  double sum = 0.0;
  for (const PaddedDouble& d : partials) sum += d.value;
  return sum;
}

/// Wrap one phase() dispatch in region accounting: region wall time
/// (simulated seconds on SimBackend, host seconds on native) plus, on
/// the simulated backend, the DRAM local/remote access delta the
/// region produced. The kTel = false instantiation is exactly
/// `backend.phase(kernel)`.
template <bool kTel, class Backend, class F>
void timed_phase(Backend& backend, runtime::PhaseTimeline& timeline,
                 runtime::Phase ph, F&& kernel) {
  if constexpr (!kTel) {
    backend.phase(std::forward<F>(kernel));
  } else {
    [[maybe_unused]] sim::SimStats s0;
    if constexpr (Backend::kSimulated) s0 = backend.machine().stats();
    const double t0 = backend.now_seconds();
    backend.phase(std::forward<F>(kernel));
    const double dt = backend.now_seconds() - t0;
    if constexpr (Backend::kSimulated) {
      const sim::SimStats d = backend.machine().stats() - s0;
      timeline.record_region(ph, dt, d.dram_local_accesses,
                             d.dram_remote_accesses);
    } else {
      timeline.record_region(ph, dt);
    }
  }
}

/// Trace span budget of one run: `per_iteration` spans per thread per
/// iteration plus `extra` (init, barriers outside the loop).
struct SpanBudget {
  std::size_t per_iteration = 0;
  std::size_t extra = 0;
};

/// One engine run's scaffold. Construction is the prologue: it resets
/// the telemetry timeline (kTel), provisions hw counter groups and
/// trace span buffers (native backends), and starts the measured
/// interval. finish() is the epilogue and returns the report fields
/// every engine fills the same way; the engine adds iterations,
/// last_delta, preprocessing time and its placement audit.
template <class Backend, bool kTel>
class RunScope {
 public:
  RunScope(Backend& backend, runtime::PhaseTimeline& timeline,
           runtime::HwProfiler& hwprof, const RunOptions& ro,
           unsigned threads, unsigned max_iters, SpanBudget spans)
      : backend_(&backend), timeline_(&timeline), hwprof_(&hwprof) {
    if constexpr (kTel) {
      const unsigned iters = std::min(max_iters, 4096u);
      timeline.reset(threads);
      timeline.reserve_iterations(iters);
      if constexpr (!Backend::kSimulated) {
        // Hardware counters + trace spans are host-side concepts; the
        // simulated backend keeps its modeled counters instead.
        hwprof.reset(threads, ro.hw_counters == runtime::HwProf::kOn);
        if (!ro.trace_path.empty()) {
          timeline.enable_spans(spans.per_iteration * iters + spans.extra);
        }
      }
    }
    if constexpr (Backend::kSimulated) before_ = backend.machine().stats();
    t0_ = backend.now_seconds();
  }

  /// timed_phase on this run's backend and timeline.
  template <class F>
  void phase(runtime::Phase ph, F&& kernel) {
    timed_phase<kTel>(*backend_, *timeline_, ph, std::forward<F>(kernel));
  }

  /// Close the measured interval (call after end_team()) and collect
  /// the run's counters, telemetry and trace. `label` names the engine
  /// in the trace file.
  [[nodiscard]] RunReport finish(const RunOptions& ro,
                                 const char* label) const {
    RunReport report;
    report.seconds = backend_->now_seconds() - t0_;
    if constexpr (Backend::kSimulated) {
      report.stats = backend_->machine().stats() - before_;
    }
    if constexpr (kTel) {
      report.telemetry = runtime::aggregate(*timeline_);
      if constexpr (!Backend::kSimulated) {
        runtime::HwProfiler& hw = *hwprof_;
        if (ro.hw_counters == runtime::HwProf::kOn) {
          report.telemetry.hw_available = hw.any_open();
          report.telemetry.hw_threads = hw.open_threads();
          report.telemetry.hw_event_mask = hw.event_mask();
          if (!report.telemetry.hw_available && hw.num_threads() > 0) {
            report.telemetry.hw_errno = hw.group(0).last_errno();
          }
        }
        if (!ro.trace_path.empty() &&
            !trace::ChromeTraceWriter::write(ro.trace_path, *timeline_,
                                             label)) {
          HIPA_WARN("trace write failed: " << ro.trace_path);
        }
      }
    }
    if constexpr (!Backend::kSimulated) {
      report.arena = backend_->arena_stats();
    }
    return report;
  }

 private:
  Backend* backend_;
  runtime::PhaseTimeline* timeline_;
  runtime::HwProfiler* hwprof_;
  sim::SimStats before_;
  double t0_ = 0.0;
};

}  // namespace hipa::engine
