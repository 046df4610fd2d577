// The pull core shared by v-PR (paper §4.1, "Hand-coded
// implementation") and the out-of-core engine: per-kernel vertex
// state, the contrib pass, the pull pass over one destination range,
// and the iteration loop with the kernels' stop rules.
//
// The two engines differ only in where a destination range's in-edges
// come from. v-PR pulls in-degree-balanced chunks of the in-memory
// in-CSR; the out-of-core engine pulls each thread's share of one
// destination-range segment at a time (the pull-side form of
// segmenting). A vertex folds its sources in CSR order either way, so
// the values are bitwise identical for every kernel, however the
// ranges are cut across threads or segments.
//
// Kernel-generic over the Kernel concept's pull-mode algebra (K::Pull
// — engines/kernels.hpp), so the same contrib/pull structure runs
// PageRank, PPR, BFS, WCC and SSSP. Monotone (frontier) kernels stop
// once an iteration changes no vertex value; PageRank-family kernels
// stop once the L1 value delta drops to RunOptions::tolerance (a fixed
// iteration count when 0).
#pragma once

#include <cmath>
#include <memory>
#include <optional>
#include <typeindex>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "engines/backend.hpp"
#include "engines/run_scope.hpp"
#include "graph/csr.hpp"

namespace hipa::engine {

/// Per-kernel pull state: the vertex value array, the per-vertex
/// contribution array the pull reads, and (PageRank family)
/// reciprocal out-degrees, all under the core's one NUMA-oblivious
/// placement.
template <class K>
struct PullSlot {
  using TV = typename K::Value;
  AlignedBuffer<TV> value;
  AlignedBuffer<typename K::Message> contrib;
  AlignedBuffer<TV> inv_deg;  ///< only allocated when Pull::kNeedsInv
  std::vector<TV> init;
  std::vector<TV> bias;
  rank_t damping = 0.0f;
};

template <class Backend>
class PullCore {
 public:
  using Mem = typename Backend::Mem;

  /// `placement` is kInterleave for v-PR (the paper's baseline) and
  /// kScatter, plain first touch, for the out-of-core engine, whose
  /// vertex pages then commit only when a run writes them.
  PullCore(Backend& backend, vid_t n, unsigned threads,
           DataPlacement placement)
      : backend_(&backend), n_(n), placement_(placement) {
    HIPA_CHECK(threads >= 1);
    vertex_chunks_ = even_chunks<vid_t>(n, threads);
  }

  /// Kernel K's slot, built on first use. `out_degree(v)` is v's
  /// out-degree (PageRank family only).
  template <class K, class OutDegree>
  PullSlot<K>& slot(OutDegree&& out_degree) {
    using TV = typename K::Value;
    const std::type_index key(typeid(K));
    for (auto& [k, p] : slots_) {
      if (k == key) return *static_cast<PullSlot<K>*>(p.get());
    }
    auto sp = std::make_shared<PullSlot<K>>();
    sp->value = backend_->template alloc<TV>(n_, placement_);
    sp->contrib =
        backend_->template alloc<typename K::Message>(n_, placement_);
    if constexpr (K::Pull::kNeedsInv) {
      // Reciprocal out-degrees (0 for sinks): shared sink semantics,
      // one multiply instead of a guarded divide per vertex per
      // iteration.
      sp->inv_deg = backend_->template alloc<TV>(n_, placement_);
      graph::fill_inverse_degrees(sp->inv_deg.span(), out_degree);
    }
    slots_.emplace_back(key, sp);
    return *sp;
  }

  /// One run of kernel K on `sl`: the shared run scaffold (RunScope,
  /// team, init) around the iteration loop and K's stop rule. Each
  /// iteration runs the contrib pass (Phase::kScatter), then
  /// `gather(scope)`, which dispatches pull_pass over the engine's
  /// destination ranges (Phase::kGather). v-PR maps onto the shared
  /// phase vocabulary as contrib→scatter (produce per-vertex
  /// contributions) and pull→gather (consume one contribution per
  /// in-edge). If `gather` throws, the team ends before the exception
  /// leaves, so the backend can run again. The engine adds its
  /// preprocessing time to the report.
  template <class K, bool kTel, class Gather>
  RunReport run(PullSlot<K>& sl, const typename K::Options& ko,
                const RunOptions& ro, const ThreadTeamSpec& spec,
                SpanBudget spans, const char* label, Gather&& gather,
                std::vector<typename K::Value>* values_out) {
    sl.damping = K::Pull::setup(ko, n_, sl.init, sl.bias);
    const unsigned max_iters = K::max_iterations(ko, ro);
    const unsigned threads = spec.num_threads;
    RunScope<Backend, kTel> scope(*backend_, timeline_, hwprof_, ro, threads,
                                  max_iters, spans);

    // Iteration region: page-aligned allocations must come from the
    // arena (debug builds assert; all builds count bypasses).
    [[maybe_unused]] std::optional<runtime::HotPathGuard> hot_guard;
    if constexpr (!Backend::kSimulated) hot_guard.emplace();
    backend_->start_team(spec);
    if constexpr (K::kUsesFrontier) {
      changes_.assign(threads, PaddedFlag{});
    }
    track_ = K::kHasApply && ro.tolerance > 0.0;
    if (track_) deltas_.assign(threads, PaddedDouble{});
    unsigned iterations = 0;
    double last_delta = 0.0;
    try {
      scope.phase(runtime::Phase::kInit, [&](unsigned t, Mem& mem) {
        init_pass<K, kTel>(sl, t, mem);
      });
      for (unsigned it = 0; it < max_iters; ++it) {
        [[maybe_unused]] double it0 = 0.0;
        if constexpr (kTel) it0 = backend_->now_seconds();
        scope.phase(runtime::Phase::kScatter, [&](unsigned t, Mem& mem) {
          contrib_pass<K, kTel>(sl, t, mem);
        });
        if constexpr (K::kUsesFrontier) {
          for (PaddedFlag& f : changes_) f.value = false;
        }
        if (track_) {
          for (PaddedDouble& d : deltas_) d.value = 0.0;
        }
        gather(scope);
        if constexpr (kTel) {
          timeline_.record_iteration(backend_->now_seconds() - it0);
        }
        iterations = it + 1;
        if constexpr (K::kUsesFrontier) {
          bool any = false;
          for (const PaddedFlag& f : changes_) any = any || f.value;
          if (!any) break;
        } else {
          if (track_) {
            last_delta = reduce_deltas(deltas_);
            if (last_delta <= ro.tolerance) break;
          }
        }
      }
    } catch (...) {
      backend_->end_team();
      throw;
    }
    backend_->end_team();

    RunReport report = scope.finish(ro, label);
    report.iterations = iterations;
    report.last_delta = last_delta;
    if (values_out != nullptr) {
      values_out->assign(sl.value.begin(), sl.value.end());
    }
    return report;
  }

  /// Pull + apply over the destinations [b, e): vertex v's in-edges
  /// are sources[offsets[v - b]] .. sources[offsets[v - b + 1] - 1].
  /// Adds the range's L1 value change to thread t's convergence
  /// partial when the run tracks one (the update arithmetic is
  /// identical either way) and flags t changed for frontier kernels.
  template <class K, bool kTel>
  void pull_pass(PullSlot<K>& sl, unsigned t, Mem& mem, vid_t b, vid_t e,
                 const eid_t* offsets, const vid_t* sources) {
    using TV = typename K::Value;
    using Message = typename K::Message;
    runtime::MaybeTimer<kTel && !Backend::kSimulated> sw;
    runtime::HwSection<kTel && !Backend::kSimulated> hwsec(hwprof_, t);
    runtime::MaybeSpan<kTel && !Backend::kSimulated> span(timeline_);
    sw.reset();
    [[maybe_unused]] std::uint64_t tel_edges = 0;
    [[maybe_unused]] bool any_changed = false;
    const Message* contrib = sl.contrib.data();
    TV* __restrict value = sl.value.data();
    const rank_t damping = sl.damping;
    const TV* bias = sl.bias.empty() ? nullptr : sl.bias.data();
    double* const delta_out = track_ ? &deltas_[t].value : nullptr;
    mem.stream_read(offsets, e - b + 1);
    mem.stream_write(sl.value.data() + b, e - b);
    double l1 = 0.0;
    for (vid_t v = b; v < e; ++v) {
      const eid_t lo = offsets[v - b];
      const eid_t hi = offsets[v - b + 1];
      mem.stream_read(sources + lo, hi - lo);
      auto sum = K::Pull::template identity<Message>();
      for (eid_t i = lo; i < hi; ++i) {
        // The defining access: random read over the full vertex range.
        sum = K::Pull::merge(sum, mem.load(contrib + sources[i]));
      }
      const TV next =
          K::Pull::apply(value[v], sum, bias ? bias[v] : TV{}, damping);
      if constexpr (K::kUsesFrontier) {
        any_changed = any_changed || next != value[v];
      }
      if (delta_out != nullptr) {
        l1 += std::fabs(static_cast<double>(next) -
                        static_cast<double>(value[v]));
      }
      value[v] = next;
      mem.work(hi - lo + 2);
      if constexpr (kTel) tel_edges += hi - lo;
    }
    if constexpr (K::kUsesFrontier) {
      if (any_changed) changes_[t].value = true;
    }
    if (delta_out != nullptr) *delta_out += l1;
    if constexpr (kTel) {
      runtime::PhaseSample& row =
          timeline_.thread(t)[runtime::Phase::kGather];
      ++row.invocations;
      row.wall_seconds += sw.seconds();
      row.messages_consumed += tel_edges;
      row.bytes_consumed += tel_edges * sizeof(Message);
      hwsec.finish(row.hw);
      span.finish(t, runtime::Phase::kGather, runtime::SpanKind::kKernel);
    }
  }

  [[nodiscard]] runtime::PhaseTimeline& timeline() { return timeline_; }

 private:
  /// One cache line per thread: per-iteration changed flags for the
  /// monotone kernels' early stop.
  struct alignas(kCacheLine) PaddedFlag {
    bool value = false;
  };

  template <class K, bool kTel>
  void init_pass(PullSlot<K>& sl, unsigned t, Mem& mem) {
    runtime::MaybeTimer<kTel && !Backend::kSimulated> sw;
    runtime::HwSection<kTel && !Backend::kSimulated> hwsec(hwprof_, t);
    runtime::MaybeSpan<kTel && !Backend::kSimulated> span(timeline_);
    sw.reset();
    const vid_t b = vertex_chunks_[t];
    const vid_t e = vertex_chunks_[t + 1];
    mem.stream_write(sl.value.data() + b, e - b);
    for (vid_t v = b; v < e; ++v) sl.value.data()[v] = sl.init[v];
    mem.work(e - b);
    if constexpr (kTel) {
      runtime::PhaseSample& row = timeline_.thread(t)[runtime::Phase::kInit];
      ++row.invocations;
      row.wall_seconds += sw.seconds();
      hwsec.finish(row.hw);
      span.finish(t, runtime::Phase::kInit, runtime::SpanKind::kKernel);
    }
  }

  template <class K, bool kTel>
  void contrib_pass(PullSlot<K>& sl, unsigned t, Mem& mem) {
    using TV = typename K::Value;
    runtime::MaybeTimer<kTel && !Backend::kSimulated> sw;
    runtime::HwSection<kTel && !Backend::kSimulated> hwsec(hwprof_, t);
    runtime::MaybeSpan<kTel && !Backend::kSimulated> span(timeline_);
    sw.reset();
    const vid_t b = vertex_chunks_[t];
    const vid_t e = vertex_chunks_[t + 1];
    mem.stream_read(sl.value.data() + b, e - b);
    if constexpr (K::Pull::kNeedsInv) {
      mem.stream_read(sl.inv_deg.data() + b, e - b);
    }
    mem.stream_write(sl.contrib.data() + b, e - b);
    const TV* __restrict value = sl.value.data();
    typename K::Message* __restrict contrib = sl.contrib.data();
    if constexpr (K::Pull::kNeedsInv) {
      const TV* __restrict inv = sl.inv_deg.data();
      // Branchless (sinks have inv == 0) and autovectorizable.
      for (vid_t v = b; v < e; ++v) {
        contrib[v] = K::Pull::contrib(value[v], inv[v], v);
      }
    } else {
      for (vid_t v = b; v < e; ++v) {
        contrib[v] = K::Pull::contrib(value[v], TV{}, v);
      }
    }
    mem.work(e - b);
    if constexpr (kTel) {
      runtime::PhaseSample& row =
          timeline_.thread(t)[runtime::Phase::kScatter];
      ++row.invocations;
      row.wall_seconds += sw.seconds();
      row.messages_produced += e - b;
      row.bytes_produced +=
          std::uint64_t{e - b} * sizeof(typename K::Message);
      hwsec.finish(row.hw);
      span.finish(t, runtime::Phase::kScatter, runtime::SpanKind::kKernel);
    }
  }

  Backend* backend_;
  vid_t n_;
  DataPlacement placement_;
  /// Even vertex split for the init and contrib passes.
  std::vector<vid_t> vertex_chunks_;
  /// Per-kernel slots, keyed by kernel type (built on first use).
  std::vector<std::pair<std::type_index, std::shared_ptr<void>>> slots_;
  /// Per-thread changed flags (monotone kernels' early stop).
  std::vector<PaddedFlag> changes_;
  /// Per-thread L1 convergence partials (only sized when a run tracks
  /// convergence).
  std::vector<PaddedDouble> deltas_;
  bool track_ = false;
  /// Per-thread telemetry rows + phase-region totals; reset at the top
  /// of every telemetered run, untouched (empty) otherwise.
  runtime::PhaseTimeline timeline_;
  /// Per-thread perf_event counter groups (native + HwProf::kOn only).
  runtime::HwProfiler hwprof_;
};

}  // namespace hipa::engine
