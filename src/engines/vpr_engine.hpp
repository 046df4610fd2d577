// v-PR: hand-optimized pull-based vertex-centric engine
// (paper §4.1, "Hand-coded implementation").
//
// Each vertex pulls contributions from its in-neighbors, so "all
// columns of the adjacency matrix are traversed asynchronously in
// parallel without storing the partial sum" — no atomics, no frontier.
// NUMA-oblivious: data interleaves across nodes, threads are unpinned
// per-phase regions. The pull reads `contrib[u]` at random over the
// whole vertex range, which is exactly the cache-hostile pattern the
// partition-centric engines eliminate.
//
// Kernel-generic: the run core is templated on the Kernel concept's
// pull-mode algebra (K::Pull — engines/kernels.hpp), so the same
// contrib/pull structure runs PageRank, PPR, BFS, WCC and SSSP.
// Monotone (frontier) kernels early-stop when an iteration changes no
// vertex value; PageRank-family kernels stop once the L1 rank delta
// drops to RunOptions::tolerance (fixed iteration count when 0).
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
#include "engines/kernels.hpp"
#include "engines/run_scope.hpp"
#include "graph/csr.hpp"
#include "partition/edge_balanced.hpp"

namespace hipa::engine {

struct VprOptions {
  unsigned num_threads = 40;
};

template <class Backend>
class VprEngine {
 public:
  using Mem = typename Backend::Mem;

  VprEngine(const graph::Graph& g, const VprOptions& opt, Backend& backend)
      : graph_(&g), opt_(opt), backend_(&backend) {
    HIPA_CHECK(opt.num_threads >= 1);
    const double t0 = backend.now_seconds();
    const vid_t n = g.num_vertices();

    // Balance the contrib pass by vertices and the pull pass by
    // in-degree (the pull does the per-edge work).
    vertex_chunks_ = even_chunks<vid_t>(n, opt.num_threads);
    pull_chunks_ = part::split_vertices_by_degree(g.in, opt.num_threads);

    // PageRank's slot is built eagerly so the constructor's allocation
    // order matches the historical engine; other kernels build lazily.
    slot<PageRankKernel>();
    backend.register_buffer(g.in.offsets().data(),
                            g.in.offsets().size_bytes(),
                            DataPlacement::kInterleave);
    backend.register_buffer(g.in.targets().data(),
                            g.in.targets().size_bytes(),
                            DataPlacement::kInterleave);

    if constexpr (Backend::kSimulated) {
      // Only the degree extraction pass: v-PR runs straight off the CSR.
      backend.machine().charge_preprocessing(n * sizeof(vid_t) * 2, n);
    }
    preprocessing_seconds_ = backend.now_seconds() - t0;
  }

  /// The engine's one run entry (see PcpmEngine::run<K>).
  template <class K>
  [[nodiscard]] KernelResult<K> run(const typename K::Options& ko,
                                    const RunOptions& ro = {}) {
    KernelResult<K> result;
    result.report = ro.instrumented()
                        ? run_kernel_impl<K, true>(ko, ro, &result.values)
                        : run_kernel_impl<K, false>(ko, ro, &result.values);
    return result;
  }

  /// PageRank shorthand for run<PageRankKernel> with `pr`'s damping.
  [[nodiscard]] RunResult run(const PageRankOptions& pr) {
    auto kr = run<PageRankKernel>({pr.damping}, pr);
    return {std::move(kr.report), std::move(kr.values)};
  }

 private:
  /// Per-kernel pull-engine state: the vertex value array, the
  /// per-vertex contribution array the pull reads, and (PageRank
  /// family) reciprocal out-degrees. All interleaved — v-PR is
  /// NUMA-oblivious by definition.
  template <class K>
  struct VprSlot {
    using TV = typename K::Value;
    AlignedBuffer<TV> value;
    AlignedBuffer<typename K::Message> contrib;
    AlignedBuffer<TV> inv_deg;  ///< only allocated when Pull::kNeedsInv
    std::vector<TV> init;
    std::vector<TV> bias;
    rank_t damping = 0.0f;
  };

  template <class K>
  VprSlot<K>& slot() {
    using TV = typename K::Value;
    const std::type_index key(typeid(K));
    for (auto& [k, p] : slots_) {
      if (k == key) return *static_cast<VprSlot<K>*>(p.get());
    }
    const vid_t n = graph_->num_vertices();
    auto sp = std::make_shared<VprSlot<K>>();
    sp->value =
        backend_->template alloc<TV>(n, DataPlacement::kInterleave);
    sp->contrib = backend_->template alloc<typename K::Message>(
        n, DataPlacement::kInterleave);
    if constexpr (K::Pull::kNeedsInv) {
      // Reciprocal out-degrees (0 for sinks): shared sink semantics,
      // one multiply instead of a guarded divide per vertex per
      // iteration. Cold-path heap allocation by design (cache-line
      // aligned, preprocessing time — below the arena hook's page
      // threshold).
      sp->inv_deg = graph::inverse_degrees<TV>(graph_->out);
      backend_->register_buffer(sp->inv_deg.data(),
                                sp->inv_deg.size() * sizeof(TV),
                                DataPlacement::kInterleave);
    }
    slots_.emplace_back(key, sp);
    return *sp;
  }

  template <class K, bool kTel>
  RunReport run_kernel_impl(const typename K::Options& ko,
                            const RunOptions& ro,
                            std::vector<typename K::Value>* values_out) {
    VprSlot<K>& sl = slot<K>();
    sl.damping = K::Pull::setup(ko, *graph_, sl.init, sl.bias);
    const unsigned max_iters = K::max_iterations(ko, ro);
    ThreadTeamSpec spec;
    spec.num_threads = opt_.num_threads;
    spec.persistent = false;  // per-region fork-join, Algorithm 1 style
    // kRandom deliberately leaves scheduling to the OS: on the native
    // backend this means NO CPU pinning (the paper §3.3.1's
    // OS-managed-threads model), matching the simulator's random
    // placement.
    spec.binding = ThreadTeamSpec::Binding::kRandom;
    RunScope<Backend, kTel> scope(*backend_, timeline_, hwprof_, ro,
                                  opt_.num_threads, max_iters, {2, 4});

    // Iteration region: page-aligned allocations must come from the
    // arena (debug builds assert; all builds count bypasses).
    [[maybe_unused]] std::optional<runtime::HotPathGuard> hot_guard;
    if constexpr (!Backend::kSimulated) hot_guard.emplace();
    backend_->start_team(spec);
    if constexpr (K::kUsesFrontier) {
      changes_.assign(opt_.num_threads, PaddedFlag{});
    }
    const bool track = K::kHasApply && ro.tolerance > 0.0;
    if (track) deltas_.assign(opt_.num_threads, PaddedDouble{});
    scope.phase(runtime::Phase::kInit, [&](unsigned t, Mem& mem) {
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
        runtime::PhaseSample& row =
            timeline_.thread(t)[runtime::Phase::kInit];
        ++row.invocations;
        row.wall_seconds += sw.seconds();
        hwsec.finish(row.hw);
        span.finish(t, runtime::Phase::kInit, runtime::SpanKind::kKernel);
      }
    });
    unsigned iters_done = 0;
    double last_delta = 0.0;
    for (unsigned it = 0; it < max_iters; ++it) {
      [[maybe_unused]] double it0 = 0.0;
      if constexpr (kTel) it0 = backend_->now_seconds();
      // v-PR maps onto the shared phase vocabulary as
      // contrib→scatter (produce per-vertex contributions) and
      // pull→gather (consume one contribution per in-edge).
      scope.phase(runtime::Phase::kScatter, [&](unsigned t, Mem& mem) {
        contrib_pass<K, kTel>(sl, t, mem);
      });
      scope.phase(runtime::Phase::kGather, [&](unsigned t, Mem& mem) {
        if constexpr (K::kUsesFrontier) changes_[t].value = false;
        pull_pass<K, kTel>(sl, t, mem, track ? &deltas_[t].value : nullptr);
      });
      if constexpr (kTel) {
        timeline_.record_iteration(backend_->now_seconds() - it0);
      }
      iters_done = it + 1;
      if constexpr (K::kUsesFrontier) {
        bool any = false;
        for (const PaddedFlag& f : changes_) any = any || f.value;
        if (!any) break;
      } else {
        if (track) {
          last_delta = reduce_deltas(deltas_);
          if (last_delta <= ro.tolerance) break;
        }
      }
    }
    backend_->end_team();

    // v-PR is NUMA-oblivious (interleaved data, no per-buffer owner
    // node), so a placement audit has nothing to verify: the default
    // available=false RunReport::placement_audit stands.
    RunReport report = scope.finish(ro, "v-PR");
    report.preprocessing_seconds = preprocessing_seconds_;
    report.iterations = iters_done;
    report.last_delta = last_delta;
    if (values_out != nullptr) {
      values_out->assign(sl.value.begin(), sl.value.end());
    }
    return report;
  }


 public:
  [[nodiscard]] double preprocessing_seconds() const {
    return preprocessing_seconds_;
  }

 private:
  /// One cache line per thread: per-iteration changed flags for the
  /// monotone kernels' early stop.
  struct alignas(kCacheLine) PaddedFlag {
    bool value = false;
  };

  template <class K, bool kTel>
  void contrib_pass(VprSlot<K>& sl, unsigned t, Mem& mem) {
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

  /// Pull + apply over the thread's in-degree-balanced chunk. When
  /// `delta_out` is non-null (PageRank-family runs tracking
  /// convergence), stores this thread's L1 value change there; the
  /// update arithmetic is identical either way.
  template <class K, bool kTel>
  void pull_pass(VprSlot<K>& sl, unsigned t, Mem& mem, double* delta_out) {
    using TV = typename K::Value;
    using Message = typename K::Message;
    runtime::MaybeTimer<kTel && !Backend::kSimulated> sw;
    runtime::HwSection<kTel && !Backend::kSimulated> hwsec(hwprof_, t);
    runtime::MaybeSpan<kTel && !Backend::kSimulated> span(timeline_);
    sw.reset();
    [[maybe_unused]] std::uint64_t tel_edges = 0;
    [[maybe_unused]] bool any_changed = false;
    const vid_t b = pull_chunks_[t];
    const vid_t e = pull_chunks_[t + 1];
    const graph::CsrGraph& in = graph_->in;
    const eid_t* offsets = in.offsets().data();
    const vid_t* targets = in.targets().data();
    const Message* contrib = sl.contrib.data();
    TV* __restrict value = sl.value.data();
    const rank_t damping = sl.damping;
    const TV* bias = sl.bias.empty() ? nullptr : sl.bias.data();
    mem.stream_read(offsets + b, e - b + 1);
    mem.stream_write(sl.value.data() + b, e - b);
    double l1 = 0.0;
    for (vid_t v = b; v < e; ++v) {
      const eid_t lo = offsets[v];
      const eid_t hi = offsets[v + 1];
      mem.stream_read(targets + lo, hi - lo);
      auto sum = K::Pull::template identity<Message>();
      for (eid_t i = lo; i < hi; ++i) {
        // The defining access: random read over the full vertex range.
        sum = K::Pull::merge(sum, mem.load(contrib + targets[i]));
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
    if (delta_out != nullptr) *delta_out = l1;
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

  const graph::Graph* graph_;
  VprOptions opt_;
  Backend* backend_;
  std::vector<vid_t> vertex_chunks_;
  std::vector<vid_t> pull_chunks_;
  /// Per-kernel value/contrib arrays, keyed by kernel type (PageRank
  /// built in the constructor, others on first use).
  std::vector<std::pair<std::type_index, std::shared_ptr<void>>> slots_;
  /// Per-thread changed flags (monotone kernels' early stop).
  std::vector<PaddedFlag> changes_;
  /// Per-thread L1 convergence partials (only sized when a run tracks
  /// convergence).
  std::vector<PaddedDouble> deltas_;
  /// Per-thread telemetry rows + phase-region totals; reset at the top
  /// of every telemetered run, untouched (empty) otherwise.
  runtime::PhaseTimeline timeline_;
  /// Per-thread perf_event counter groups (native + HwProf::kOn only).
  runtime::HwProfiler hwprof_;
  double preprocessing_seconds_ = 0.0;
};

}  // namespace hipa::engine
