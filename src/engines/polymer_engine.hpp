// Polymer-style engine: NUMA-aware vertex-centric framework model
// (paper ref [38], used as the NUMA-aware framework baseline).
//
// Faithful to Polymer's published design at the methodology level:
//  * vertices are edge-balanced across NUMA nodes; each node holds the
//    in-edges of its own vertices, split per *source* node so a pull
//    sub-pass touches only one source node's contribution range
//    (Polymer's NUMA-aware data layout);
//  * per-node replicas of the contribution vector are rebuilt every
//    iteration (co-locating reads with the reading node, at the price
//    of N× write traffic — why Polymer's total MApE is high while its
//    remote share is the lowest, paper Fig. 5);
//  * frontier (vertex subset) machinery runs even though PageRank
//    keeps every vertex active — the framework tax the paper measures;
//  * persistent threads bound to nodes (Polymer is pthread-based and
//    NUMA-aware).
//
// Kernel-generic: the replicate/pull core is templated on the Kernel
// concept's pull-mode algebra (K::Pull — engines/kernels.hpp). The
// framework's vertex values use K::Pull::PolymerValue (double for the
// PageRank family — Ligra/Polymer compute in double precision, twice
// the attribute traffic of the hand-coded float engines) and the fold
// accumulator uses K::Pull::Acc. Additive kernels combine sub-pass
// folds with Ligra's writeAdd (CAS loop even when uncontended) and stop
// once the L1 value delta drops to RunOptions::tolerance; monotone
// kernels combine with writeMin and early-stop once an iteration
// changes nothing.
#pragma once

#include <cmath>
#include <memory>
#include <optional>
#include <string>
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

struct PolymerOptions {
  unsigned num_threads = 40;
  unsigned num_nodes = 2;
};

template <class Backend>
class PolymerEngine {
 public:
  using Mem = typename Backend::Mem;

  PolymerEngine(const graph::Graph& g, const PolymerOptions& opt,
                Backend& backend)
      : graph_(&g), opt_(opt), backend_(&backend) {
    HIPA_CHECK(opt.num_threads >= opt.num_nodes && opt.num_nodes >= 1);
    const double t0 = backend.now_seconds();
    build_layout();
    if constexpr (Backend::kSimulated) {
      const eid_t e = graph_->num_edges();
      // Sub-CSC construction: two passes over the in-edges plus the
      // replica allocations.
      backend.machine().charge_preprocessing(
          e * 12 + std::uint64_t{graph_->num_vertices()} * 4 * opt.num_nodes,
          e * 5);
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
  /// Framework indirection costs (user-function dispatch per edge,
  /// frontier membership checks, CAS-based vertex updates — paper
  /// §4.3: "suffering from atomic operations, low graph locality and
  /// irregular memory accesses").
  static constexpr std::uint32_t kFrameworkCyclesPerEdge = 40;
  static constexpr std::uint32_t kFrameworkCyclesPerVertex = 16;

  /// Per-kernel framework state: node-sliced vertex values and fold
  /// accumulators plus one full contribution replica per node. The
  /// frontier double-buffer is kernel-independent (engine-level).
  template <class K>
  struct PolySlot {
    using TV = typename K::Pull::PolymerValue;
    using Acc = typename K::Pull::Acc;
    AlignedBuffer<TV> value;
    AlignedBuffer<TV> inv_deg;  ///< only allocated when Pull::kNeedsInv
    AlignedBuffer<Acc> acc;
    std::vector<AlignedBuffer<typename K::Message>> replicas;
    std::vector<TV> init;
    std::vector<TV> bias;
    rank_t damping = 0.0f;
    double prep_seconds = 0.0;
  };

  template <class K>
  PolySlot<K>& slot() {
    using TV = typename K::Pull::PolymerValue;
    using Acc = typename K::Pull::Acc;
    const std::type_index key(typeid(K));
    for (auto& [k, p] : slots_) {
      if (k == key) return *static_cast<PolySlot<K>*>(p.get());
    }
    const double t0 = backend_->now_seconds();
    const vid_t n = graph_->num_vertices();
    const unsigned nodes = opt_.num_nodes;
    auto sp = std::make_shared<PolySlot<K>>();

    // Attribute arrays: page-aligned arena carves, sliced onto the
    // owning node below. Reciprocal degrees stay in the framework's
    // value precision (shared sink semantics: 0 for sinks, multiply
    // instead of guarded divide) and on the plain heap — cache-line
    // aligned cold-path preprocessing output.
    sp->value = backend_->template alloc_pages<TV>(n);
    if constexpr (K::Pull::kNeedsInv) {
      sp->inv_deg = graph::inverse_degrees<TV>(graph_->out);
    }
    sp->acc = backend_->template alloc_pages<Acc>(n);
    const bool own_frontier = frontier_.data() == nullptr;
    if (own_frontier) {
      frontier_ = backend_->template alloc_pages<std::uint8_t>(n);
      next_frontier_ = backend_->template alloc_pages<std::uint8_t>(n);
    }
    for (vid_t v = 0; v < n; ++v) {
      sp->acc[v] = K::Pull::template identity<Acc>();
    }
    for (unsigned nd = 0; nd < nodes; ++nd) {
      const vid_t b = node_bounds_[nd];
      const vid_t sz = node_bounds_[nd + 1] - b;
      backend_->register_buffer(sp->value.data() + b, sz * sizeof(TV),
                                DataPlacement::kNode, nd);
      if constexpr (K::Pull::kNeedsInv) {
        backend_->register_buffer(sp->inv_deg.data() + b, sz * sizeof(TV),
                                  DataPlacement::kNode, nd);
      }
      backend_->register_buffer(sp->acc.data() + b, sz * sizeof(Acc),
                                DataPlacement::kNode, nd);
      if (own_frontier) {
        backend_->register_buffer(frontier_.data() + b, sz,
                                  DataPlacement::kNode, nd);
        backend_->register_buffer(next_frontier_.data() + b, sz,
                                  DataPlacement::kNode, nd);
      }
    }

    // Full contribution replica per node, local to its readers.
    for (unsigned nd = 0; nd < nodes; ++nd) {
      sp->replicas.push_back(backend_->template alloc<typename K::Message>(
          n, DataPlacement::kNode, nd));
    }
    sp->prep_seconds = backend_->now_seconds() - t0;
    slots_.emplace_back(key, sp);
    return *sp;
  }

  template <class K, bool kTel>
  RunReport run_kernel_impl(const typename K::Options& ko,
                            const RunOptions& ro,
                            std::vector<typename K::Value>* values_out) {
    const vid_t n = graph_->num_vertices();
    PolySlot<K>& sl = slot<K>();
    sl.damping = K::Pull::setup(ko, n, sl.init, sl.bias);
    const unsigned max_iters = K::max_iterations(ko, ro);
    ThreadTeamSpec spec;
    spec.num_threads = opt_.num_threads;
    spec.persistent = true;
    // Node-blocked + persistent: on the native backend this now pins
    // worker t to a CPU of its node (Polymer is pthread-based and
    // NUMA-aware); thread ids are grouped per node in the same order
    // as threads_per_node_, matching thread_vertex_bounds_.
    spec.binding = ThreadTeamSpec::Binding::kNodeBlocked;
    spec.threads_per_node = threads_per_node_;
    RunScope<Backend, kTel> scope(*backend_, timeline_, hwprof_, ro,
                                  opt_.num_threads, max_iters,
                                  {1 + std::size_t{opt_.num_nodes}, 4});

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
      const vid_t b = thread_vertex_bounds_[t];
      const vid_t e = thread_vertex_bounds_[t + 1];
      mem.stream_write(sl.value.data() + b, e - b);
      mem.stream_write(frontier_.data() + b, e - b);
      for (vid_t v = b; v < e; ++v) {
        sl.value[v] = sl.init[v];
        frontier_[v] = 1;
      }
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
      // Polymer maps onto the shared phase vocabulary as
      // replicate→scatter (produce per-node contribution replicas)
      // and pull→gather (consume one replica entry per in-edge).
      scope.phase(runtime::Phase::kScatter, [&](unsigned t, Mem& mem) {
        replicate_pass<K, kTel>(sl, t, mem);
      });
      for (unsigned m = 0; m < opt_.num_nodes; ++m) {
        const bool last = (m + 1 == opt_.num_nodes);
        scope.phase(runtime::Phase::kGather, [&](unsigned t, Mem& mem) {
          pull_pass<K, kTel>(sl, t, mem, m, last,
                             track ? &deltas_[t].value : nullptr);
        });
      }
      // The frontier double-buffer flips once per iteration (framework
      // behavior; contents are all-ones regardless of kernel).
      std::swap(frontier_, next_frontier_);
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

    RunReport report = scope.finish(ro, "Polymer");
    report.preprocessing_seconds = preprocessing_seconds_ + sl.prep_seconds;
    report.iterations = iters_done;
    report.last_delta = last_delta;
    if constexpr (!Backend::kSimulated) {
      if (ro.audit_placement) {
        report.placement_audit = run_placement_audit<K>(sl);
      }
    }
    if (values_out != nullptr) {
      values_out->resize(n);
      for (vid_t v = 0; v < n; ++v) {
        (*values_out)[v] = static_cast<typename K::Value>(sl.value[v]);
      }
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

  void build_layout() {
    const graph::Graph& g = *graph_;
    const unsigned nodes = opt_.num_nodes;

    threads_per_node_.assign(nodes, 0);
    for (unsigned t = 0; t < opt_.num_threads; ++t) {
      ++threads_per_node_[t % nodes];
    }

    // Node vertex ranges, balanced by in-degree (pull-side work).
    node_bounds_ = part::split_vertices_by_degree(g.in, nodes);

    // Per-thread ranges nested inside the node ranges: vertex-balanced
    // for streaming passes, in-degree-balanced for the pull.
    thread_vertex_bounds_.assign(1, 0);
    thread_pull_bounds_.assign(1, 0);
    unsigned t = 0;
    for (unsigned nd = 0; nd < nodes; ++nd) {
      const vid_t b = node_bounds_[nd];
      const vid_t e = node_bounds_[nd + 1];
      const auto even = even_chunks<vid_t>(e - b, threads_per_node_[nd]);
      std::vector<std::uint64_t> weights(e - b);
      for (vid_t v = b; v < e; ++v) weights[v - b] = g.in.degree(v);
      const auto pull =
          part::split_weighted(weights, threads_per_node_[nd]);
      for (unsigned k = 1; k <= threads_per_node_[nd]; ++k, ++t) {
        thread_vertex_bounds_.push_back(b + even[k]);
        thread_pull_bounds_.push_back(b + pull[k]);
      }
    }

    // PageRank's slot is built eagerly so the constructor's allocation
    // and registration order matches the historical engine (value,
    // inv_deg, acc, frontier pair, per-node slices, replicas); other
    // kernels build lazily on first run.
    slot<PageRankKernel>().prep_seconds = 0.0;

    // Sub-CSCs: for destination node nd and source node m, the
    // in-edges of nd's vertices whose source lies in m's range.
    // Offsets are local to nd's vertex range. Kernel-independent:
    // every kernel pulls over the same per-node layout.
    sub_offsets_.clear();
    sub_offsets_.resize(std::size_t{nodes} * nodes);
    sub_targets_.clear();
    sub_targets_.resize(std::size_t{nodes} * nodes);
    for (unsigned nd = 0; nd < nodes; ++nd) {
      const vid_t b = node_bounds_[nd];
      const vid_t e = node_bounds_[nd + 1];
      for (unsigned m = 0; m < nodes; ++m) {
        auto& offs = sub_offsets_[nd * nodes + m];
        offs = backend_->template alloc_pages<eid_t>(std::size_t{e - b} + 1);
        offs.fill_zero();
      }
      for (vid_t v = b; v < e; ++v) {
        for (vid_t u : g.in.neighbors(v)) {
          const unsigned m = node_of_vertex(u);
          ++sub_offsets_[nd * nodes + m][v - b + 1];
        }
      }
      for (unsigned m = 0; m < nodes; ++m) {
        auto& offs = sub_offsets_[nd * nodes + m];
        for (vid_t i = 1; i <= e - b; ++i) offs[i] += offs[i - 1];
        auto& tgts = sub_targets_[nd * nodes + m];
        tgts = backend_->template alloc_pages<vid_t>(offs[e - b]);
      }
      std::vector<eid_t> cursor(nodes, 0);
      for (vid_t v = b; v < e; ++v) {
        for (unsigned m = 0; m < nodes; ++m) {
          cursor[m] = sub_offsets_[nd * nodes + m][v - b];
        }
        for (vid_t u : g.in.neighbors(v)) {
          const unsigned m = node_of_vertex(u);
          sub_targets_[nd * nodes + m][cursor[m]++] = u;
        }
      }
      for (unsigned m = 0; m < nodes; ++m) {
        backend_->register_buffer(
            sub_offsets_[nd * nodes + m].data(),
            sub_offsets_[nd * nodes + m].size() * sizeof(eid_t),
            DataPlacement::kNode, nd);
        backend_->register_buffer(
            sub_targets_[nd * nodes + m].data(),
            sub_targets_[nd * nodes + m].size() * sizeof(vid_t),
            DataPlacement::kNode, nd);
      }
    }
  }

  /// Verify the per-node placement slot() asked for: each node's slice
  /// of the attribute arrays plus its full contribution replica.
  template <class K>
  [[nodiscard]] numa::PlacementAudit run_placement_audit(
      const PolySlot<K>& sl) const {
    using TV = typename K::Pull::PolymerValue;
    using Acc = typename K::Pull::Acc;
    numa::PlacementAuditor auditor;
    backend_->register_arena(auditor);
    for (unsigned nd = 0; nd < opt_.num_nodes; ++nd) {
      const vid_t b = node_bounds_[nd];
      const vid_t sz = node_bounds_[nd + 1] - b;
      const std::string tag = "[node" + std::to_string(nd) + "]";
      auditor.add("rank" + tag, sl.value.data() + b, sz * sizeof(TV), nd);
      auditor.add("acc" + tag, sl.acc.data() + b, sz * sizeof(Acc), nd);
      auditor.add("replica" + tag, sl.replicas[nd].data(),
                  sl.replicas[nd].size() * sizeof(typename K::Message), nd);
    }
    return auditor.audit();
  }

  [[nodiscard]] unsigned node_of_vertex(vid_t v) const {
    for (unsigned nd = 0; nd < opt_.num_nodes; ++nd) {
      if (v < node_bounds_[nd + 1]) return nd;
    }
    return opt_.num_nodes - 1;
  }

  [[nodiscard]] unsigned node_of_thread(unsigned t) const {
    unsigned first = 0;
    for (unsigned nd = 0; nd < opt_.num_nodes; ++nd) {
      first += threads_per_node_[nd];
      if (t < first) return nd;
    }
    return opt_.num_nodes - 1;
  }

  /// Compute contributions for the thread's own vertices and push them
  /// into every node's replica (Polymer's per-iteration replication).
  template <class K, bool kTel>
  void replicate_pass(PolySlot<K>& sl, unsigned t, Mem& mem) {
    using TV = typename K::Pull::PolymerValue;
    using Message = typename K::Message;
    runtime::MaybeTimer<kTel && !Backend::kSimulated> sw;
    runtime::HwSection<kTel && !Backend::kSimulated> hwsec(hwprof_, t);
    runtime::MaybeSpan<kTel && !Backend::kSimulated> span(timeline_);
    sw.reset();
    const vid_t b = thread_vertex_bounds_[t];
    const vid_t e = thread_vertex_bounds_[t + 1];
    mem.stream_read(sl.value.data() + b, e - b);
    if constexpr (K::Pull::kNeedsInv) {
      mem.stream_read(sl.inv_deg.data() + b, e - b);
    }
    mem.stream_read(frontier_.data() + b, e - b);
    for (unsigned nd = 0; nd < opt_.num_nodes; ++nd) {
      mem.stream_write(sl.replicas[nd].data() + b, e - b);
    }
    for (vid_t v = b; v < e; ++v) {
      // Branchless: inv_deg is exactly 0 for sinks.
      const Message c = [&] {
        if constexpr (K::Pull::kNeedsInv) {
          return K::Pull::contrib(sl.value[v], sl.inv_deg[v], v);
        } else {
          return K::Pull::contrib(sl.value[v], TV{}, v);
        }
      }();
      for (unsigned nd = 0; nd < opt_.num_nodes; ++nd) {
        sl.replicas[nd][v] = c;
      }
    }
    mem.work(std::uint64_t{e - b} *
             (2 + kFrameworkCyclesPerVertex));
    if constexpr (kTel) {
      runtime::PhaseSample& row =
          timeline_.thread(t)[runtime::Phase::kScatter];
      ++row.invocations;
      row.wall_seconds += sw.seconds();
      // One contribution per vertex per replica (the N× write traffic
      // that defines Polymer's replication cost).
      const std::uint64_t msgs =
          std::uint64_t{e - b} * opt_.num_nodes;
      row.messages_produced += msgs;
      row.bytes_produced += msgs * sizeof(Message);
      hwsec.finish(row.hw);
      span.finish(t, runtime::Phase::kScatter, runtime::SpanKind::kKernel);
    }
  }

  /// One source-node sub-pass of the pull; the last sub-pass applies
  /// the vertex update and refreshes the frontier. When `delta_out` is
  /// non-null (PageRank-family runs tracking convergence), the last
  /// sub-pass stores this thread's L1 value change there; the update
  /// arithmetic is identical either way.
  template <class K, bool kTel>
  void pull_pass(PolySlot<K>& sl, unsigned t, Mem& mem, unsigned m,
                 bool last, double* delta_out) {
    using TV = typename K::Pull::PolymerValue;
    using Acc = typename K::Pull::Acc;
    using Message = typename K::Message;
    runtime::MaybeTimer<kTel && !Backend::kSimulated> sw;
    runtime::HwSection<kTel && !Backend::kSimulated> hwsec(hwprof_, t);
    runtime::MaybeSpan<kTel && !Backend::kSimulated> span(timeline_);
    sw.reset();
    [[maybe_unused]] std::uint64_t tel_edges = 0;
    [[maybe_unused]] bool any_changed = false;
    const unsigned nd = node_of_thread(t);
    const vid_t node_begin = node_bounds_[nd];
    const vid_t b = thread_pull_bounds_[t];
    const vid_t e = thread_pull_bounds_[t + 1];
    const auto& offs = sub_offsets_[nd * opt_.num_nodes + m];
    const auto& tgts = sub_targets_[nd * opt_.num_nodes + m];
    const Message* replica = sl.replicas[nd].data();

    mem.stream_read(offs.data() + (b - node_begin), e - b + 1);
    for (vid_t v = b; v < e; ++v) {
      const eid_t lo = offs[v - node_begin];
      const eid_t hi = offs[v - node_begin + 1];
      mem.stream_read(tgts.data() + lo, hi - lo);
      auto sum = K::Pull::template identity<Acc>();
      for (eid_t i = lo; i < hi; ++i) {
        // Random read over one source node's range of the local replica.
        sum = K::Pull::merge(sum, mem.load(replica + tgts[i]));
      }
      if constexpr (K::Pull::kAddCombine) {
        // Ligra's writeAdd: vertex updates go through a CAS loop even
        // when uncontended.
        mem.atomic_add(sl.acc.data() + v, sum);
      } else {
        // Ligra's writeMin equivalent: each vertex is owned by exactly
        // one thread and sub-passes are barrier-separated, so a plain
        // read-merge-write is race-free.
        mem.store(sl.acc.data() + v,
                  K::Pull::merge(mem.load(sl.acc.data() + v), sum));
      }
      mem.work((hi - lo) * (1 + kFrameworkCyclesPerEdge) + 2);
      if constexpr (kTel) tel_edges += hi - lo;
    }
    if (last) {
      mem.stream_read(sl.acc.data() + b, e - b);
      mem.stream_write(sl.value.data() + b, e - b);
      mem.stream_read(frontier_.data() + b, e - b);
      mem.stream_write(next_frontier_.data() + b, e - b);
      const TV* bias = sl.bias.empty() ? nullptr : sl.bias.data();
      double l1 = 0.0;
      for (vid_t v = b; v < e; ++v) {
        const TV next = K::Pull::apply(sl.value[v], sl.acc[v],
                                       bias ? bias[v] : TV{}, sl.damping);
        if constexpr (K::kUsesFrontier) {
          any_changed = any_changed || next != sl.value[v];
        }
        if (delta_out != nullptr) {
          l1 += std::fabs(static_cast<double>(next) -
                          static_cast<double>(sl.value[v]));
        }
        sl.value[v] = next;
        sl.acc[v] = K::Pull::template identity<Acc>();
        next_frontier_[v] = 1;  // framework keeps everything active
      }
      mem.work(std::uint64_t{e - b} *
               (2 + kFrameworkCyclesPerVertex));
      if constexpr (K::kUsesFrontier) {
        changes_[t].value = any_changed;
      }
      if (delta_out != nullptr) *delta_out = l1;
    }
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
  PolymerOptions opt_;
  Backend* backend_;
  std::vector<unsigned> threads_per_node_;
  std::vector<vid_t> node_bounds_;
  std::vector<vid_t> thread_vertex_bounds_;
  std::vector<vid_t> thread_pull_bounds_;
  /// Per-kernel value/acc/replica arrays, keyed by kernel type
  /// (PageRank built in the constructor, others on first use).
  std::vector<std::pair<std::type_index, std::shared_ptr<void>>> slots_;
  AlignedBuffer<std::uint8_t> frontier_;
  AlignedBuffer<std::uint8_t> next_frontier_;
  std::vector<AlignedBuffer<eid_t>> sub_offsets_;
  std::vector<AlignedBuffer<vid_t>> sub_targets_;
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
