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
// Kernel-generic: the slots, the contrib/pull passes and the loop are
// the pull core (engines/pull_core.hpp) that the out-of-core engine
// shares; v-PR feeds it in-degree-balanced chunks of the in-CSR.
#pragma once

#include <utility>
#include <vector>

#include "engines/backend.hpp"
#include "engines/kernels.hpp"
#include "engines/pull_core.hpp"
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
      : graph_(&g),
        opt_(opt),
        backend_(&backend),
        core_(backend, g.num_vertices(), opt.num_threads,
              DataPlacement::kInterleave) {
    const double t0 = backend.now_seconds();
    const vid_t n = g.num_vertices();

    // The core balances the contrib pass by vertices; the pull pass is
    // balanced by in-degree (the pull does the per-edge work).
    pull_chunks_ = part::split_vertices_by_degree(g.in, opt.num_threads);

    // PageRank's slot is built eagerly so the constructor's allocation
    // order matches the historical engine; other kernels build lazily.
    core_.template slot<PageRankKernel>(
        [&g](vid_t v) { return g.out.degree(v); });
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

  [[nodiscard]] double preprocessing_seconds() const {
    return preprocessing_seconds_;
  }

 private:
  template <class K, bool kTel>
  RunReport run_kernel_impl(const typename K::Options& ko,
                            const RunOptions& ro,
                            std::vector<typename K::Value>* values_out) {
    ThreadTeamSpec spec;
    spec.num_threads = opt_.num_threads;
    spec.persistent = false;  // per-region fork-join, Algorithm 1 style
    // kRandom deliberately leaves scheduling to the OS: on the native
    // backend this means NO CPU pinning (the paper §3.3.1's
    // OS-managed-threads model), matching the simulator's random
    // placement.
    spec.binding = ThreadTeamSpec::Binding::kRandom;
    const graph::CsrGraph& in = graph_->in;
    PullSlot<K>& sl = core_.template slot<K>(
        [this](vid_t v) { return graph_->out.degree(v); });
    // v-PR is NUMA-oblivious (interleaved data, no per-buffer owner
    // node), so a placement audit has nothing to verify: the default
    // available=false RunReport::placement_audit stands.
    RunReport report = core_.template run<K, kTel>(
        sl, ko, ro, spec, {2, 4}, "v-PR",
        [&](RunScope<Backend, kTel>& scope) {
          scope.phase(runtime::Phase::kGather, [&](unsigned t, Mem& mem) {
            const vid_t b = pull_chunks_[t];
            core_.template pull_pass<K, kTel>(
                sl, t, mem, b, pull_chunks_[t + 1],
                in.offsets().data() + b, in.targets().data());
          });
        },
        values_out);
    report.preprocessing_seconds = preprocessing_seconds_;
    return report;
  }

  const graph::Graph* graph_;
  VprOptions opt_;
  Backend* backend_;
  PullCore<Backend> core_;
  std::vector<vid_t> pull_chunks_;
  double preprocessing_seconds_ = 0.0;
};

}  // namespace hipa::engine
