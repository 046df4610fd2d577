// Algorithm front door: serial reference oracles, the five paper
// methodologies and five kernels behind one runner API, and
// result-comparison helpers. run_kernel_{sim,native}<K> is the one
// facade over the engines' run<K>() entries: it builds the selected
// engine with paper-default parameters and wraps the run in the
// reorder permute/run/unpermute pipeline.
//
//   auto r = algo::run_kernel_native<engine::BfsKernel>(
//       algo::Method::kHipa, g, {.source = 7});
//   // r.values[v] == hop distance, r.report == the usual RunReport
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "engines/backend.hpp"
#include "engines/kernels.hpp"
#include "engines/pcpm_engine.hpp"
#include "engines/polymer_engine.hpp"
#include "engines/vpr_engine.hpp"
#include "graph/csr.hpp"
#include "graph/reorder.hpp"
#include "runtime/affinity.hpp"
#include "sim/machine.hpp"

namespace hipa::algo {

/// The unified run surface (report + final ranks), re-exported so
/// facade users never need to spell the engine namespace.
using RunResult = engine::RunResult;

/// Serial textbook PageRank (paper Eq. 1), the correctness oracle for
/// every engine.
[[nodiscard]] std::vector<rank_t> pagerank_reference(const graph::Graph& g,
                                                     unsigned iterations,
                                                     rank_t damping = 0.85f);

/// Serial personalized PageRank: restart mass split uniformly over the
/// seed set (uniform over all vertices when empty — engine semantics).
[[nodiscard]] std::vector<rank_t> ppr_reference(const graph::Graph& g,
                                                unsigned iterations,
                                                rank_t damping,
                                                std::span<const vid_t> seeds);

/// Sum of |a[i] - b[i]|.
[[nodiscard]] double l1_distance(std::span<const rank_t> a,
                                 std::span<const rank_t> b);

/// Indices of the k largest ranks, descending (ties by smaller id).
[[nodiscard]] std::vector<vid_t> top_k(std::span<const rank_t> ranks,
                                       std::size_t k);

/// The five methodologies evaluated in the paper.
enum class Method { kHipa, kPpr, kVpr, kGpop, kPolymer };

[[nodiscard]] std::span<const Method> all_methods();
[[nodiscard]] const char* method_name(Method m);

/// Inverse of method_name (exact, case-sensitive round-trip:
/// "HiPa", "p-PR", "v-PR", "GPOP", "Polymer") plus the lowercase
/// aliases used on bench command lines ("hipa", "ppr", "vpr", "gpop",
/// "polymer"). Returns nullopt for anything else.
[[nodiscard]] std::optional<Method> method_from_name(std::string_view name);

/// The five kernels behind the run<K>() API (engines/kernels.hpp),
/// as a runtime value for bench flags and the serving refresh.
enum class Kernel { kPageRank, kPersonalized, kBfs, kWcc, kSssp };

[[nodiscard]] std::span<const Kernel> all_kernels();

/// Kernel names for bench flags and reports: "pagerank", "ppr", "bfs",
/// "wcc", "sssp" (exact round-trip through kernel_from_name).
[[nodiscard]] const char* kernel_name(Kernel k);
[[nodiscard]] std::optional<Kernel> kernel_from_name(std::string_view name);

/// Reorder-mode names for bench flags and reports: "none", "degree",
/// "hub" (exact round-trip through reorder_from_name).
[[nodiscard]] const char* reorder_name(engine::Reorder r);
[[nodiscard]] std::optional<engine::Reorder> reorder_from_name(
    std::string_view name);

/// The permutation the runners apply for a reorder mode (identity for
/// kNone). Exposed so tests and benches can reproduce the facade's
/// exact permute → run → inverse-permute pipeline.
[[nodiscard]] graph::Permutation make_reorder_permutation(
    engine::Reorder r, const graph::Graph& g);

/// Parameters common to every runner. Zeros mean "paper default for
/// this methodology on this machine".
struct MethodParams {
  unsigned threads = 0;
  std::uint64_t partition_bytes = 0;
  /// Divide default partition sizes by this (must track the machine's
  /// cache scaling; see DatasetInfo::recommended_scale).
  unsigned scale_denom = 1;
  /// The engine-level run options (iterations, damping, tolerance,
  /// telemetry, hw counters, trace path, placement audit, reorder) —
  /// ONE source of truth handed to every engine's run<K>().
  engine::PageRankOptions pr{};
  /// Which rank-producing kernel backs a serving refresh
  /// (serve::RefreshOptions::full; the typed run_kernel_* templates
  /// name their kernel statically and ignore this field).
  Kernel kernel = Kernel::kPageRank;
  /// Seeds and damping of a personalized serving refresh (kernel ==
  /// Kernel::kPersonalized).
  engine::PprOptions personalized{};
};

/// Paper-default thread count of a methodology on a topology
/// (HiPa/v-PR/Polymer use all logical cores; p-PR and GPOP stay at or
/// below the physical core count — paper §4.1).
[[nodiscard]] unsigned default_threads(Method m, const sim::Topology& topo);

/// Paper-default partition size (HiPa/p-PR 256 KB, GPOP 1 MB) divided
/// by scale_denom; 0 for vertex-centric methods.
[[nodiscard]] std::uint64_t default_partition_bytes(Method m,
                                                    unsigned scale_denom);

/// Run methodology `m` on the simulated machine. Preprocessing and
/// iteration costs both land in the machine's cycle counter; the
/// returned report carries this run's stats delta. The final ranks
/// ride along in the returned RunResult. Thin wrapper over
/// run_kernel_sim<engine::PageRankKernel>.
[[nodiscard]] RunResult run_method_sim(Method m, const graph::Graph& g,
                                       sim::SimMachine& machine,
                                       const MethodParams& params = {});

/// Run methodology `m` natively (real threads, wall-clock timing).
/// Thin wrapper over run_kernel_native<engine::PageRankKernel>.
[[nodiscard]] RunResult run_method_native(Method m, const graph::Graph& g,
                                          const MethodParams& params = {});

namespace detail {

/// Build methodology `m`'s engine over `g` on `backend` (with
/// `params.partition_bytes`, or the paper default when 0) and run
/// kernel K once. Callers that reuse one engine across runs (or
/// kernels — per-kernel state is cached inside the engine) construct
/// the engine directly instead; this rebuilds the plan and bins on
/// every call.
template <class K, class Backend>
engine::KernelResult<K> run_engine(Method m, const graph::Graph& g,
                                   Backend& backend,
                                   const typename K::Options& ko,
                                   const MethodParams& params,
                                   unsigned threads, unsigned nodes) {
  const std::uint64_t partition_bytes =
      params.partition_bytes != 0
          ? params.partition_bytes
          : default_partition_bytes(m, params.scale_denom);
  const engine::RunOptions& ro = params.pr;
  switch (m) {
    case Method::kHipa:
    case Method::kPpr:
    case Method::kGpop: {
      const auto make = m == Method::kHipa  ? &engine::PcpmOptions::hipa
                        : m == Method::kPpr ? &engine::PcpmOptions::ppr
                                            : &engine::PcpmOptions::gpop;
      engine::PcpmEngine<Backend> eng(g, make(threads, nodes, partition_bytes),
                                      backend);
      return eng.template run<K>(ko, ro);
    }
    case Method::kVpr: {
      engine::VprEngine<Backend> eng(g, {.num_threads = threads}, backend);
      return eng.template run<K>(ko, ro);
    }
    case Method::kPolymer: {
      engine::PolymerOptions opt;
      opt.num_threads = threads;
      opt.num_nodes = nodes;
      engine::PolymerEngine<Backend> eng(g, opt, backend);
      return eng.template run<K>(ko, ro);
    }
  }
  HIPA_CHECK(false, "unknown method");
  __builtin_unreachable();
}

/// The runners' reorder pipeline, kernel-generic: permute the graph's
/// vertex ids (remapping id-valued kernel options — BFS/SSSP sources,
/// PPR seeds), run the engine on the permuted CSR with the knob
/// cleared, inverse-permute the values back to original positions, and
/// let the kernel remap id-valued *results* (WCC labels). Every engine
/// is deterministic for a fixed (graph, options), so any manual
/// permute/run/inverse-permute with the same permutation reproduces
/// this bitwise. `charge_wall_prep` adds the permutation's wall-clock
/// cost to preprocessing_seconds (native runs only — simulated reports
/// count modeled cycles, not host time).
template <class K, class RunFn>
engine::KernelResult<K> run_kernel_with_reorder(const graph::Graph& g,
                                                typename K::Options ko,
                                                const MethodParams& params,
                                                bool charge_wall_prep,
                                                RunFn&& run) {
  if (params.pr.reorder == engine::Reorder::kNone) {
    return run(g, ko, params);
  }
  Timer prep_timer;
  const graph::Permutation perm =
      make_reorder_permutation(params.pr.reorder, g);
  const graph::Graph permuted = graph::apply_permutation(g, perm);
  const double prep_seconds = prep_timer.seconds();
  MethodParams inner = params;
  inner.pr.reorder = engine::Reorder::kNone;
  K::remap_options(ko, perm);
  engine::KernelResult<K> result = run(permuted, ko, inner);
  std::vector<typename K::Value> unpermuted(result.values.size());
  for (vid_t v = 0; v < static_cast<vid_t>(unpermuted.size()); ++v) {
    unpermuted[v] = result.values[perm[v]];
  }
  std::vector<vid_t> old_of_new(perm.size());
  for (vid_t v = 0; v < static_cast<vid_t>(perm.size()); ++v) {
    old_of_new[perm[v]] = v;
  }
  K::remap_values(unpermuted, old_of_new);
  result.values = std::move(unpermuted);
  if (charge_wall_prep) {
    result.report.preprocessing_seconds += prep_seconds;
  }
  return result;
}

}  // namespace detail

/// Run kernel K through methodology `m` on the simulated machine.
template <class K>
[[nodiscard]] engine::KernelResult<K> run_kernel_sim(
    Method m, const graph::Graph& g, sim::SimMachine& machine,
    typename K::Options ko = {}, const MethodParams& params = {}) {
  return detail::run_kernel_with_reorder<K>(
      g, std::move(ko), params, /*charge_wall_prep=*/false,
      [&](const graph::Graph& rg, const typename K::Options& rko,
          const MethodParams& p) {
        engine::SimBackend backend(machine);
        const unsigned threads = p.threads != 0
                                     ? p.threads
                                     : default_threads(m, machine.topology());
        return detail::run_engine<K>(m, rg, backend, rko, p, threads,
                                     backend.num_nodes());
      });
}

/// Run kernel K through methodology `m` natively. The engine sees the
/// host's NUMA node count, clamped to the thread count.
template <class K>
[[nodiscard]] engine::KernelResult<K> run_kernel_native(
    Method m, const graph::Graph& g, typename K::Options ko = {},
    const MethodParams& params = {}) {
  return detail::run_kernel_with_reorder<K>(
      g, std::move(ko), params, /*charge_wall_prep=*/true,
      [&](const graph::Graph& rg, const typename K::Options& rko,
          const MethodParams& p) {
        engine::NativeBackend backend;
        const unsigned threads =
            p.threads != 0 ? p.threads : runtime::available_cpus();
        return detail::run_engine<K>(
            m, rg, backend, rko, p, threads,
            std::clamp(backend.num_nodes(), 1u, threads));
      });
}

}  // namespace hipa::algo
