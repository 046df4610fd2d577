// Tests for the kernel-generic run<K>() API (engines/kernels.hpp):
// per-kernel oracle checks on three generator families, bitwise
// identity between the PageRank shorthand and run<PageRankKernel>,
// tolerance early stop on every methodology, the native facade's NUMA
// node count, active-partition scatter skipping, phase-dispatch vs
// run_loop equivalence, and the serving layer's kernel-routed refresh.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "algos/bfs.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "algos/wcc.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "runtime/affinity.hpp"
#include "serve/snapshot.hpp"
#include "serve/updates.hpp"
#include "sim/machine.hpp"

namespace hipa::algo {
namespace {

constexpr double kTolPerVertex = 1e-6;

// ---- generator families -----------------------------------------------------

// Small instances of the three generator families the engine suite
// exercises: skewed web-like (Zipf), Kronecker (R-MAT) and uniform
// (Erdős–Rényi). One fixture value per family.
enum class Family { kZipf, kRmat, kEr };

const char* family_name(Family f) {
  switch (f) {
    case Family::kZipf: return "zipf";
    case Family::kRmat: return "rmat";
    case Family::kEr: return "er";
  }
  return "?";
}

graph::Graph family_graph(Family f, std::uint64_t seed) {
  switch (f) {
    case Family::kZipf:
      return graph::build_graph(
          2000, graph::generate_zipf({.num_vertices = 2000,
                                      .num_edges = 16000,
                                      .seed = seed}));
    case Family::kRmat: {
      graph::RmatParams p;
      p.scale = 11;       // 2048 vertices
      p.edge_factor = 8;  // 16K edges
      p.seed = seed;
      return graph::build_graph(vid_t{1} << p.scale, graph::generate_rmat(p));
    }
    case Family::kEr:
      return graph::build_graph(
          2000, graph::generate_erdos_renyi(2000, 12000, seed));
  }
  HIPA_CHECK(false, "bad family");
  __builtin_unreachable();
}

/// A source that actually reaches something: the max-out-degree vertex.
vid_t busiest_source(const graph::Graph& g) {
  vid_t best = 0;
  for (vid_t v = 1; v < g.num_vertices(); ++v) {
    if (g.out.degree(v) > g.out.degree(best)) best = v;
  }
  return best;
}

sim::SimMachine make_machine() {
  return sim::SimMachine(sim::Topology::skylake_2s().scaled(64));
}

class KernelOracles : public ::testing::TestWithParam<Family> {};

// ---- BFS --------------------------------------------------------------------

TEST_P(KernelOracles, BfsMatchesReferenceSim) {
  const graph::Graph g = family_graph(GetParam(), 901);
  const vid_t src = busiest_source(g);
  const BfsResult want = bfs_reference(g, src);

  // 8 threads over the simulated machine's 2 NUMA nodes.
  sim::SimMachine machine = make_machine();
  const auto got = run_kernel_sim<engine::BfsKernel>(
      Method::kHipa, g, machine, {.source = src},
      {.threads = 8, .partition_bytes = 2048});
  EXPECT_EQ(got.values, want.distance) << family_name(GetParam());
}

TEST_P(KernelOracles, BfsMatchesReferenceNative) {
  const graph::Graph g = family_graph(GetParam(), 902);
  const vid_t src = busiest_source(g);
  const BfsResult want = bfs_reference(g, src);
  const auto got = run_kernel_native<engine::BfsKernel>(
      Method::kHipa, g, {.source = src}, {.threads = 4});
  EXPECT_EQ(got.values, want.distance) << family_name(GetParam());
}

// ---- WCC --------------------------------------------------------------------

TEST_P(KernelOracles, WccMatchesReferenceSim) {
  const graph::Graph g = family_graph(GetParam(), 903);
  const std::vector<vid_t> want = wcc_reference(g);

  sim::SimMachine machine = make_machine();
  const auto got = run_kernel_sim<engine::WccKernel>(
      Method::kHipa, graph::symmetrized(g), machine, {},
      {.threads = 8, .partition_bytes = 2048});
  EXPECT_EQ(got.values, want) << family_name(GetParam());
  EXPECT_GE(got.report.iterations, 1u);
  EXPECT_EQ(count_components(got.values), count_components(want));
}

TEST_P(KernelOracles, WccMatchesReferenceNative) {
  const graph::Graph g = family_graph(GetParam(), 904);
  const std::vector<vid_t> want = wcc_reference(g);
  const auto got = run_kernel_native<engine::WccKernel>(
      Method::kHipa, graph::symmetrized(g), {},
      {.threads = 4, .partition_bytes = 4096});
  EXPECT_EQ(got.values, want) << family_name(GetParam());
}

// ---- SSSP -------------------------------------------------------------------

// Dijkstra and the engine's Bellman-Ford-style fixpoint agree exactly
// (not approximately): both converge to the unique least fixpoint of
// d[v] = min_u(d[u] + w(u)) evaluated in the same float arithmetic.
TEST_P(KernelOracles, SsspMatchesReferenceSim) {
  const graph::Graph g = family_graph(GetParam(), 905);
  const vid_t src = busiest_source(g);
  const SsspResult want = sssp_reference(g, src);

  // 8 threads over the simulated machine's 2 NUMA nodes.
  sim::SimMachine machine = make_machine();
  const auto got = run_kernel_sim<engine::SsspKernel>(
      Method::kHipa, g, machine, {.source = src},
      {.threads = 8, .partition_bytes = 2048});
  ASSERT_EQ(got.values.size(), want.distance.size());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(got.values[v], want.distance[v])
        << family_name(GetParam()) << " vertex " << v;
  }
}

TEST_P(KernelOracles, SsspMatchesReferenceNative) {
  const graph::Graph g = family_graph(GetParam(), 906);
  const vid_t src = busiest_source(g);
  const SsspResult want = sssp_reference(g, src);
  const auto got = run_kernel_native<engine::SsspKernel>(
      Method::kHipa, g, {.source = src}, {.threads = 4});
  ASSERT_EQ(got.values.size(), want.distance.size());
  EXPECT_EQ(0, std::memcmp(got.values.data(), want.distance.data(),
                           want.distance.size() * sizeof(float)))
      << family_name(GetParam());
}

// ---- personalized PageRank --------------------------------------------------

TEST_P(KernelOracles, PprMatchesReferenceSim) {
  const graph::Graph g = family_graph(GetParam(), 907);
  engine::PprOptions ko;
  ko.seeds = {1, 5, 100};
  MethodParams params;
  params.pr.iterations = 10;

  const std::vector<rank_t> want =
      ppr_reference(g, params.pr.iterations, ko.damping, ko.seeds);
  for (const Method m : all_methods()) {
    sim::SimMachine machine = make_machine();
    const auto got =
        run_kernel_sim<engine::PprKernel>(m, g, machine, ko, params);
    EXPECT_LT(l1_distance(got.values, want),
              kTolPerVertex * static_cast<double>(want.size()))
        << family_name(GetParam()) << " " << method_name(m);
  }
}

TEST_P(KernelOracles, PprMassConcentratesOnSeeds) {
  const graph::Graph g = family_graph(GetParam(), 908);
  engine::PprOptions ko;
  ko.seeds = {42};
  MethodParams params;
  params.pr.iterations = 10;
  const auto got = run_kernel_native<engine::PprKernel>(Method::kHipa, g, ko,
                                                        params);
  // The restart vertex holds at least the (1 - d) restart mass, which
  // dwarfs the ~1/n a uniform run would give it.
  EXPECT_GT(got.values[42], 0.14f);
}

INSTANTIATE_TEST_SUITE_P(Families, KernelOracles,
                         ::testing::Values(Family::kZipf, Family::kRmat,
                                           Family::kEr),
                         [](const auto& info) {
                           return family_name(info.param);
                         });

// ---- PageRank facade identity -----------------------------------------------

// The PageRank shorthand (run(PageRankOptions) -> RunResult) and the
// kernel-generic entry must produce bitwise-identical ranks on every
// engine: the shorthand is one call into run<PageRankKernel>.
TEST(FacadeIdentity, PcpmRunEqualsRunKernel) {
  const graph::Graph g = family_graph(Family::kZipf, 909);
  engine::PageRankOptions pr(6);
  // Telemetry on, so the work counters are compared too.
  pr.telemetry = runtime::Telemetry::kOn;
  engine::PrOptions ko;
  ko.damping = pr.damping;

  sim::SimMachine m1 = make_machine();
  engine::SimBackend b1(m1);
  engine::PcpmEngine<engine::SimBackend> e1(
      g, engine::PcpmOptions::hipa(8, 2, 2048), b1);
  const auto old_result = e1.run(pr);

  sim::SimMachine m2 = make_machine();
  engine::SimBackend b2(m2);
  engine::PcpmEngine<engine::SimBackend> e2(
      g, engine::PcpmOptions::hipa(8, 2, 2048), b2);
  const auto new_result = e2.run<engine::PageRankKernel>(ko, pr);

  ASSERT_EQ(old_result.ranks.size(), new_result.values.size());
  EXPECT_EQ(0, std::memcmp(old_result.ranks.data(), new_result.values.data(),
                           old_result.ranks.size() * sizeof(rank_t)));
  const engine::RunReport& a = old_result.report;
  const engine::RunReport& b = new_result.report;
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_GT(a.telemetry.total_messages_produced(), 0u);
  EXPECT_EQ(a.telemetry.total_messages_produced(),
            b.telemetry.total_messages_produced());
  EXPECT_EQ(a.telemetry.total_messages_consumed(),
            b.telemetry.total_messages_consumed());
}

TEST(FacadeIdentity, VprRunEqualsRunKernel) {
  const graph::Graph g = family_graph(Family::kZipf, 910);
  engine::PageRankOptions pr(6);
  engine::PrOptions ko;
  ko.damping = pr.damping;

  sim::SimMachine m1 = make_machine();
  engine::SimBackend b1(m1);
  engine::VprEngine<engine::SimBackend> e1(g, {.num_threads = 8}, b1);
  const auto old_result = e1.run(pr);

  sim::SimMachine m2 = make_machine();
  engine::SimBackend b2(m2);
  engine::VprEngine<engine::SimBackend> e2(g, {.num_threads = 8}, b2);
  const auto new_result = e2.run<engine::PageRankKernel>(ko, pr);

  EXPECT_EQ(0, std::memcmp(old_result.ranks.data(), new_result.values.data(),
                           old_result.ranks.size() * sizeof(rank_t)));
}

TEST(FacadeIdentity, PolymerRunEqualsRunKernel) {
  const graph::Graph g = family_graph(Family::kZipf, 911);
  engine::PageRankOptions pr(6);
  engine::PrOptions ko;
  ko.damping = pr.damping;
  engine::PolymerOptions popt;
  popt.num_threads = 8;
  popt.num_nodes = 2;

  sim::SimMachine m1 = make_machine();
  engine::SimBackend b1(m1);
  engine::PolymerEngine<engine::SimBackend> e1(g, popt, b1);
  const auto old_result = e1.run(pr);

  sim::SimMachine m2 = make_machine();
  engine::SimBackend b2(m2);
  engine::PolymerEngine<engine::SimBackend> e2(g, popt, b2);
  const auto new_result = e2.run<engine::PageRankKernel>(ko, pr);

  EXPECT_EQ(0, std::memcmp(old_result.ranks.data(), new_result.values.data(),
                           old_result.ranks.size() * sizeof(rank_t)));
}

// run_method_* (the historical facade) must equal the typed kernel
// runner for every methodology — including through a vertex reorder.
TEST(FacadeIdentity, RunMethodEqualsRunKernelAllMethods) {
  const graph::Graph g = family_graph(Family::kRmat, 912);
  MethodParams params;
  params.pr.iterations = 6;
  for (const Method m : all_methods()) {
    for (const engine::Reorder r :
         {engine::Reorder::kNone, engine::Reorder::kDegree}) {
      params.pr.reorder = r;
      sim::SimMachine m1 = make_machine();
      const RunResult via_method = run_method_sim(m, g, m1, params);
      engine::PrOptions ko;
      ko.damping = params.pr.damping;
      sim::SimMachine m2 = make_machine();
      const auto via_kernel =
          run_kernel_sim<engine::PageRankKernel>(m, g, m2, ko, params);
      ASSERT_EQ(via_method.ranks.size(), via_kernel.values.size());
      EXPECT_EQ(0, std::memcmp(via_method.ranks.data(),
                               via_kernel.values.data(),
                               via_method.ranks.size() * sizeof(rank_t)))
          << method_name(m) << " reorder=" << reorder_name(r);
    }
  }
}

// The native facade builds HiPa over the host's NUMA nodes (clamped to
// the thread count), so its ranks equal a directly built engine given
// that node count.
TEST(FacadeIdentity, NativeFacadeUsesHostNodeCount) {
  const graph::Graph g = family_graph(Family::kRmat, 917);
  MethodParams params;
  params.threads = 4;
  params.pr.iterations = 6;
  const RunResult via_facade = run_method_native(Method::kHipa, g, params);

  const unsigned nodes =
      std::clamp(runtime::topology().num_nodes(), 1u, params.threads);
  engine::NativeBackend backend;
  engine::PcpmEngine<engine::NativeBackend> eng(
      g,
      engine::PcpmOptions::hipa(params.threads, nodes,
                                default_partition_bytes(Method::kHipa, 1)),
      backend);
  const RunResult direct = eng.run(params.pr);
  ASSERT_EQ(via_facade.ranks.size(), direct.ranks.size());
  EXPECT_EQ(0, std::memcmp(via_facade.ranks.data(), direct.ranks.data(),
                           direct.ranks.size() * sizeof(rank_t)));
}

// ---- tolerance early stop ---------------------------------------------------

// Every methodology honours RunOptions::tolerance: the run stops below
// its iteration cap once the L1 rank delta reaches the tolerance, and
// the ranks are bitwise those of a fixed-iteration run of the same
// length (tracking the delta never changes the update arithmetic).
TEST(Convergence, EveryMethodStopsAtTolerance) {
  graph::RmatParams p;
  p.scale = 12;
  p.edge_factor = 16;
  p.seed = 918;
  const graph::Graph g =
      graph::build_graph(vid_t{1} << p.scale, graph::generate_rmat(p));
  for (const Method m : all_methods()) {
    MethodParams params;
    params.threads = 2;
    params.pr.iterations = 200;
    params.pr.tolerance = 1e-6;
    const RunResult stopped = run_method_native(m, g, params);
    EXPECT_LT(stopped.report.iterations, params.pr.iterations)
        << method_name(m);
    EXPECT_GT(stopped.report.last_delta, 0.0) << method_name(m);
    EXPECT_LE(stopped.report.last_delta, params.pr.tolerance)
        << method_name(m);

    params.pr.iterations = stopped.report.iterations;
    params.pr.tolerance = 0.0;
    const RunResult fixed = run_method_native(m, g, params);
    EXPECT_EQ(fixed.report.iterations, stopped.report.iterations);
    ASSERT_EQ(fixed.ranks.size(), stopped.ranks.size());
    EXPECT_EQ(0, std::memcmp(fixed.ranks.data(), stopped.ranks.data(),
                             fixed.ranks.size() * sizeof(rank_t)))
        << method_name(m);
  }
}

// ---- active-partition skipping ----------------------------------------------

// Frontier kernels skip the scatter stream of partitions with no
// active sources. As WCC converges the frontier empties, so the total
// scatter messages over R rounds must come in strictly under R times
// one full-frontier round — and the engine must still produce the
// exact union-find labels.
TEST(ActivePartitions, ConvergedWccSkipsScatterWork) {
  // Components that converge at very different times: a dense Zipf
  // core (a handful of rounds) plus a long appended path, where the
  // min label crawls one hop per round. Small partitions so the core's
  // partitions go quiet while the path is still propagating.
  const vid_t kCore = 1024;
  const vid_t kPath = 128;
  const vid_t n = kCore + kPath;
  std::vector<Edge> edges = graph::generate_zipf(
      {.num_vertices = kCore, .num_edges = 8000, .seed = 913});
  for (vid_t i = 0; i + 1 < kPath; ++i) {
    edges.push_back(Edge{kCore + i, kCore + i + 1});
  }
  graph::BuildOptions bopts;
  bopts.symmetrize = true;
  bopts.remove_duplicates = true;
  const graph::Graph sym = graph::build_graph(n, edges, bopts);

  engine::RunOptions ro;
  ro.telemetry = runtime::Telemetry::kOn;
  const auto opt = engine::PcpmOptions::hipa(8, 2, 256);

  // One round with everything active = the full-frontier scatter cost.
  sim::SimMachine m1 = make_machine();
  engine::SimBackend b1(m1);
  engine::PcpmEngine<engine::SimBackend> e1(sym, opt, b1);
  const auto one =
      e1.run<engine::WccKernel>(engine::WccOptions{.max_rounds = 1}, ro);
  const std::uint64_t full_round =
      one.report.telemetry[runtime::Phase::kScatter].messages_produced;
  ASSERT_GT(full_round, 0u);

  // Run to convergence: the path forces ~kPath rounds, and the total
  // scatter volume must come in far under rounds * full_round because
  // converged partitions stop scattering.
  sim::SimMachine m2 = make_machine();
  engine::SimBackend b2(m2);
  engine::PcpmEngine<engine::SimBackend> e2(sym, opt, b2);
  const auto all = e2.run<engine::WccKernel>(engine::WccOptions{}, ro);
  const std::uint64_t total =
      all.report.telemetry[runtime::Phase::kScatter].messages_produced;
  ASSERT_GE(all.report.iterations, kPath - 2);
  EXPECT_LT(total, full_round * all.report.iterations / 4);

  // And the skipping must not change the answer.
  const graph::Graph directed = graph::build_graph(n, edges);
  EXPECT_EQ(all.values, wcc_reference(directed));
}

// ---- phase dispatch vs run_loop ---------------------------------------------

// The per-phase condvar dispatch and the single-dispatch run_loop are
// two drivers of the same iteration body; every kernel must produce
// bitwise-identical values through both.
TEST(RunLoopEquivalence, AllKernelsBitwiseEqualAcrossDispatchModes) {
  const graph::Graph g = family_graph(Family::kZipf, 914);
  engine::NativeBackend backend;

  auto opts = [](bool single) {
    auto o = engine::PcpmOptions::hipa(4, 1, 4096);
    o.single_dispatch = single;
    return o;
  };

  {
    engine::PcpmEngine<engine::NativeBackend> loop(g, opts(true), backend);
    engine::PcpmEngine<engine::NativeBackend> phased(g, opts(false),
                                                     backend);
    ASSERT_TRUE(loop.uses_single_dispatch());
    ASSERT_FALSE(phased.uses_single_dispatch());

    const auto pr_a = loop.run(engine::PageRankOptions(8));
    const auto pr_b = phased.run(engine::PageRankOptions(8));
    EXPECT_EQ(0, std::memcmp(pr_a.ranks.data(), pr_b.ranks.data(),
                             pr_a.ranks.size() * sizeof(rank_t)));

    const vid_t src = busiest_source(g);
    engine::BfsOptions bo;
    bo.source = src;
    const auto bfs_a = loop.run<engine::BfsKernel>(bo);
    const auto bfs_b = phased.run<engine::BfsKernel>(bo);
    EXPECT_EQ(bfs_a.values, bfs_b.values);

    engine::SsspOptions so;
    so.source = src;
    const auto sssp_a = loop.run<engine::SsspKernel>(so);
    const auto sssp_b = phased.run<engine::SsspKernel>(so);
    EXPECT_EQ(0, std::memcmp(sssp_a.values.data(), sssp_b.values.data(),
                             sssp_a.values.size() * sizeof(float)));

    const auto wcc_a = loop.run<engine::WccKernel>(engine::WccOptions{});
    const auto wcc_b = phased.run<engine::WccKernel>(engine::WccOptions{});
    EXPECT_EQ(wcc_a.values, wcc_b.values);
    EXPECT_EQ(wcc_a.report.iterations, wcc_b.report.iterations);
  }
}

// ---- kernel names (MethodParams::kernel) ------------------------------------

TEST(AnyKernel, NamesRoundTrip) {
  for (const Kernel k : all_kernels()) {
    const auto back = kernel_from_name(kernel_name(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(kernel_from_name("dijkstra").has_value());
  EXPECT_EQ(kernel_from_name("pr"), Kernel::kPageRank);
}

// ---- serving refresh through the kernel facade ------------------------------

// The refresher's full-run path routes through the kernel-generic
// facade; a refresh must stay bitwise identical to a fresh full run on
// the updated graph (the serving layer's reproducibility contract).
TEST(ServeRefresh, FullRefreshBitwiseMatchesFreshRun) {
  const vid_t n = 600;
  const graph::Graph seed_graph = family_graph(Family::kEr, 916);
  std::vector<Edge> edges;
  for (vid_t v = 0; v < n; ++v) {
    for (vid_t u : seed_graph.out.neighbors(v)) {
      if (u < n) edges.push_back(Edge{v, u});
    }
  }

  serve::SnapshotStore store(n);
  serve::UpdateQueue queue;
  serve::RefreshOptions opt;
  opt.small_batch_max = 4;
  opt.full.threads = 2;
  opt.full.pr.iterations = 10;
  serve::UpdateRefresher refresher(n, edges, store, queue, opt);
  refresher.publish_initial();

  for (vid_t i = 0; i < 16; ++i) {
    queue.push_add(Edge{i, (i * 37 + 5) % n});
  }
  const serve::RefreshReport report = refresher.refresh_now();
  ASSERT_TRUE(report.full_run);

  const RunResult fresh =
      run_method_native(Method::kHipa, refresher.graph(), opt.full);
  serve::SnapshotRef snap = store.current();
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(0, std::memcmp(snap->ranks().data(), fresh.ranks.data(),
                           n * sizeof(rank_t)));
}

// A personalized refresh serves PPR ranks: bitwise equal to the typed
// runner on the same graph.
TEST(ServeRefresh, PersonalizedKernelBacksRefresh) {
  const vid_t n = 400;
  std::vector<Edge> edges;
  for (vid_t v = 0; v < n; ++v) {
    edges.push_back(Edge{v, (v * 13 + 1) % n});
    edges.push_back(Edge{v, (v * 7 + 3) % n});
  }

  serve::SnapshotStore store(n);
  serve::UpdateQueue queue;
  serve::RefreshOptions opt;
  opt.full.threads = 2;
  opt.full.pr.iterations = 8;
  opt.full.kernel = Kernel::kPersonalized;
  opt.full.personalized.seeds = {7, 11};
  serve::UpdateRefresher refresher(n, edges, store, queue, opt);
  refresher.publish_initial();

  const auto fresh = run_kernel_native<engine::PprKernel>(
      Method::kHipa, refresher.graph(), opt.full.personalized, opt.full);
  serve::SnapshotRef snap = store.current();
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(0, std::memcmp(snap->ranks().data(), fresh.values.data(),
                           n * sizeof(rank_t)));
}

// Non-rank kernels cannot back a rank-serving refresh.
TEST(ServeRefresh, RejectsNonRankKernels) {
  const vid_t n = 16;
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}};
  serve::SnapshotStore store(n);
  serve::UpdateQueue queue;
  serve::RefreshOptions opt;
  opt.full.kernel = Kernel::kBfs;
  serve::UpdateRefresher refresher(n, edges, store, queue, opt);
  EXPECT_THROW(refresher.publish_initial(), Error);
}

}  // namespace
}  // namespace hipa::algo
