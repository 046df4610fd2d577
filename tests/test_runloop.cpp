// Single-dispatch run loop: NativeBackend::run_loop + LoopCtl barrier
// semantics, and the PcpmEngine guarantee that the one-parallel-region
// path computes ranks bitwise identical to the per-phase dispatch
// path. These suites carry the `tsan` ctest label — run them under the
// sanitize-thread preset to prove the barrier protocol racefree.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "algos/pagerank.hpp"
#include "engines/pcpm_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace hipa {
namespace {

// ---- run_loop mechanics -----------------------------------------------------

TEST(RunLoop, BarrierSeparatesSubPhases) {
  engine::NativeBackend backend;
  engine::ThreadTeamSpec spec;
  spec.num_threads = 4;
  spec.persistent = true;
  backend.start_team(spec);
  constexpr int kIters = 200;
  // Per-thread slots written before each barrier and validated after:
  // a dispatch-per-phase bug or broken barrier shows as a stale slot.
  std::vector<std::uint64_t> slot(4, 0);
  std::atomic<bool> failed{false};
  backend.run_loop([&](unsigned t, engine::NoopMem&, engine::LoopCtl& ctl) {
    for (int it = 0; it < kIters; ++it) {
      slot[t] = static_cast<std::uint64_t>(it) + 1;
      ctl.barrier();
      for (unsigned u = 0; u < 4; ++u) {
        if (slot[u] != static_cast<std::uint64_t>(it) + 1) {
          failed.store(true);
        }
      }
      ctl.barrier();
    }
  });
  backend.end_team();
  EXPECT_FALSE(failed.load());
}

TEST(RunLoop, WorksWithoutPersistentTeam) {
  engine::NativeBackend backend;
  engine::ThreadTeamSpec spec;
  spec.num_threads = 3;
  spec.persistent = false;
  backend.start_team(spec);
  std::atomic<int> total{0};
  backend.run_loop([&](unsigned, engine::NoopMem&, engine::LoopCtl& ctl) {
    total.fetch_add(1);
    ctl.barrier();
    total.fetch_add(1);
  });
  backend.end_team();
  EXPECT_EQ(total.load(), 6);
}

TEST(RunLoop, SingleThreadPassesThrough) {
  engine::NativeBackend backend;
  engine::ThreadTeamSpec spec;
  spec.num_threads = 1;
  backend.start_team(spec);
  int hits = 0;
  backend.run_loop([&](unsigned, engine::NoopMem&, engine::LoopCtl& ctl) {
    for (int i = 0; i < 1000; ++i) {
      ctl.barrier();
      ++hits;
    }
  });
  backend.end_team();
  EXPECT_EQ(hits, 1000);
}

TEST(RunLoop, Thread0PublishesScalarsBetweenBarriers) {
  engine::NativeBackend backend;
  engine::ThreadTeamSpec spec;
  spec.num_threads = 4;
  spec.persistent = true;
  backend.start_team(spec);
  // Thread 0 publishes a plain (non-atomic) value between barriers;
  // every thread must observe it — the pattern PcpmEngine::run<K>
  // uses for the convergence stop flag.
  std::uint64_t published = 0;
  std::atomic<bool> failed{false};
  backend.run_loop([&](unsigned t, engine::NoopMem&, engine::LoopCtl& ctl) {
    for (std::uint64_t it = 0; it < 300; ++it) {
      ctl.barrier();
      if (t == 0) published = it * 7 + 1;
      ctl.barrier();
      if (published != it * 7 + 1) failed.store(true);
    }
  });
  backend.end_team();
  EXPECT_FALSE(failed.load());
}

// ---- native placement API ---------------------------------------------------

TEST(NativeBackend, FirstTouchZeroesAndPlaces) {
  engine::NativeBackend backend;
  AlignedBuffer<float> buf(5000);
  for (auto& v : buf) v = 1.25f;
  backend.first_touch(buf.data(), buf.size_bytes(), 0);
  for (float v : buf) ASSERT_EQ(v, 0.0f);
}

TEST(NativeBackend, AllocHonorsPlacementHintWithoutCrashing) {
  engine::NativeBackend backend;
  auto a = backend.alloc<std::uint32_t>(10000,
                                        engine::DataPlacement::kNode, 0);
  auto b = backend.alloc<std::uint32_t>(
      10000, engine::DataPlacement::kInterleave);
  auto c = backend.alloc<std::uint32_t>(10000,
                                        engine::DataPlacement::kScatter);
  ASSERT_EQ(a.size(), 10000u);
  // Buffers are writable end to end regardless of the placement path.
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 1;
    b[i] = 2;
    c[i] = 3;
  }
  EXPECT_EQ(a[9999] + b[9999] + c[9999], 6u);
  // Node ids beyond the host wrap instead of failing.
  auto d = backend.alloc<std::uint32_t>(1000, engine::DataPlacement::kNode,
                                        999);
  d[999] = 4;
  EXPECT_EQ(d[999], 4u);
  EXPECT_GE(backend.num_nodes(), 1u);
}

// ---- engine equivalence -----------------------------------------------------

std::vector<rank_t> run_native(
    const graph::Graph& g, bool single_dispatch, unsigned threads,
    unsigned nodes, std::uint64_t part_bytes, unsigned iters,
    double tolerance = 0.0, engine::RunReport* report_out = nullptr,
    runtime::Telemetry telemetry = runtime::Telemetry::kOff) {
  engine::NativeBackend backend;
  auto opt = engine::PcpmOptions::hipa(threads, nodes, part_bytes);
  opt.single_dispatch = single_dispatch;
  engine::PcpmEngine<engine::NativeBackend> eng(g, opt, backend);
  EXPECT_EQ(eng.uses_single_dispatch(), single_dispatch);
  engine::PageRankOptions pr;
  pr.iterations = iters;
  pr.tolerance = tolerance;
  pr.telemetry = telemetry;
  auto result = eng.run(pr);
  if (report_out != nullptr) *report_out = result.report;
  return result.ranks;
}

void expect_bitwise_equal(const std::vector<rank_t>& a,
                          const std::vector<rank_t>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << label << " diverges at vertex " << i;
  }
}

TEST(SingleDispatch, BitwiseEqualToPerPhaseOnRmat) {
  const auto edges = graph::generate_rmat(
      {.scale = 11, .edge_factor = 8, .seed = 21});
  const graph::Graph g = graph::build_graph(1u << 11, edges);
  const auto loop = run_native(g, true, 4, 1, 1024, 10);
  const auto phased = run_native(g, false, 4, 1, 1024, 10);
  expect_bitwise_equal(loop, phased, "rmat run_loop-vs-phase");
  const auto want = algo::pagerank_reference(g, 10);
  EXPECT_LT(algo::l1_distance(loop, want),
            1e-6 * static_cast<double>(want.size()));
}

TEST(SingleDispatch, BitwiseEqualToPerPhaseOnErdosRenyi) {
  const auto edges = graph::generate_erdos_renyi(3000, 24000, 33);
  const graph::Graph g = graph::build_graph(3000, edges);
  const auto loop = run_native(g, true, 3, 2, 2048, 8);
  const auto phased = run_native(g, false, 3, 2, 2048, 8);
  expect_bitwise_equal(loop, phased, "er run_loop-vs-phase");
}

TEST(SingleDispatch, BitwiseEqualAcrossManyThreadCounts) {
  const graph::Graph g = graph::build_graph(
      1500, graph::generate_zipf({.num_vertices = 1500, .num_edges = 12000,
                                  .seed = 5}));
  for (unsigned threads : {1u, 2u, 5u, 8u}) {
    const auto loop = run_native(g, true, threads, 2, 1024, 6);
    const auto phased = run_native(g, false, threads, 2, 1024, 6);
    expect_bitwise_equal(loop, phased, "thread-sweep run_loop-vs-phase");
  }
}

TEST(SingleDispatch, ConvergenceStopsIdenticallyOnBothPaths) {
  const graph::Graph g = graph::build_graph(
      2000, graph::generate_zipf({.num_vertices = 2000, .num_edges = 16000,
                                  .seed = 6}));
  engine::RunReport rl, rp;
  const double tol = 1e-4;
  const auto loop = run_native(g, true, 4, 1, 1024, 100, tol, &rl);
  const auto phased = run_native(g, false, 4, 1, 1024, 100, tol, &rp);
  expect_bitwise_equal(loop, phased, "tolerance run_loop-vs-phase");
  EXPECT_EQ(rl.iterations, rp.iterations);
  EXPECT_EQ(rl.last_delta, rp.last_delta);
  EXPECT_GT(rl.iterations, 0u);
  EXPECT_LT(rl.iterations, 100u);  // must actually early-stop
  EXPECT_LE(rl.last_delta, tol);
}

TEST(SingleDispatch, ZeroIterationsReportsZero) {
  const graph::Graph g = graph::build_graph(
      300, graph::generate_zipf({.num_vertices = 300, .num_edges = 2000,
                                 .seed = 7}));
  engine::RunReport report;
  run_native(g, true, 2, 1, 1024, 0, 0.0, &report);
  EXPECT_EQ(report.iterations, 0u);
}

TEST(SingleDispatch, FcfsModeKeepsPerPhasePath) {
  // p-PR (non-persistent, FCFS) must not take the run_loop path...
  engine::NativeBackend backend;
  const graph::Graph g = graph::build_graph(
      800, graph::generate_zipf({.num_vertices = 800, .num_edges = 6000,
                                 .seed = 8}));
  auto opt = engine::PcpmOptions::ppr(3, 1, 1024);
  engine::PcpmEngine<engine::NativeBackend> eng(g, opt, backend);
  EXPECT_FALSE(eng.uses_single_dispatch());
  // ...and still be correct.
  const auto got = eng.run({8, 0.85f}).ranks;
  const auto want = algo::pagerank_reference(g, 8);
  EXPECT_LT(algo::l1_distance(got, want),
            1e-6 * static_cast<double>(want.size()));
}

TEST(SingleDispatch, PinnedRunSurvivesOversizedNodeRequest) {
  // An 8-node 16-thread plan on whatever small box CI runs on: the
  // affinity layer wraps every request onto real CPUs and the ranks
  // stay correct.
  const graph::Graph g = graph::build_graph(
      1200, graph::generate_zipf({.num_vertices = 1200, .num_edges = 9000,
                                  .seed = 9}));
  const auto loop = run_native(g, true, 16, 8, 1024, 5);
  const auto want = algo::pagerank_reference(g, 5);
  EXPECT_LT(algo::l1_distance(loop, want),
            1e-6 * static_cast<double>(want.size()));
}

TEST(SingleDispatch, SpmvStillWorksBetweenRunLoopRuns) {
  // The non-PageRank entry points share buffers with the run_loop
  // path; interleaving them must not corrupt state.
  const auto edges = graph::generate_erdos_renyi(1000, 8000, 44);
  graph::Graph g = graph::build_graph(1000, edges);
  engine::NativeBackend backend;
  auto opt = engine::PcpmOptions::hipa(4, 1, 2048);
  engine::PcpmEngine<engine::NativeBackend> eng(g, opt, backend);
  const auto before = eng.run({5, 0.85f}).ranks;
  std::vector<rank_t> x(g.num_vertices(), 1.0f), y;
  eng.run_spmv(x, y);
  ASSERT_EQ(y.size(), g.num_vertices());
  const auto after = eng.run({5, 0.85f}).ranks;
  expect_bitwise_equal(before, after, "rerun after spmv");
}

// ---- telemetry on the two execution paths ----------------------------------

TEST(SingleDispatch, TelemetryAgreesBetweenPaths) {
  // The per-phase and single-dispatch paths do identical work, so the
  // deterministic telemetry counters (invocations, traffic) must
  // agree; only the timing/barrier fields may differ.
  const graph::Graph g = graph::build_graph(
      1500, graph::generate_zipf({.num_vertices = 1500, .num_edges = 12000,
                                  .seed = 11}));
  constexpr unsigned kIters = 6;
  engine::RunReport rl, rp;
  const auto loop = run_native(g, true, 4, 1, 1024, kIters, 0.0, &rl,
                               runtime::Telemetry::kOn);
  const auto phased = run_native(g, false, 4, 1, 1024, kIters, 0.0, &rp,
                                 runtime::Telemetry::kOn);
  expect_bitwise_equal(loop, phased, "telemetered run_loop-vs-phase");
  ASSERT_TRUE(rl.telemetry.enabled);
  ASSERT_TRUE(rp.telemetry.enabled);
  EXPECT_EQ(rl.telemetry.threads, rp.telemetry.threads);
  for (unsigned pi = 0; pi < runtime::kNumPhases; ++pi) {
    const auto ph = static_cast<runtime::Phase>(pi);
    const auto& a = rl.telemetry[ph];
    const auto& b = rp.telemetry[ph];
    EXPECT_EQ(a.invocations, b.invocations) << runtime::phase_name(ph);
    EXPECT_EQ(a.messages_produced, b.messages_produced)
        << runtime::phase_name(ph);
    EXPECT_EQ(a.messages_consumed, b.messages_consumed)
        << runtime::phase_name(ph);
    EXPECT_EQ(a.bytes_produced, b.bytes_produced)
        << runtime::phase_name(ph);
    EXPECT_EQ(a.bytes_consumed, b.bytes_consumed)
        << runtime::phase_name(ph);
  }
  // Barrier crossings exist only on the run_loop path: one after init,
  // two per iteration (no tolerance barrier for untracked runs).
  EXPECT_EQ(rl.telemetry[runtime::Phase::kInit].barrier_crossings, 4u);
  EXPECT_EQ(rl.telemetry[runtime::Phase::kScatter].barrier_crossings,
            4u * kIters);
  EXPECT_EQ(rl.telemetry[runtime::Phase::kGather].barrier_crossings,
            4u * kIters);
  EXPECT_EQ(rp.telemetry[runtime::Phase::kInit].barrier_crossings, 0u);
  // Both paths publish one wall entry per iteration.
  EXPECT_EQ(rl.telemetry.iteration_seconds.size(), kIters);
  EXPECT_EQ(rp.telemetry.iteration_seconds.size(), kIters);
}

TEST(SingleDispatch, TelemetryOffIsBitwiseIdenticalToOn) {
  const graph::Graph g = graph::build_graph(
      1200, graph::generate_zipf({.num_vertices = 1200, .num_edges = 9000,
                                  .seed = 12}));
  engine::RunReport off_rep, on_rep;
  const auto off = run_native(g, true, 4, 1, 1024, 8, 0.0, &off_rep,
                              runtime::Telemetry::kOff);
  const auto on = run_native(g, true, 4, 1, 1024, 8, 0.0, &on_rep,
                             runtime::Telemetry::kOn);
  expect_bitwise_equal(off, on, "telemetry off-vs-on");
  EXPECT_FALSE(off_rep.telemetry.enabled);
  EXPECT_TRUE(on_rep.telemetry.enabled);
}

}  // namespace
}  // namespace hipa
