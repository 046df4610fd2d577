// pr-web and pr-stream: one Zipf graph from the pld recipe, solved
// in-core by the HiPa engine (plan, bins and engine layers, memory
// bound) and streamed from segmented HCSR v3 by the out-of-core engine
// (segment I/O layers, plan and bins bypassed). Each is the other's
// control.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "algos/pagerank.hpp"
#include "bench.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "engines/oocore_engine.hpp"
#include "engines/pcpm_engine.hpp"
#include "graph/io.hpp"
#include "partition/plan.hpp"
#include "pcp/bins.hpp"
#include "sim/machine.hpp"

namespace perfbench {

namespace {

using hipa::Timer;
using hipa::engine::NativeBackend;
using hipa::engine::PageRankOptions;
using hipa::engine::RunReport;
using hipa::engine::RunResult;
using hipa::runtime::Phase;
using hipa::runtime::RunTelemetry;

/// pld at 1/10 of paper size: ~4.3 M vertices, 60 M edges. Bins plus
/// rank arrays come to ~520 MiB, over 4x any LLC up to 130 MiB.
constexpr unsigned kWebScale = 10;
/// The simulated machine's caches are shrunk by the graph's own scale
/// factor (graph/datasets.hpp), so the simulated run uses scale 64.
constexpr unsigned kSimScale = 64;
constexpr unsigned kSimIterations = 2;
constexpr unsigned kIterations = 20;
constexpr unsigned kThreads = 4;
constexpr unsigned kStreamThreads = 3;  // plus the prefetch thread
constexpr unsigned kSetupReps = 3;
/// Solves of each kind a run makes at least: an in-core solve takes
/// about a second, a streamed one over ten (fetches are checksum bound),
/// so a streamed run's window holds one.
constexpr unsigned kMinWebSolves = 3;
constexpr unsigned kMinStreamSolves = 1;
/// Traced solves the serving workloads' engine-layer figures rest on.
constexpr unsigned kMinLayerSolves = 3;
constexpr std::uint64_t kPartitionBytes = 256 * 1024;
constexpr std::size_t kSegmentBytes = std::size_t{8} << 20;
constexpr std::size_t kResidentBudget = std::size_t{48} << 20;

GeneratedGraph pld_input(const Args& a, unsigned scale) {
  GeneratedGraph g = generate(kPld, scale, a.seed, false);
  print_input("pld", kPld, scale, g);
  return g;
}

PageRankOptions solve_options(bool traced) {
  PageRankOptions pr(kIterations);
  pr.tolerance = 0.0;
  if (traced) pr.telemetry = hipa::runtime::Telemetry::kOn;
  return pr;
}

/// Every solve of one run: wall times split by tracing, the traced
/// runs' reports, and the bitwise agreement of all ranks with the
/// first solve's.
struct SolveLog {
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::vector<RunReport> traced;
  std::vector<rank_t> first;
  std::uint64_t solves = 0;
  std::uint64_t mismatched = 0;
  double window_s = 0.0;
};

/// Solves for `seconds` (at least `min_solves` of each kind) into `log`,
/// replacing its timings and adding to its checks; traced runs
/// alternate with plain ones so drift hits both.
template <class Solve>
void solve_for(SolveLog& log, double seconds, bool trace, unsigned min_solves,
               Solve&& solve) {
  log.plain_s.clear();
  log.traced_s.clear();
  log.traced.clear();
  Timer window;
  for (unsigned i = 0; window.seconds() < seconds ||
                       log.plain_s.size() < min_solves ||
                       (trace && log.traced_s.size() < min_solves);
       ++i) {
    const bool traced = trace && i % 2 == 1;
    Timer t;
    RunResult res = solve(traced);
    const double s = t.seconds();
    (traced ? log.traced_s : log.plain_s).push_back(s);
    if (traced) log.traced.push_back(std::move(res.report));
    ++log.solves;
    if (log.first.empty()) {
      log.first = std::move(res.ranks);
    } else if (res.ranks.size() != log.first.size() ||
        std::memcmp(res.ranks.data(), log.first.data(),
                    log.first.size() * sizeof(rank_t)) != 0) {
      ++log.mismatched;
    }
  }
  log.window_s = window.seconds();
}

void report_end_to_end(Report& r, const std::vector<double>& setup_s,
                       const SolveLog& log, double peak_mib) {
  r.series("setup_s", setup_s, 1.0, "s");
  r.series("solve_s", log.plain_s, 1.0, "s");
  r.metric("setup_s", median(setup_s), "s");
  r.metric("latency_p50_ms", median(log.plain_s) * 1e3, "ms");
  r.metric("throughput", static_cast<double>(log.plain_s.size()) / log.window_s,
           "1/s");
  r.metric("peak_rss_mb", peak_mib, "MiB");
}

/// Thread-averaged phase times of one traced solve. A thread's wall
/// time is its init, scatter, gather and barrier time; what the layers
/// leave of the solve's wall time is reported as unaccounted.
struct PhaseFigures {
  double scatter = 0.0;
  double gather = 0.0;
  double imbalance = 0.0;
  double barrier = 0.0;
  double bytes_per_edge = 0.0;
};

PhaseFigures phase_figures(const RunReport& rep, eid_t edges) {
  const RunTelemetry& t = rep.telemetry;
  PhaseFigures f;
  f.scatter = t[Phase::kScatter].wall_avg_seconds();
  f.gather = t[Phase::kGather].wall_avg_seconds();
  f.imbalance = t[Phase::kGather].imbalance();
  f.barrier = t.threads == 0 ? 0.0 : t.total_barrier_seconds() / t.threads;
  double bytes = 0.0;
  for (const auto& ph : t.phases) {
    bytes += static_cast<double>(ph.bytes_produced + ph.bytes_consumed);
  }
  f.bytes_per_edge = bytes / static_cast<double>(edges) /
                     static_cast<double>(std::max(1u, rep.iterations));
  return f;
}

/// Per-layer engine figures (medians over the traced solves);
/// `io_wait_s` holds each traced solve's stall time (empty in-core).
void report_engine_layers(Report& r, const SolveLog& log, eid_t edges,
                          const std::vector<double>& io_wait_s) {
  std::vector<double> scatter, gather, imbalance, barrier, bpe, unaccounted;
  for (std::size_t i = 0; i < log.traced.size(); ++i) {
    const PhaseFigures f = phase_figures(log.traced[i], edges);
    scatter.push_back(f.scatter);
    gather.push_back(f.gather);
    imbalance.push_back(f.imbalance);
    barrier.push_back(f.barrier);
    bpe.push_back(f.bytes_per_edge);
    const double io = io_wait_s.empty() ? 0.0 : io_wait_s[i];
    const double solve = log.traced_s[i];
    unaccounted.push_back((solve - f.scatter - f.gather - f.barrier - io) /
                          solve);
  }
  r.series("traced solve_s", log.traced_s, 1.0, "s");
  r.metric("engines.scatter_s", median(scatter), "s");
  r.metric("engines.gather_s", median(gather), "s");
  r.metric("engines.gather_imbalance", median(imbalance), "ratio");
  r.metric("engines.bytes_per_edge", median(bpe), "B");
  r.metric("engines.unaccounted_frac", median(unaccounted), "ratio");
  r.metric("runtime.barrier_wait_s", median(barrier), "s");
}

void report_trace_overhead(Report& r, const SolveLog& log) {
  r.metric("runtime.trace_overhead_frac",
           median(log.traced_s) / median(log.plain_s) - 1.0, "ratio");
}

/// The two layers a HiPa engine's constructor runs, timed on their own
/// with the configuration PcpmOptions::hipa(threads, 1, partition_bytes)
/// gives them, and the shape of the engine's `bins`.
void report_plan_and_bins(Report& r, const hipa::graph::Graph& g,
                          unsigned threads, std::uint64_t partition_bytes,
                          const hipa::pcp::PcpmBins& bins) {
  hipa::part::PlanConfig cfg;
  cfg.partition_bytes = partition_bytes;
  cfg.vertex_bytes = sizeof(rank_t);
  cfg.num_nodes = 1;
  cfg.threads_per_node = {threads};
  std::vector<double> plan_s, bins_s;
  for (unsigned k = 0; k < kSetupReps; ++k) {
    Timer t;
    const hipa::part::HierarchicalPlan plan =
        hipa::part::build_hierarchical_plan(g.out, cfg);
    plan_s.push_back(t.seconds());
    t.reset();
    const hipa::pcp::PcpmBins b = hipa::pcp::build_bins(g.out, plan.parts);
    bins_s.push_back(t.seconds());
  }
  r.metric("partition.plan_s", median(plan_s), "s");
  r.metric("pcp.bins_build_s", median(bins_s), "s");
  const double e = static_cast<double>(g.num_edges());
  r.metric("pcp.bins_mb", bins.footprint_bytes() / 1048576.0, "MiB");
  r.metric("pcp.dst_bytes_per_edge",
           static_cast<double>(bins.total_dests() * bins.dst_entry_bytes()) / e,
           "B");
  r.metric("pcp.edges_per_message", bins.compression_ratio(), "ratio");
}

/// Segment-I/O figures of the traced streamed solves (medians). Returns
/// each solve's I/O stall time, which the engine layer sum includes.
std::vector<double> report_segment_io(
    Report& r, const std::vector<hipa::engine::OocoreStats>& stats) {
  std::vector<double> io_wait, overlap, gbps;
  for (const auto& st : stats) {
    io_wait.push_back(st.io_wait_seconds);
    overlap.push_back(st.overlap_ratio());
    gbps.push_back(static_cast<double>(st.bytes_fetched) / st.fetch_seconds /
                   1e9);
  }
  r.metric("graph.segment_read_gbps", median(gbps), "GB/s");
  r.metric("engines.io_wait_s", median(io_wait), "s");
  r.metric("engines.overlap_ratio", median(overlap), "ratio");
  return io_wait;
}

/// HiPa on the simulated 2-socket Skylake at the matched scale: the
/// paper's NUMA yardstick, which a single-node host cannot show.
/// Deterministic.
void report_simulated(const Args& a, Report& r) {
  const GeneratedGraph sg = pld_input(a, kSimScale);
  hipa::sim::SimMachine machine(
      hipa::sim::Topology::skylake_2s().scaled(kSimScale));
  hipa::engine::SimBackend backend(machine);
  const hipa::sim::Topology& topo = machine.topology();
  hipa::engine::PcpmEngine<hipa::engine::SimBackend> eng(
      sg.graph,
      hipa::engine::PcpmOptions::hipa(topo.num_logical_cores(), topo.num_nodes,
                                      kPartitionBytes / kSimScale),
      backend);
  const RunResult res = eng.run(PageRankOptions(kSimIterations));
  const hipa::sim::SimStats& st = res.report.stats;
  const double iters = kSimIterations;
  r.metric("sim.mcycles_per_iter",
           static_cast<double>(st.total_cycles) / iters / 1e6, "Mcycles");
  r.metric("sim.dram_bytes_per_edge", st.mape(sg.graph.num_edges()) / iters,
           "B");
  r.metric("sim.remote_access_frac", st.remote_fraction(), "ratio");
  const auto ref = hipa::algo::pagerank_reference(sg.graph, kSimIterations);
  const double l1 = hipa::algo::l1_distance(res.ranks, ref);
  r.outputs(1, l1 < 1e-6 * static_cast<double>(ref.size()) ? 0 : 1,
            "simulated ranks vs serial reference");
}

struct WebEngine {
  NativeBackend backend;  // declared first: the engine points at it
  std::optional<hipa::engine::PcpmEngine<NativeBackend>> engine;
};

struct StreamEngine {
  NativeBackend backend;
  std::optional<hipa::engine::OocoreEngine> engine;
};

}  // namespace

void run_pr_web(const Args& a, Report& r) {
  const GeneratedGraph in = pld_input(a, kWebScale);
  const hipa::graph::Graph& g = in.graph;
  const auto opt = hipa::engine::PcpmOptions::hipa(kThreads, 1, kPartitionBytes);

  reset_peak_rss();
  std::vector<double> setup_s;
  std::unique_ptr<WebEngine> w;
  for (unsigned k = 0; k < kSetupReps; ++k) {
    w.reset();
    w = std::make_unique<WebEngine>();
    Timer t;
    w->engine.emplace(g, opt, w->backend);
    setup_s.push_back(t.seconds());
  }
  const double peak = peak_rss_mib();

  // Bins plus the message values plus the four per-vertex arrays
  // (rank, scaled rank, accumulator, inverse degree) must dwarf the LLC,
  // or the workload no longer measures the memory-bound regime.
  const hipa::pcp::PcpmBins& bins = w->engine->bins();
  const double working_set =
      static_cast<double>(bins.footprint_bytes()) +
      static_cast<double>(bins.total_messages()) * sizeof(rank_t) +
      4.0 * g.num_vertices() * sizeof(rank_t);
  r.note("working set: " + std::to_string(working_set / 1048576.0) +
         " MiB = " + std::to_string(working_set / a.llc_bytes) + " x LLC");
  HIPA_CHECK(a.llc_bytes > 0 && working_set >= 4.0 * a.llc_bytes,
             "pr-web input is under 4x the host LLC ("
                 << a.llc_bytes << " bytes); it would be cache resident");

  const auto solve = [&](bool traced) {
    return w->engine->run(solve_options(traced));
  };
  SolveLog log;
  log.first = solve(false).ranks;  // warm-up, and the bitwise reference
  log.solves = 1;
  steady_window(r, [&] {
    solve_for(log, a.seconds, a.trace, kMinWebSolves, solve);
  });

  if (!a.trace) {
    report_end_to_end(r, setup_s, log, peak);
  } else {
    report_plan_and_bins(r, g, kThreads, kPartitionBytes, bins);
    report_engine_layers(r, log, g.num_edges(), {});
    report_trace_overhead(r, log);
  }
  w.reset();

  const auto ref = hipa::algo::pagerank_reference(g, kIterations);
  const double l1 = hipa::algo::l1_distance(log.first, ref);
  const bool close = l1 < 1e-6 * static_cast<double>(ref.size());
  char l1_text[64];
  std::snprintf(l1_text, sizeof l1_text, "L1 to serial reference: %.3g", l1);
  r.note(l1_text);
  r.outputs(log.solves, close ? log.mismatched : log.solves,
            "pr-web ranks (reference L1, bitwise repeat)");
  if (a.trace) report_simulated(a, r);
}

void run_pr_stream(const Args& a, Report& r) {
  const GeneratedGraph in = pld_input(a, kWebScale);
  const hipa::graph::Graph& g = in.graph;
  const ScratchFile file(a, "pr-stream.hcsr");

  hipa::engine::OocoreOptions oo;
  oo.num_threads = kStreamThreads;
  oo.resident_budget_bytes = kResidentBudget;
  oo.streaming = true;
  oo.prefetch = true;

  reset_peak_rss();
  std::vector<double> setup_s, convert_s;
  std::unique_ptr<StreamEngine> s;
  for (unsigned k = 0; k < kSetupReps; ++k) {
    s.reset();
    std::remove(file.path.c_str());
    s = std::make_unique<StreamEngine>();
    Timer t;
    hipa::graph::save_segmented_csr(file.path, g, kSegmentBytes);
    convert_s.push_back(t.seconds());
    s->engine.emplace(file.path, oo, s->backend);
    setup_s.push_back(t.seconds());
  }
  const double peak = peak_rss_mib();
  const std::size_t payload = s->engine->graph().total_payload_bytes();
  r.note("segments: " + std::to_string(s->engine->graph().num_segments()) +
         ", payload " + std::to_string(payload >> 20) + " MiB, budget " +
         std::to_string(kResidentBudget >> 20) + " MiB");

  std::vector<hipa::engine::OocoreStats> stats;
  // The file was just written, so its pages are cached: no warm-up.
  SolveLog log;
  steady_window(r, [&] {
    stats.clear();
    solve_for(log, a.seconds, a.trace, kMinStreamSolves, [&](bool traced) {
      RunResult res = s->engine->run(solve_options(traced));
      if (traced) stats.push_back(s->engine->stats());
      return res;
    });
  });
  const hipa::engine::OocoreStats last = s->engine->stats();

  if (!a.trace) {
    report_end_to_end(r, setup_s, log, peak);
  } else {
    r.metric("graph.convert_s", median(convert_s), "s");
    report_engine_layers(r, log, g.num_edges(), report_segment_io(r, stats));
    report_trace_overhead(r, log);
  }
  s.reset();

  std::uint64_t budget_violations =
      last.peak_resident_bytes > kResidentBudget ? 1 : 0;
  r.outputs(1, budget_violations, "streamed resident bytes within budget");

  // Comparator: the same file and kernel with every segment resident.
  hipa::engine::OocoreOptions incore = oo;
  incore.streaming = false;
  incore.resident_budget_bytes = 0;
  NativeBackend backend;
  hipa::engine::OocoreEngine eng(file.path, incore, backend);
  const RunResult want = eng.run(solve_options(false));
  const bool equal =
      want.ranks.size() == log.first.size() &&
      std::memcmp(want.ranks.data(), log.first.data(),
                  log.first.size() * sizeof(rank_t)) == 0;
  r.outputs(log.solves, equal ? log.mismatched : log.solves,
            "pr-stream ranks (bitwise vs in-core run, repeat)");
}

void report_hipa_layers(Report& r, const hipa::graph::Graph& g,
                        unsigned threads, std::uint64_t partition_bytes,
                        const PageRankOptions& pr, double seconds) {
  NativeBackend backend;
  hipa::engine::PcpmEngine<NativeBackend> eng(
      g, hipa::engine::PcpmOptions::hipa(threads, 1, partition_bytes),
      backend);
  report_plan_and_bins(r, g, threads, partition_bytes, eng.bins());
  SolveLog log;
  solve_for(log, seconds, true, kMinLayerSolves, [&](bool traced) {
    PageRankOptions o = pr;
    if (traced) o.telemetry = hipa::runtime::Telemetry::kOn;
    return eng.run(o);
  });
  report_engine_layers(r, log, g.num_edges(), {});
  r.outputs(log.solves, log.mismatched,
            "HiPa solves of the refresh path (bitwise repeat)");
}

void report_oocore_layers(Report& r, const std::string& path,
                          const hipa::engine::OocoreOptions& oo,
                          const PageRankOptions& pr, double seconds) {
  NativeBackend backend;
  hipa::engine::OocoreEngine eng(path, oo, backend);
  std::vector<hipa::engine::OocoreStats> stats;
  SolveLog log;
  solve_for(log, seconds, true, kMinLayerSolves, [&](bool traced) {
    PageRankOptions o = pr;
    if (traced) o.telemetry = hipa::runtime::Telemetry::kOn;
    RunResult res = eng.run(o);
    if (traced) stats.push_back(eng.stats());
    return res;
  });
  report_engine_layers(r, log, eng.graph().num_edges(),
                       report_segment_io(r, stats));
  r.outputs(log.solves, log.mismatched,
            "out-of-core solves of the shard path (bitwise repeat)");
}

}  // namespace perfbench
