// Deterministic performance bands: the numbers the paper's claims are
// reproduced through (simulated cycles and DRAM bytes per edge, HiPa
// §4 / Table 3 / Fig. 5; destination-encoding footprints; per-kernel
// message volume; the out-of-core segment plan and its traffic), pinned
// in one declarative table.
//
// Every row is a pure function of the generated graph, the partition
// plan and the simulated machine, so each is a hard gate on any host.
// Wall-clock numbers are not banded here; they live in perfbench/.
//
// Configuration (one place): the journal stand-in at scale 1/64, two
// iterations, HiPa and p-PR under the automatic and the forced-wide
// destination encoding. Native engines use the host's CPUs on one node
// (only their bins and message counts are read); simulated runs use
// skylake_2s().scaled(64) at each method's default thread count and
// partition size.
//
// A centre moves only when a change means to move it: update the row
// and say why in the commit. Simulated cycles carry ~1e-5 heap-address
// set-conflict noise, far inside every band.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>

#include "algos/pagerank.hpp"
#include "engines/oocore_engine.hpp"
#include "engines/pcpm_engine.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "runtime/affinity.hpp"
#include "serve/snapshot.hpp"
#include "shard/shard_server.hpp"
#include "sim/machine.hpp"

namespace hipa {
namespace {

/// One banded metric: passes when |measured - expected| /
/// max(|expected|, abs_floor) <= rel_tol. rel_tol = 0 is exact; the
/// floor keeps a near-zero centre from turning rounding into drift.
struct Band {
  std::string_view metric;
  double expected;
  double rel_tol;
  double abs_floor;
};

constexpr double kExact = 0.0;
constexpr double kNoFloor = 1e-12;

// clang-format off
constexpr Band kBands[] = {
    // Graph shapes (generated from name + scale, or seed).
    {"journal.vertices",                    75000,      kExact, kNoFloor},
    {"journal.edges",                       1070313,    kExact, kNoFloor},
    {"zipf.vertices",                       20000,      kExact, kNoFloor},
    {"zipf.edges",                          140000,     kExact, kNoFloor},

    // Destination encoding: bins footprint, dst-list bytes per edge,
    // simulated DRAM bytes per edge per iteration and cycles.
    {"HiPa.auto.compact",                   1,          kExact, kNoFloor},
    {"HiPa.auto.bins_footprint_bytes",      5195070,    0.10,   kNoFloor},
    {"HiPa.auto.dst_bytes_per_edge",        2,          0.10,   kNoFloor},
    {"HiPa.auto.sim_bytes_per_edge",        12.6629425, 0.15,   0.01},
    {"HiPa.auto.sim_cycles",                6368377,    0.15,   kNoFloor},
    {"HiPa.wide.compact",                   0,          kExact, kNoFloor},
    {"HiPa.wide.bins_footprint_bytes",      7335696,    0.10,   kNoFloor},
    {"HiPa.wide.dst_bytes_per_edge",        4,          0.10,   kNoFloor},
    {"HiPa.wide.sim_bytes_per_edge",        14.6641216, 0.15,   0.01},
    {"HiPa.wide.sim_cycles",                6436091,    0.15,   kNoFloor},
    {"HiPa.bins_compression_ratio",         1.4120495,  0.10,   kNoFloor},
    {"p-PR.auto.compact",                   1,          kExact, kNoFloor},
    {"p-PR.auto.bins_footprint_bytes",      5195070,    0.10,   kNoFloor},
    {"p-PR.auto.dst_bytes_per_edge",        2,          0.10,   kNoFloor},
    {"p-PR.auto.sim_bytes_per_edge",        12.7316776, 0.15,   0.01},
    {"p-PR.auto.sim_cycles",                8131159,    0.15,   kNoFloor},
    {"p-PR.wide.compact",                   0,          kExact, kNoFloor},
    {"p-PR.wide.bins_footprint_bytes",      7335696,    0.10,   kNoFloor},
    {"p-PR.wide.dst_bytes_per_edge",        4,          0.10,   kNoFloor},
    {"p-PR.wide.sim_bytes_per_edge",        14.7182366, 0.15,   0.01},
    {"p-PR.wide.sim_cycles",                8342463,    0.15,   kNoFloor},
    {"p-PR.bins_compression_ratio",         1.4120495,  0.10,   kNoFloor},

    // Kernels through run<K>() on one native HiPa engine: rounds,
    // scatter messages per edge per round, and the share of the
    // full-frontier volume an active-partition skip saved.
    {"kernels.full_round_messages",         692273,     kExact, kNoFloor},
    {"kernels.pagerank_sim_cycles_facade",  6375708,    0.02,   kNoFloor},
    {"kernels.pagerank_sim_cycles_kernel",  6375706,    0.02,   kNoFloor},
    {"pagerank.iterations",                 2,          kExact, kNoFloor},
    {"pagerank.messages_per_edge",          0.64679491, 0.02,   0.001},
    {"pagerank.active_skip_ratio",          0,          0.02,   0.01},
    {"ppr.iterations",                      2,          kExact, kNoFloor},
    {"ppr.messages_per_edge",               0.64679491, 0.02,   0.001},
    {"ppr.active_skip_ratio",               0,          0.02,   0.01},
    {"bfs.iterations",                      7,          kExact, kNoFloor},
    {"bfs.messages_per_edge",               0.505257941, 0.02,  0.001},
    {"bfs.active_skip_ratio",               0.218828204, 0.02,  0.01},
    {"wcc.iterations",                      7,          kExact, kNoFloor},
    {"wcc.messages_per_edge",               0.5963628,  0.02,   0.001},
    {"wcc.active_skip_ratio",               0.0779723359, 0.02, 0.01},
    {"sssp.iterations",                     8,          kExact, kNoFloor},
    {"sssp.messages_per_edge",              0.469770291, 0.02,  0.001},
    {"sssp.active_skip_ratio",              0.273695132, 0.02,  0.01},

    // Out-of-core: segment plan, budget arithmetic, streamed bytes.
    {"oocore.segments",                     9,          kExact, kNoFloor},
    {"oocore.iterations",                   2,          kExact, kNoFloor},
    {"oocore.target_segment_bytes",         610157,     kExact, kNoFloor},
    {"oocore.budget_bytes",                 1224400,    kExact, kNoFloor},
    {"oocore.peak_resident_bytes",          1220304,    kExact, kNoFloor},
    {"oocore.bytes_fetched",                9762648,    kExact, kNoFloor},

    // Serving defaults: snapshot slots, shard top-k depth.
    {"serve.slots",                         3,          kExact, kNoFloor},
    {"shard.topk_k",                        64,         kExact, kNoFloor},
};
// clang-format on

constexpr unsigned kScale = 64;
constexpr unsigned kIters = 2;
const char* const kKernelNames[] = {"pagerank", "ppr", "bfs", "wcc", "sssp"};

/// The one compare helper: relative drift of `measured` from the row's
/// centre, floored as the row says.
double drift(const Band& b, double measured) {
  return std::fabs(measured - b.expected) /
         std::max(std::fabs(b.expected), b.abs_floor);
}

using Measurements = std::map<std::string, double, std::less<>>;

sim::SimMachine make_machine() {
  return sim::SimMachine(sim::Topology::skylake_2s().scaled(kScale), {}, 1);
}

engine::PcpmOptions pcpm_options(algo::Method m, unsigned threads,
                                 unsigned nodes, pcp::DstEncoding enc) {
  const std::uint64_t part = algo::default_partition_bytes(m, kScale);
  engine::PcpmOptions o = m == algo::Method::kHipa
                              ? engine::PcpmOptions::hipa(threads, nodes, part)
                              : engine::PcpmOptions::ppr(threads, nodes, part);
  o.dst_encoding = enc;
  return o;
}

unsigned host_threads() { return std::max(1u, runtime::available_cpus()); }

void measure_encodings(const graph::Graph& g, Measurements& out) {
  const double edges = static_cast<double>(g.num_edges());
  engine::PageRankOptions pr(kIters);
  for (const algo::Method m : {algo::Method::kHipa, algo::Method::kPpr}) {
    const std::string method = algo::method_name(m);
    double footprint[2] = {};
    for (const pcp::DstEncoding enc :
         {pcp::DstEncoding::kAuto, pcp::DstEncoding::kWide}) {
      const bool wide = enc == pcp::DstEncoding::kWide;
      const std::string key = method + (wide ? ".wide." : ".auto.");
      {
        engine::NativeBackend backend;
        engine::PcpmEngine<engine::NativeBackend> eng(
            g, pcpm_options(m, host_threads(), 1, enc), backend);
        const pcp::PcpmBins& bins = eng.bins();
        footprint[wide] = static_cast<double>(bins.footprint_bytes());
        out[key + "compact"] = bins.compact() ? 1.0 : 0.0;
        out[key + "bins_footprint_bytes"] = footprint[wide];
        out[key + "dst_bytes_per_edge"] =
            static_cast<double>(bins.total_dests() * bins.dst_entry_bytes()) /
            edges;
      }
      sim::SimMachine machine = make_machine();
      engine::SimBackend backend(machine);
      engine::PcpmEngine<engine::SimBackend> eng(
          g,
          pcpm_options(m, algo::default_threads(m, machine.topology()),
                       machine.topology().num_nodes, enc),
          backend);
      const engine::RunReport rep = eng.run(pr).report;
      out[key + "sim_bytes_per_edge"] =
          rep.stats.mape(g.num_edges()) / static_cast<double>(rep.iterations);
      out[key + "sim_cycles"] = static_cast<double>(rep.stats.total_cycles);
    }
    out[method + ".bins_compression_ratio"] = footprint[1] / footprint[0];
  }
}

void measure_kernels(const graph::Graph& g, Measurements& out) {
  vid_t source = 0;
  for (vid_t v = 1; v < g.num_vertices(); ++v) {
    if (g.out.degree(v) > g.out.degree(source)) source = v;
  }
  engine::NativeBackend backend;
  engine::PcpmEngine<engine::NativeBackend> eng(
      g,
      pcpm_options(algo::Method::kHipa, host_threads(), 1,
                   pcp::DstEncoding::kAuto),
      backend);
  const double full_round = static_cast<double>(eng.bins().total_messages());
  out["kernels.full_round_messages"] = full_round;

  const auto run_one = [&]<class K>(const char* name,
                                    const typename K::Options& ko) {
    engine::RunOptions ro;
    ro.iterations = kIters;
    ro.telemetry = runtime::Telemetry::kOn;
    const auto kr = eng.template run<K>(ko, ro);
    const double rounds = std::max(1u, kr.report.iterations);
    const double produced = static_cast<double>(
        kr.report.telemetry[runtime::Phase::kScatter].messages_produced);
    const std::string key = name;
    out[key + ".frontier"] = K::kUsesFrontier ? 1.0 : 0.0;
    out[key + ".iterations"] = kr.report.iterations;
    out[key + ".messages_per_edge"] =
        produced / (static_cast<double>(g.num_edges()) * rounds);
    out[key + ".active_skip_ratio"] = 1.0 - produced / (full_round * rounds);
  };
  engine::PprOptions ppr;
  ppr.seeds = {source};
  engine::BfsOptions bfs;
  bfs.source = source;
  engine::SsspOptions sssp;
  sssp.source = source;
  run_one.template operator()<engine::PageRankKernel>("pagerank", {});
  run_one.template operator()<engine::PprKernel>("ppr", ppr);
  run_one.template operator()<engine::BfsKernel>("bfs", bfs);
  // Raw directed graph (no symmetrization): an engine measurement, not
  // a weak-connectivity answer.
  run_one.template operator()<engine::WccKernel>("wcc", {});
  run_one.template operator()<engine::SsspKernel>("sssp", sssp);

  // The PageRank facade and run<PageRankKernel>, both simulated.
  engine::PageRankOptions pr(kIters);
  pr.telemetry = runtime::Telemetry::kOn;
  for (const bool facade : {true, false}) {
    sim::SimMachine machine = make_machine();
    engine::SimBackend sb(machine);
    engine::PcpmEngine<engine::SimBackend> se(
        g,
        pcpm_options(algo::Method::kHipa,
                     algo::default_threads(algo::Method::kHipa,
                                           machine.topology()),
                     machine.topology().num_nodes, pcp::DstEncoding::kAuto),
        sb);
    engine::PrOptions ko;
    ko.damping = pr.damping;
    const std::uint64_t cycles =
        facade ? se.run(pr).report.stats.total_cycles
               : se.run<engine::PageRankKernel>(ko, pr)
                     .report.stats.total_cycles;
    out[facade ? "kernels.pagerank_sim_cycles_facade"
               : "kernels.pagerank_sim_cycles_kernel"] =
        static_cast<double>(cycles);
  }
}

void measure_oocore(const graph::Graph& g, Measurements& out) {
  // About eight segments: streaming is exercised while the two staging
  // slots stay a small fraction of the topology.
  const std::size_t target = std::max<std::size_t>(
      4096, graph::segment_payload_bytes(g.num_vertices(), g.num_edges()) / 8);
  const std::string path = ::testing::TempDir() + "/bands_journal.hcsr3";
  graph::save_segmented_csr(path, g, target);
  std::size_t budget = 0;
  {
    const graph::SegmentedCsr probe = graph::SegmentedCsr::open(path);
    budget = 2 * probe.max_payload_bytes() + kPageSize;
  }
  engine::NativeBackend backend;
  engine::OocoreOptions opt;
  opt.num_threads = std::min(4u, host_threads());
  opt.streaming = true;
  opt.prefetch = true;
  opt.resident_budget_bytes = budget;
  engine::OocoreEngine eng(path, opt, backend);
  const engine::RunResult r = eng.run(engine::PageRankOptions(kIters));
  const engine::OocoreStats& st = eng.stats();
  out["oocore.segments"] = st.segments;
  out["oocore.iterations"] = r.report.iterations;
  out["oocore.target_segment_bytes"] = static_cast<double>(target);
  out["oocore.budget_bytes"] = static_cast<double>(budget);
  out["oocore.peak_resident_bytes"] =
      static_cast<double>(st.peak_resident_bytes);
  out["oocore.bytes_fetched"] = static_cast<double>(st.bytes_fetched);
  std::remove(path.c_str());
}

Measurements measure() {
  Measurements out;
  const graph::Graph journal = graph::make_dataset("journal", kScale);
  out["journal.vertices"] = journal.num_vertices();
  out["journal.edges"] = static_cast<double>(journal.num_edges());
  measure_encodings(journal, out);
  measure_kernels(journal, out);
  measure_oocore(journal, out);
  out["serve.slots"] =
      serve::SnapshotStore(journal.num_vertices()).num_slots();

  graph::ZipfParams zp;
  zp.num_vertices = 20000;
  zp.num_edges = 140000;
  zp.seed = 42;
  const graph::Graph zipf =
      graph::build_graph(zp.num_vertices, graph::generate_zipf(zp));
  out["zipf.vertices"] = zipf.num_vertices();
  out["zipf.edges"] = static_cast<double>(zipf.num_edges());
  out["shard.topk_k"] = shard::ShardServerOptions{}.topk_k;
  return out;
}

TEST(Bands, EveryRowWithinTolerance) {
  const Measurements m = measure();
  for (const Band& b : kBands) {
    const auto it = m.find(b.metric);
    ASSERT_NE(it, m.end()) << b.metric << " was not measured";
    EXPECT_LE(drift(b, it->second), b.rel_tol)
        << b.metric << " drifted " << 100.0 * drift(b, it->second)
        << "% (expected " << b.expected << ", measured " << it->second
        << ", band ±" << 100.0 * b.rel_tol << "%)";
  }
}

// Rules that hold whatever the centres: a single segment never
// exercises streaming, and non-frontier kernels scatter every partition
// every round.
TEST(Bands, SemanticRulesHold) {
  Measurements m;
  const graph::Graph journal = graph::make_dataset("journal", kScale);
  measure_kernels(journal, m);
  measure_oocore(journal, m);
  EXPECT_GE(m.at("oocore.segments"), 2.0);
  for (const char* k : kKernelNames) {
    const std::string key = k;
    EXPECT_GE(m.at(key + ".iterations"), 1.0) << k;
    const double skip = m.at(key + ".active_skip_ratio");
    EXPECT_GE(skip, 0.0) << k;
    EXPECT_LE(skip, 1.0) << k;
    if (m.at(key + ".frontier") == 0.0) {
      EXPECT_EQ(skip, 0.0) << k;
    }
  }
}

}  // namespace
}  // namespace hipa
