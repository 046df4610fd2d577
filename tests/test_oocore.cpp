// Out-of-core subsystem: segmented HCSR v3 container, streaming edge
// list parsing, the hipa-convert sharder core, and the OocoreEngine's
// contracts: streaming-vs-in-core and streamed-vs-v-PR bitwise
// identity for every kernel, the resident budget, and fetch errors
// surfacing on the caller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "algos/pagerank.hpp"
#include "common/error.hpp"
#include "common/fnv1a.hpp"
#include "engines/backend.hpp"
#include "engines/oocore_engine.hpp"
#include "engines/vpr_engine.hpp"
#include "graph/builder.hpp"
#include "graph/convert.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace {

using hipa::Edge;
using hipa::Error;
using hipa::eid_t;
using hipa::rank_t;
using hipa::vid_t;
using hipa::engine::NativeBackend;
using hipa::engine::OocoreEngine;
using hipa::engine::OocoreOptions;
using hipa::engine::PageRankOptions;
using namespace hipa::graph;

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// Runs `fn`, expecting it to throw hipa::Error; returns the message.
template <typename Fn>
std::string error_message(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected hipa::Error, none thrown";
  return {};
}

std::vector<char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<char> bytes(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void write_file(const std::string& path, const void* data,
                std::size_t bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data, 1, bytes, f), bytes);
  std::fclose(f);
}

/// Skewed test graph sharded small enough to span several segments.
Graph zipf_graph() {
  ZipfParams zp;
  zp.num_vertices = 800;
  zp.num_edges = 6000;
  zp.seed = 11;
  const std::vector<Edge> edges = generate_zipf(zp);
  return build_graph(zp.num_vertices, edges);
}

constexpr std::size_t kSmallSegment = 4096;

}  // namespace

// ---------------------------------------------------------------------------
// Streaming edge-list parsing
// ---------------------------------------------------------------------------

TEST(OocoreStream, MatchesReadEdgeListAndBoundsChunks) {
  const std::string path = tmp_path("oocore_stream.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# comment\n0 1\n1 2\n% more\n2 0\n3 1\n0 3\n", f);
  std::fclose(f);

  const EdgeListFile whole = read_edge_list(path);
  std::vector<Edge> streamed;
  std::size_t max_chunk = 0;
  const EdgeListInfo info = stream_edge_list(
      path,
      [&](std::span<const Edge> chunk) {
        max_chunk = std::max(max_chunk, chunk.size());
        streamed.insert(streamed.end(), chunk.begin(), chunk.end());
      },
      /*chunk_edges=*/2);
  EXPECT_EQ(info.num_vertices, whole.num_vertices);
  EXPECT_EQ(info.num_edges, whole.edges.size());
  EXPECT_EQ(streamed, whole.edges);
  EXPECT_LE(max_chunk, 2u);  // never materializes more than one chunk
  std::remove(path.c_str());
}

TEST(OocoreStream, KeepsStrictParseErrors) {
  const std::string path = tmp_path("oocore_stream_bad.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("0 1\n2 -3\n", f);
  std::fclose(f);
  const std::string msg = error_message([&] {
    stream_edge_list(path, [](std::span<const Edge>) {});
  });
  EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("negative destination id"), std::string::npos) << msg;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Segmented container round trip + integrity
// ---------------------------------------------------------------------------

TEST(OocoreFormat, RoundTripReassemblesThePullCsr) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_rt.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);

  SegmentedCsr sc = SegmentedCsr::open(path);
  EXPECT_EQ(sc.num_vertices(), g.num_vertices());
  EXPECT_EQ(sc.num_edges(), g.num_edges());
  ASSERT_GT(sc.num_segments(), 3u) << "graph too small to segment";
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(sc.out_degrees()[v], g.out.degree(v));
  }

  // Reassemble the in-CSR segment by segment; every offset and source
  // must be bitwise what the in-memory transpose holds.
  std::vector<char> payload(sc.max_payload_bytes());
  const auto in_offsets = g.in.offsets();
  const auto in_targets = g.in.targets();
  for (unsigned s = 0; s < sc.num_segments(); ++s) {
    sc.read_segment(s, payload.data());
    const SegmentedCsr::SegmentView view = sc.view(s, payload.data());
    const eid_t base = in_offsets[view.range.begin];
    for (vid_t v = view.range.begin; v < view.range.end; ++v) {
      ASSERT_EQ(view.offsets[v - view.range.begin],
                in_offsets[v] - base);
    }
    ASSERT_EQ(view.offsets[view.range.size()],
              in_offsets[view.range.end] - base);
    ASSERT_EQ(view.sources.size(), in_offsets[view.range.end] - base);
    for (std::size_t i = 0; i < view.sources.size(); ++i) {
      ASSERT_EQ(view.sources[i], in_targets[base + i]);
    }
  }
  // Payload staging never exceeded one segment; fetch accounting saw
  // every byte exactly once.
  EXPECT_EQ(sc.bytes_fetched(), sc.total_payload_bytes());
  std::remove(path.c_str());
}

TEST(OocoreFormat, RejectsTruncatedFile) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_trunc.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);
  std::vector<char> bytes = slurp(path);
  {
    // Chop into the last segment's payload proper (the file ends with
    // page padding, which truncation must reach past to matter).
    SegmentedCsr sc = SegmentedCsr::open(path);
    const SegmentInfo& last = sc.segment(sc.num_segments() - 1);
    bytes.resize(last.file_offset + last.payload_bytes / 2);
  }
  write_file(path, bytes.data(), bytes.size());
  const std::string msg =
      error_message([&] { (void)SegmentedCsr::open(path); });
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(OocoreFormat, RejectsCorruptSegmentPayload) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_flip.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);
  {
    SegmentedCsr sc = SegmentedCsr::open(path);
    std::vector<char> bytes = slurp(path);
    // Flip one byte in the middle of the last segment's payload.
    const SegmentInfo& info = sc.segment(sc.num_segments() - 1);
    bytes[info.file_offset + info.payload_bytes / 2] ^= 0x01;
    write_file(path, bytes.data(), bytes.size());
  }
  SegmentedCsr sc = SegmentedCsr::open(path);  // manifest still intact
  std::vector<char> payload(sc.max_payload_bytes());
  const unsigned last = sc.num_segments() - 1;
  const std::string msg =
      error_message([&] { sc.read_segment(last, payload.data()); });
  EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
  // Undamaged segments still read fine.
  sc.read_segment(0, payload.data());
  std::remove(path.c_str());
}

TEST(OocoreFormat, RejectsCorruptManifest) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_manifest.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);
  std::vector<char> bytes = slurp(path);
  bytes[40] ^= 0x01;  // first manifest word (segment 0 v_begin)
  write_file(path, bytes.data(), bytes.size());
  const std::string msg =
      error_message([&] { (void)SegmentedCsr::open(path); });
  EXPECT_NE(msg.find("manifest checksum mismatch"), std::string::npos)
      << msg;
  std::remove(path.c_str());
}

/// Rewrite segment `s`'s payload of the v3 file at `path` with
/// `mutate`, then recompute the segment's checksum and the manifest
/// checksum: the file passes every checksum, so only read_segment's
/// structural checks stand between it and the engine.
void rewrite_payload_with_valid_checksums(
    const std::string& path, unsigned s,
    const std::function<void(std::vector<eid_t>&, std::vector<vid_t>&)>&
        mutate) {
  const SegmentedCsr sc = SegmentedCsr::open(path);
  const SegmentInfo& info = sc.segment(s);
  std::vector<char> bytes = slurp(path);
  char* payload = bytes.data() + info.file_offset;
  std::vector<eid_t> offsets(info.num_vertices() + 1);
  const std::size_t offsets_bytes = offsets.size() * sizeof(eid_t);
  std::vector<vid_t> sources((info.payload_bytes - offsets_bytes) /
                             sizeof(vid_t));
  std::memcpy(offsets.data(), payload, offsets_bytes);
  std::memcpy(sources.data(), payload + offsets_bytes,
              sources.size() * sizeof(vid_t));
  mutate(offsets, sources);
  std::memcpy(payload, offsets.data(), offsets_bytes);
  std::memcpy(payload + offsets_bytes, sources.data(),
              sources.size() * sizeof(vid_t));
  // The manifest follows the 40-byte header: five u64 words per
  // segment, checksum last, then the manifest checksum.
  const std::uint64_t sum = hipa::fnv1a(payload, info.payload_bytes);
  std::memcpy(bytes.data() + 40 + s * 40 + 32, &sum, sizeof sum);
  const std::size_t manifest_bytes = sc.num_segments() * 40;
  const std::uint64_t msum = hipa::fnv1a(bytes.data() + 40, manifest_bytes);
  std::memcpy(bytes.data() + 40 + manifest_bytes, &msum, sizeof msum);
  write_file(path, bytes.data(), bytes.size());
}

TEST(OocoreFormat, RejectsInvalidPayloadDespiteValidChecksums) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_valid_sums.hcsr3");
  using Offsets = std::vector<eid_t>;
  using Sources = std::vector<vid_t>;
  const struct {
    const char* name;
    std::function<void(Offsets&, Sources&)> mutate;
    const char* expect;
  } cases[] = {
      {"source out of range",
       [](Offsets&, Sources& src) { src.at(0) = 0x7ffffff0u; },
       "names source vertex 2147483632 outside [0, 800)"},
      {"offsets not from 0", [](Offsets& off, Sources&) { off[0] = 1; },
       "offsets do not run"},
      {"offsets decrease",
       [](Offsets& off, Sources&) {
         const auto up = std::adjacent_find(off.begin() + 1, off.end(),
                                            std::less<eid_t>());
         ASSERT_NE(up, off.end());
         std::iter_swap(up, up + 1);
       },
       "offsets do not run"},
      {"offsets stop short", [](Offsets& off, Sources&) { off.back() -= 1; },
       "offsets do not run"},
      {"offsets run past the sources",
       [](Offsets& off, Sources&) { off.back() += 1000; },
       "offsets do not run"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    save_segmented_csr(path, g, kSmallSegment);
    rewrite_payload_with_valid_checksums(path, 1, c.mutate);
    SegmentedCsr sc = SegmentedCsr::open(path);  // every checksum holds
    std::vector<char> payload(sc.max_payload_bytes());
    const std::string msg =
        error_message([&] { sc.read_segment(1, payload.data()); });
    EXPECT_NE(msg.find("segment 1 "), std::string::npos) << msg;
    EXPECT_NE(msg.find(c.expect), std::string::npos) << msg;
    sc.read_segment(0, payload.data());  // untouched segments still read
  }
  std::remove(path.c_str());
}

TEST(OocoreFormat, OpenExplainsLegacyAndForeignFiles) {
  const std::string path = tmp_path("oocore_skew.hcsr");
  // Hand-written single-blob HCSR v1/v2 headers: magic, V, E (and the
  // v2 header checksum) ahead of a payload open() never reaches.
  const auto legacy = [](std::uint64_t version) {
    std::vector<std::uint64_t> words = {0x48435352'00000000ULL | version, 4,
                                        5};
    if (version == 2) words.push_back(hipa::fnv1a(words.data(), 24));
    words.resize(words.size() + 8);
    const auto* p = reinterpret_cast<const char*>(words.data());
    return std::vector<char>(p, p + words.size() * sizeof(std::uint64_t));
  };
  const std::string text = "not a csr file at all, just text";
  const struct {
    const char* name;
    std::vector<char> bytes;
    std::vector<const char*> expect;
  } cases[] = {
      {"v1", legacy(1), {"plain HCSR v1", "hipa-convert"}},
      {"v2", legacy(2), {"plain HCSR v2", "hipa-convert"}},
      {"text", std::vector<char>(text.begin(), text.end()), {"foreign"}},
      {"foreign magic", std::vector<char>(64, '\x7f'), {"foreign"}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    write_file(path, c.bytes.data(), c.bytes.size());
    const std::string msg =
        error_message([&] { (void)SegmentedCsr::open(path); });
    for (const char* want : c.expect) {
      EXPECT_NE(msg.find(want), std::string::npos) << msg;
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// hipa-convert core
// ---------------------------------------------------------------------------

TEST(OocoreConvert, ByteIdenticalToInMemorySharding) {
  ZipfParams zp;
  zp.num_vertices = 500;
  zp.num_edges = 4000;
  zp.seed = 23;
  std::vector<Edge> edges = generate_zipf(zp);
  vid_t n = 0;
  for (const Edge& e : edges) n = std::max(n, std::max(e.src, e.dst) + 1);

  const std::string el = tmp_path("oocore_conv.txt");
  const std::string from_list = tmp_path("oocore_conv_a.hcsr3");
  const std::string from_mem = tmp_path("oocore_conv_b.hcsr3");
  write_edge_list(el, n, edges);

  ConvertOptions opt;
  opt.target_segment_bytes = kSmallSegment;
  opt.chunk_edges = 512;  // force many streaming chunks
  const ConvertStats stats =
      convert_edge_list_to_segmented(el, from_list, opt);
  EXPECT_EQ(stats.num_vertices, n);
  EXPECT_EQ(stats.num_edges, edges.size());
  EXPECT_GT(stats.num_segments, 1u);

  // The bounded-memory external build must produce bitwise the file
  // the in-memory path writes (same plans, same transpose order).
  save_segmented_csr(from_mem, build_graph(n, edges), kSmallSegment);
  EXPECT_EQ(slurp(from_list), slurp(from_mem));
  // Spill files were cleaned up.
  for (unsigned s = 0; s < stats.num_segments; ++s) {
    const std::string spill =
        from_list + ".seg" + std::to_string(s) + ".tmp";
    std::FILE* f = std::fopen(spill.c_str(), "rb");
    EXPECT_EQ(f, nullptr) << "leftover spill file " << spill;
    if (f != nullptr) std::fclose(f);
  }
  std::remove(el.c_str());
  std::remove(from_list.c_str());
  std::remove(from_mem.c_str());
}

// ---------------------------------------------------------------------------
// Out-of-core engine: bitwise identity, budget, telemetry
// ---------------------------------------------------------------------------

namespace {

std::vector<rank_t> run_oocore(const std::string& path, unsigned threads,
                               bool streaming, bool prefetch,
                               unsigned iterations = 15) {
  NativeBackend backend;
  OocoreOptions opt;
  opt.num_threads = threads;
  opt.streaming = streaming;
  opt.prefetch = prefetch;
  OocoreEngine eng(path, opt, backend);
  PageRankOptions pr;
  pr.iterations = iterations;
  return eng.run(pr).ranks;
}

}  // namespace

TEST(OocoreEngineTest, BitwiseIdenticalAcrossModesAndGraphs) {
  struct Case {
    const char* name;
    Graph g;
  };
  RmatParams rp;
  rp.scale = 7;
  rp.edge_factor = 8;
  std::vector<Case> cases;
  {
    const std::vector<Edge> e = generate_rmat(rp);
    cases.push_back({"rmat", build_graph(vid_t{1} << rp.scale, e)});
  }
  {
    const std::vector<Edge> e = generate_erdos_renyi(600, 5000, 3);
    cases.push_back({"er", build_graph(600, e)});
  }
  cases.push_back({"zipf", zipf_graph()});

  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = tmp_path("oocore_bitwise.hcsr3");
    save_segmented_csr(path, c.g, kSmallSegment);

    // In-core run of the same kernel is the reference point.
    const std::vector<rank_t> incore =
        run_oocore(path, 3, /*streaming=*/false, /*prefetch=*/false);
    // Streaming must match bitwise: synchronous and prefetched, and
    // independently of the thread count.
    EXPECT_EQ(incore, run_oocore(path, 3, true, false));
    EXPECT_EQ(incore, run_oocore(path, 3, true, true));
    EXPECT_EQ(incore, run_oocore(path, 1, true, true));
    EXPECT_EQ(incore, run_oocore(path, 5, true, true));

    // And the whole family agrees with the serial oracle.
    const std::vector<rank_t> oracle =
        hipa::algo::pagerank_reference(c.g, 15);
    EXPECT_LT(hipa::algo::l1_distance(incore, oracle), 1e-3);
    std::remove(path.c_str());
  }
}

TEST(OocoreEngineTest, RespectsResidentBudget) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_budget.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);

  NativeBackend backend;
  OocoreOptions opt;
  opt.num_threads = 3;
  {
    SegmentedCsr probe = SegmentedCsr::open(path);
    // A budget that holds the two staging slots but NOT the whole
    // graph: the defining out-of-core condition.
    opt.resident_budget_bytes = 2 * probe.max_payload_bytes() + 1024;
    ASSERT_LT(opt.resident_budget_bytes, probe.total_payload_bytes())
        << "test graph must exceed its own budget";
  }
  OocoreEngine eng(path, opt, backend);
  PageRankOptions pr;
  pr.iterations = 10;
  const auto result = eng.run(pr);
  const auto& st = eng.stats();

  EXPECT_GT(st.segments, 3u);
  EXPECT_LE(st.peak_resident_bytes, st.resident_budget_bytes);
  EXPECT_LT(st.peak_resident_bytes, eng.graph().total_payload_bytes());
  // Every iteration re-streams the full topology through the slots.
  EXPECT_EQ(st.segment_fetches,
            std::uint64_t{pr.iterations} * st.segments);
  EXPECT_EQ(st.bytes_fetched,
            std::uint64_t{pr.iterations} * eng.graph().total_payload_bytes());
  EXPECT_GE(st.overlap_ratio(), 0.0);
  EXPECT_LE(st.overlap_ratio(), 1.0);
  EXPECT_GT(st.fetch_seconds, 0.0);
  EXPECT_EQ(result.report.iterations, pr.iterations);
  std::remove(path.c_str());
}

TEST(OocoreEngineTest, RejectsBudgetBelowTwoSlots) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_tiny_budget.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);
  NativeBackend backend;
  OocoreOptions opt;
  opt.num_threads = 2;
  opt.resident_budget_bytes = 1;  // cannot hold even one slot
  const std::string msg = error_message(
      [&] { OocoreEngine eng(path, opt, backend); });
  EXPECT_NE(msg.find("staging slots"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(OocoreEngineTest, ChargesIoWaitTelemetry) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_tel.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);

  NativeBackend backend;
  OocoreOptions opt;
  opt.num_threads = 2;
  OocoreEngine eng(path, opt, backend);
  PageRankOptions pr;
  pr.iterations = 8;
  pr.telemetry = hipa::runtime::Telemetry::kOn;
  const auto telemetered = eng.run(pr);
  ASSERT_TRUE(telemetered.report.telemetry.enabled);
  const auto& io_wait = telemetered.report.telemetry[
      hipa::runtime::Phase::kIoWait];
  // One wait per segment per iteration, all charged to the io_wait row.
  EXPECT_EQ(io_wait.invocations,
            std::uint64_t{pr.iterations} * eng.graph().num_segments());
  EXPECT_GE(io_wait.wall_sum_seconds, 0.0);
  EXPECT_EQ(io_wait.bytes_consumed,
            std::uint64_t{pr.iterations} *
                eng.graph().total_payload_bytes());
  // Compute phases are present too.
  EXPECT_GT(telemetered.report.telemetry[
      hipa::runtime::Phase::kGather].invocations, 0u);

  // Telemetry must not perturb the ranks.
  PageRankOptions plain;
  plain.iterations = 8;
  NativeBackend backend2;
  OocoreEngine eng2(path, opt, backend2);
  EXPECT_EQ(eng2.run(plain).ranks, telemetered.ranks);
  std::remove(path.c_str());
}

TEST(OocoreEngineTest, ToleranceStopsIdenticallyAcrossModes) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_tol.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);

  auto run_tol = [&](bool streaming, bool prefetch) {
    NativeBackend backend;
    OocoreOptions opt;
    opt.num_threads = 3;
    opt.streaming = streaming;
    opt.prefetch = prefetch;
    OocoreEngine eng(path, opt, backend);
    PageRankOptions pr;
    pr.iterations = 50;
    pr.tolerance = 1e-5;
    return eng.run(pr);
  };
  const auto incore = run_tol(false, false);
  const auto sync = run_tol(true, false);
  const auto async = run_tol(true, true);
  EXPECT_LT(incore.report.iterations, 50u) << "tolerance never reached";
  EXPECT_EQ(incore.report.iterations, sync.report.iterations);
  EXPECT_EQ(incore.report.iterations, async.report.iterations);
  EXPECT_EQ(incore.report.last_delta, sync.report.last_delta);
  EXPECT_EQ(incore.report.last_delta, async.report.last_delta);
  EXPECT_EQ(incore.ranks, sync.ranks);
  EXPECT_EQ(incore.ranks, async.ranks);
  std::remove(path.c_str());
}

TEST(OocoreEngineTest, CorruptSegmentMidRunThrowsOnCaller) {
  RmatParams rp;
  rp.scale = 10;
  rp.edge_factor = 8;
  const Graph g = build_graph(vid_t{1} << rp.scale, generate_rmat(rp));
  const std::string good = tmp_path("oocore_midrun_good.hcsr3");
  const std::string bad = tmp_path("oocore_midrun_bad.hcsr3");
  save_segmented_csr(good, g, kSmallSegment);
  {
    // Flip one byte in the last segment: the first iteration streams
    // every earlier segment before the fetch fails.
    const SegmentedCsr sc = SegmentedCsr::open(good);
    ASSERT_GT(sc.num_segments(), 2u);
    const SegmentInfo& info = sc.segment(sc.num_segments() - 1);
    std::vector<char> bytes = slurp(good);
    bytes[info.file_offset + info.payload_bytes / 2] ^= 0x01;
    write_file(bad, bytes.data(), bytes.size());
  }

  NativeBackend backend;
  for (const bool prefetch : {true, false}) {
    SCOPED_TRACE(prefetch ? "prefetch" : "synchronous");
    OocoreOptions opt;
    opt.num_threads = 3;
    opt.prefetch = prefetch;
    OocoreEngine eng(bad, opt, backend);
    const std::string msg =
        error_message([&] { (void)eng.run(PageRankOptions(5)); });
    EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
  }
  // The failed runs ended their team: a fresh engine on the intact
  // file runs on the same backend.
  OocoreOptions opt;
  opt.num_threads = 3;
  OocoreEngine eng(good, opt, backend);
  EXPECT_EQ(eng.run(PageRankOptions(5)).ranks,
            run_oocore(good, 3, /*streaming=*/false, /*prefetch=*/false, 5));
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST(OocoreEngineTest, EveryKernelStreamsLikeVpr) {
  using namespace hipa::engine;
  struct Mode {
    bool streaming;
    bool prefetch;
    unsigned threads;
  };
  const Mode modes[] = {{true, true, 1},  {true, true, 3}, {true, false, 1},
                        {true, false, 3}, {false, false, 3}};
  const std::string path = tmp_path("oocore_kernels.hcsr3");

  // Streamed values and iteration counts must equal v-PR's exactly.
  auto check = [&]<class K>(const Graph& g, const typename K::Options& ko,
                            const char* kernel) {
    SCOPED_TRACE(kernel);
    save_segmented_csr(path, g, kSmallSegment);
    ASSERT_GT(SegmentedCsr::open(path).num_segments(), 2u);
    NativeBackend vpr_backend;
    VprEngine<NativeBackend> vpr(g, VprOptions{3}, vpr_backend);
    const KernelResult<K> want = vpr.template run<K>(ko);
    for (const Mode& m : modes) {
      SCOPED_TRACE(testing::Message()
                   << "streaming=" << m.streaming << " prefetch="
                   << m.prefetch << " threads=" << m.threads);
      NativeBackend backend;
      OocoreOptions opt;
      opt.num_threads = m.threads;
      opt.streaming = m.streaming;
      opt.prefetch = m.prefetch;
      OocoreEngine eng(path, opt, backend);
      const KernelResult<K> got = eng.template run<K>(ko);
      EXPECT_EQ(got.values, want.values);
      EXPECT_EQ(got.report.iterations, want.report.iterations);
    }
  };

  RmatParams rp;
  rp.scale = 9;
  rp.edge_factor = 8;
  const Graph rmat = build_graph(vid_t{1} << rp.scale, generate_rmat(rp));
  const Graph zipf = zipf_graph();
  for (const Graph* g : {&rmat, &zipf}) {
    SCOPED_TRACE(g == &rmat ? "rmat" : "zipf");
    vid_t hub = 0;
    for (vid_t v = 1; v < g->num_vertices(); ++v) {
      if (g->out.degree(v) > g->out.degree(hub)) hub = v;
    }
    check.operator()<PageRankKernel>(*g, {0.85f}, "pagerank");
    check.operator()<PprKernel>(*g, {0.85f, {hub, 1, 7}}, "ppr");
    check.operator()<BfsKernel>(*g, {hub}, "bfs");
    check.operator()<WccKernel>(symmetrized(*g), {}, "wcc");
    check.operator()<SsspKernel>(*g, {hub}, "sssp");
  }
  std::remove(path.c_str());
}
