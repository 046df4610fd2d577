#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "shard/proto.hpp"

namespace perfbench {

using hipa::Edge;
using hipa::graph::Graph;

namespace {

template <class F>
void parallel(unsigned threads, F&& body) {
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(body, t);
  body(0u);
  for (std::thread& th : pool) th.join();
}

/// A uniformly random permutation of [0, n).
std::vector<vid_t> shuffled_ids(vid_t n, std::uint64_t seed) {
  std::vector<vid_t> ids(n);
  for (vid_t v = 0; v < n; ++v) ids[v] = v;
  hipa::Xoshiro256 rng(seed);
  for (vid_t v = n - 1; v > 0; --v) {
    std::swap(ids[v], ids[rng.bounded(std::uint64_t{v} + 1)]);
  }
  return ids;
}

}  // namespace

GeneratedGraph generate(const Recipe& recipe, unsigned scale,
                        std::uint64_t seed, bool keep_edges) {
  hipa::Timer timer;
  const auto n = static_cast<vid_t>(std::llround(recipe.vertices / scale));
  const auto m = static_cast<std::size_t>(std::llround(recipe.edges / scale));
  // Both endpoints are Zipf popularity ranks (graph::ZipfSampler), mapped
  // to ids through one seeded uniform permutation per side.
  // graph::generate_zipf maps ranks with (rank * multiplier) % |V| on a
  // wrapping 64-bit product, which can send several popular ranks to one
  // id; whether top hubs merge then depends on the seed, and pld's bins
  // varied by up to 35 % between seeds.
  const hipa::graph::ZipfSampler dst_rank(n, recipe.exponent);
  const hipa::graph::ZipfSampler src_rank(n, recipe.src_exponent);
  const std::vector<vid_t> dst_id = shuffled_ids(n, sub_seed(seed, 1));
  const std::vector<vid_t> src_id = shuffled_ids(n, sub_seed(seed, 2));
  constexpr unsigned kThreads = 4;
  GeneratedGraph out;
  out.edges.resize(m);
  parallel(kThreads, [&](unsigned t) {
    hipa::Xoshiro256 rng(sub_seed(seed, 10 + t));
    for (std::size_t i = m * t / kThreads; i < m * (t + 1) / kThreads; ++i) {
      const vid_t dst = dst_id[dst_rank.sample(rng)];
      out.edges[i] = Edge{src_id[src_rank.sample(rng)], dst};
    }
  });
  out.graph = hipa::graph::build_graph(n, out.edges);
  if (!keep_edges) {
    out.edges.clear();
    out.edges.shrink_to_fit();
  }
  out.seconds = timer.seconds();
  return out;
}

std::uint64_t graph_checksum(const Graph& g) {
  const auto offsets = g.out.offsets();
  const auto targets = g.out.targets();
  const std::uint64_t a =
      hipa::shard::fnv1a(offsets.data(), offsets.size_bytes());
  const std::uint64_t b =
      hipa::shard::fnv1a(targets.data(), targets.size_bytes());
  return a ^ (b * 0x100000001b3ULL);
}

void print_input(const char* label, const Recipe& recipe, unsigned scale,
                 const GeneratedGraph& g) {
  std::printf(
      "input: {\"name\": \"%s\", \"recipe\": \"%s\", \"scale\": %u, "
      "\"vertices\": %u, \"edges\": %llu, \"checksum\": \"%016llx\", "
      "\"generate_s\": %.3f}\n",
      label, recipe.name, scale, g.graph.num_vertices(),
      static_cast<unsigned long long>(g.graph.num_edges()),
      static_cast<unsigned long long>(graph_checksum(g.graph)), g.seconds);
  std::fflush(stdout);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t purpose) {
  hipa::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL + purpose);
  return sm.next();
}

}  // namespace perfbench
