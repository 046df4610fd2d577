// Reachability analysis with HiPa-partitioned BFS (paper §6 extension):
// how much of a social network a single account can reach, and how fast
// the frontier grows per hop.
#include <algorithm>
#include <cstdio>

#include "algos/bfs.hpp"
#include "algos/pagerank.hpp"
#include "graph/datasets.hpp"

int main() {
  using namespace hipa;

  std::printf("building the journal (LiveJournal) stand-in...\n");
  const graph::Graph g = graph::make_dataset("journal", 32);
  std::printf("graph: %u users, %llu friendships (directed)\n\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));

  // Start from the most-followed user (rank-0 of a quick PageRank).
  const auto ranks = algo::pagerank_reference(g, 5);
  const vid_t source = algo::top_k(ranks, 1).front();
  std::printf("source: user %u (highest PageRank, %u followers)\n\n",
              source, g.in.degree(source));

  algo::MethodParams params;
  params.threads = 4;
  const auto r = algo::run_kernel_native<engine::BfsKernel>(
      algo::Method::kHipa, g, {.source = source}, params);

  std::uint64_t reached = 0;
  std::uint32_t levels = 0;
  for (std::uint32_t d : r.values) {
    if (d == algo::kUnreached) continue;
    ++reached;
    levels = std::max(levels, d);
  }
  std::printf("reached %llu of %u users (%.1f%%) in %u hops, %.3f s\n",
              static_cast<unsigned long long>(reached), g.num_vertices(),
              100.0 * static_cast<double>(reached) / g.num_vertices(),
              levels, r.report.seconds);

  // Per-hop histogram.
  std::vector<std::uint64_t> per_level(levels + 1, 0);
  for (std::uint32_t d : r.values) {
    if (d != algo::kUnreached) ++per_level[d];
  }
  std::printf("\nfrontier size per hop:\n");
  for (std::uint32_t l = 0; l <= levels; ++l) {
    std::printf("  hop %2u: %8llu users ", l,
                static_cast<unsigned long long>(per_level[l]));
    const int bars =
        static_cast<int>(60.0 * static_cast<double>(per_level[l]) /
                         static_cast<double>(reached));
    for (int i = 0; i < bars; ++i) std::printf("#");
    std::printf("\n");
  }
  std::printf("\n(the small-world effect: nearly everything reachable "
              "within a handful of hops)\n");
  return 0;
}
