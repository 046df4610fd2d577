// Component structure analysis with HiPa-partitioned WCC: how connected
// is a crawled web graph, and what does its component size distribution
// look like?
#include <cstdio>
#include <map>

#include "algos/pagerank.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"

int main() {
  using namespace hipa;

  std::printf("building the pld (web hyperlink) stand-in...\n");
  const graph::Graph g = graph::make_dataset("pld", 512);
  std::printf("graph: %u domains, %llu hyperlinks\n\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));

  // Label propagation follows in-edges, so weak connectivity needs
  // every edge in both directions.
  algo::MethodParams params;
  params.threads = 4;
  params.partition_bytes = 64 * 1024;
  const auto r = algo::run_kernel_native<engine::WccKernel>(
      algo::Method::kHipa, graph::symmetrized(g), {}, params);
  const std::vector<vid_t>& labels = r.values;
  const unsigned rounds = r.report.iterations;

  // Component size census.
  std::map<vid_t, std::uint64_t> sizes;
  for (vid_t label : labels) ++sizes[label];
  std::uint64_t largest = 0;
  for (const auto& [label, size] : sizes) {
    largest = std::max(largest, size);
  }
  std::map<std::uint64_t, std::uint64_t> histogram;  // size -> count
  for (const auto& [label, size] : sizes) ++histogram[size];

  std::printf("label propagation converged in %u rounds\n", rounds);
  std::printf("%zu weakly-connected components; giant component holds "
              "%.1f%% of all domains\n\n",
              sizes.size(),
              100.0 * static_cast<double>(largest) / g.num_vertices());
  std::printf("component size distribution (size: how many components):\n");
  int shown = 0;
  for (const auto& [size, count] : histogram) {
    if (shown++ >= 8 && size != largest) continue;
    std::printf("  %8llu vertices: %llu component%s\n",
                static_cast<unsigned long long>(size),
                static_cast<unsigned long long>(count),
                count == 1 ? "" : "s");
  }
  std::printf("\n(the classic bow-tie: one giant component plus a dust "
              "of tiny ones)\n");
  return 0;
}
