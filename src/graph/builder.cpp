#include "graph/builder.hpp"

#include <algorithm>

namespace hipa::graph {

CsrGraph build_csr(vid_t num_vertices, std::span<const Edge> edges,
                   const BuildOptions& opts) {
  std::vector<Edge> work;
  work.reserve(edges.size() * (opts.symmetrize ? 2 : 1));
  for (const Edge& e : edges) {
    HIPA_CHECK(e.src < num_vertices && e.dst < num_vertices,
               "edge (" << e.src << ',' << e.dst << ") out of range");
    if (opts.remove_self_loops && e.src == e.dst) continue;
    work.push_back(e);
    if (opts.symmetrize && e.src != e.dst) {
      work.push_back(Edge{e.dst, e.src});
    }
  }

  // Counting sort by source: one pass to count, one to place.
  AlignedBuffer<eid_t> offsets(static_cast<std::size_t>(num_vertices) + 1);
  offsets.fill_zero();
  for (const Edge& e : work) offsets[e.src + 1]++;
  for (std::size_t v = 1; v <= num_vertices; ++v) offsets[v] += offsets[v - 1];

  AlignedBuffer<vid_t> targets(work.size());
  {
    std::vector<eid_t> cursor(offsets.data(), offsets.data() + num_vertices);
    for (const Edge& e : work) targets[cursor[e.src]++] = e.dst;
  }

  if (opts.sort_neighbors || opts.remove_duplicates) {
    for (vid_t v = 0; v < num_vertices; ++v) {
      std::sort(targets.data() + offsets[v], targets.data() + offsets[v + 1]);
    }
  }

  if (opts.remove_duplicates) {
    // Compact in place, rebuilding offsets.
    AlignedBuffer<eid_t> new_offsets(static_cast<std::size_t>(num_vertices) +
                                     1);
    eid_t write = 0;
    new_offsets[0] = 0;
    for (vid_t v = 0; v < num_vertices; ++v) {
      vid_t prev = kInvalidVid;
      for (eid_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        if (targets[i] != prev) {
          targets[write++] = targets[i];
          prev = targets[write - 1];
        }
      }
      new_offsets[v + 1] = write;
    }
    AlignedBuffer<vid_t> compact(static_cast<std::size_t>(write));
    std::copy(targets.data(), targets.data() + write, compact.data());
    return CsrGraph(std::move(new_offsets), std::move(compact));
  }

  return CsrGraph(std::move(offsets), std::move(targets));
}

Graph build_graph(vid_t num_vertices, std::span<const Edge> edges,
                  const BuildOptions& opts) {
  return Graph::from_out(build_csr(num_vertices, edges, opts));
}

Graph symmetrized(const Graph& g) {
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (vid_t u : g.out.neighbors(v)) edges.push_back(Edge{v, u});
  }
  BuildOptions opts;
  opts.symmetrize = true;
  opts.remove_duplicates = true;
  return build_graph(g.num_vertices(), edges, opts);
}

}  // namespace hipa::graph
