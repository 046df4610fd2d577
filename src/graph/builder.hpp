// Edge-list → CSR builder with canonicalization options.
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace hipa::graph {

/// Canonicalization applied while building.
struct BuildOptions {
  bool sort_neighbors = true;      ///< sort each adjacency list ascending
  bool remove_duplicates = false;  ///< drop parallel edges (requires sort)
  bool remove_self_loops = false;  ///< drop v->v edges
  bool symmetrize = false;         ///< add reverse of every edge
};

/// Build an out-direction CSR over `num_vertices` vertices from an
/// arbitrary-order edge list. Edges referencing vertices >= num_vertices
/// are rejected (HIPA_CHECK).
[[nodiscard]] CsrGraph build_csr(vid_t num_vertices,
                                 std::span<const Edge> edges,
                                 const BuildOptions& opts = {});

/// Convenience: build the full out+in bundle.
[[nodiscard]] Graph build_graph(vid_t num_vertices,
                                std::span<const Edge> edges,
                                const BuildOptions& opts = {});

/// Every edge of `g` in both directions, parallel edges dropped: the
/// input on which label propagation (engine::WccKernel) computes weak
/// connectivity.
[[nodiscard]] Graph symmetrized(const Graph& g);

/// Braced-list conveniences (tests, examples).
[[nodiscard]] inline CsrGraph build_csr(vid_t num_vertices,
                                        std::initializer_list<Edge> edges,
                                        const BuildOptions& opts = {}) {
  return build_csr(num_vertices,
                   std::span<const Edge>(edges.begin(), edges.size()), opts);
}
[[nodiscard]] inline Graph build_graph(vid_t num_vertices,
                                       std::initializer_list<Edge> edges,
                                       const BuildOptions& opts = {}) {
  return build_graph(num_vertices,
                     std::span<const Edge>(edges.begin(), edges.size()),
                     opts);
}

}  // namespace hipa::graph
