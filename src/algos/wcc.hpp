// Serial weakly-connected components, the correctness oracle for the
// engines' WccKernel (engines/kernels.hpp). The kernel propagates
// labels along in-edges, so it computes *weak* connectivity only on a
// symmetric graph: run it on graph::symmetrized(g).
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace hipa::algo {

/// Serial union-find reference: labels[v] = smallest vertex id in v's
/// weakly-connected component.
[[nodiscard]] std::vector<vid_t> wcc_reference(const graph::Graph& g);

/// Number of distinct components in a label vector.
[[nodiscard]] std::size_t count_components(std::span<const vid_t> labels);

}  // namespace hipa::algo
