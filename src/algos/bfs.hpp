// Serial breadth-first search, the correctness oracle for the engines'
// BfsKernel (engines/kernels.hpp; run it through an engine's
// run<engine::BfsKernel>() or algo::run_kernel_{native,sim}).
#pragma once

#include <vector>

#include "engines/kernels.hpp"
#include "graph/csr.hpp"

namespace hipa::algo {

inline constexpr std::uint32_t kUnreached = ~0u;
static_assert(kUnreached == engine::BfsKernel::kUnreached,
              "algo and kernel sentinel must agree");

struct BfsResult {
  std::vector<std::uint32_t> distance;  ///< kUnreached if not reachable
  std::uint32_t levels = 0;             ///< eccentricity of the source
  std::uint64_t reached = 0;
};

/// Serial reference BFS.
[[nodiscard]] BfsResult bfs_reference(const graph::Graph& g, vid_t source);

}  // namespace hipa::algo
